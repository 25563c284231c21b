"""Evaluation metrics (Chamfer, F-score@tau) and their report format.

Each score answers two KD-tree queries, the prediction's points in the ground truth's
tree and the reverse, with `losses.query_pair`: on two or more CPUs a worker thread of
`core.worker_pool`, kept off this thread's CPU and joined before the call returns,
answers the prediction's query while this thread builds the prediction's tree and
answers the other, and then takes what this thread has left of it, so the values are
those of one thread. A `--jobs` worker process, or a run on one CPU, starts no thread.
"""
from __future__ import annotations

import contextlib
import math

from .core import PointCloud, worker_pool
from .errors import EmptyCloud, InvalidConfig
from .losses import cKDTree, chamfer, query_pair

DEFAULT_TAU = 0.5  # meters


def eval_chamfer(pred: PointCloud, gt: PointCloud) -> float:
    """Symmetric squared Chamfer distance, no gradient."""
    with (executor := worker_pool()) or contextlib.nullcontext():
        value, _ = chamfer(pred, gt, executor)
    return value


def check_tau(tau: float) -> None:
    """Raise InvalidConfig unless the match radius tau is positive and finite."""
    if not (0.0 < tau < math.inf):
        raise InvalidConfig("tau must be positive and finite")


def fscore(
    pred: PointCloud, gt: PointCloud, tau: float = DEFAULT_TAU
) -> tuple[float, float, float]:
    """(precision, recall, f) at match radius tau; recall is 'coverage'.

    The searches stop at 2 tau, not tau: cKDTree keeps only d^2 < bound^2, and
    a match at exactly tau counts; the floor keeps bound^2 from underflowing to 0.
    """
    check_tau(tau)
    if len(pred) == 0 or len(gt) == 0:
        raise EmptyCloud("fscore requires two non-empty clouds")
    bound = max(2 * tau, 1e-100)
    with (executor := worker_pool()) or contextlib.nullcontext():
        (d_pred, _), (d_gt, _) = query_pair(pred.positions, cKDTree(gt.positions), executor, bound)
    precision = float((d_pred <= tau).mean())
    recall = float((d_gt <= tau).mean())
    f = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f


def format_report(metrics: dict[str, float]) -> str:
    """Key-value metrics report, one `key=value` pair per space-separated field."""
    return " ".join(f"{k}={v:.6g}" for k, v in metrics.items())
