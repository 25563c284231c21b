"""Evaluation metrics (Chamfer, F-score@tau) and their report format.

Each score answers two KD-tree queries, the prediction's points in the ground truth's
tree and the reverse, with `losses.query_pair`: on two or more CPUs a worker thread of
`core.worker_pool`, kept off this thread's CPU and joined before the call returns,
answers the prediction's query while this thread builds the prediction's tree and
answers the other, and then takes what this thread has left of it, so the values are
those of one thread. A `--jobs` worker process, or a run on one CPU, starts no thread.

An evaluation scores one pair of clouds twice, `eval_chamfer` and then `fscore`, so the
two share one pair of queries. Where Chamfer uses trees (N * M > `losses._TABLE_MAX`),
`eval_chamfer` keeps a record per thread, replaced by its next call on that thread: copies
of the two position arrays and the nearest distances its unbounded queries found. `fscore`
of clouds with the same shapes and bytes reads those distances and queries nothing; F-score
reads distances only, never indices, and a search bounded just past tau returns every
distance up to tau exactly, so the scores keep their bytes (`tests/test_metrics.py`
checks them against `fscore` alone and against unbounded queries).
"""
from __future__ import annotations

import contextlib
import math
import threading

import numpy as np

from .core import PointCloud, worker_pool
from .errors import EmptyCloud, InvalidConfig
from .losses import _TABLE_MAX, _chamfer_from, cKDTree, chamfer, query_pair

DEFAULT_TAU = 0.5  # meters

_last = threading.local()  # .record: (pred positions, gt positions, d_pred, d_gt) of this thread's last eval_chamfer


def eval_chamfer(pred: PointCloud, gt: PointCloud) -> float:
    """Symmetric squared Chamfer distance, no gradient: `chamfer(pred, gt)[0]`, byte for byte.

    Above `_TABLE_MAX` it makes one unbounded `query_pair` and reads the value from its indices
    with `chamfer`'s formula (`losses._chamfer_from`, InvalidConfig on overflow); once that has
    passed, this thread's record is the two clouds' positions, copied, and the pair's distances,
    for the next `fscore` of the same clouds. Every call first drops the thread's record.
    """
    _last.record = None
    if len(pred) * len(gt) <= _TABLE_MAX:
        return chamfer(pred, gt)[0]
    pa, pb = pred.positions, gt.positions
    with (executor := worker_pool()) or contextlib.nullcontext():
        (d_pred, ia), (d_gt, ib) = query_pair(pa, cKDTree(pb), executor)
    value = float(_chamfer_from(pa[None], pb, ia[None], ib[None])[0][0])
    _last.record = pa.copy(), pb.copy(), d_pred, d_gt
    return value


def check_tau(tau: float) -> None:
    """Raise InvalidConfig unless the match radius tau is positive and finite."""
    if not (0.0 < tau < math.inf):
        raise InvalidConfig("tau must be positive and finite")


def _same(kept: np.ndarray, positions: np.ndarray) -> bool:
    return kept.shape == positions.shape and kept.tobytes() == positions.tobytes()


def fscore(
    pred: PointCloud, gt: PointCloud, tau: float = DEFAULT_TAU
) -> tuple[float, float, float]:
    """(precision, recall, f) at match radius tau; recall is 'coverage'.

    When this thread's last `eval_chamfer` kept a record of clouds with these positions' shapes
    and bytes, in this order, the scores read its distances: no tree, no query, no thread.
    Otherwise the searches stop just past tau, at tau * (1 + 1e-9): cKDTree keeps only
    d^2 < bound^2, and a match at exactly tau counts. From tau = 1e-150 on, tau^2 is a normal
    float, which that factor's square clears by far more than rounding; below it the bound is
    1e-150, whose square is normal too. A bound whose square overflows to inf searches without one.
    """
    check_tau(tau)
    if len(pred) == 0 or len(gt) == 0:
        raise EmptyCloud("fscore requires two non-empty clouds")
    kept = getattr(_last, "record", None)
    if kept is not None and _same(kept[0], pred.positions) and _same(kept[1], gt.positions):
        d_pred, d_gt = kept[2:]
    else:
        bound = max(tau * (1 + 1e-9), 1e-150)
        with (executor := worker_pool()) or contextlib.nullcontext():
            (d_pred, _), (d_gt, _) = query_pair(pred.positions, cKDTree(gt.positions), executor, bound)
    precision = float((d_pred <= tau).mean())
    recall = float((d_gt <= tau).mean())
    f = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f


def format_report(metrics: dict[str, float]) -> str:
    """Key-value metrics report, one `key=value` pair per space-separated field."""
    return " ".join(f"{k}={v:.6g}" for k, v in metrics.items())
