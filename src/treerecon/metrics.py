"""Evaluation metrics (Chamfer, F-score@tau) and their report format."""
from __future__ import annotations

import math

from scipy.spatial import cKDTree

from .core import PointCloud
from .errors import EmptyCloud, InvalidConfig
from .losses import chamfer

DEFAULT_TAU = 0.5  # meters


def eval_chamfer(pred: PointCloud, gt: PointCloud) -> float:
    """Symmetric squared Chamfer distance, no gradient."""
    value, _ = chamfer(pred, gt)
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
    d_pred, _ = cKDTree(gt.positions).query(pred.positions, distance_upper_bound=bound)
    d_gt, _ = cKDTree(pred.positions).query(gt.positions, distance_upper_bound=bound)
    precision = float((d_pred <= tau).mean())
    recall = float((d_gt <= tau).mean())
    f = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f


def format_report(metrics: dict[str, float]) -> str:
    """Key-value metrics report, one `key=value` pair per space-separated field."""
    return " ".join(f"{k}={v:.6g}" for k, v in metrics.items())
