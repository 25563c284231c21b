"""Evaluation metrics (Chamfer, F-score@tau) and the DSM-extrusion baseline."""
from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from .core import Grid, PointCloud, RgbGrid
from .errors import EmptyCloud, InvalidConfig
from .losses import chamfer
from .reconstruct import _recolor, sample_footprint

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
    """(precision, recall, f) at match radius tau; recall is 'coverage'."""
    check_tau(tau)
    if len(pred) == 0 or len(gt) == 0:
        raise EmptyCloud("fscore requires two non-empty clouds")
    d_pred, _ = cKDTree(gt.positions).query(pred.positions)
    d_gt, _ = cKDTree(pred.positions).query(gt.positions)
    precision = float((d_pred <= tau).mean())
    recall = float((d_gt <= tau).mean())
    f = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f


def baseline_extrude(
    dsm: Grid, silhouette: Grid, ortho: RgbGrid, n_points: int, rng: np.random.Generator
) -> PointCloud:
    """Naive comparison baseline: points on the DSM canopy surface only.

    Same footprint sampling as the optimizer's initialization, but z is
    pinned to the DSM height at the pixel -- a shell with no crown interior.
    """
    x, y, flat = sample_footprint(silhouette, n_points, rng)
    z = dsm.values.reshape(-1)[flat]
    positions = np.stack([x, y, z], axis=1)
    return PointCloud(positions=positions, colors=_recolor(positions, ortho, dsm))


def format_report(metrics: dict[str, float]) -> str:
    """Key-value metrics report, one `key=value` pair per space-separated field."""
    return " ".join(f"{k}={v:.6g}" for k, v in metrics.items())
