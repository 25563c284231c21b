"""Scalar losses and their position gradients.

Terms: squared-distance Chamfer between point sets, mean-squared raster
losses on the soft silhouette / shadow / DSM, and their weighted sum.
The DSM term is divided by h_norm^2 so all terms are dimensionless.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import Grid, GridSpec, PointCloud, SunConfig
from .diffrender import (
    SoftConfig,
    dsm_forward_backward,
    occupancy_forward_backward,
    project_to_ground,
)
from .errors import EmptyCloud, InvalidConfig, MissingTarget, SpecMismatch

H_NORM = 10.0  # meters; makes the DSM L2 term dimensionless


@dataclass(frozen=True)
class LossWeights:
    lambda_geo: float = 1.0
    lambda_sil: float = 1.0
    lambda_shadow: float = 0.5
    lambda_dsm: float = 1.0

    def __post_init__(self):
        vals = (self.lambda_geo, self.lambda_sil, self.lambda_shadow, self.lambda_dsm)
        if any(v < 0 for v in vals):
            raise InvalidConfig("loss weights must be nonnegative")
        if all(v == 0 for v in vals):
            raise InvalidConfig("at least one loss weight must be positive")


def nearest_neighbors(query: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Index into ref of each query point's nearest neighbor (KD-tree)."""
    _, idx = cKDTree(ref).query(query)
    return idx


def chamfer(a: PointCloud, b: PointCloud) -> tuple[float, np.ndarray]:
    """Symmetric mean squared nearest-neighbor distance and its (N, 3) gradient in a.

    Squared distances are recomputed from coordinates after the KD-tree
    lookup so the value matches a brute-force evaluation exactly.
    """
    if len(a) == 0 or len(b) == 0:
        raise EmptyCloud("chamfer requires two non-empty clouds")
    pa, pb = a.positions, b.positions
    ia = nearest_neighbors(pa, pb)  # b-index of each a point's NN
    ib = nearest_neighbors(pb, pa)  # a-index of each b point's NN
    diff_a = pa - pb[ia]
    diff_b = pb - pa[ib]
    value = (diff_a**2).sum(axis=1).mean() + (diff_b**2).sum(axis=1).mean()

    grad = 2.0 * diff_a / len(pa)
    np.add.at(grad, ib, 2.0 * (pa[ib] - pb) / len(pb))
    return float(value), grad


def raster_l2(pred: Grid, target: Grid) -> tuple[float, Grid]:
    """Mean squared pixel error and its per-pixel gradient."""
    if pred.spec != target.spec:
        raise SpecMismatch("raster_l2 requires matching grid specs")
    diff = pred.values - target.values
    n = pred.spec.n_pixels
    return float((diff**2).mean()), Grid(pred.spec, 2.0 * diff / n)


@dataclass
class LossTargets:
    """Target rasters (and optional GT cloud) for the combined objective."""

    silhouette: Grid | None = None
    shadow: Grid | None = None
    dsm: Grid | None = None
    gt_cloud: PointCloud | None = None


def combined_loss(
    cloud: PointCloud,
    targets: LossTargets,
    sun: SunConfig | None,
    spec: GridSpec,
    soft_cfg: SoftConfig,
    weights: LossWeights,
    h_norm: float = H_NORM,
) -> tuple[float, np.ndarray, dict[str, float]]:
    """Weighted sum of the active loss terms with its total (N, 3) position gradient.

    Returns (value, gradient, breakdown); the breakdown reports each term
    unweighted (the DSM term already carries its 1/h_norm^2 normalization).
    """
    grad = np.zeros((len(cloud), 3))
    breakdown: dict[str, float] = {}
    total = 0.0
    n_pix = spec.n_pixels

    def l2_closure(target: Grid, scale: float, out: dict):
        """d_flat_of_pred hook computing the (scaled) L2 term on the fly."""
        target_flat = target.values.reshape(-1)

        def d_flat_of_pred(pred_flat):
            diff = pred_flat - target_flat
            out["value"] = float((diff**2).mean()) * scale
            return 2.0 * diff / n_pix * scale

        return d_flat_of_pred

    if weights.lambda_geo > 0:
        if targets.gt_cloud is None:
            raise MissingTarget("lambda_geo > 0 requires a GT cloud")
        v, g = chamfer(cloud, targets.gt_cloud)
        breakdown["geo"] = v
        total += weights.lambda_geo * v
        grad += weights.lambda_geo * g

    if weights.lambda_sil > 0:
        if targets.silhouette is None:
            raise MissingTarget("lambda_sil > 0 requires a silhouette target")
        if targets.silhouette.spec != spec:
            raise SpecMismatch("silhouette target spec mismatch")
        out: dict = {}
        _, gxy = occupancy_forward_backward(
            cloud.positions[:, :2], spec, soft_cfg, l2_closure(targets.silhouette, 1.0, out)
        )
        breakdown["sil"] = out["value"]
        total += weights.lambda_sil * out["value"]
        grad[:, :2] += weights.lambda_sil * gxy

    if weights.lambda_shadow > 0:
        if targets.shadow is None or sun is None:
            raise MissingTarget("lambda_shadow > 0 requires a shadow target and sun")
        if targets.shadow.spec != spec:
            raise SpecMismatch("shadow target spec mismatch")
        xy, jac = project_to_ground(cloud, sun)
        out = {}
        _, gxy = occupancy_forward_backward(
            xy, spec, soft_cfg, l2_closure(targets.shadow, 1.0, out)
        )
        breakdown["shadow"] = out["value"]
        total += weights.lambda_shadow * out["value"]
        grad += weights.lambda_shadow * (gxy @ jac)

    if weights.lambda_dsm > 0:
        if targets.dsm is None:
            raise MissingTarget("lambda_dsm > 0 requires a DSM target")
        if targets.dsm.spec != spec:
            raise SpecMismatch("DSM target spec mismatch")
        out = {}
        _, g3 = dsm_forward_backward(
            cloud.positions, spec, soft_cfg, l2_closure(targets.dsm, 1.0 / h_norm**2, out)
        )
        breakdown["dsm"] = out["value"]
        total += weights.lambda_dsm * out["value"]
        grad += weights.lambda_dsm * g3

    return total, grad, breakdown
