"""Scalar losses and their position gradients.

Terms: squared-distance Chamfer between point sets, mean-squared raster
losses on the soft silhouette / shadow / DSM, and their weighted sum.
The DSM term is divided by H_NORM^2 so all terms are dimensionless; it is
off by default, since the DSM already seeds the heights and defines the
silhouette target.

The raster terms are scored passes: each runs a `diffrender` core on the
calling thread's buffers, scores it with `raster_l2` and feeds that pixel
gradient to the core's VJP. `combined_loss` looks each name up in this
module's globals, so a wrapper set on one here is honoured, and makes the
same calls on its own thread, in the same order, with or without a run's
executor, which computes the shadow pass or, when the shadow pass does not
use it, Chamfer's query of a against b's tree. On every path Chamfer builds
b's tree first, on the caller, and calls `nearest_neighbors` once, for b's
points against a. The executor pays on large clouds
only: on two cores `chamfer` of two clouds of N points took a median 0.12 ms
alone against 0.27 ms with a one-worker pool at N = 50, 0.37
against 0.41 ms at 200, 0.96 against 0.88 ms at 500 and 4.5 against 3.7 ms at
2000; no size rule picks the serial path. `combined_loss_stack` scores a
(B, N, 3) stack of clouds value-only, each copy with `combined_loss`'s bytes.
"""
from __future__ import annotations

import contextvars
import math
from concurrent.futures import Executor, Future, wait
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import Grid, GridSpec, PointCloud, SunConfig
from .diffrender import SoftConfig, _soft_max_height, _soft_or, soft_stack
from .errors import EmptyCloud, InvalidConfig, MissingTarget, SpecMismatch
from . import sensor
from .sensor import project_to_ground

H_NORM = 10.0  # meters; makes the DSM L2 term dimensionless

# the loss terms in evaluation order, and the LossTargets field each one reads
TERMS = ("geo", "sil", "shadow", "dsm")
_TARGET_FIELDS = ("gt_cloud", "silhouette", "shadow", "dsm")


@dataclass(frozen=True)
class LossWeights:
    lambda_geo: float = 1.0
    lambda_sil: float = 1.0
    lambda_shadow: float = 0.5
    lambda_dsm: float = 0.0

    def __post_init__(self):
        vals = [self.of(term) for term in TERMS]
        if not all(0 <= v < math.inf for v in vals):
            raise InvalidConfig("loss weights must be nonnegative and finite")
        if all(v == 0 for v in vals):
            raise InvalidConfig("at least one loss weight must be positive")

    def of(self, term: str) -> float:
        """The weight of one of TERMS."""
        return getattr(self, f"lambda_{term}")


def nearest_neighbors(query: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Index into ref of each query point's nearest neighbor (KD-tree)."""
    _, idx = cKDTree(ref).query(query)
    return idx


def _sq_mean(diff: np.ndarray) -> float:
    """Mean squared length of (N, 3) offsets: one direction of the Chamfer value."""
    return (diff**2).sum(axis=1).mean()


def chamfer(a: PointCloud, b: PointCloud, executor: Executor | None = None) -> tuple[float, np.ndarray]:
    """Symmetric mean squared nearest-neighbor distance and its (N, 3) gradient in a.

    Squared distances are recomputed from coordinates after the KD-tree
    lookup so the value matches a brute-force evaluation exactly. b's tree is
    built on this thread first; a's query against it runs on the `executor`'s
    worker, under this thread's numpy error state, while this thread runs the
    other direction (or after it, without an executor): the same queries on
    the same trees, so the same bytes, and this returns or raises only once
    the worker's query has ended.
    """
    if len(a) == 0 or len(b) == 0:
        raise EmptyCloud("chamfer requires two non-empty clouds")
    pa, pb = a.positions, b.positions
    tree_b = cKDTree(pb)  # built here on every path; the worker calls none of this module's names
    ahead = executor.submit(contextvars.copy_context().run, tree_b.query, pa) if executor else None
    try:
        ib = nearest_neighbors(pb, pa)  # a-index of each b point's NN
    finally:
        wait([ahead] if ahead else [])
    ia = (ahead.result() if ahead else tree_b.query(pa))[1]  # b-index of each a point's NN
    diff_a = pa - pb[ia]
    diff_b = pb - pa[ib]
    value = _sq_mean(diff_a) + _sq_mean(diff_b)

    grad = 2.0 * diff_a / len(pa)
    np.add.at(grad, ib, 2.0 * (pa[ib] - pb) / len(pb))
    return float(value), grad


def raster_l2(pred: Grid, target: Grid) -> tuple[float, Grid]:
    """Mean squared pixel error and its per-pixel gradient."""
    if pred.spec != target.spec:
        raise SpecMismatch("raster_l2 requires matching grid specs")
    diff = pred.values - target.values
    value = float((diff**2).mean())
    return value, Grid(pred.spec, np.divide(np.multiply(diff, 2.0, out=diff), pred.spec.n_pixels, out=diff))


def _scored(render_pass, spec: GridSpec, target: Grid, scale: float = 1.0):
    """(scale * raster_l2 of a core's prediction against target, the core's VJP of its gradient)."""
    pred, vjp = render_pass
    value, d_pixels = raster_l2(Grid(spec, pred), target)
    return value * scale, vjp(d_pixels.values.reshape(-1) * scale)


def occupancy_forward_backward(
    xy: np.ndarray, spec: GridSpec, cfg: SoftConfig, target: Grid, ahead: Future | None = None
) -> tuple[float, np.ndarray]:
    """Soft-or pass over (N, 2) points scored against target: (raster_l2, (N, 2) gradient);
    given `ahead`, the same pass already run on another thread, its result."""
    return _scored(_soft_or(xy, spec, cfg), spec, target) if ahead is None else ahead.result()


def dsm_forward_backward(
    positions: np.ndarray, spec: GridSpec, cfg: SoftConfig, target: Grid
) -> tuple[float, np.ndarray]:
    """Soft-DSM pass over (N, 3) points: (raster_l2 / H_NORM^2, (N, 3) gradient)."""
    return _scored(_soft_max_height(positions, spec, cfg), spec, target, 1.0 / H_NORM**2)


@dataclass
class LossTargets:
    """Target rasters (and optional GT cloud) for the combined objective."""

    silhouette: Grid | None = None
    shadow: Grid | None = None
    dsm: Grid | None = None
    gt_cloud: PointCloud | None = None

    def require(self, weights: LossWeights, sun: SunConfig | None, spec: GridSpec) -> None:
        """Check the inputs of every term with a positive weight.

        Raises MissingTarget when a target (for the shadow term, also the
        sun) is absent and SpecMismatch when a raster target is on another grid.
        """
        for term, field in zip(TERMS, _TARGET_FIELDS):
            if weights.of(term) <= 0:
                continue
            target = getattr(self, field)
            if target is None or (term == "shadow" and sun is None):
                needs = " and a sun" if term == "shadow" else ""
                raise MissingTarget(f"lambda_{term} > 0 requires a {field} target{needs}")
            if isinstance(target, Grid) and target.spec != spec:
                raise SpecMismatch(f"{field} target spec mismatch")


def resolve_weights(
    gt_cloud: PointCloud | None = None, shadow: Grid | None = None, **given: float | None
) -> LossWeights:
    """LossWeights' defaults, with 0 for a term whose optional target (the ground-truth
    cloud, the shadow) is None, and each weight given as a number in place of either."""
    lam = {f"lambda_{t}": 0.0 for t, target in (("geo", gt_cloud), ("shadow", shadow)) if target is None}
    lam.update((name, value) for name, value in given.items() if value is not None)
    return LossWeights(**lam)


def combined_loss(
    cloud: PointCloud, targets: LossTargets, sun: SunConfig | None, spec: GridSpec, soft_cfg: SoftConfig,
    weights: LossWeights, executor: Executor | None = None,
) -> tuple[float, np.ndarray, dict[str, float]]:
    """Weighted sum of the active loss terms with its total (N, 3) position gradient.

    Returns (value, gradient, breakdown); the breakdown reports each term
    unweighted (the DSM term already carries its 1/H_NORM^2 normalization).
    Each term with a positive weight runs one pass and adds its weighted value and gradient
    in TERMS order. Given an `executor` and both occupancy terms on, the shadow pass runs on
    its worker thread under this thread's numpy error state; given one the shadow pass leaves
    free, Chamfer runs one of its two KD-tree queries there. Either way this returns or
    raises only once the worker's part has ended.
    """
    targets.require(weights, sun, spec)
    total, grad, breakdown, ahead = 0.0, np.zeros((len(cloud), 3)), {}, None
    if executor is not None and weights.lambda_sil > 0 and weights.lambda_shadow > 0:
        ahead = executor.submit(contextvars.copy_context().run, lambda: _scored(  # none of this module's names
            _soft_or(sensor.project_to_ground(cloud, sun)[0], spec, soft_cfg), spec, targets.shadow))
    try:
        for term in TERMS:
            lam = weights.of(term)
            if lam <= 0:
                continue
            if term == "geo":  # a query on the executor, unless the shadow pass holds it
                value, g = chamfer(cloud, targets.gt_cloud, executor if ahead is None else None)
            elif term == "sil":
                xy = cloud.positions[:, :2]
                value, gxy = occupancy_forward_backward(xy, spec, soft_cfg, targets.silhouette)
                g = np.column_stack([gxy, np.zeros(len(cloud))])
            elif term == "shadow":
                ground, jac = project_to_ground(cloud, sun)
                value, gxy = occupancy_forward_backward(ground, spec, soft_cfg, targets.shadow, ahead)
                g = gxy @ jac
            else:
                value, g = dsm_forward_backward(cloud.positions, spec, soft_cfg, targets.dsm)
            breakdown[term] = value
            total += lam * value
            grad += lam * g
    finally:
        wait([ahead] if ahead else [])
    return total, grad, breakdown


def combined_loss_stack(
    positions: np.ndarray, targets: LossTargets, sun: SunConfig | None, spec: GridSpec, soft_cfg: SoftConfig,
    weights: LossWeights, gt_tree: cKDTree,
) -> np.ndarray:
    """combined_loss(PointCloud(copy), ...)[0] of each copy of a (B, N, 3) stack, byte for byte.

    Value only: each raster term renders the stack once (`diffrender.soft_stack`) and
    scores each copy's raster with `raster_l2`; Chamfer queries all the points against
    `gt_tree`, the ground truth's KD-tree, and builds one tree per copy for the other direction.
    """
    targets.require(weights, sun, spec)
    total = np.zeros(len(positions))
    for term, field in zip(TERMS, _TARGET_FIELDS):
        target, lam = getattr(targets, field), weights.of(term)
        if lam > 0 and term == "geo":
            pb = target.positions
            if positions.shape[1] == 0 or len(pb) == 0:
                raise EmptyCloud("chamfer requires two non-empty clouds")
            diff_a = positions - pb[gt_tree.query(positions)[1]]
            total += lam * np.array([_sq_mean(d) + _sq_mean(pb - p[cKDTree(p).query(pb)[1]])
                                     for p, d in zip(positions, diff_a)])
        elif lam > 0:
            rasters = soft_stack(term, positions, sun, spec, soft_cfg)
            scale = 1.0 / H_NORM**2 if term == "dsm" else 1.0  # as _scored scales
            total += lam * np.array([raster_l2(Grid(spec, r), target)[0] * scale for r in rasters])
    return total
