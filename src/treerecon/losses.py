"""Scalar losses and their position gradients.

Terms: squared-distance Chamfer between point sets, mean-squared raster
losses on the soft silhouette / shadow / DSM, and their weighted sum.
The DSM term is divided by H_NORM^2 so all terms are dimensionless; it is
off by default, since the DSM already seeds the heights and defines the
silhouette target.

The raster terms are scored passes: each runs a `diffrender` core on the
calling thread's buffers, scores it with `raster_l2` and feeds that pixel
gradient to the core's VJP. `combined_loss` looks each name up in this
module's globals, so a wrapper set on one here is honoured, and runs every
pass on the calling thread. `combined_loss_stack` is `combined_loss` of each
copy of a (B, N, 3) stack of clouds, value and breakdown only, with its bytes;
it renders the stack once per raster term and returns those renders too, so a
caller that reads them (`gradcheck`) renders nothing again. `chamfer` and the
stack's geo term are both `_chamfer_stack`, with one nearest-neighbour rule by
size (README, step 4): the ground truth's KD-tree, built once per `reconstruct`
run, for the cloud's points, and for the reverse a table of squared distances up
to N * M = _TABLE_MAX, a tree per copy above it. Above it `query_pair` answers
both directions, with the cloud's query on an executor's worker, if any:
`reconstruct`'s pool kept on the other CPU, or the one `metrics.eval_chamfer`
opens for one `eval` or `bench` score, whose value is `_chamfer_from` of that
pair. A `--jobs` worker process has no pool, so it stays on one thread.
"""
from __future__ import annotations

import contextvars
import math
from collections import deque
from concurrent.futures import Executor, Future, wait
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from .core import Grid, GridSpec, PointCloud, SunConfig
from .diffrender import SoftConfig, _Slots, _soft_max_height, _soft_or, soft_stack
from .errors import EmptyCloud, InvalidConfig, MissingTarget, SpecMismatch
from .sensor import project_to_ground

H_NORM = 10.0  # meters; makes the DSM L2 term dimensionless
_DSM_SCALE = 1.0 / H_NORM**2  # the factor of the DSM's raster_l2 in every scorer
_TABLE_BLOCK = 2**14  # distances in one block of the Chamfer table (a block is >= 1 row)
_TABLE_MAX = 64**2  # the largest N * M whose Chamfer reads the table, not a tree per copy (BENCH_36.json)
_QUERY_RUNS = 4  # the runs b's query of a `query_pair` on a worker is cut into (BENCH_39.json)
_OVERFLOW = "chamfer is not finite: a squared distance between the clouds overflows float64"

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
    """Index into ref of each query point's nearest neighbor (KD-tree).

    No caller is left; it stays because perfbench/tracing.py wraps it until ROADMAP item 3a."""
    _, idx = cKDTree(ref).query(query)
    return idx


def _sq_mean(diff: np.ndarray) -> np.ndarray:
    """Mean squared length of (..., N, 3) offsets over N: one direction of the Chamfer value."""
    return (diff**2).sum(axis=-1).mean(axis=-1)


def query_pair(a: np.ndarray, tree_b: cKDTree, executor: Executor | None = None, bound: float = math.inf):
    """(tree_b.query(a), cKDTree(a).query(tree_b.data)), each a (distances, indices) pair with
    `distance_upper_bound=bound`: a's points in b's tree, and b's points in a's own tree, built here.

    With an `executor`, its worker answers a's query, under this thread's numpy error state, while this
    thread builds a's tree and answers b's query in _QUERY_RUNS runs of b's points; once a's query is
    done the worker takes the runs left, so neither thread waits long whichever direction costs more.
    A point's answer does not depend on the points queried with it, so every answer is that of one
    thread. This returns or raises only once the worker has stopped, and the worker calls none of this
    module's names.
    """
    b = tree_b.data
    if executor is None:
        return tree_b.query(a, distance_upper_bound=bound), cKDTree(a).query(b, distance_upper_bound=bound)
    back = np.empty(len(b)), np.empty(len(b), dtype=np.intp)
    cuts = [len(b) * k // _QUERY_RUNS for k in range(_QUERY_RUNS + 1)]
    tree_a, runs = Future(), iter(range(_QUERY_RUNS))

    def take(*taken: int) -> None:
        for k in chain(taken, runs):  # next() of a range iterator is atomic
            lo, hi = cuts[k], cuts[k + 1]
            back[0][lo:hi], back[1][lo:hi] = tree_a.result().query(b[lo:hi], distance_upper_bound=bound)

    def forward():
        there = tree_b.query(a, distance_upper_bound=bound)
        take()
        return there

    mine = next(runs)  # taken before the worker starts, so this thread answers at least one run
    ahead = executor.submit(contextvars.copy_context().run, forward)
    try:
        try:
            tree_a.set_result(cKDTree(a))
        except BaseException as e:  # the worker gets it at its first run
            tree_a.set_exception(e)
            raise
        take(mine)
    except BaseException:
        deque(runs, maxlen=0)  # the worker takes no further run
        raise
    finally:
        wait([ahead])
    return ahead.result(), back


def _chamfer_stack(positions: np.ndarray, pb: np.ndarray, executor: Executor | None = None,
                   tree: cKDTree | None = None):
    """Chamfer of each copy of a (B, N, 3) stack against (M, 3) points pb, as (B,) values, with
    what `chamfer`'s gradient reads: the (B, N, 3) offsets of each copy's points from their
    nearest pb point, and the (B, M) index of each pb point's nearest point in each copy.

    Each copy's points query pb's tree, built here unless handed in as `tree` (InvalidConfig unless
    `tree.data is pb`). The other direction reads a table of squared distances, _TABLE_BLOCK at a time
    and summed x, y, z as cKDTree sums them (so the same minima), while N * M <= _TABLE_MAX, with no
    worker; above it `query_pair` answers both directions of each copy against the copy's own tree, with
    the copy's query of pb's tree, and the runs of pb's query left when it is done, on the `executor`'s
    worker if there is one. The values and offsets are `_chamfer_from`'s, so InvalidConfig on overflow.
    """
    b, n, m = *positions.shape[:2], len(pb)
    if n == 0 or m == 0:
        raise EmptyCloud("chamfer requires two non-empty clouds")
    if tree is None:
        tree = cKDTree(pb)
    elif tree.data is not pb:
        raise InvalidConfig("chamfer's KD-tree must be built from the ground truth's own positions array")
    if n * m > _TABLE_MAX:
        pairs = [query_pair(p, tree, executor) for p in positions]
        ia = np.array([fwd for (_, fwd), _ in pairs], dtype=np.intp).reshape(b, n)
        ib = np.array([rev for _, (_, rev) in pairs], dtype=np.intp).reshape(b, m)
    else:
        ia, ib, rows = tree.query(positions)[1], np.empty((b, m), dtype=np.intp), max(1, _TABLE_BLOCK // max(1, b * n))
        for lo in range(0, m, rows):
            sq = [(pb[lo:lo + rows, k, None] - positions[:, None, :, k]) ** 2 for k in range(3)]
            ib[:, lo:lo + rows] = (sq[0] + sq[1] + sq[2]).argmin(axis=2)
    return (*_chamfer_from(positions, pb, ia, ib), ib)


def _chamfer_from(positions: np.ndarray, pb: np.ndarray, ia: np.ndarray, ib: np.ndarray):
    """(B,) Chamfer values of a (B, N, 3) stack against pb and the (B, N, 3) offsets `diff_a`, from
    the (B, N) index of each copy's points' nearest pb point and the (B, M) index of each pb point's
    nearest point in its copy; the squared distances are recomputed from coordinates.

    InvalidConfig where a value is not finite: a squared distance overflows float64, so a point
    may have no neighbour at all (cKDTree's index len(pb) or N), which is checked before indexing.
    """
    if (ia == len(pb)).any() or (ib == positions.shape[1]).any():
        raise InvalidConfig(_OVERFLOW)
    diff_a = positions - pb[ia]
    value = _sq_mean(diff_a) + _sq_mean(pb - np.take_along_axis(positions, ib[..., None], axis=1))
    if not np.isfinite(value).all():
        raise InvalidConfig(_OVERFLOW)
    return value, diff_a


def chamfer(a: PointCloud, b: PointCloud, executor: Executor | None = None,
            tree: cKDTree | None = None) -> tuple[float, np.ndarray]:
    """Symmetric mean squared nearest-neighbor distance and its (N, 3) gradient in a: the one-copy
    `_chamfer_stack`, whose squared distances are recomputed from coordinates, so the value is a
    brute-force evaluation's. The `executor`, if any, runs a's query of b's tree (`tree` if given)."""
    pa, pb = a.positions, b.positions
    value, diff_a, ib = (x[0] for x in _chamfer_stack(pa[None], pb, executor, tree))
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
    value, d_pixels = raster_l2(Grid(spec, pred.reshape(spec.height, spec.width)), target)
    return value * scale, vjp(d_pixels.values.reshape(-1) * scale)


def occupancy_forward_backward(
    xy: np.ndarray, spec: GridSpec, cfg: SoftConfig, target: Grid
) -> tuple[float, np.ndarray]:
    """Soft-or pass over (N, 2) points scored against target: (raster_l2, (N, 2) gradient)."""
    return _scored(_soft_or(xy, spec, cfg), spec, target)


def dsm_forward_backward(
    positions: np.ndarray, spec: GridSpec, cfg: SoftConfig, target: Grid
) -> tuple[float, np.ndarray]:
    """Soft-DSM pass over (N, 3) points: (raster_l2 / H_NORM^2, (N, 3) gradient)."""
    return _scored(_soft_max_height(positions, spec, cfg), spec, target, _DSM_SCALE)


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
    weights: LossWeights, executor: Executor | None = None, tree: cKDTree | None = None,
) -> tuple[float, np.ndarray, dict[str, float]]:
    """Weighted sum of the active loss terms with its total (N, 3) position gradient.

    Returns (value, gradient, breakdown); the breakdown reports each term
    unweighted (the DSM term already carries its 1/H_NORM^2 normalization).
    Each term with a positive weight runs one pass on this thread and adds its weighted
    value and gradient in TERMS order. The `executor`, if any, goes to `chamfer`, whose
    worker runs one of its two KD-tree queries, and so does the ground truth's `tree`, if any.
    """
    targets.require(weights, sun, spec)
    total, grad, breakdown = 0.0, np.zeros((len(cloud), 3)), {}
    for term in TERMS:
        lam = weights.of(term)
        if lam <= 0:
            continue
        if term == "geo":
            value, g = chamfer(cloud, targets.gt_cloud, executor, tree)
        elif term == "sil":
            xy = cloud.positions[:, :2]
            value, gxy = occupancy_forward_backward(xy, spec, soft_cfg, targets.silhouette)
            g = np.column_stack([gxy, np.zeros(len(cloud))])
        elif term == "shadow":
            ground, jac = project_to_ground(cloud, sun)
            value, gxy = occupancy_forward_backward(ground, spec, soft_cfg, targets.shadow)
            g = gxy @ jac
        else:
            value, g = dsm_forward_backward(cloud.positions, spec, soft_cfg, targets.dsm)
        breakdown[term] = value
        total += lam * value
        grad += lam * g
    return total, grad, breakdown


def combined_loss_stack(
    positions: np.ndarray, targets: LossTargets, sun: SunConfig | None, spec: GridSpec, soft_cfg: SoftConfig,
    weights: LossWeights,
) -> tuple[np.ndarray, dict[str, np.ndarray], dict[str, np.ndarray]]:
    """combined_loss(PointCloud(copy), ...)'s value and breakdown, each a (B,) array over the
    copies of a (B, N, 3) stack, byte for byte, and the (B, H, W) render of each raster term scored.

    No gradients: each raster term renders the stack once (`diffrender.soft_stack`) and scores
    every copy's raster in one reduction, with `raster_l2`'s bytes; the geo term is
    `_chamfer_stack`, as `chamfer` is, so it reads the table while N * M <= _TABLE_MAX
    (gradcheck's 20-50 points) and builds a tree per copy above it. With both on, the silhouette
    and the soft DSM render on one slot list of the stack's (x, y), so in the order sil, dsm,
    shadow: the DSM overwrites the list's g, which the silhouette reads, and the shadow's own
    list takes the thread's buffers. The breakdown and the renders keep TERMS order, and so the
    value its sum.
    """
    targets.require(weights, sun, spec)
    on = [term for term in TERMS if weights.of(term) > 0]
    shared = _Slots(positions[..., :2], spec, soft_cfg) if {"sil", "dsm"} <= set(on) else None
    rendered = {kind: soft_stack(kind, positions, sun, spec, soft_cfg, None if kind == "shadow" else shared)
                for kind in ("sil", "dsm", "shadow") if kind in on}
    breakdown, renders = {}, {}
    for term, field in zip(TERMS, _TARGET_FIELDS):
        target = getattr(targets, field)
        if term == "geo" and term in on:
            breakdown[term] = _chamfer_stack(positions, target.positions)[0]
        elif term in rendered:
            scale = _DSM_SCALE if term == "dsm" else 1.0
            r = renders[term] = rendered[term]
            breakdown[term] = ((r - target.values) ** 2).reshape(-1, spec.n_pixels).mean(axis=1) * scale
    return sum(weights.of(term) * values for term, values in breakdown.items()), breakdown, renders
