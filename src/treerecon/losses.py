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
pass on the calling thread. `chamfer` has one nearest-neighbour rule by size
(README, step 4): the ground truth's KD-tree for the cloud's points, and for
the reverse the argmin of a table of squared distances up to N * M = _TABLE_MAX,
the cloud's own tree above it. Above it `query_pair` answers both directions,
with the cloud's query on an executor's worker, if any: `reconstruct`'s pool
kept on the other CPU, or the one `metrics` opens for a pair of clouds' one
search, which `eval_chamfer` reads its value from (`_chamfer_from`) and
`fscore` its distances. A `--jobs` worker process has no pool, so it stays on
one thread.

`MoveScorer` scores copies of one cloud that each move one point, `gradcheck`'s
finite differences, from the cloud's pixel sums with that point's terms swapped
on the pixels under its old and new slots only: a copy returns those pixels'
render values, and its loss terms add their differences to the cloud's own.

A `reconstruct` run builds the ground truth's tree once, as a `GtSearch`, which
keeps each cloud point's last nearest ground-truth point j while the triangle
inequality proves it (the point is nearer j than half j's distance to its own
nearest neighbour, by a margin), so cKDTree would return j too, and queries the
tree only for the other points. The reverse direction builds its tree per call.
`metrics` builds its two trees with `compact_nodes=False`, which changes no byte
of a score: its value is recomputed from coordinates and the F-score reads
distances, so no score depends on which of two tied points a tree returns.
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
from .diffrender import ALPHA, BETA, EPS_GROUND, SoftConfig, _Slots, _soft_max_height, _soft_or
from .errors import EmptyCloud, InvalidConfig, MissingTarget, SpecMismatch
from .sensor import project_to_ground

H_NORM = 10.0  # meters; makes the DSM L2 term dimensionless
_DSM_SCALE = 1.0 / H_NORM**2  # the factor of the DSM's raster_l2 in every scorer
_TABLE_MAX = 64**2  # the largest N * M whose `chamfer`, and so a small `eval_chamfer`, reads the table
_QUERY_RUNS = 4  # the runs b's query of a `query_pair` on a worker is cut into (BENCH_39.json)
_COPY_BLOCK = 2**16  # the entries of a (copies, points) array of a `MoveScorer` Chamfer block
_TINY = np.finfo(np.float64).tiny  # the smallest normal float64: a smaller GtSearch radius is 0
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

    No caller is left; it stays because perfbench/tracing.py wraps it until ROADMAP item 6 or item 9."""
    _, idx = cKDTree(ref).query(query)
    return idx


def _sq_lengths(diff: np.ndarray) -> np.ndarray:
    """Squared lengths of (..., 3) offsets, each x*x, y*y and z*z summed left to right, as numpy sums
    an axis of 3 and cKDTree sums them; a mean of them over the points is one direction of Chamfer."""
    x, y, z = (diff[..., k] for k in range(3))
    return x * x + y * y + z * z


def _sq_table(pb: np.ndarray, pa: np.ndarray) -> np.ndarray:
    """(M, N) squared distances from pb's points to pa's, summed x, y, z as `_sq_lengths` sums them;
    an overflowing one is inf."""
    with np.errstate(over="ignore"):
        sq = [(pb[:, k, None] - pa[None, :, k]) ** 2 for k in range(3)]
        return sq[0] + sq[1] + sq[2]


class GtSearch:
    """The ground truth's KD-tree, built once per `reconstruct` run, that lets each cloud point keep
    its last nearest ground-truth point while the triangle inequality proves it.

    `safe[j]` is (nnd_j / 2 * (1 - 1e-9))**2, nnd_j the distance from pb's point j to its nearest
    other point (one k=2 self-query). It is 0 where nnd_j is not finite, where j has a duplicate
    (nnd_j = 0), and where it is below the smallest normal float64, whose rounding is not relative;
    `safe[M]`, past the end, is 0. A point whose squared distance to its last answer j is below
    safe[j] is nearer j than half of nnd_j by a margin of about 2e-9, far above float64 rounding, so
    j is its unique nearest point and cKDTree's exact search returns j too; only the other points
    query the tree. A hint is only a candidate, proved every time, so a stale one costs speed and
    never a byte. `query` calls none of this module's names, so a worker may run it.
    """

    def __init__(self, pb: np.ndarray):
        self.tree = cKDTree(pb)
        with np.errstate(over="ignore"):
            r = self.tree.query(pb, k=2)[0][:, 1] * (0.5 * (1 - 1e-9))
            r = r * r
        self.safe = np.append(np.where((_TINY <= r) & (r < math.inf), r, 0.0), 0.0)
        self.hint = np.empty(0, dtype=np.intp)  # the last answer of each point queried, in [0, M]

    @property
    def data(self) -> np.ndarray:
        return self.tree.data

    def query(self, a: np.ndarray):
        """(None, the index of each of the (..., 3) points a's nearest pb point): no distances, and the
        indices of `cKDTree(pb).query(a)` byte for byte. The hint is read only when it holds one index
        per point of a; a hint M (no neighbour: every squared distance overflowed) is a miss."""
        flat, pb = a.reshape(-1, 3), self.tree.data
        if len(self.hint) != len(flat):
            idx = self.tree.query(flat)[1]
        else:
            idx = self.hint.copy()
            with np.errstate(over="ignore", invalid="ignore"):
                x, y, z = (flat - pb[np.minimum(idx, len(pb) - 1)]).T
                miss = ~(x * x + y * y + z * z < self.safe[idx])
            if miss.any():
                idx[miss] = self.tree.query(flat[miss])[1]
        self.hint = idx
        return None, idx.reshape(a.shape[:-1])


def query_pair(a: np.ndarray, tree_b: cKDTree | GtSearch, executor: Executor | None = None, **tree_args):
    """(tree_b.query(a), cKDTree(a, **tree_args).query(tree_b.data)), each a (distances, indices)
    pair: a's points in b's tree (a `GtSearch` gives indices only), and b's points in a's own tree,
    built here. A point whose every squared distance overflows float64 has none nearer than inf:
    distance inf and the index one past the other's end.

    With an `executor`, its worker answers a's query, under this thread's numpy error state, while this
    thread builds a's tree and answers b's query in _QUERY_RUNS runs of b's points; once a's query is
    done the worker takes the runs left, so neither thread waits long whichever direction costs more.
    A point's answer does not depend on the points queried with it, so every answer is that of one
    thread. This returns or raises only once the worker has stopped, and the worker calls none of this
    module's names.
    """
    b = tree_b.data
    if executor is None:
        return tree_b.query(a), cKDTree(a, **tree_args).query(b)
    back = np.empty(len(b)), np.empty(len(b), dtype=np.intp)
    cuts = [len(b) * k // _QUERY_RUNS for k in range(_QUERY_RUNS + 1)]
    tree_a, runs = Future(), iter(range(_QUERY_RUNS))

    def take(*taken: int) -> None:
        for k in chain(taken, runs):  # next() of a range iterator is atomic
            lo, hi = cuts[k], cuts[k + 1]
            back[0][lo:hi], back[1][lo:hi] = tree_a.result().query(b[lo:hi])

    def forward():
        there = tree_b.query(a)
        take()
        return there

    mine = next(runs)  # taken before the worker starts, so this thread answers at least one run
    ahead = executor.submit(contextvars.copy_context().run, forward)
    try:
        try:
            tree_a.set_result(cKDTree(a, **tree_args))
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


def _chamfer_from(pa: np.ndarray, pb: np.ndarray, ia: np.ndarray, ib: np.ndarray):
    """The Chamfer value of (N, 3) points pa against (M, 3) points pb and the offsets `diff_a`, from
    the index of each pa point's nearest pb point and of each pb point's nearest pa point, with the
    squared distances recomputed from coordinates. InvalidConfig where the value is not finite: a
    squared distance overflows float64, so a point may have no neighbour (cKDTree's index M or N)."""
    if (ia == len(pb)).any() or (ib == len(pa)).any():
        raise InvalidConfig(_OVERFLOW)
    with np.errstate(over="ignore"):  # inf, which raises below
        diff_a = pa - pb[ia]
        value = _sq_lengths(diff_a).mean() + _sq_lengths(pb - pa[ib]).mean()
    if not np.isfinite(value):
        raise InvalidConfig(_OVERFLOW)
    return float(value), diff_a


def chamfer(a: PointCloud, b: PointCloud, executor: Executor | None = None,
            tree: cKDTree | GtSearch | None = None) -> tuple[float, np.ndarray]:
    """Symmetric mean squared nearest-neighbor distance and its (N, 3) gradient in a.

    a's points query b's KD-tree: `tree`, a run's `GtSearch` (InvalidConfig unless `tree.data is
    pb`), or else one built here. The other direction is the `argmin` of `_sq_table` while
    N * M <= _TABLE_MAX; above it `query_pair` answers both directions, with the `executor`'s worker
    if any. Squared distances are recomputed from coordinates (`_chamfer_from`), and the reverse
    gradient is one `np.add.at` on the flat (N * 3,) view, in pb's order."""
    pa, pb = a.positions, b.positions
    if len(pa) == 0 or len(pb) == 0:
        raise EmptyCloud("chamfer requires two non-empty clouds")
    if tree is None:
        tree = cKDTree(pb)
    elif tree.data is not pb:
        raise InvalidConfig("chamfer's KD-tree must be built from the ground truth's own positions array")
    if len(pa) * len(pb) > _TABLE_MAX:
        (_, ia), (_, ib) = query_pair(pa, tree, executor)
    else:
        ia, ib = tree.query(pa)[1], _sq_table(pb, pa).argmin(axis=1)
    value, diff_a = _chamfer_from(pa, pb, ia, ib)
    grad = 2.0 * diff_a / len(pa)
    np.add.at(grad.reshape(-1), (3 * ib[:, None] + np.arange(3)).reshape(-1),
              (2.0 * (pa[ib] - pb) / len(pb)).reshape(-1))
    return value, grad


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

    def require(self, weights: LossWeights, sun: SunConfig | None, spec: GridSpec) -> dict:
        """{term: its target} of every term with a positive weight, in TERMS order: the active
        terms, which `combined_loss`, `MoveScorer` and `reconstruct` read from here alone.

        Raises MissingTarget when a target (for the shadow term, also the
        sun) is absent and SpecMismatch when a raster target is on another grid.
        """
        active = {}
        for term, field in zip(TERMS, _TARGET_FIELDS):
            if weights.of(term) <= 0:
                continue
            target = active[term] = getattr(self, field)
            if target is None or (term == "shadow" and sun is None):
                needs = " and a sun" if term == "shadow" else ""
                raise MissingTarget(f"lambda_{term} > 0 requires a {field} target{needs}")
            if isinstance(target, Grid) and target.spec != spec:
                raise SpecMismatch(f"{field} target spec mismatch")
        return active


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
    weights: LossWeights, executor: Executor | None = None, tree: cKDTree | GtSearch | None = None,
) -> tuple[float, np.ndarray, dict[str, float]]:
    """Weighted sum of the active loss terms with its total (N, 3) position gradient.

    Returns (value, gradient, breakdown); the breakdown reports each term
    unweighted (the DSM term already carries its 1/H_NORM^2 normalization).
    Each term `targets.require` returns runs one pass on this thread against its target and adds
    its weighted value and gradient in TERMS order. The `executor`, if any, goes to `chamfer`, whose
    worker runs one of its two KD-tree queries, and so does the ground truth's `tree` (a run's
    `GtSearch`), if any.
    """
    total, grad, breakdown = 0.0, np.zeros((len(cloud), 3)), {}
    for term, target in targets.require(weights, sun, spec).items():
        if term == "geo":
            value, g = chamfer(cloud, target, executor, tree)
        elif term == "sil":
            xy = cloud.positions[:, :2]
            value, gxy = occupancy_forward_backward(xy, spec, soft_cfg, target)
            g = np.column_stack([gxy, np.zeros(len(cloud))])
        elif term == "shadow":
            ground, jac = project_to_ground(cloud, sun)
            value, gxy = occupancy_forward_backward(ground, spec, soft_cfg, target)
            g = gxy @ jac
        else:
            value, g = dsm_forward_backward(cloud.positions, spec, soft_cfg, target)
        breakdown[term] = value
        total += weights.of(term) * value
        grad += weights.of(term) * g
    return total, grad, breakdown


def _others(flat: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per slot of `flat` pixels in point order, the sum of the other slots' values on its pixel: a
    running sum of those before it plus one of those after it, so no large value is subtracted out."""
    order = np.argsort(flat, kind="stable")
    f = flat[order]
    row = np.cumsum(np.diff(f, prepend=f[:1]) != 0)  # the slot's pixel, numbered from 0
    rank = np.arange(len(f)) - np.searchsorted(f, f)  # the slot's place among its pixel's slots
    table = np.zeros((row.max(initial=-1) + 1, rank.max(initial=0) + 3))
    table[row, rank + 1] = values[order]  # a column of zeros on either side
    before, after = np.cumsum(table, axis=1), np.cumsum(table[:, ::-1], axis=1)[:, ::-1]
    others = np.empty_like(values)
    others[order] = before[row, rank] + after[row, rank + 2]
    return others


class _PixelSums:
    """One point set's slots (a cloud's (x, y), which the silhouette and the soft DSM share, or its
    ground projection) and, per raster term on them, the per-slot terms `terms(s, z)` of its
    `_Slots` s and heights z, their pixel sums and their `_others`. `changed` patches the sums for
    copies that each move one point, on the pixels a move changes only."""

    def __init__(self, kinds: dict, xy: np.ndarray, z: np.ndarray, spec: GridSpec, cfg: SoftConfig):
        self.kinds, self.spec, self.cfg = kinds, spec, cfg
        s = _Slots(xy, spec, cfg)
        self.values = {kind: terms(s, z) for kind, terms in kinds.items()}
        self.sums = {kind: [s.to_pixels(v) for v in values] for kind, values in self.values.items()}
        self.flat = s.flat.copy()  # s's rows are the thread's buffers, which the next pass takes
        self.others = {kind: [_others(self.flat, v) for v in values] for kind, values in self.values.items()}
        self.count = np.bincount(s.point, minlength=len(xy))
        self.start = np.cumsum(self.count) - self.count  # the slots are in point order

    def changed(self, point: np.ndarray, xy: np.ndarray, z: np.ndarray):
        """(copy, pixel, values) of B copies, copy k's point[k] moved to (xy[k], z[k]): each copy's
        pixels under its moved point's old slots and then those under only its new ones, and per
        raster term its render values there (`_compose` of its terms' sums). On an old slot's pixel
        a sum is `_others` plus the moved position's term there, or the cloud's sum where that term
        is unchanged (a silhouette's z move changes no byte); on a new slot's other pixel, the
        cloud's sum plus its term. The old and the new slots are matched by their sorted
        `copy * n_pixels + pixel` keys."""
        b, n_pixels = len(point), self.spec.n_pixels
        count = self.count[point]
        ends = np.cumsum(count)  # copy k's moved point's old slots: `count[k]` from `start[point[k]]`
        old = np.repeat(self.start[point] - (ends - count), count) + np.arange(count.sum())
        copy, flat = np.repeat(np.arange(b), count), self.flat[old]
        s = _Slots(xy, self.spec, self.cfg)
        new = {kind: terms(s, z) for kind, terms in self.kinds.items()}
        keys = np.append(s.point * n_pixels + s.flat, b * n_pixels)  # one past every copy's last key
        key = copy * n_pixels + flat  # a point's slots are in pixel order, so both lists are sorted
        at = np.searchsorted(keys, key)
        shared = keys[at] == key  # an old slot's pixel under the moved position too
        fresh = np.ones(len(keys), dtype=bool)  # the new slots on no old slot's pixel, and no sentinel
        fresh[at[shared]] = fresh[-1] = False
        at[~shared] = len(keys) - 1  # the sentinel, whose term is 0
        copy, pixel = np.concatenate([copy, s.point[fresh[:-1]]]), np.concatenate([flat, s.flat[fresh[:-1]]])
        rendered = {}
        for kind, kind_terms in new.items():
            sums = []
            for base, values, others, term in zip(self.sums[kind], self.values[kind], self.others[kind],
                                                  kind_terms, strict=True):
                term = np.append(term, 0.0)
                sums.append(out := np.empty(len(pixel)))
                on_old, on_new = out[:len(old)], out[len(old):]
                term_at = term.take(at)  # the moved position's term on each old slot's pixel, or 0
                np.add(others.take(old), term_at, out=on_old)
                np.copyto(on_old, base.take(flat), where=term_at == values.take(old))
                np.add(base.take(pixel[len(old):]), term[fresh], out=on_new)
            rendered[kind] = _compose(kind, sums)
        return copy, pixel, rendered


def _compose(kind: str, sums: list[np.ndarray]) -> np.ndarray:
    """A raster kind's render values from its terms' pixel sums, in the sums' own arrays: the soft or
    `1 - exp(sum)`, or the soft-max height `sum(w z) / (sum(w) + EPS_GROUND)`."""
    if kind == "dsm":
        sums[0] += EPS_GROUND
        return np.divide(sums[1], sums[0], out=sums[1])
    return np.subtract(1.0, np.exp(sums[0], out=sums[0]), out=sums[0])


class MoveScorer:
    """`combined_loss`'s value and breakdown, and the changed pixels of each raster term's render, of
    copies of one cloud that each move one point: each copy's own forward up to rounding, reduced copy
    by copy. The silhouette and the soft DSM share one `_PixelSums` of the cloud's (x, y), and the
    shadow has one of its ground projection, so a call lists each point set's moved slots once.
    `renders` holds the cloud's own flat render per raster term; a copy's loss term is the cloud's
    squared error plus its changed pixels' differences. Its terms and targets are `require`'s.
    Chamfer keeps `reverse`, one k=2 query of the cloud's default `cKDTree` for the ground truth's
    points at every size: each one's nearest and second-nearest cloud point (index N for none); a
    copy's reverse minimum is the smaller of the cloud's without the moved point and the moved
    position's distance. `tree`, the ground truth's default `cKDTree`, is the one a caller may hand
    `chamfer` and `combined_loss` for the same bytes."""

    def __init__(self, cloud: PointCloud, targets: LossTargets, sun: SunConfig | None, spec: GridSpec,
                 soft_cfg: SoftConfig, weights: LossWeights):
        active = targets.require(weights, sun, spec)
        self.sun, self.weights, self.n_pixels, self.on = sun, weights, spec.n_pixels, list(active)
        pa = cloud.positions
        or_terms = lambda s, z: [np.log(1.0 - s.g * ALPHA)]
        dsm_terms = lambda s, z: [w := s.g * np.exp(BETA * z).take(s.point), w * z.take(s.point)]
        on_xy = {term: terms for term, terms in (("sil", or_terms), ("dsm", dsm_terms)) if term in self.on}
        self.sets = [_PixelSums(on_xy, pa[:, :2], pa[:, 2], spec, soft_cfg)] if on_xy else []
        if "shadow" in self.on:
            self.sets.append(_PixelSums({"shadow": or_terms}, project_to_ground(cloud, sun)[0], pa[:, 2],
                                        spec, soft_cfg))
        self.renders, self.targets, self.errors = {}, {}, {}
        for sums in self.sets:
            for kind, kind_sums in sums.sums.items():
                self.renders[kind] = _compose(kind, [v.copy() for v in kind_sums])
                self.targets[kind] = active[kind].values.reshape(-1)
                self.errors[kind] = ((self.renders[kind] - self.targets[kind]) ** 2).sum()
        if "geo" in active:
            pb = active["geo"].positions
            if len(pa) == 0 or len(pb) == 0:
                raise EmptyCloud("chamfer requires two non-empty clouds")
            self.pb, self.tree, self.reverse = pb, cKDTree(pb), cKDTree(pa).query(pb, k=2)
            self.nearest, self.forward = self.reverse[1][:, 0], self._forward(pa)
            with np.errstate(over="ignore"):
                beyond = np.vstack([pa, np.full(3, np.inf)])
                self.first, self.second = (_sq_lengths(pb - beyond[i]) for i in self.reverse[1].T)

    def _forward(self, p: np.ndarray) -> np.ndarray:  # each point's squared distance to the ground truth
        with np.errstate(over="ignore"):
            return _sq_lengths(p - self.pb.take(self.tree.query(p)[1], axis=0, mode="clip"))

    def __call__(self, point: np.ndarray, moved: np.ndarray):
        """(values, breakdown, changed) of B copies, copy k moving point[k] to moved[k] (B, 3): (B,)
        values, a (B,) array per active term in TERMS order, and per raster term the (copy, pixel,
        render value) triples of the pixels each copy changes, each pixel of a copy once; on every
        other pixel a copy's render is `renders`' (bytes and all)."""
        moved = PointCloud(moved)  # checked finite
        b, p = len(point), moved.positions
        changed = {}
        for sums in self.sets:
            xy = project_to_ground(moved, self.sun)[0] if "shadow" in sums.kinds else p[:, :2]
            copy, pixel, values = sums.changed(point, xy, p[:, 2])
            changed.update((kind, (copy, pixel, value)) for kind, value in values.items())
        breakdown = {}
        for term in self.on:
            if term == "geo":
                breakdown[term] = self._chamfer(point, p)
                continue
            copy, pixel, value = changed[term]
            base = self.renders[term].take(pixel)
            dr = value - base  # dr * (dr + 2 (base - target)) = (value - target)^2 - (base - target)^2
            error = self.errors[term] + np.bincount(copy, dr * (dr + 2.0 * (base - self.targets[term].take(pixel))),
                                                    minlength=b)
            breakdown[term] = error / self.n_pixels * (_DSM_SCALE if term == "dsm" else 1.0)
        values = sum(self.weights.of(term) * values for term, values in breakdown.items())
        return values, breakdown, {term: changed[term] for term in self.on if term != "geo"}

    def _chamfer(self, point: np.ndarray, p: np.ndarray) -> np.ndarray:
        """(B,) Chamfer values of the copies, in blocks of copies whose (copies, N) and (copies, M)
        arrays hold at most _COPY_BLOCK entries; InvalidConfig where one overflows."""
        moved, value = self._forward(p), np.empty(len(point))
        rows = max(1, _COPY_BLOCK // max(len(self.forward), len(self.pb)))
        for k in range(0, len(point), rows):
            at, q = point[k:k + rows], p[k:k + rows]
            forward = np.repeat(self.forward[None], len(at), axis=0)
            forward[np.arange(len(at)), at] = moved[k:k + rows]
            reverse = np.where(self.nearest == at[:, None], self.second, self.first)
            with np.errstate(over="ignore"):
                nearer = np.minimum(reverse, _sq_lengths(self.pb - q[:, None]))
                value[k:k + rows] = forward.mean(axis=1) + nearer.mean(axis=1)
        if not np.isfinite(value).all():
            raise InvalidConfig(_OVERFLOW)
        return value
