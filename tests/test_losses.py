import math
import threading
import tracemalloc
import warnings
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import oracles
from oracles import brute_chamfer, brute_chamfer_grad, finite_diff, zero_grid
from treerecon import diffrender, losses, metrics, sensor
from treerecon.core import Grid, GridSpec, PointCloud, Rng, SunConfig
from treerecon.diffrender import SoftConfig, soft_dsm, soft_shadow, soft_silhouette
from treerecon.errors import Diverged, EmptyCloud, InvalidConfig, MissingTarget, SpecMismatch
from treerecon.losses import (
    TERMS,
    LossTargets,
    LossWeights,
    chamfer,
    combined_loss,
    raster_l2,
)
from treerecon.protree import SceneConfig, generate_scene
from treerecon.reconstruct import derive_targets, init_cloud
from treerecon.sensor import H_MIN

SPEC = GridSpec(21, 21, -10.0, -10.0, 1.0)


def cloud(points):
    return PointCloud(positions=np.array(points, dtype=float).reshape(-1, 3))


def random_cloud(seed, n, extent=7.0, z_hi=6.0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-extent, extent, (n, 3))
    pts[:, 2] = rng.uniform(0.5, z_hi, n)
    return PointCloud(positions=pts)


class TestChamfer:
    def test_identical_clouds(self):
        a = random_cloud(0, 30)
        v, g = chamfer(a, a)
        assert v == 0.0
        assert not g.any()

    def test_two_singletons(self):
        v, g = chamfer(cloud([0, 0, 0]), cloud([1, 0, 0]))
        assert v == 2.0
        np.testing.assert_allclose(g[0], [-4.0, 0.0, 0.0])

    def test_matches_brute_force(self):
        for seed in range(20):
            a = random_cloud(seed, 30)
            b = random_cloud(seed + 1000, 40)
            v, g = chamfer(a, b)
            assert abs(v - brute_chamfer(a.positions, b.positions)) <= 1e-12
            np.testing.assert_allclose(
                g,
                brute_chamfer_grad(a.positions, b.positions),
                atol=1e-12,
            )

    def test_grad_matches_finite_differences(self):
        a = random_cloud(3, 12)
        b = random_cloud(4, 15)
        _, g = chamfer(a, b)

        def f(x):
            return brute_chamfer(x, b.positions)

        fd = finite_diff(f, a.positions, 1e-5)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_empty_rejected(self):
        with pytest.raises(EmptyCloud):
            chamfer(cloud(np.zeros((0, 3))), cloud([0, 0, 0]))


class TestRasterL2:
    def test_identical_grids(self):
        g = Grid(SPEC, np.random.default_rng(0).normal(size=(21, 21)))
        v, d = raster_l2(g, g)
        assert v == 0.0
        assert not d.values.any()

    def test_1x1(self):
        s = GridSpec(1, 1)
        v, d = raster_l2(Grid(s, [[1.0]]), Grid(s, [[0.0]]))
        assert v == 1.0
        assert d.values[0, 0] == 2.0

    def test_2x1(self):
        s = GridSpec(2, 1)
        v, d = raster_l2(Grid(s, [[1.0, 0.0]]), Grid(s, [[0.0, 0.0]]))
        assert v == 0.5
        np.testing.assert_allclose(d.values, [[1.0, 0.0]])

    def test_spec_mismatch(self):
        with pytest.raises(SpecMismatch):
            raster_l2(zero_grid(SPEC), zero_grid(GridSpec(5, 5)))


class TestCombinedLoss:
    def setup_method(self):
        self.cfg = SoftConfig(sigma=1.0)
        self.sun = SunConfig(135.0, 55.0)
        self.pred = random_cloud(5, 25)
        gt = random_cloud(6, 30)
        self.targets = LossTargets(
            silhouette=soft_silhouette(gt, SPEC, self.cfg),
            shadow=soft_shadow(gt, self.sun, SPEC, self.cfg),
            dsm=soft_dsm(gt, SPEC, self.cfg),
            gt_cloud=gt,
        )

    def test_perfect_silhouette_is_zero(self):
        sil = soft_silhouette(self.pred, SPEC, self.cfg)
        w = LossWeights(0.0, 1.0, 0.0, 0.0)
        v, g, br = combined_loss(
            self.pred, LossTargets(silhouette=sil), None, SPEC, self.cfg, w
        )
        assert v == 0.0
        assert not g.any()

    def test_weight_linearity(self):
        w1 = LossWeights(1.0, 1.0, 0.5, 1.0)
        w2 = LossWeights(2.0, 2.0, 1.0, 2.0)
        v1, g1, _ = combined_loss(self.pred, self.targets, self.sun, SPEC, self.cfg, w1)
        v2, g2, _ = combined_loss(self.pred, self.targets, self.sun, SPEC, self.cfg, w2)
        assert abs(v2 - 2.0 * v1) <= 1e-12 * max(1.0, abs(v2))
        np.testing.assert_allclose(g2, 2.0 * g1, rtol=0, atol=1e-15)

    def test_grad_is_weighted_sum_of_terms(self):
        terms = [
            LossWeights(1.0, 0.0, 0.0, 0.0),
            LossWeights(0.0, 1.0, 0.0, 0.0),
            LossWeights(0.0, 0.0, 1.0, 0.0),
            LossWeights(0.0, 0.0, 0.0, 1.0),
        ]
        lams = (1.0, 1.0, 0.5, 1.0)
        acc = np.zeros((len(self.pred), 3))
        for lam, w in zip(lams, terms):
            _, g, _ = combined_loss(self.pred, self.targets, self.sun, SPEC, self.cfg, w)
            acc += lam * g
        _, g, _ = combined_loss(
            self.pred, self.targets, self.sun, SPEC, self.cfg, LossWeights(*lams)
        )
        np.testing.assert_allclose(g, acc, rtol=0, atol=1e-12)

    def test_breakdown_reports_unweighted_terms(self):
        w = LossWeights(2.0, 3.0, 0.5, 4.0)
        v, _, br = combined_loss(self.pred, self.targets, self.sun, SPEC, self.cfg, w)
        reconstructed = (
            2.0 * br["geo"] + 3.0 * br["sil"] + 0.5 * br["shadow"] + 4.0 * br["dsm"]
        )
        assert abs(v - reconstructed) <= 1e-12 * max(1.0, abs(v))

    def test_missing_targets_raise(self):
        with pytest.raises(MissingTarget):
            combined_loss(
                self.pred,
                LossTargets(),
                self.sun,
                SPEC,
                self.cfg,
                LossWeights(1.0, 0.0, 0.0, 0.0),
            )
        with pytest.raises(MissingTarget):
            combined_loss(
                self.pred,
                LossTargets(silhouette=self.targets.silhouette),
                None,
                SPEC,
                self.cfg,
                LossWeights(0.0, 1.0, 0.5, 0.0),
            )

    @pytest.mark.parametrize("field", ["silhouette", "shadow", "dsm"])
    def test_target_on_another_grid_raises(self, field):
        other = zero_grid(GridSpec(5, 5))
        targets = LossTargets(**{**vars(self.targets), field: other})
        with pytest.raises(SpecMismatch):
            combined_loss(
                self.pred, targets, self.sun, SPEC, self.cfg, LossWeights(1.0, 1.0, 0.5, 1.0)
            )
        lambdas = {"silhouette": (1, 0, 0, 0), "shadow": (1, 1, 0, 1), "dsm": (1, 1, 0.5, 0)}
        combined_loss(self.pred, targets, self.sun, SPEC, self.cfg, LossWeights(*lambdas[field]))

    def test_breakdown_follows_term_order(self):
        _, _, br = combined_loss(
            self.pred, self.targets, self.sun, SPEC, self.cfg, LossWeights(0.0, 1.0, 0.5, 1.0)
        )
        assert list(br) == ["sil", "shadow", "dsm"]  # the silhouette pass precedes the shadow

    @pytest.mark.parametrize("lams, builds", [((0, 1, 0.5, 1), 3), ((0, 1, 0, 1), 2),
                                              ((0, 1, 0.5, 0), 2), ((1, 0, 0, 0), 0)])
    def test_one_slot_list_per_raster_term(self, monkeypatch, lams, builds):
        """Each raster term with a positive weight builds its own slot list; Chamfer builds none."""
        calls = []
        build = diffrender.pixels_within
        monkeypatch.setattr(diffrender, "pixels_within", lambda *a: calls.append(a) or build(*a))
        combined_loss(self.pred, self.targets, self.sun, SPEC, self.cfg, LossWeights(*lams))
        assert len(calls) == builds

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            LossWeights(-1.0, 1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            LossWeights(0.0, 0.0, 0.0, 0.0)


def test_a_reused_workspace_keeps_the_hot_loop_allocations_small():
    """The second combined_loss call on one thread allocates no slot-sized buffers.

    numpy reports its buffers to tracemalloc, so the peak does not depend on
    the machine. At 2000 points on 128x128 one slot-sized array is 0.45 MB;
    what remains is flatnonzero's pair list and pixel- and point-sized sums.
    """
    scene = generate_scene(42, SceneConfig())
    targets = derive_targets(scene.ortho, scene.dsm, H_MIN)
    targets.shadow = scene.shadow
    spec = scene.dsm.spec
    cloud = init_cloud(scene.dsm, targets.silhouette, scene.ortho, 2000, Rng(0))
    args = (cloud, targets, scene.sun, spec, SoftConfig(sigma=spec.pixel_size),
            LossWeights(0.0, 1.0, 0.5, 1.0))
    combined_loss(*args)
    tracemalloc.start()
    try:
        combined_loss(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_a_chamfer_call_keeps_the_hot_loop_allocations_small():
    """The second combined_loss call with Chamfer's two KD-tree queries beside the silhouette
    and shadow passes allocates no slot-sized buffers either."""
    scene = generate_scene(42, SceneConfig())
    targets = derive_targets(scene.ortho, scene.dsm, H_MIN)
    targets.shadow, targets.gt_cloud = scene.shadow, scene.cloud
    spec = scene.dsm.spec
    cloud = init_cloud(scene.dsm, targets.silhouette, scene.ortho, 2000, Rng(0))
    args = (cloud, targets, scene.sun, spec, SoftConfig(sigma=spec.pixel_size),
            LossWeights(1.0, 1.0, 0.5, 0.0))
    combined_loss(*args)
    tracemalloc.start()
    try:
        combined_loss(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0e6


@st.composite
def permuted_scenes(draw):
    """(cloud of 1 to 40 points near SPEC, a permutation of them, sun, sigma, target seed)."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = np.column_stack([rng.uniform(-12.0, 12.0, (n, 2)), rng.uniform(0.0, 8.0, n)])
    perm = np.array(draw(st.permutations(range(n))))
    sun = SunConfig(draw(st.floats(0.0, 360.0)), draw(st.floats(10.0, 90.0)))
    return PointCloud(positions=pts), perm, sun, draw(st.floats(0.3, 2.5)), draw(st.integers(0, 99))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(scene=permuted_scenes())
def test_permuting_the_points_permutes_the_gradient_rows(scene):
    """The loss does not depend on point order; each point keeps its own gradient.

    The slot sums run in point order, so a permutation may move them by a
    few ulps. Geo is left out: Chamfer's nearest-neighbour ties can be
    broken differently in another order.
    """
    c, perm, sun, sigma, seed = scene
    rng = np.random.default_rng(seed)
    raster = lambda top: Grid(SPEC, rng.uniform(0.0, top, (SPEC.height, SPEC.width)))
    targets = LossTargets(silhouette=raster(1.0), shadow=raster(1.0), dsm=raster(8.0))
    args = (targets, sun, SPEC, SoftConfig(sigma=sigma), LossWeights(0.0, 1.0, 0.5, 1.0))
    value, grad, _ = combined_loss(c, *args)
    p_value, p_grad, _ = combined_loss(PointCloud(positions=c.positions[perm]), *args)
    assert abs(p_value - value) <= 1e-12 * abs(value)
    assert np.max(np.abs(p_grad - grad[perm])) <= 1e-12 * np.max(np.abs(grad))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(scene=permuted_scenes(), kx=st.integers(-50, 50), ky=st.integers(-50, 50))
def test_shifting_the_cloud_and_the_grid_by_whole_pixels_keeps_the_loss(scene, kx, ky):
    """The loss sees the cloud only relative to the grid. The shifted coordinates round
    differently, so the value and the gradient may move by a few ulps."""
    c, _, sun, sigma, seed = scene
    rng = np.random.default_rng(seed)
    values = {name: rng.uniform(0.0, top, (SPEC.height, SPEC.width))
              for name, top in (("silhouette", 1.0), ("shadow", 1.0), ("dsm", 8.0))}
    ps = SPEC.pixel_size
    moved = GridSpec(SPEC.width, SPEC.height, SPEC.origin_x + kx * ps, SPEC.origin_y + ky * ps, ps)
    args = lambda spec: (LossTargets(**{k: Grid(spec, v) for k, v in values.items()}), sun, spec,
                         SoftConfig(sigma=sigma), LossWeights(0.0, 1.0, 0.5, 1.0))
    value, grad, _ = combined_loss(c, *args(SPEC))
    s_value, s_grad, _ = combined_loss(PointCloud(positions=c.positions + [kx * ps, ky * ps, 0.0]),
                                       *args(moved))
    assert abs(s_value - value) <= 1e-12 * abs(value)
    assert np.max(np.abs(s_grad - grad)) <= 1e-12 * np.max(np.abs(grad))


@st.composite
def loss_inputs(draw, on):
    """(cloud of 0, 1 or 1-60 points, some off SPEC, targets, sun, cfg, weights positive for
    the terms in `on`)."""
    n = draw(st.sampled_from([0, 1]) | st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = np.column_stack([rng.uniform(-14.0, 14.0, (n, 2)), rng.uniform(0.0, 30.0, n)])
    raster = lambda top: Grid(SPEC, rng.uniform(0.0, top, (SPEC.height, SPEC.width)))
    targets = LossTargets(silhouette=raster(1.0), shadow=raster(1.0), dsm=raster(8.0),
                          gt_cloud=random_cloud(draw(st.integers(0, 99)), 25))
    weights = LossWeights(*(draw(st.floats(0.1, 4.0)) if term in on else 0.0 for term in TERMS))
    cfg = SoftConfig(sigma=draw(st.floats(0.3, 2.5)), trunc=draw(st.sampled_from([3.0, np.inf])))
    sun = SunConfig(draw(st.floats(0.0, 360.0)), draw(st.floats(10.0, 90.0)))
    return PointCloud(positions=pts), targets, sun, cfg, weights


@pytest.mark.parametrize("on", [set(on) for k in range(1, 5) for on in combinations(TERMS, k)])
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data())
def test_combined_loss_gives_the_bytes_of_independent_passes(on, data):
    """combined_loss against the loss with three independent passes (tests/oracles.py)."""
    c, targets, sun, cfg, weights = data.draw(loss_inputs(on))
    try:
        expected = oracles.combined_loss(c, targets, sun, SPEC, cfg, weights)
    except EmptyCloud:  # the geo term of an empty cloud
        with pytest.raises(EmptyCloud):
            combined_loss(c, targets, sun, SPEC, cfg, weights)
        return
    value, grad, breakdown = combined_loss(c, targets, sun, SPEC, cfg, weights)
    assert np.float64(value).tobytes() == np.float64(expected[0]).tobytes()
    assert grad.dtype == expected[1].dtype and grad.tobytes() == expected[1].tobytes()
    assert list(breakdown) == list(expected[2])
    assert all(np.float64(breakdown[k]).tobytes() == np.float64(expected[2][k]).tobytes()
               for k in breakdown)


GEO_ONLY = LossWeights(lambda_sil=0.0, lambda_shadow=0.0)

# four times the largest deviations of `MoveScorer` from the forward of each materialized copy when
# every copy held whole rasters, measured over two batches of 2,000 random examples of
# `one_point_moves` on random term sets: a relative 5.3e-16 of a value and 5.6e-16 of a breakdown
# term, 5.6e-16 of a soft-or raster, and 1.8e-15 of a DSM raster relative to the copy's largest |z|
# (at least 1 m); no Chamfer term deviated. Scored from the changed pixels (the cloud's squared
# error plus each copy's differences), two more such batches read 1.04e-15 of a value and 1.05e-15
# of a term, within these bounds, and the same raster and Chamfer deviations as before
MOVE_VALUE_REL, MOVE_TERM_REL, MOVE_OR_ABS, MOVE_DSM_REL = 4 * 5.3e-16, 4 * 5.6e-16, 4 * 5.6e-16, 4 * 1.8e-15


@st.composite
def one_point_moves(draw, on):
    """(cloud positions, targets, sun, cfg, weights, point, moved): a cloud of 1 to 60 points, some
    off SPEC; a ground truth of one point, of 1 to 60, or of enough that N * M is above 64**2;
    weights positive for the terms in `on`; and 0 to 8 copies, copy k moving
    point[k] to moved[k] along x, y or z by a finite-difference step, by sigma, by the cutoff of
    3 sigma (so some pixels cross it) or by 30 m (off the grid, or far above or below it)."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = np.column_stack([rng.uniform(-14.0, 14.0, (n, 2)), rng.uniform(0.0, 8.0, n)])
    m = draw(st.sampled_from([1, 64**2 // n + 1]) | st.integers(1, 60))
    raster = lambda top: Grid(SPEC, rng.uniform(0.0, top, (SPEC.height, SPEC.width)))
    targets = LossTargets(raster(1.0), raster(1.0), raster(8.0), random_cloud(draw(st.integers(0, 99)), m))
    weights = LossWeights(*(draw(st.floats(0.1, 4.0)) if term in on else 0.0 for term in TERMS))
    cfg = SoftConfig(sigma=draw(st.floats(0.3, 2.5)), trunc=draw(st.sampled_from([3.0, np.inf])))
    sun = SunConfig(draw(st.floats(0.0, 360.0)), draw(st.floats(10.0, 90.0)))
    b = draw(st.integers(0, 8))
    point = np.array(draw(st.lists(st.integers(0, n - 1), min_size=b, max_size=b)), dtype=np.intp)
    axis = draw(st.lists(st.integers(0, 2), min_size=b, max_size=b))
    steps = draw(st.lists(st.sampled_from([1e-4 * cfg.sigma, cfg.sigma, 3.0 * cfg.sigma, 30.0]).flatmap(
        lambda step: st.sampled_from([step, -step])), min_size=b, max_size=b))
    moved = pts[point]
    moved[np.arange(b), axis] += steps
    return pts, targets, sun, cfg, weights, point, moved, axis


@pytest.mark.parametrize("on", [set(on) for k in range(1, 5) for on in combinations(TERMS, k)])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_the_move_scorer_gives_each_copy_the_forward_of_that_copy(on, data):
    """Per copy, the value and each breakdown term of `combined_loss` of the materialized copy, and
    each raster term's render, its changed pixels scattered onto the cloud's own render (the bytes of
    its `soft_*` render), that copy's `soft_*` render, up to rounding (`MOVE_*` above); a copy lists
    each pixel once, and a copy that moves a point along z alone keeps every byte of the cloud's own
    silhouette."""
    pts, targets, sun, cfg, weights, point, moved, axis = data.draw(one_point_moves(on))
    args = (targets, sun, SPEC, cfg, weights)
    scorer = losses.MoveScorer(PointCloud(pts), *args)
    values, breakdown, changed = scorer(point, moved)
    on = [term for term in TERMS if weights.of(term) > 0]
    assert values.shape == (len(point),) and list(breakdown) == on and list(changed) == [t for t in on if t != "geo"]
    assert all(v.shape == (len(point),) for v in breakdown.values())
    render = {"sil": lambda c: soft_silhouette(c, SPEC, cfg), "shadow": lambda c: soft_shadow(c, sun, SPEC, cfg),
              "dsm": lambda c: soft_dsm(c, SPEC, cfg)}
    renders = {}
    for kind, (copy, pixel, value) in changed.items():
        assert scorer.renders[kind].tobytes() == render[kind](PointCloud(pts)).values.tobytes()
        assert len(np.unique(copy * SPEC.n_pixels + pixel)) == len(copy) == len(pixel) == len(value)
        renders[kind] = np.tile(scorer.renders[kind], (len(point), 1))
        renders[kind][copy, pixel] = value
    for k, (i, p) in enumerate(zip(point, moved)):
        copy = pts.copy()
        copy[i] = p
        value, _, terms = combined_loss(PointCloud(copy), *args)
        assert abs(values[k] - value) <= MOVE_VALUE_REL * abs(value)
        assert all(abs(breakdown[t][k] - terms[t]) <= MOVE_TERM_REL * abs(terms[t]) for t in terms)
        for kind, r in renders.items():
            tol = MOVE_DSM_REL * max(1.0, np.abs(copy[:, 2]).max()) if kind == "dsm" else MOVE_OR_ABS
            assert np.abs(r[k] - render[kind](PointCloud(copy)).values.reshape(-1)).max() <= tol
        if axis[k] == 2 and "sil" in renders:
            assert renders["sil"][k].tobytes() == scorer.renders["sil"].tobytes()


@pytest.mark.parametrize("n", [20, 200])
@pytest.mark.parametrize("b", [0, 1, 3, 12])
def test_the_move_scorer_makes_one_two_nearest_query_of_the_clouds_tree_at_every_size(monkeypatch, b, n):
    """Built, it builds the ground truth's KD-tree, queried for the cloud's points, and the cloud's
    own tree, queried once with k=2 for the ground truth's points, at 20 points against 30 as at
    200; `reverse` holds that query's distances and indices. A call of
    b copies queries the ground truth's tree once for its moved points and builds no tree of its own."""
    builds, queries = [], []

    class Tree(cKDTree):
        def __init__(self, data, *args, **kwargs):
            builds.append(len(data))
            super().__init__(data, *args, **kwargs)

        def query(self, x, k=1, *args, **kwargs):
            queries.append((self.n, len(x), k))
            return super().query(x, k, *args, **kwargs)

    monkeypatch.setattr(losses, "cKDTree", Tree)
    cloud, gt = PointCloud(np.random.default_rng(n).uniform(-7.0, 7.0, (n, 3))), random_cloud(0, 30)
    scorer = losses.MoveScorer(cloud, LossTargets(gt_cloud=gt), None, SPEC, SoftConfig(sigma=1.0), GEO_ONLY)
    assert builds == [30, n] and queries == [(n, 30, 2), (30, n, 1)]
    expected = cKDTree(cloud.positions).query(gt.positions, k=2)
    assert [a.tobytes() for a in scorer.reverse] == [e.tobytes() for e in expected]
    scorer(np.arange(b) % n, cloud.positions[np.arange(b) % n] + 0.5)
    assert builds == [30, n] and queries[2:] == [(30, b, 1)]


@pytest.mark.parametrize("n, m", [(63, 65), (64, 64), (64, 65), (65, 64), (2, 2048), (2, 2049), (2049, 2)])
def test_chamfer_keeps_the_tree_rules_bytes(n, m):
    """On tie-free clouds of sizes from 2 to 2049 points, `chamfer`'s value and gradient
    are, byte for byte, those of the KD-tree rule in both directions (b's tree for a's points, a's
    tree for b's)."""
    pa, pb = np.random.default_rng(n).uniform(-7.0, 7.0, (n, 3)), random_cloud(m, m).positions
    ia, ib = cKDTree(pb).query(pa)[1], cKDTree(pa).query(pb)[1]
    expected = ((pa - pb[ia]) ** 2).sum(axis=1).mean() + ((pb - pa[ib]) ** 2).sum(axis=1).mean()
    expected_grad = 2.0 * (pa - pb[ia]) / n
    np.add.at(expected_grad, ib, 2.0 * (pa[ib] - pb) / m)
    value, grad = chamfer(PointCloud(pa), PointCloud(pb))
    assert np.float64(value).tobytes() == expected.tobytes()
    assert grad.tobytes() == expected_grad.tobytes()


@pytest.mark.parametrize("large", [False, True])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_chamfer_of_lattice_clouds_is_brute_chamfer(large, data):
    """Clouds and a ground truth drawn from a few lattice points, so nearest distances tie in
    both directions, with N * M at most 64**2 or else above it by up to 60 N: each cloud's value is
    `oracles.brute_chamfer`'s, exactly."""
    n = data.draw(st.integers(1, 100))
    cap = 64**2 // n
    m = data.draw(st.integers(cap + 1, cap + 60) if large else st.integers(1, cap))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    lattice = rng.integers(-3, 4, (data.draw(st.integers(1, 12)), 3)) * data.draw(st.sampled_from([0.5, 1.0, 3.0]))
    clouds = lattice[rng.integers(0, len(lattice), (data.draw(st.integers(1, 4)), n))]
    gt = lattice[rng.integers(0, len(lattice), m)]
    assert [chamfer(PointCloud(p), PointCloud(gt))[0] for p in clouds] == [brute_chamfer(p, gt) for p in clouds]


@pytest.mark.parametrize("n", [4, 1000])
def test_the_move_scorer_scores_no_copies(n):
    """What `fd_gradient` hands its scorer on a mask that selects nothing, at 4 points against 5
    and at 1000."""
    raster = Grid(SPEC, np.zeros((SPEC.height, SPEC.width)))
    targets = LossTargets(raster, raster, raster, random_cloud(0, 5))
    scorer = losses.MoveScorer(random_cloud(1, n), targets, SunConfig(150.0, 50.0), SPEC, SoftConfig(sigma=1.0),
                               LossWeights(1.0, 1.0, 0.5, 1.0))
    values, breakdown, changed = scorer(np.zeros(0, dtype=np.intp), np.zeros((0, 3)))
    assert values.shape == (0,) and list(breakdown) == list(TERMS) and all(v.shape == (0,) for v in breakdown.values())
    assert list(changed) == ["sil", "shadow", "dsm"]
    assert all(a.shape == (0,) for triple in changed.values() for a in triple)


@pytest.mark.parametrize("lams, sets", [((1, 1, 0.5, 1), 2), ((0, 1, 0, 1), 1), ((0, 1, 0.5, 0), 2),
                                        ((0, 0, 0.5, 1), 2), ((1, 0, 0, 0), 0)])
def test_the_move_scorer_lists_each_point_sets_slots_once_when_built_and_once_per_call(monkeypatch, lams, sets):
    """Built on 12 points, it hands `pixels_within` those 12 once per point set a raster term on
    reads: the (x, y), which the silhouette and the soft DSM share, and the ground projection for
    the shadow; each call hands it its copies' moved points, once per such set; Chamfer hands it
    nothing."""
    handed = []
    build = diffrender.pixels_within
    monkeypatch.setattr(diffrender, "pixels_within", lambda xy, *args: handed.append(len(xy)) or build(xy, *args))
    raster = Grid(SPEC, np.zeros((SPEC.height, SPEC.width)))
    targets = LossTargets(raster, raster, raster, random_cloud(0, 5))
    scorer = losses.MoveScorer(random_cloud(1, 12), targets, SunConfig(150.0, 50.0), SPEC, SoftConfig(sigma=1.0),
                               LossWeights(*lams))
    assert handed == [12] * sets
    for b in (3, 5):
        scorer(np.arange(b), random_cloud(2, b).positions)
    assert handed == [12] * sets + [3] * sets + [5] * sets


@pytest.mark.parametrize("n, m", [(0, 3), (3, 0)])
def test_the_move_scorer_refuses_an_empty_cloud_or_ground_truth(n, m):
    with pytest.raises(EmptyCloud):
        losses.MoveScorer(PointCloud(np.zeros((n, 3))), LossTargets(gt_cloud=PointCloud(np.zeros((m, 3)))), None,
                          SPEC, SoftConfig(sigma=1.0), GEO_ONLY)


# the helper's split: the last term's call added to the others' call is the whole call

@pytest.mark.parametrize("on", [set(on) for k in range(1, 5) for on in combinations(TERMS, k)])
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data())
def test_the_last_terms_call_added_to_the_others_keeps_every_byte_of_combined_loss(on, data):
    """Value, gradient and breakdown of `combined_loss` are, byte for byte, those of a call with the
    last active term's weight zeroed plus, added last, a call with that term alone, as `reconstruct`
    adds its helper's, for every set of two or more active terms. A one-term set has no split: the
    others' weights, all zero, raise InvalidConfig."""
    c, targets, sun, cfg, weights = data.draw(loss_inputs(on))
    last = [term for term in TERMS if term in on][-1]
    split = lambda keep: [weights.of(t) if (t == last) == keep else 0.0 for t in TERMS]
    if len(on) == 1:
        assert LossWeights(*split(True)) == weights
        with pytest.raises(InvalidConfig, match="at least one loss weight"):
            LossWeights(*split(False))
        return
    own, alone = LossWeights(*split(False)), LossWeights(*split(True))
    args = (c, targets, sun, SPEC, cfg)
    try:
        expected = combined_loss(*args, weights)
    except EmptyCloud:  # the geo term of an empty cloud, which is never the last of two
        with pytest.raises(EmptyCloud):
            combined_loss(*args, own)
        return
    (own_value, own_grad, own_breakdown), (v, g, b) = (combined_loss(*args, w) for w in (own, alone))
    value, grad, breakdown = own_value + v, own_grad + g, own_breakdown | b
    assert np.float64(value).tobytes() == np.float64(expected[0]).tobytes()
    assert grad.dtype == expected[1].dtype and grad.tobytes() == expected[1].tobytes()
    assert list(breakdown) == list(expected[2])
    assert all(np.float64(breakdown[k]).tobytes() == np.float64(expected[2][k]).tobytes()
               for k in breakdown)


def call_args(weights=LossWeights(lambda_geo=0.0), n=100, m=64):
    """combined_loss arguments, at the default weights unless given; the ground-truth cloud has m
    points and the cloud n."""
    c = random_cloud(5, n)
    rng = np.random.default_rng(6)
    raster = lambda: Grid(SPEC, rng.uniform(0.0, 1.0, (SPEC.height, SPEC.width)))
    return (c, LossTargets(silhouette=raster(), shadow=raster(), dsm=raster(), gt_cloud=random_cloud(8, m)),
            SunConfig(150.0, 50.0), SPEC, SoftConfig(sigma=1.0), weights)


GEO_AND_SILHOUETTE = LossWeights(1.0, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("n, m", [(40, 25), (100, 64)])
def test_the_callers_thread_makes_every_call_to_the_loss_module_names(monkeypatch, n, m):
    """The wrappable names of `losses` are called on the caller's thread, the same calls in the same
    order on a second call, so a wrapper that keeps one call stack for all threads stays right.
    Chamfer builds b's tree first, and `query_pair` then builds a's tree; the caller queries both."""
    caller, calls = threading.current_thread(), []
    for name in ("chamfer", "nearest_neighbors", "cKDTree", "occupancy_forward_backward",
                 "project_to_ground", "dsm_forward_backward"):
        real = getattr(losses, name)
        monkeypatch.setattr(losses, name, lambda *a, _n=name, _f=real:
                            calls.append((_n, len(a[0]), threading.current_thread() is not caller)) or _f(*a))
    for on in [{"sil", "shadow"}, {"geo"}, {"geo", "sil"}, {"geo", "shadow"}, {"geo", "sil", "shadow"},
               {"geo", "sil", "shadow", "dsm"}]:
        args = call_args(LossWeights(*(1.0 if term in on else 0.0 for term in TERMS)), n, m)
        calls.clear()
        first = combined_loss(*args)
        expected = list(calls)
        calls.clear()
        value, grad, _ = combined_loss(*args)
        assert calls == expected, on
        if on == {"sil", "shadow"}:  # both passes on the caller, the shadow's after one projection
            assert calls == [("occupancy_forward_backward", n, False), ("project_to_ground", n, False),
                             ("occupancy_forward_backward", n, False)]
        if on == {"geo"}:  # b's tree, then a's, both built by the caller
            assert calls == [("chamfer", n, False), ("cKDTree", m, False), ("cKDTree", n, False)]
        assert [name for name, _, _ in calls].count("cKDTree") == 2 * ("geo" in on)
        assert value == first[0] and grad.tobytes() == first[1].tobytes()


def test_a_call_projects_the_cloud_once(monkeypatch):
    """With the silhouette and shadow terms on, the cloud is slid to the ground once per call:
    `sensor.project_to_ground` takes the sun's offsets once per projection."""
    offsets = []
    real = sensor.shadow_offsets
    monkeypatch.setattr(sensor, "shadow_offsets", lambda sun: offsets.append(sun) or real(sun))
    args = call_args()
    assert args[5].lambda_sil > 0 and args[5].lambda_shadow > 0
    combined_loss(*args)
    assert offsets == [args[2]]


@pytest.mark.parametrize("raising", ["ground truth", "cloud"])
@pytest.mark.parametrize("search", [False, True])
def test_an_exception_in_a_kd_tree_query_reaches_the_caller_unchanged(monkeypatch, search, raising):
    """`combined_loss` makes Chamfer's two queries on the caller's thread, the ground truth's tree's
    first, whether it builds that tree or reads it from a run's `GtSearch`: an exception raised in
    either query reaches the caller as the same object, and one raised in the first leaves the
    second unmade."""
    n, m = 100, 64
    caller, err, queried = threading.current_thread(), Diverged("raised in a KD-tree query"), []
    args = call_args(GEO_AND_SILHOUETTE, n, m)
    trees = [losses.GtSearch(args[1].gt_cloud.positions)] if search else []

    class Tree(cKDTree):
        def query(self, x, **kwargs):
            queried.append((len(self.data), threading.current_thread() is caller))
            if len(self.data) == (m if raising == "ground truth" else n):
                raise err
            return super().query(x, **kwargs)

    monkeypatch.setattr(losses, "cKDTree", Tree)
    for gt_search in trees:  # built unpatched, as its own k=2 query would raise; queried through Tree
        gt_search.tree = Tree(gt_search.data)
    with pytest.raises(Diverged) as info:
        combined_loss(*args, *trees)
    assert info.value is err
    assert queried == [(m, True)] + [(n, True)] * (raising == "cloud")


@pytest.mark.parametrize("over", ["ignore", "warn"])
def test_the_kd_tree_queries_run_under_the_callers_numpy_error_state(monkeypatch, over):
    """Chamfer's queries overflow: silently under the caller's `over="ignore"`, where the call gives
    the bytes of one whose queries do not, and as the caller's warning-turned-error under
    `over="warn"`, raised from the first query. `query_pair` sets no error state of its own."""
    n, m = 100, 64
    expected, queried = combined_loss(*call_args(GEO_AND_SILHOUETTE, n, m)), []

    class Tree(cKDTree):
        def query(self, x, **kwargs):
            queried.append(len(self.data))
            np.float64(1e308) * np.array([10.0])
            return super().query(x, **kwargs)

    monkeypatch.setattr(losses, "cKDTree", Tree)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over=over):
            if over == "warn":
                with pytest.raises(RuntimeWarning, match="overflow"):
                    combined_loss(*call_args(GEO_AND_SILHOUETTE, n, m))
                assert queried == [m]
                return
            value, grad, breakdown = combined_loss(*call_args(GEO_AND_SILHOUETTE, n, m))
    assert queried == [m, n]
    assert np.float64(value).tobytes() == np.float64(expected[0]).tobytes()
    assert grad.tobytes() == expected[1].tobytes() and breakdown == expected[2]

@st.composite
def cloud_pairs(draw, lo=1, hi=60):
    """Two clouds of different sizes (lo-hi points) drawn from a few lattice points, so that
    points repeat and nearest distances tie."""
    n = draw(st.integers(lo, hi))
    m = draw(st.integers(lo, hi).filter(lambda m: m != n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lattice = rng.integers(-3, 4, (draw(st.integers(1, 12)), 3)) * draw(st.sampled_from([0.5, 1.0, 3.0]))
    a, b = (lattice[rng.integers(0, len(lattice), k)] for k in (n, m))
    return PointCloud(positions=a), PointCloud(positions=b)


@pytest.mark.parametrize("sizes", [(1, 60), (65, 120)])
@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_prebuilt_ground_truth_tree_keeps_every_byte(sizes, data):
    """`chamfer` and `combined_loss` handed the ground truth's tree, or a `losses.GtSearch` of it
    (whose hint each call leaves for the next), give the bytes of the calls that build it, on
    tie-heavy lattice clouds of 1 to 60 points a side and of 65 to 120; one built from another
    array, even an equal copy, raises InvalidConfig."""
    a, b = data.draw(cloud_pairs(*sizes))
    rng = np.random.default_rng(len(a) * len(b))
    targets = LossTargets(silhouette=Grid(SPEC, rng.uniform(0.0, 1.0, (SPEC.height, SPEC.width))), gt_cloud=b)
    args = (a, targets, None, SPEC, SoftConfig(sigma=1.0), GEO_AND_SILHOUETTE)
    value, grad = chamfer(a, b)
    total, total_grad, breakdown = combined_loss(*args)
    for build in (cKDTree, losses.GtSearch):
        tree, other = build(b.positions), build(b.positions.copy())
        for _ in range(2):  # a GtSearch's second call reads the hint its first left
            given_value, given_grad = chamfer(a, b, tree)
            assert np.float64(given_value).tobytes() == np.float64(value).tobytes()
            assert given_grad.dtype == grad.dtype and given_grad.tobytes() == grad.tobytes()
            given_total, given_total_grad, given_breakdown = combined_loss(*args, tree)
            assert np.float64(given_total).tobytes() == np.float64(total).tobytes()
            assert given_total_grad.tobytes() == total_grad.tobytes() and given_breakdown == breakdown
            with pytest.raises(InvalidConfig, match="KD-tree"):
                chamfer(a, b, other)
            with pytest.raises(InvalidConfig, match="KD-tree"):
                combined_loss(*args, other)


@st.composite
def hinted_searches(draw):
    """(a, pb, hint): both clouds drawn from up to 60 points of a 7 x 7 x 7 lattice, so nearest
    distances tie exactly, with pb's points repeated or not, at a spacing whose squares are normal,
    near the smallest normal float64 or subnormal; 1- and 2-point ground truths; a's points on the
    lattice or jittered off it; x = 1e200 in some points of either cloud, so their squared distances
    to the others overflow; and a hint that holds each point's answer, any index in [0, M], M itself
    (no neighbour), a mix of the three, or a length other than a's."""
    m = draw(st.sampled_from([1, 2]) | st.integers(1, 60))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.5, 1.0, 3.0, 1e-153, 1e-160]))
    k = draw(st.integers(1, 60))
    lattice = (np.stack(np.unravel_index(rng.choice(7**3, k, replace=False), (7, 7, 7)), axis=1) - 3) * scale
    pb = lattice[rng.choice(k, m, replace=m > k or draw(st.booleans()))]
    jitter = draw(st.sampled_from([0.0, 1e-3, 0.2])) * scale
    a = lattice[rng.integers(0, k, n)] + rng.normal(0.0, jitter, (n, 3))
    for points in (a, pb):
        points[rng.random(len(points)) < draw(st.sampled_from([0.0, 0.2])), 0] = 1e200
    answers = {"answer": cKDTree(pb).query(a)[1], "any": rng.integers(0, m + 1, n), "M": np.full(n, m)}
    kind = draw(st.sampled_from(["answer", "any", "M", "mixed", "other length"]))
    if kind == "mixed":
        hint = np.choose(rng.integers(0, 3, n), list(answers.values()))
    elif kind == "other length":
        hint = rng.integers(0, m + 1, n + draw(st.sampled_from([-1, 1])))
    else:
        hint = answers[kind]
    return a, pb, hint


def chamfer_outcome(*args):
    """chamfer's (value, gradient) bytes, or the message of its InvalidConfig."""
    try:
        value, grad = chamfer(*args)
    except InvalidConfig as e:
        return str(e)
    return np.float64(value).tobytes(), grad.tobytes()


SUBNORMAL = math.sqrt(0.51 * 2.0**-1074)  # its square is 0.51 of the smallest subnormal, which rounds to 1 of it


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=hinted_searches())
# pb's squared spacing, three terms each rounded up from 0.51 of the smallest subnormal, reads 3 of it,
# not 1.53, and both of a's squared distances read 0: a radius from it would keep the hint 1
@example(case=(np.full((1, 3), 0.5 * SUBNORMAL), np.array([[0.0, 0.0, 0.0], [SUBNORMAL] * 3]), np.array([1])))
# pb's squared spacing overflows, so an infinite radius would keep the hint 1, not a's nearer point 0
@example(case=(np.array([[0.7e154, 0.0, 0.0]]), np.array([[0.0, 0.0, 0.0], [1.5e154, 0.0, 0.0]]), np.array([1])))
def test_a_ground_truth_search_answers_as_a_kd_tree_whatever_its_hint(case):
    """`losses.GtSearch(pb).query(a)`, whatever hint it holds, returns the indices of
    `cKDTree(pb).query(a)` byte for byte and no distances (None, never half of them), and keeps
    its answer as the next hint; `chamfer` handed the search gives the bytes of one that builds
    its own tree, and a point with no neighbour (the index M) raises InvalidConfig, no IndexError."""
    a, pb, hint = case
    gt = PointCloud(pb)
    search = losses.GtSearch(gt.positions)
    indices = cKDTree(gt.positions).query(a)[1]
    search.hint = hint
    distances, got = search.query(a)
    assert distances is None and got.dtype == indices.dtype and got.tobytes() == indices.tobytes()
    assert search.hint.tobytes() == indices.tobytes()
    search.hint = hint
    outcome = chamfer_outcome(PointCloud(a), gt, search)
    assert outcome == chamfer_outcome(PointCloud(a), gt)
    if (indices == len(pb)).any():
        assert outcome == losses._OVERFLOW


def test_a_search_queries_the_tree_only_for_the_points_its_hints_do_not_prove(monkeypatch):
    """A 5 x 5 x 5 lattice of unit spacing as ground truth and a cloud of its points moved by less
    than a quarter of it, and of its cells' centres, each equally far from 8 lattice points: the
    first query asks the tree for every point; the next, of the cloud moved again by as little,
    only for the centres, whose hints the triangle inequality cannot prove."""
    queried = []

    class Tree(cKDTree):
        def query(self, x, *args, **kwargs):
            queried.append(len(x))
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(losses, "cKDTree", Tree)
    rng = np.random.default_rng(7)
    pb = np.stack(np.meshgrid(*[np.arange(5.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    centres = pb[(pb < 4).all(axis=1)] + 0.5
    search = losses.GtSearch(pb)
    queried.clear()  # the self-query that sets the radii
    for _ in range(2):
        a = np.concatenate([pb + rng.uniform(-0.1, 0.1, pb.shape), centres])
        assert search.query(a)[1].tobytes() == cKDTree(pb).query(a)[1].tobytes()
    assert queried == [len(a), len(centres)]


@pytest.mark.parametrize("m", [40, 300])
@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_a_ground_truth_not_in_c_order_keeps_the_bytes_of_its_c_order_copy_when_no_tree_is_handed_in(
        layout, m):
    """A ground truth given in Fortran order, or as three columns of a wider array, whose
    PointCloud holds a C-order copy of it: `chamfer`, `combined_loss` and `MoveScorer`, handed no
    tree, give the bytes of a cloud made from a C-order copy made first, at 40 points against 40
    and against 300."""
    rng = np.random.default_rng(m)
    wide = rng.uniform(-7.0, 7.0, (m, 5))
    source = np.asfortranarray(wide[:, :3]) if layout == "fortran" else wide[:, 1:4]
    gt, copy = PointCloud(source), PointCloud(np.ascontiguousarray(source))
    assert not source.flags.c_contiguous and gt.positions.flags.c_contiguous
    assert not np.shares_memory(gt.positions, source) and np.array_equal(gt.positions, source)
    stack = rng.uniform(-7.0, 7.0, (3, 40, 3))
    a = PointCloud(stack[0].copy())
    value, grad = chamfer(a, copy)
    given_value, given_grad = chamfer(a, gt)
    assert np.float64(given_value).tobytes() == np.float64(value).tobytes() and given_grad.tobytes() == grad.tobytes()
    silhouette = Grid(SPEC, rng.uniform(0.0, 1.0, (SPEC.height, SPEC.width)))
    args = (None, SPEC, SoftConfig(sigma=1.0), GEO_AND_SILHOUETTE)
    total, total_grad, _ = combined_loss(a, LossTargets(silhouette=silhouette, gt_cloud=copy), *args)
    given_total, given_total_grad, _ = combined_loss(a, LossTargets(silhouette=silhouette, gt_cloud=gt), *args)
    assert np.float64(given_total).tobytes() == np.float64(total).tobytes()
    assert given_total_grad.tobytes() == total_grad.tobytes()
    moves = (np.arange(3), stack[1, :3])
    values = [losses.MoveScorer(a, LossTargets(gt_cloud=c), None, SPEC, SoftConfig(sigma=1.0), GEO_ONLY)(*moves)[0]
              for c in (copy, gt)]
    assert values[1].tobytes() == values[0].tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("far", ["cloud", "ground truth"])
@pytest.mark.parametrize("n, m", [(40, 25), (100, 64)])
def test_a_chamfer_whose_squared_distances_overflow_raises_invalid_config(n, m, far):
    """A coordinate of 1e300 in the cloud or in the ground truth: every squared distance from that
    point overflows, so cKDTree finds it no neighbour (the index len(...)). `chamfer`, `combined_loss`
    and `metrics.eval_chamfer` raise InvalidConfig, with no numpy warning. `fscore` of the same
    clouds then gives the unbounded queries' scores, the far point a miss, read from eval_chamfer's
    search, which a raise does not drop, at 40 x 25 points as at 100 x 64."""
    positions = [random_cloud(0, n).positions, random_cloud(1, m).positions]
    positions[far == "ground truth"][0, 0] = 1e300
    pred, gt = map(PointCloud, positions)
    with pytest.raises(InvalidConfig, match="overflows float64"):
        chamfer(pred, gt)
    with pytest.raises(InvalidConfig, match="overflows float64"):
        combined_loss(pred, LossTargets(gt_cloud=gt), None, SPEC, SoftConfig(sigma=1.0),
                      LossWeights(1.0, 0.0, 0.0, 0.0))
    metrics.fscore(random_cloud(2, n), random_cloud(3, m))  # a search of other clouds, for the thread to keep
    with pytest.raises(InvalidConfig, match="overflows float64"):
        metrics.eval_chamfer(pred, gt)
    with mock.patch.object(metrics, "query_pair", wraps=metrics.query_pair) as search:
        assert metrics.fscore(pred, gt, 1.0) == oracles.fscore_unbounded(pred, gt, 1.0)
    assert search.call_count == 0
