import contextlib
import importlib
import os
import re
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import astuple
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from oracles import surface_points_loop, zero_grid
from treerecon import core, losses
from treerecon.cli import _write_history, main
from treerecon.core import Grid, GridSpec, PointCloud, Rng, RgbGrid, SunConfig, pool, pooled_spec
from treerecon.errors import Diverged, EmptyCloud, EmptyFootprint, InvalidConfig, MissingTarget, SpecMismatch
from treerecon.io_formats import load_scene, write_ply
from treerecon.losses import TERMS, LossWeights, resolve_weights
from treerecon.metrics import eval_chamfer, fscore
from treerecon.protree import SceneConfig, TreeParamRanges, generate_scene
from treerecon.reconstruct import (
    LOSS_POOL,
    STOP_WINDOW,
    AdamState,
    OptimConfig,
    _recolor,
    adam_step,
    baseline_extrude,
    derive_targets,
    init_cloud,
    reconstruct,
)

SPEC = GridSpec(8, 8, 0.0, 0.0, 1.0)


def flat_scene(color, height):
    ortho = RgbGrid(SPEC, np.tile(np.asarray(color, dtype=float), (8, 8, 1)))
    dsm = Grid(SPEC, np.full((8, 8), float(height)))
    return ortho, dsm


class TestDeriveTargets:
    def test_ground_scene_empty_silhouette(self):
        ortho, dsm = flat_scene((0.55, 0.5, 0.42), 0.0)
        t = derive_targets(ortho, dsm, 0.5)
        assert not t.silhouette.values.any()
        assert not t.dsm.values.any()

    def test_green_tall_pixel_selected(self):
        ortho, dsm = flat_scene((0.2, 0.6, 0.2), 6.0)  # EG = 0.8
        t = derive_targets(ortho, dsm, 0.5)
        assert np.all(t.silhouette.values == 1.0)
        np.testing.assert_array_equal(t.dsm.values, dsm.values)

    def test_gray_building_suppressed(self):
        ortho, dsm = flat_scene((0.5, 0.5, 0.5), 6.0)  # EG = 0
        t = derive_targets(ortho, dsm, 0.5)
        assert not t.silhouette.values.any()


class TestInitCloud:
    def setup_method(self):
        self.ortho, self.dsm = flat_scene((0.2, 0.6, 0.2), 8.0)

    def test_single_pixel_footprint_and_z_range(self):
        sil = zero_grid(SPEC)
        sil.values[3, 4] = 1.0
        c = init_cloud(self.dsm, sil, self.ortho, 200, Rng(0))
        assert np.all(np.abs(c.positions[:, 0] - 4.0) <= 0.5 + 1e-12)
        assert np.all(np.abs(c.positions[:, 1] - 3.0) <= 0.5 + 1e-12)
        assert np.all((c.positions[:, 2] >= 1.6) & (c.positions[:, 2] <= 8.0))

    def test_point_budget(self):
        sil = Grid(SPEC, np.ones((8, 8)))
        assert len(init_cloud(self.dsm, sil, self.ortho, 500, Rng(1))) == 500

    def test_uniform_mass_binomial_counts(self):
        sil = zero_grid(SPEC)
        pix = [(0, 0), (0, 1), (1, 0), (1, 1)]
        for r, c in pix:
            sil.values[r, c] = 1.0
        n = 100_000
        cloud = init_cloud(self.dsm, sil, self.ortho, n, Rng(2))
        col = np.round(cloud.positions[:, 0]).astype(int)
        row = np.round(cloud.positions[:, 1]).astype(int)
        sigma = np.sqrt(n * 0.25 * 0.75)
        for r, c in pix:
            count = np.sum((row == r) & (col == c))
            assert abs(count - n / 4) < 3 * sigma

    def test_empty_silhouette_rejected(self):
        with pytest.raises(EmptyFootprint):
            init_cloud(self.dsm, zero_grid(SPEC), self.ortho, 10, Rng(0))


class TestAdamStep:
    def test_zero_grad_no_move(self):
        theta = np.array([1.0, -2.0])
        out = adam_step(AdamState.zeros(2), theta, np.zeros(2), lr=0.1)
        np.testing.assert_array_equal(out, theta)

    def test_first_step_magnitude(self):
        out = adam_step(AdamState.zeros(1), np.zeros(1), np.ones(1), lr=0.1)
        assert abs(out[0] + 0.1 / (1.0 + 1e-8)) < 1e-12

    def test_constant_grad_monotone_toward_lr(self):
        state = AdamState.zeros(1)
        theta = np.zeros(1)
        prev = theta[0]
        steps = []
        for _ in range(100):
            theta = adam_step(state, theta, np.ones(1), lr=0.1)
            steps.append(prev - theta[0])
            prev = theta[0]
        assert all(s > 0 for s in steps)  # monotone in -sign(g)
        assert abs(steps[-1] - 0.1) < 1e-3  # step magnitude approaches lr


class TestReconstruct:
    def test_zero_iters_returns_init(self):
        scene = generate_scene(1)
        cfg = OptimConfig(n_points=100, iters=0, weights=LossWeights(0, 1, 0, 1))
        res = reconstruct(scene.ortho, scene.dsm, cfg=cfg)
        assert len(res.loss_history) == 1
        rng = Rng(cfg.seed)
        from treerecon.reconstruct import derive_targets as dt

        init = init_cloud(
            scene.dsm, dt(scene.ortho, scene.dsm, cfg.h_min).silhouette,
            scene.ortho, 100, rng,
        )
        np.testing.assert_array_equal(res.cloud.positions, init.positions)

    def test_history_length_invariant(self):
        scene = generate_scene(1)
        for iters, log_every in ((10, 3), (12, 4), (1, 50)):
            cfg = OptimConfig(
                n_points=50, iters=iters, log_every=log_every,
                weights=LossWeights(0, 1, 0, 1),
            )
            res = reconstruct(scene.ortho, scene.dsm, cfg=cfg)
            expected = int(np.ceil(iters / log_every)) + 1
            assert len(res.loss_history) == expected
            assert res.loss_history[0][0] == 0
            assert res.loss_history[-1][0] == iters

    def test_geo_only_perturbation_recovery(self):
        scene = generate_scene(5)
        rng = np.random.default_rng(0)
        start = scene.cloud.positions + rng.normal(0.0, 0.5, scene.cloud.positions.shape)
        cfg = OptimConfig(iters=150, weights=LossWeights(1, 0, 0, 0), log_every=150)
        res = reconstruct(
            scene.ortho, scene.dsm, gt_cloud=scene.cloud, cfg=cfg, init_positions=start
        )
        from treerecon.core import PointCloud

        cd0 = eval_chamfer(PointCloud(positions=start), scene.cloud)
        cd1 = eval_chamfer(res.cloud, scene.cloud)
        assert cd1 < cd0 / 2  # the full /5 criterion runs in the acceptance suite

    def test_loss_decreases_on_inputs_only(self):
        scene = generate_scene(6)
        cfg = OptimConfig(
            n_points=300, iters=60, weights=LossWeights(0, 1, 0.5, 0.25), log_every=60
        )
        res = reconstruct(
            scene.ortho, scene.dsm, sun=scene.sun, shadow_target=scene.shadow, cfg=cfg
        )
        assert res.loss_history[-1][1] < res.loss_history[0][1]

    def test_deterministic_byte_identical(self, tmp_path):
        scene = generate_scene(7)
        cfg = OptimConfig(n_points=100, iters=20, weights=LossWeights(0, 1, 0, 1))
        outs = []
        for i in range(2):
            res = reconstruct(scene.ortho, scene.dsm, cfg=cfg)
            path = tmp_path / f"run{i}.ply"
            write_ply(res.cloud, path)
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("shape", [(6, 2), (12,), (2, 4, 3), (3, 4), (0,)])
    def test_init_positions_of_another_shape_than_n_by_3_raise(self, shape):
        """A (6, 2) array once became 4 points without a word."""
        ortho, dsm = flat_scene((0.2, 0.6, 0.2), 6.0)
        with pytest.raises(InvalidConfig, match=re.escape(f"must have shape (N, 3), not {shape}")):
            reconstruct(ortho, dsm, cfg=OptimConfig(n_points=10, iters=1), init_positions=np.ones(shape))

    def test_an_empty_start_raises_empty_cloud(self):
        """An empty init_positions once ran the whole optimisation and returned an empty cloud."""
        ortho, dsm = flat_scene((0.2, 0.6, 0.2), 6.0)
        with pytest.raises(EmptyCloud, match="init_positions holds no points"):
            reconstruct(ortho, dsm, cfg=OptimConfig(n_points=10, iters=5), init_positions=np.zeros((0, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39, -1e39])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_a_start_not_finite_in_float32_is_an_invalid_config(self, bad, axis):
        """A NaN, or a finite value beyond float32, once raised Diverged at iteration 0, before
        any step ran; a negative z is refused too, before z is clamped to the ground."""
        ortho, dsm = flat_scene((0.2, 0.6, 0.2), 6.0)
        start = np.ones((4, 3))
        start[2, axis] = bad
        with pytest.raises(InvalidConfig, match="init_positions holds a coordinate that is not finite in float32") as info:
            reconstruct(ortho, dsm, cfg=OptimConfig(n_points=10, iters=5), init_positions=start)
        assert info.value.exit_code == 5  # as Diverged's was

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_a_start_at_the_float32_limit_runs(self, axis):
        """Colors read an x or y beyond the int64 range at the grid's edge, clipped before the cast."""
        ortho, dsm = flat_scene((0.2, 0.6, 0.2), 6.0)
        start = np.ones((4, 3))
        start[2, axis] = np.finfo(np.float32).max
        res = reconstruct(ortho, dsm, cfg=OptimConfig(n_points=10, iters=2), init_positions=start)
        assert res.cloud.positions.shape == (4, 3)
        at_the_edge = res.cloud.positions.copy()
        at_the_edge[2, axis] = 7.0  # the last column's or row's center of SPEC, or a height above the canopy
        assert res.cloud.colors.tobytes() == _recolor(at_the_edge, ortho, dsm).tobytes()

    def test_z_stays_nonnegative(self):
        scene = generate_scene(8)
        cfg = OptimConfig(n_points=200, iters=40, weights=LossWeights(0, 1, 0, 1))
        res = reconstruct(scene.ortho, scene.dsm, cfg=cfg)
        assert np.all(res.cloud.positions[:, 2] >= 0.0)


class TestNodata:
    def test_non_finite_dsm_pixels_are_background(self):
        scene = generate_scene(7)
        values = scene.dsm.values.copy()
        canopy = np.unravel_index(np.argmax(values), values.shape)  # under the crown
        values[canopy] = np.nan
        values[0, 0] = np.inf  # ground corner
        dsm = Grid(scene.spec, values)
        t = derive_targets(scene.ortho, dsm, 0.5)
        for pixel in (canopy, (0, 0)):
            assert t.silhouette.values[pixel] == 0.0
            assert t.dsm.values[pixel] == 0.0
        assert np.all(np.isfinite(t.dsm.values))
        cfg = OptimConfig(n_points=200, iters=5, log_every=1, weights=LossWeights(0, 1, 0, 1))
        res = reconstruct(scene.ortho, dsm, cfg=cfg)
        assert all(np.isfinite(total) for _, total, _ in res.loss_history)
        assert np.all(np.isfinite(res.cloud.positions))


small_specs = st.builds(GridSpec, st.sampled_from([4, 8]), st.sampled_from([4, 8]),
                        st.sampled_from([0.0, 0.5]), st.just(0.0), st.sampled_from([0.5, 1.0]))


@st.composite
def spec_triples(draw):
    """(DSM, silhouette, orthophoto) specs, each after the first either the first's or drawn
    anew, so that equal and unequal specs are both common."""
    first = draw(small_specs)
    return (first, *(draw(st.just(first) | small_specs) for _ in range(2)))


@settings(max_examples=150, derandomize=True, deadline=None)
@example(specs=(GridSpec(8, 8), GridSpec(4, 4), GridSpec(8, 8)), seed=0, n=20)
@given(specs=spec_triples(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
def test_footprint_sampler_needs_one_spec(specs, seed, n):
    """init_cloud and baseline_extrude raise SpecMismatch unless the DSM, silhouette and
    orthophoto share a spec; on one spec each point is the per-point oracle's, byte for byte."""
    dsm_spec, sil_spec, ortho_spec = specs
    rng = np.random.default_rng(seed)
    dsm = Grid(dsm_spec, rng.uniform(0.0, 9.0, (dsm_spec.height, dsm_spec.width)))
    sil = Grid(sil_spec, (rng.random((sil_spec.height, sil_spec.width)) > 0.5).astype(float))
    sil.values[0, 0] = 1.0
    ortho = RgbGrid(ortho_spec, rng.random((ortho_spec.height, ortho_spec.width, 3)))
    if not dsm_spec == sil_spec == ortho_spec:
        for sample in (init_cloud, baseline_extrude):
            with pytest.raises(SpecMismatch):
                sample(dsm, sil, ortho, n, Rng(seed))
        return
    base = baseline_extrude(dsm, sil, ortho, n, Rng(seed))
    assert base.positions.tobytes() == surface_points_loop(dsm, sil, n, Rng(seed)).tobytes()
    ref_rng = Rng(seed)
    expected = surface_points_loop(dsm, sil, n, ref_rng)
    expected[:, 2] *= ref_rng.uniform(0.2, 1.0, n)
    assert init_cloud(dsm, sil, ortho, n, Rng(seed)).positions.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# the stopping rule: stop at the first t >= 25 with L[t-25] - L[t] < 0.02 |L[t-25]|

SMALL_SCENE = SceneConfig(ranges=TreeParamRanges(n_points=(300, 300)), spec=GridSpec.centered(24, 0.5))
PRESETS = {  # LossWeights, and whether the run needs the ground truth
    "default": (LossWeights(lambda_geo=0.0), False),
    "sil": (LossWeights(0.0, 1.0, 0.0, 0.0), False),
    "dsm": (LossWeights(0.0, 1.0, 0.5, 1.0), False),
    "geo": (LossWeights(1.0, 1.0, 0.5, 0.0), True),
    "geo_only": (LossWeights(1.0, 0.0, 0.0, 0.0), True),
}


reconstruct_module = importlib.import_module("treerecon.reconstruct")  # the package exports the function


@cache
def small_scene(seed):
    return generate_scene(seed, SMALL_SCENE)


def traced_run(seed, preset, iters, n_points, lr):
    """A log_every=1 reconstruct of a small scene, and the positions of each of its loss calls."""
    scene = small_scene(seed)
    weights, geo = PRESETS[preset]
    cfg = OptimConfig(n_points=n_points, iters=iters, lr=lr, weights=weights, log_every=1, seed=seed)
    seen = []

    def spy(cloud, *args):
        seen.append(cloud.positions.copy())
        return loss(cloud, *args)

    loss = reconstruct_module.combined_loss
    with mock.patch.object(reconstruct_module, "combined_loss", spy):
        res = reconstruct(scene.ortho, scene.dsm, sun=scene.sun, shadow_target=scene.shadow,
                          gt_cloud=scene.cloud if geo else None, cfg=cfg)
    return res, seen


def rule_stop(totals, cap):
    for t in range(25, len(totals)):
        if totals[t - 25] - totals[t] < 0.02 * abs(totals[t - 25]):
            return "loss", t
    return "iters", cap


run_args = dict(seed=st.integers(0, 3), preset=st.sampled_from(sorted(PRESETS)),
                n_points=st.integers(5, 60), lr=st.sampled_from([0.02, 0.05, 0.2]))


# four times the largest distance, in meters, between a run's points and those of the run from its
# start in a random order, over four batches of 200 to 1,200 examples of the test below: 3.9e-13 m
PERMUTED_RUN_TOL = 4 * 3.9e-13


@settings(max_examples=40, derandomize=True, deadline=None)
@given(iters=st.integers(0, STOP_WINDOW - 1), order_seed=st.integers(0, 2**32 - 1), **run_args)
def test_a_run_from_permuted_init_positions_gives_the_permuted_cloud(iters, order_seed, seed, preset, n_points, lr):
    """Capped below STOP_WINDOW, so the stopping rule cannot fire and a rounding difference in the
    loss cannot change where the run stops."""
    scene = small_scene(seed)
    weights, geo = PRESETS[preset]
    silhouette = derive_targets(scene.ortho, scene.dsm, OptimConfig().h_min, scene.shadow).silhouette
    start = init_cloud(scene.dsm, silhouette, scene.ortho, n_points, Rng(seed)).positions
    order = np.random.default_rng(order_seed).permutation(n_points)
    cfg = OptimConfig(n_points=n_points, iters=iters, lr=lr, weights=weights, seed=seed)
    runs = [reconstruct(scene.ortho, scene.dsm, sun=scene.sun, shadow_target=scene.shadow,
                        gt_cloud=scene.cloud if geo else None, cfg=cfg, init_positions=p)
            for p in (start, start[order])]
    assert [(r.stop, r.stop_iter) for r in runs] == [("iters", iters)] * 2
    assert np.abs(runs[0].cloud.positions[order] - runs[1].cloud.positions).max() <= PERMUTED_RUN_TOL


@settings(max_examples=40, derandomize=True, deadline=None)
@given(k=st.integers(0, 200), **run_args)
def test_capped_run_is_a_prefix_of_a_longer_one(k, seed, preset, n_points, lr):
    """Up to the longer run's stop, a run capped at k iterations is its first k, byte for byte;
    the stop recomputed from the logged totals is the one recorded."""
    long, positions = traced_run(seed, preset, 200, n_points, lr)
    totals = [total for _, total, _ in long.loss_history]
    assert (long.stop, long.stop_iter) == rule_stop(totals, 200)
    assert [it for it, _, _ in long.loss_history] == list(range(long.stop_iter + 1))
    assert len(positions) == long.stop_iter + 1
    k = min(k, long.stop_iter)
    short, _ = traced_run(seed, preset, k, n_points, lr)
    assert short.cloud.positions.tobytes() == positions[k].tobytes()
    assert short.loss_history == long.loss_history[: k + 1]
    fired = long.stop == "loss" and k == long.stop_iter
    assert (short.stop, short.stop_iter) == ("loss" if fired else "iters", k)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(iters=st.integers(0, 24), log_every=st.integers(1, 30), **run_args)
def test_runs_below_the_window_end_on_the_cap(iters, log_every, seed, preset, n_points, lr):
    scene = small_scene(seed)
    weights, geo = PRESETS[preset]
    cfg = OptimConfig(n_points=n_points, iters=iters, lr=lr, weights=weights, log_every=log_every)
    res = reconstruct(scene.ortho, scene.dsm, sun=scene.sun, shadow_target=scene.shadow,
                      gt_cloud=scene.cloud if geo else None, cfg=cfg)
    assert (res.stop, res.stop_iter) == ("iters", iters)
    assert [it for it, _, _ in res.loss_history] == [t for t in range(iters + 1) if t % log_every == 0 or t == iters]


def test_the_rule_stops_the_default_run_and_logs_its_row():
    """At default weights the loss stalls long before the 800-iteration cap; the history's
    last row is the stop iteration's, whatever log_every is."""
    scene = small_scene(0)
    res = reconstruct(scene.ortho, scene.dsm, sun=scene.sun, shadow_target=scene.shadow,
                      cfg=OptimConfig(n_points=60, weights=PRESETS["default"][0], log_every=1000))
    assert res.stop == "loss" and 25 <= res.stop_iter < 800
    assert [it for it, _, _ in res.loss_history] == [0, res.stop_iter]


HIGH_START = np.zeros((30, 3))
HIGH_START[0, 2] = 400.0  # too high for the soft DSM's exp(BETA z)


DIVERGENCES = [  # OptimConfig fields, init_positions and the Diverged message
    ({"lr": 1e39}, None, "iteration 1: a point position is not finite in float32"),
    ({"weights": LossWeights(0, 1e300, 0, 0)}, None,
     "iteration 0: a gradient component is too large for Adam to square"),
    ({"weights": LossWeights(0, 1, 0, 1)}, HIGH_START, "iteration 0: the loss is nan"),
]


def diverge(fields, start):
    scene = generate_scene(1, SceneConfig(ranges=TreeParamRanges(n_points=(300, 300)),
                                          spec=GridSpec.centered(32, 0.25)))
    reconstruct(scene.ortho, scene.dsm, cfg=OptimConfig(n_points=30, iters=5, **fields), init_positions=start)


@pytest.mark.parametrize("fields, start, message", DIVERGENCES)
def test_each_divergence_guard_names_its_iteration(fields, start, message):
    """Each guard names the iteration it fired at; iteration 0's guards run before any Adam step."""
    with pytest.raises(Diverged, match=f"^{re.escape(message)}$"):
        diverge(fields, start)


# ---------------------------------------------------------------------------
# the library default: OptimConfig().weights is None, and reconstruct resolves
# it from the targets it has, by the rule the CLI applies to unset --lambda flags


def test_resolve_weights_zeroes_absent_targets_and_keeps_given_values():
    gt, shadow = object(), object()
    assert resolve_weights(gt, shadow) == LossWeights()
    assert resolve_weights(None, shadow) == LossWeights(lambda_geo=0.0)
    assert resolve_weights() == LossWeights(0.0, 1.0, 0.0, 0.0)
    assert resolve_weights(lambda_geo=2.0, lambda_sil=None, lambda_dsm=0.5) == LossWeights(2.0, 1.0, 0.0, 0.5)


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("library") / "data"
    assert main(["generate", "--count", "1", "--seed", "4", "--out", str(out), "--grid-size", "32",
                 "--pixel-size", "0.5", "--points-per-tree", "300"]) == 0
    return out / "scene_00000"


@pytest.mark.parametrize("with_gt", [False, True])
def test_library_default_writes_the_cli_bytes(generated, tmp_path, capsys, with_gt):
    scene = load_scene(generated)
    res = reconstruct(scene.ortho, scene.dsm, sun=scene.manifest.sun, shadow_target=scene.shadow,
                      gt_cloud=scene.cloud if with_gt else None, cfg=OptimConfig(n_points=60, iters=3))
    write_ply(res.cloud, tmp_path / "lib.ply")
    _write_history(tmp_path / "lib.history.csv", res.loss_history)
    gt = ["--gt", str(generated / "gt.ply")] if with_gt else []
    assert main(["reconstruct", "--manifest", str(generated / "manifest.json"), "--out",
                 str(tmp_path / "cli.ply"), "--points", "60", "--iters", "3"] + gt) == 0
    for suffix in (".ply", ".history.csv"):
        assert (tmp_path / f"lib{suffix}").read_bytes() == (tmp_path / f"cli{suffix}").read_bytes()
    assert ("geo" in res.loss_history[0][2]) == with_gt


def test_library_default_without_a_shadow_drops_the_shadow_term(generated):
    scene = load_scene(generated)
    res = reconstruct(scene.ortho, scene.dsm, cfg=OptimConfig(n_points=60, iters=3))
    assert sorted(res.loss_history[-1][2]) == ["sil"]


def test_explicit_weights_still_need_their_targets(generated):
    scene = load_scene(generated)
    with pytest.raises(MissingTarget, match="lambda_geo > 0 requires a gt_cloud target"):
        reconstruct(scene.ortho, scene.dsm, sun=scene.manifest.sun, shadow_target=scene.shadow,
                    cfg=OptimConfig(n_points=60, iters=3, weights=LossWeights()))
    with pytest.raises(MissingTarget, match="lambda_shadow > 0 requires a shadow target"):
        reconstruct(scene.ortho, scene.dsm, cfg=OptimConfig(n_points=60, iters=3,
                                                           weights=LossWeights(lambda_geo=0.0)))


def test_a_shadow_on_another_grid_is_refused_even_where_both_pool_to_one_loss_grid():
    """A 127-column shadow beside a 128-column DSM pools to the same 64-column loss grid, yet the run
    refuses it: the targets are checked on the input grid, before pooling."""
    spec, other = GridSpec(128, 8), GridSpec(127, 8)
    assert pooled_spec(spec, LOSS_POOL) == pooled_spec(other, LOSS_POOL)
    ortho = RgbGrid(spec, np.tile([0.2, 0.6, 0.2], (8, 128, 1)))
    with pytest.raises(SpecMismatch, match="shadow target spec mismatch"):
        reconstruct(ortho, Grid(spec, np.full((8, 128), 5.0)), sun=SunConfig(135.0, 45.0),
                    shadow_target=Grid(other, np.zeros((8, 127))), cfg=OptimConfig(n_points=10, iters=1))


@pytest.mark.parametrize("preset", ["dsm", "geo"])
def test_the_loss_is_scored_on_the_pooled_grid_with_sigma_in_input_pixels(preset):
    """combined_loss gets the input grid pooled LOSS_POOL x LOSS_POOL, the block means of
    derive_targets' rasters on it, the ground truth as given, σ one input pixel and, with the
    Chamfer term on, one KD-tree of the ground truth's positions array for every call. The helper
    process is kept off (no CPU for it), so each call scores the whole objective."""
    scene = small_scene(1)
    weights, geo = PRESETS[preset]
    gt = scene.cloud if geo else None
    calls = []

    def spy(*args):
        calls.append(args)
        return loss(*args)

    loss = reconstruct_module.combined_loss
    with mock.patch.object(reconstruct_module, "combined_loss", spy), no_helper():
        reconstruct(scene.ortho, scene.dsm, sun=scene.sun, shadow_target=scene.shadow, gt_cloud=gt,
                    cfg=OptimConfig(n_points=40, iters=2, weights=weights))
    fine = derive_targets(scene.ortho, scene.dsm, OptimConfig().h_min, scene.shadow)
    spec = pooled_spec(scene.dsm.spec, LOSS_POOL)
    assert spec.width == -(-scene.dsm.spec.width // 2) and spec.pixel_size == 2 * scene.dsm.spec.pixel_size
    assert len(calls) == 3
    assert all(tree is calls[0][7] for *_, tree in calls)
    for _, targets, sun, loss_spec, soft_cfg, w, _, tree in calls:
        assert (loss_spec, sun, w, targets.gt_cloud) == (spec, scene.sun, weights, gt)
        assert tree.data is gt.positions if geo else tree is None
        assert soft_cfg.sigma == scene.dsm.spec.pixel_size
        for field in ("silhouette", "shadow", "dsm"):
            target = getattr(targets, field)
            assert target.spec == spec
            assert np.array_equal(target.values, pool(getattr(fine, field), LOSS_POOL).values)


def run_bytes(tmp, seed, preset, n_points, lr, iters, threaded):
    """PLY and history bytes of one reconstruct with a worker pool or not, and whether each
    loss call got a pool."""
    scene = small_scene(seed)
    weights, geo = PRESETS[preset]
    pools = []

    def spy(*args):
        pools.append(args[6] is not None)
        return loss(*args)

    loss = reconstruct_module.combined_loss
    with mock.patch.object(reconstruct_module, "combined_loss", spy), \
            mock.patch.object(core, "worker_pool",
                              (lambda: ThreadPoolExecutor(1)) if threaded else (lambda: None)):
        res = reconstruct(scene.ortho, scene.dsm, sun=scene.sun, shadow_target=scene.shadow,
                          gt_cloud=scene.cloud if geo else None,
                          cfg=OptimConfig(n_points=n_points, iters=iters, lr=lr, weights=weights, seed=seed))
    write_ply(res.cloud, tmp / "r.ply")
    _write_history(tmp / "r.history.csv", res.loss_history)
    return (tmp / "r.ply").read_bytes(), (tmp / "r.history.csv").read_bytes(), set(pools)


@settings(max_examples=20, derandomize=True, deadline=None)
@example(iters=40, seed=1, preset="geo_only", n_points=60, lr=0.05)
@example(iters=40, seed=2, preset="geo", n_points=60, lr=0.2)
@given(iters=st.integers(0, 40), **run_args)
def test_a_threaded_run_writes_the_bytes_of_a_serial_one(tmp_path_factory, iters, seed, preset, n_points, lr):
    tmp = tmp_path_factory.mktemp("threads")
    (tmp / "serial").mkdir()
    (tmp / "threaded").mkdir()
    *serial, serial_pools = run_bytes(tmp / "serial", seed, preset, n_points, lr, iters, False)
    *threaded, threaded_pools = run_bytes(tmp / "threaded", seed, preset, n_points, lr, iters, True)
    assert serial == threaded
    assert serial_pools == {False} and threaded_pools == {PRESETS[preset][0].lambda_geo > 0}


@pytest.mark.parametrize("threaded", [False, True])
def test_a_chamfer_run_builds_one_kd_tree_of_the_ground_truth(monkeypatch, threaded):
    """A run of 30 or more iterations with the Chamfer term on, serial or with its worker pool,
    builds one `losses.cKDTree` of the ground truth's positions array, held by one
    `losses.GtSearch` that it hands to every loss call; the only other trees are the cloud's own,
    one a call (200 points against the ground truth is above `losses._TABLE_MAX`)."""
    scene, builds, calls = small_scene(0), [], []
    gt = scene.cloud.positions
    assert 200 * len(gt) > losses._TABLE_MAX

    class Tree(cKDTree):
        def __init__(self, data, *args, **kwargs):
            builds.append(data)
            super().__init__(data, *args, **kwargs)

    def spy(*args):
        calls.append(args[6:])
        return loss(*args)

    loss = reconstruct_module.combined_loss
    monkeypatch.setattr(losses, "cKDTree", Tree)
    monkeypatch.setattr(reconstruct_module, "combined_loss", spy)
    monkeypatch.setattr(core, "worker_pool",
                        (lambda: ThreadPoolExecutor(1)) if threaded else (lambda: None))
    res = reconstruct(scene.ortho, scene.dsm, sun=scene.sun, shadow_target=scene.shadow, gt_cloud=scene.cloud,
                      cfg=OptimConfig(n_points=200, iters=40, weights=PRESETS["geo"][0]))
    assert res.stop_iter >= 30 and len(calls) == res.stop_iter + 1
    assert [data is gt for data in builds].count(True) == 1 and len(builds) == 1 + len(calls)
    search = calls[0][1]
    assert type(search) is losses.GtSearch and type(search.tree) is Tree and search.data is gt
    assert all(got is search and (executor is not None) == threaded for executor, got in calls)


def test_a_ground_truth_not_in_c_order_gives_the_bytes_of_its_c_order_copy():
    """A PointCloud made from Fortran-order positions holds a C-order copy of them, so its tree
    holds that copy; a run given that cloud has the bytes of a run given the C-order original."""
    scene = small_scene(1)
    source = np.asfortranarray(scene.cloud.positions)
    fortran = PointCloud(source)
    assert not source.flags.c_contiguous and fortran.positions.flags.c_contiguous
    assert not np.shares_memory(fortran.positions, source) and np.array_equal(fortran.positions, source)
    runs = [reconstruct(scene.ortho, scene.dsm, sun=scene.sun, shadow_target=scene.shadow, gt_cloud=gt,
                        cfg=OptimConfig(n_points=60, iters=10, weights=PRESETS["geo"][0]))
            for gt in (scene.cloud, fortran)]
    assert runs[0].cloud.positions.tobytes() == runs[1].cloud.positions.tobytes()
    assert runs[0].loss_history == runs[1].loss_history


@pytest.mark.parametrize("preset", [name for name, (weights, _) in PRESETS.items() if weights.lambda_geo == 0])
def test_a_raster_only_run_starts_no_thread(preset):
    """Without the Chamfer term a run asks for no pool, and every loss call gets none."""
    scene = small_scene(0)
    weights, _ = PRESETS[preset]
    started, executors = [], []

    def spy(*args):
        executors.append(args[6])
        return loss(*args)

    loss = reconstruct_module.combined_loss
    with mock.patch.object(reconstruct_module, "combined_loss", spy), \
            mock.patch.object(core, "worker_pool", lambda: started.append(1) or ThreadPoolExecutor(1)):
        reconstruct(scene.ortho, scene.dsm, sun=scene.sun, shadow_target=scene.shadow,
                    cfg=OptimConfig(n_points=40, iters=3, weights=weights))
    assert started == [] and executors == [None] * 4


def current_cpu() -> int:
    with open("/proc/thread-self/stat") as f:
        return int(f.read().rsplit(")", 1)[1].split()[36])


def worker_pool_in_a_worker_process() -> bool:
    return core.worker_pool() is None


def threads_started_by_scoring() -> int:
    """How many threads eval_chamfer and then fscore start, on clouds whose Chamfer reads trees
    (only eval_chamfer's worker: fscore reads the distances it found)."""
    started, start = [], threading.Thread.start
    scene = small_scene(0)
    pred = PointCloud(scene.cloud.positions[::2] + 0.1)
    assert len(pred) * len(scene.cloud) > losses._TABLE_MAX
    with mock.patch.object(threading.Thread, "start", lambda thread: started.append(thread) or start(thread)):
        eval_chamfer(pred, scene.cloud)
        fscore(pred, scene.cloud)
    return len(started)


two_cpus = pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                              reason="one CPU, or no Linux affinity calls: the run keeps one thread")


@two_cpus
def test_the_chamfer_worker_runs_off_the_callers_cpu():
    caller, allowed = current_cpu(), os.sched_getaffinity(0)
    with core.worker_pool() as pool:
        assert caller not in [pool.submit(current_cpu).result(timeout=60) for _ in range(20)]
        assert pool.submit(os.sched_getaffinity, 0).result(timeout=60) == allowed - {caller}


def test_a_jobs_worker_process_keeps_its_passes_on_one_thread():
    """Its siblings fill the cores: no Chamfer thread, no helper process, and scoring starts no thread."""
    with ProcessPoolExecutor(1) as workers:
        assert workers.submit(worker_pool_in_a_worker_process).result(timeout=120)
        assert workers.submit(forks_of_a_default_run).result(timeout=120) == 0
        assert workers.submit(threads_started_by_scoring).result(timeout=120) == 0
    with mock.patch.object(core.multiprocessing, "parent_process", lambda: object()):
        assert core.worker_pool() is None
        assert forks_of_a_default_run() == 0
        assert threads_started_by_scoring() == 0


# ---------------------------------------------------------------------------
# the helper process: a run with two or more active terms scores the last of
# them in one process forked per run, pinned off the caller's CPU


@contextlib.contextmanager
def recorded_forks():
    """The pid of each child `os.fork` makes while this is open."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    with mock.patch.object(os, "fork", spy):
        yield pids


def no_helper():
    """The CPU rule patched to find no CPU: no helper process and no Chamfer thread."""
    return mock.patch.object(core, "other_cpus", set)


def helper_cpu(pid: int) -> int:
    with open(f"/proc/{pid}/stat") as f:  # field 39: the CPU it last ran on
        return int(f.read().rsplit(")", 1)[1].split()[36])


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def run_default(preset="default", iters=3, **fields):
    scene = small_scene(0)
    weights, geo = PRESETS[preset]
    return reconstruct(scene.ortho, scene.dsm, sun=scene.sun, shadow_target=scene.shadow,
                       gt_cloud=scene.cloud if geo else None,
                       cfg=OptimConfig(n_points=40, iters=iters, weights=weights, **fields))


@two_cpus
def test_a_default_run_forks_one_helper_off_the_callers_cpu():
    caller, allowed, seen, parent = current_cpu(), os.sched_getaffinity(0), [], os.getpid()

    def spy(*args):
        if os.getpid() == parent:  # from iteration 1 on, the helper has answered, so it has pinned itself
            seen.append((os.sched_getaffinity(pids[0]), helper_cpu(pids[0])))
        return loss(*args)

    loss = reconstruct_module.combined_loss
    with recorded_forks() as pids, mock.patch.object(reconstruct_module, "combined_loss", spy):
        run_default(iters=10)
    assert len(pids) == 1 and len(seen) == 11
    del seen[0]
    assert all(cpus == allowed - {caller} and cpu != caller for cpus, cpu in seen)
    assert_reaped(pids)


def written_bytes(tmp, seed, preset, n_points, lr, iters, helper):
    """PLY and history bytes of one reconstruct, with the helper process or not, its stop, and
    how many helpers it forked."""
    scene = small_scene(seed)
    weights, geo = PRESETS[preset]
    with recorded_forks() as pids, contextlib.nullcontext() if helper else no_helper():
        res = reconstruct(scene.ortho, scene.dsm, sun=scene.sun, shadow_target=scene.shadow,
                          gt_cloud=scene.cloud if geo else None,
                          cfg=OptimConfig(n_points=n_points, iters=iters, lr=lr, weights=weights, seed=seed))
    write_ply(res.cloud, tmp / "r.ply")
    _write_history(tmp / "r.history.csv", res.loss_history)
    assert_reaped(pids)
    return (tmp / "r.ply").read_bytes(), (tmp / "r.history.csv").read_bytes(), res.stop, len(pids)


@two_cpus
@settings(max_examples=20, derandomize=True, deadline=None)
@example(iters=200, seed=0, preset="default", n_points=30, lr=0.2)  # the rule stops these three
@example(iters=200, seed=1, preset="dsm", n_points=30, lr=0.2)
@example(iters=200, seed=2, preset="geo", n_points=60, lr=0.05)
@given(iters=st.integers(0, 200), **run_args)
def test_a_run_with_its_helper_writes_the_bytes_of_one_without(tmp_path_factory, iters, seed, preset, n_points, lr):
    """Byte for byte, stop for stop, whether the cap or the stopping rule ends the run."""
    runs = []
    for helper in (False, True):
        tmp = tmp_path_factory.mktemp("helper")
        *written, forks = written_bytes(tmp, seed, preset, n_points, lr, iters, helper)
        runs.append(written)
        assert forks == (helper and sum(w > 0 for w in astuple(PRESETS[preset][0])) > 1)
    assert runs[0] == runs[1]


@two_cpus
def test_scoring_between_two_runs_leaves_no_thread_for_the_next_helper():
    """A run, its scoring and a second run in one process, in the order of one `recon_inputs`
    operation: eval_chamfer starts its worker thread and joins it before it returns, and fscore
    reads the distances eval_chamfer found and starts none, so the second run still forks its helper."""
    scene, started, start = small_scene(0), [], threading.Thread.start
    with recorded_forks() as pids, \
            mock.patch.object(threading.Thread, "start", lambda thread: started.append(thread) or start(thread)):
        pred = run_default().cloud
        assert len(pids) == 1 and len(pred) * len(scene.cloud) > losses._TABLE_MAX
        for score, threads in ((eval_chamfer, 1), (fscore, 0)):
            started.clear()
            score(pred, scene.cloud)
            assert len(started) == threads  # eval_chamfer did start its worker
            assert threading.active_count() == 1
        run_default()
    assert len(pids) == 2
    assert_reaped(pids)


@pytest.mark.parametrize("seed, preset, n_points, lr", [(0, "default", 30, 0.2), (1, "dsm", 30, 0.2),
                                                       (2, "geo", 60, 0.05)])
def test_the_rule_ends_the_examples_run_with_a_helper(tmp_path, seed, preset, n_points, lr):
    assert written_bytes(tmp_path, seed, preset, n_points, lr, 200, True)[2] == "loss"


@pytest.mark.parametrize("fields, start, message", DIVERGENCES)
def test_a_run_with_its_helper_diverges_with_the_message_of_one_without(fields, start, message):
    for patch in (contextlib.nullcontext(), no_helper()):
        with patch, recorded_forks() as pids, pytest.raises(Diverged, match=f"^{re.escape(message)}$"):
            diverge(fields, start)
        assert_reaped(pids)


@two_cpus
def test_the_parent_scores_all_but_the_last_term_and_the_helper_that_term():
    """Together the parent's weights and the helper's are the run's, with the last active term's
    weight on the helper alone; the helper's job, called here, scores that term."""
    calls, helpers = [], []

    class Helper(reconstruct_module._Helper):
        def __init__(self, job, term, *args):
            helpers.append((job, term))
            super().__init__(job, term, *args)

    def spy(cloud, targets, sun, spec, soft_cfg, weights, *buffers):
        calls.append(weights)
        return loss(cloud, targets, sun, spec, soft_cfg, weights, *buffers)

    loss = reconstruct_module.combined_loss
    for preset, last in (("default", "shadow"), ("dsm", "dsm"), ("geo", "shadow")):
        calls.clear()
        helpers.clear()
        with mock.patch.object(reconstruct_module, "combined_loss", spy), \
                mock.patch.object(reconstruct_module, "_Helper", Helper):
            res = run_default(preset)
            parent = list(calls)
            (job, term), = helpers
            value, _, breakdown = job(res.cloud.positions)
        weights = PRESETS[preset][0]
        (own,), alone = set(parent), calls[-1]
        assert term == last and len(parent) == 4
        assert [own.of(t) + alone.of(t) for t in TERMS] == [weights.of(t) for t in TERMS]
        assert [t for t in TERMS if alone.of(t) > 0] == [last] and own.of(last) == 0
        assert list(breakdown) == [last] and value == weights.of(last) * breakdown[last]


@pytest.mark.parametrize("raised", [RuntimeError("boom"), KeyboardInterrupt()])
@pytest.mark.parametrize("preset", ["default", "dsm"])
def test_no_helper_outlives_a_run(preset, raised):
    """After a capped run, a run the rule stopped, a Diverged run and runs whose loop raised."""
    calls, loss, parent = [], reconstruct_module.combined_loss, os.getpid()

    def failing(*args):
        calls.append(1)
        if os.getpid() == parent and len(calls) == 3:
            raise raised
        return loss(*args)

    with recorded_forks() as pids:
        run_default(preset, iters=5)
        assert run_default(preset, iters=800).stop == "loss"
        with pytest.raises(Diverged):
            run_default(preset, lr=1e39)
        with mock.patch.object(reconstruct_module, "combined_loss", failing), pytest.raises(type(raised)):
            run_default(preset)
    if len(os.sched_getaffinity(0)) > 1:
        assert len(pids) == 4
    assert_reaped(pids)


def fail_in_the_helper(how, at):
    """combined_loss patched to raise, or to exit, in the helper process from its `at`-th call on."""
    calls, loss, parent = [], reconstruct_module.combined_loss, os.getpid()

    def failing(*args):
        calls.append(1)
        if os.getpid() != parent and len(calls) > at:
            if how == "exit":
                os._exit(3)
            raise RuntimeError("the helper's job raised")
        return loss(*args)

    return mock.patch.object(reconstruct_module, "combined_loss", failing)


@pytest.mark.parametrize("at", [0, 7])
@pytest.mark.parametrize("how", ["raise", "exit"])
@pytest.mark.parametrize("preset", ["default", "dsm", "geo"])
def test_a_failed_helper_leaves_its_term_to_the_parent(tmp_path, preset, how, at):
    """From the helper's failure on, the parent scores its term itself: the bytes of a run
    without it."""
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    serial = written_bytes(tmp_path / "a", 1, preset, 30, 0.05, 12, False)[:3]
    with fail_in_the_helper(how, at):
        assert written_bytes(tmp_path / "b", 1, preset, 30, 0.05, 12, True)[:3] == serial


def test_a_term_that_fails_in_the_helper_raises_the_exception_of_a_run_without_it():
    loss = reconstruct_module.combined_loss

    def no_shadow(cloud, targets, sun, spec, soft_cfg, weights, *buffers):
        if weights.lambda_shadow > 0:
            raise ValueError(f"no shadow for {len(cloud)} points")
        return loss(cloud, targets, sun, spec, soft_cfg, weights, *buffers)

    for patch in (contextlib.nullcontext(), no_helper()):
        with patch, recorded_forks() as pids, mock.patch.object(reconstruct_module, "combined_loss", no_shadow), \
                pytest.raises(ValueError, match="^no shadow for 40 points$"):
            run_default()
        assert_reaped(pids)


@pytest.mark.parametrize("preset", ["sil", "geo_only"])
def test_a_run_with_one_term_forks_no_helper(preset):
    with recorded_forks() as pids:
        run_default(preset)
    assert pids == []


def forks_of_a_default_run() -> int:
    with recorded_forks() as pids:
        run_default()
    return len(pids)


def test_no_helper_is_forked_beside_another_thread():
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        assert forks_of_a_default_run() == 0
    finally:
        done.set()
        other.join(timeout=60)
    assert not other.is_alive()
