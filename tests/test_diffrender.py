import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import finite_diff
from treerecon.core import Grid, GridSpec, PointCloud, SunConfig
from treerecon.errors import InvalidConfig, SpecMismatch
from treerecon.losses import (
    H_NORM,
    LossTargets,
    LossWeights,
    combined_loss,
    dsm_forward_backward,
    occupancy_forward_backward,
    raster_l2,
)
from treerecon.diffrender import (
    ALPHA,
    BETA,
    SoftConfig,
    _Slots,
    _pass,
    _soft_max_height,
    _soft_or,
    project_to_ground,
    soft_dsm,
    soft_dsm_backward,
    soft_shadow,
    soft_shadow_backward,
    soft_silhouette,
    soft_silhouette_backward,
    soft_stack,
)
from treerecon import diffrender, sensor
from treerecon.sensor import pixels_within, render_dsm

SPEC = GridSpec(21, 21, -10.0, -10.0, 1.0)


def cloud(points):
    return PointCloud(positions=np.array(points, dtype=float).reshape(-1, 3))


def random_cloud(seed, n=20, z_hi=8.0, extent=7.0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-extent, extent, (n, 3))
    pts[:, 2] = rng.uniform(0.5, z_hi, n)
    return PointCloud(positions=pts)


def fd_check(f, grad, x, sigma, rel_tol=1e-3):
    """Assert analytic grad matches central differences componentwise."""
    fd = finite_diff(f, x, 1e-4 * sigma)
    err = np.abs(grad - fd)
    ref = np.maximum(np.abs(fd), 1e-5)
    assert np.all(err <= rel_tol * ref), f"max rel err {np.max(err / ref):.3e}"


def assert_slots_match_a_dense_scan(xy, spec, sigma, trunc):
    s = _Slots(xy, spec, SoftConfig(sigma=sigma, trunc=trunc))

    xs, ys = spec.pixel_centers()
    dx = xy[:, 0, None, None] - xs[None, None, :]
    dy = xy[:, 1, None, None] - ys[None, :, None]
    d2 = dx**2 + dy**2
    point, row, col = np.nonzero(d2 <= (trunc * sigma) ** 2)
    assert np.array_equal(s.point, point)
    assert np.array_equal(s.flat, row * spec.width + col)
    assert np.array_equal(s.dx.ravel()[s.c], dx[point, 0, col])  # each slot's offsets, read
    assert np.array_equal(s.dy.ravel()[s.r], dy[point, row, 0])  # from its point's window
    arg = d2[point, row, col] / (2.0 * sigma**2)
    g = np.exp(-arg)
    # exp(-a) * exp(-b) vs exp(-(a + b)): a few ulp of the argument apart
    assert np.all(np.abs(s.g - g) <= 4 * np.finfo(float).eps * (1.0 + arg) * g)


@st.composite
def grids_and_clouds(draw):
    """A grid of 1-24 x 1-24 pixels and up to 12 points, each a pixel index on
    or off the grid plus a fraction of a pixel per axis (0 is a pixel center)."""
    spec = GridSpec(draw(st.integers(1, 24)), draw(st.integers(1, 24)),
                    draw(st.floats(-20.0, 20.0)), draw(st.floats(-20.0, 20.0)),
                    draw(st.floats(0.1, 3.0)))
    frac = st.sampled_from([0.0, 0.5]) | st.floats(-1.0, 1.0)
    pixel = st.tuples(st.integers(-8, 32), frac, st.integers(-8, 32), frac)
    xy = [(spec.origin_x + (i + fi) * spec.pixel_size, spec.origin_y + (j + fj) * spec.pixel_size)
          for i, fi, j, fj in draw(st.lists(pixel, max_size=12))]
    return spec, np.array(xy, dtype=float).reshape(-1, 2)


class TestSlots:
    @pytest.mark.parametrize(
        "sigma, trunc", [(1.0, 3.0), (0.7, 2.5), (1.3, 1.0), (1.0, np.inf)]
    )
    def test_match_a_dense_scan_of_the_grid(self, sigma, trunc):
        # points on and off the grid, one exactly on a pixel center (a cutoff
        # of whole pixels then lands exactly on other centers)
        rng = np.random.default_rng(15)
        xy = np.vstack([rng.uniform(-13.0, 13.0, (40, 2)), [[0.0, 0.0], [10.0, -10.0]]])
        assert_slots_match_a_dense_scan(xy, SPEC, sigma, trunc)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @example(grid_cloud=(SPEC, np.zeros((0, 2))), sigma=1.0, trunc=3.0)
    @example(grid_cloud=(SPEC, np.zeros((0, 2))), sigma=1.0, trunc=np.inf)
    @given(grid_cloud=grids_and_clouds(), sigma=st.floats(0.1, 3.0),
           trunc=st.floats(1.0, 6.0) | st.just(np.inf))
    def test_match_a_dense_scan_of_drawn_grids(self, grid_cloud, sigma, trunc):
        spec, xy = grid_cloud
        assert_slots_match_a_dense_scan(xy, spec, sigma, trunc)


class TestSoftSilhouette:
    def test_empty_cloud_all_zero(self):
        out = soft_silhouette(cloud(np.zeros((0, 3))), SPEC, SoftConfig(sigma=1.0))
        assert not out.values.any()

    def test_point_at_center_full_alpha(self):
        # O = 1 - (1 - ALPHA * 1) = ALPHA
        out = soft_silhouette(cloud([0, 0, 5]), SPEC, SoftConfig(sigma=1.0))
        assert out.values[10, 10] == ALPHA

    def test_point_one_sigma_away(self):
        # O = 1 - (1 - ALPHA * e^{-0.5}) = ALPHA * e^{-0.5}
        out = soft_silhouette(cloud([1, 0, 5]), SPEC, SoftConfig(sigma=1.0))
        assert abs(out.values[10, 10] - ALPHA * np.exp(-0.5)) < 1e-12

    def test_values_in_unit_interval(self):
        out = soft_silhouette(random_cloud(0, 40), SPEC, SoftConfig(sigma=1.2))
        assert np.all(out.values >= 0.0) and np.all(out.values < 1.0)

    def test_zero_pixel_grad_gives_zero_buffer(self):
        g = soft_silhouette_backward(
            random_cloud(1), SPEC, SoftConfig(sigma=1.0), Grid.zeros(SPEC)
        )
        assert not g.any()

    def test_symmetric_point_has_zero_grad(self):
        d = Grid.zeros(SPEC)
        d.values[10, 10] = 1.0
        g = soft_silhouette_backward(
            cloud([0, 0, 5]), SPEC, SoftConfig(sigma=1.0), d
        )
        np.testing.assert_allclose(g[0], 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        cfg = SoftConfig(sigma=1.1, trunc=np.inf)
        rng = np.random.default_rng(2)
        d = Grid(SPEC, rng.normal(size=(21, 21)))
        c = random_cloud(3)

        def f(x):
            return float(
                (soft_silhouette(PointCloud(positions=x), SPEC, cfg).values * d.values).sum()
            )

        grad = soft_silhouette_backward(c, SPEC, cfg, d)
        fd_check(f, grad, c.positions, cfg.sigma)

    def test_opaque_hit_uses_leave_one_out_product(self, monkeypatch):
        # ALPHA just below 1 and a point exactly on a pixel center make
        # 1 - ALPHA*g all but zero there; dividing it back out stays exact
        alpha = 1.0 - 1e-13
        monkeypatch.setattr(diffrender, "ALPHA", alpha)
        cfg = SoftConfig(sigma=1.0, trunc=np.inf)
        c = cloud([[0, 0, 3], [0.6, -0.3, 2], [-0.4, 0.7, 4], [0.9, 0.8, 1]])
        s = _Slots(c.positions[:, :2], SPEC, cfg)
        assert np.count_nonzero(1.0 - alpha * s.g < 1e-12) == 1
        d = Grid(SPEC, np.random.default_rng(12).normal(size=(21, 21)))

        def f(x):
            return float(
                (soft_silhouette(PointCloud(positions=x), SPEC, cfg).values * d.values).sum()
            )

        grad = soft_silhouette_backward(c, SPEC, cfg, d)
        assert np.all(np.isfinite(grad))
        fd_check(f, grad, c.positions, cfg.sigma)


class TestSoftDsm:
    def test_empty_cloud_all_zero(self):
        out = soft_dsm(cloud(np.zeros((0, 3))), SPEC, SoftConfig(sigma=1.0))
        assert not out.values.any()

    def test_single_point_near_height(self):
        out = soft_dsm(cloud([0, 0, 5]), SPEC, SoftConfig(sigma=1.0))
        e5 = np.exp(BETA * 5)
        expected = 5.0 * e5 / (e5 + 1e-4)
        assert abs(out.values[10, 10] - expected) < 1e-12

    def test_two_points_softmax_toward_taller(self):
        out = soft_dsm(cloud([[0, 0, 2], [0, 0, 10]]), SPEC, SoftConfig(sigma=1.0))
        e2, e10 = np.exp(BETA * 2), np.exp(BETA * 10)
        expected = (2 * e2 + 10 * e10) / (e2 + e10 + 1e-4)
        assert abs(out.values[10, 10] - expected) < 1e-12

    def test_zero_pixel_grad_gives_zero_buffer(self):
        g = soft_dsm_backward(
            random_cloud(4), SPEC, SoftConfig(sigma=1.0), Grid.zeros(SPEC)
        )
        assert not g.any()

    def test_z_grad_positive_at_single_sample_pixel(self):
        d = Grid.zeros(SPEC)
        d.values[10, 10] = 1.0
        g = soft_dsm_backward(cloud([0, 0, 5]), SPEC, SoftConfig(sigma=1.0), d)
        assert g[0, 2] > 0

    def test_matches_finite_differences(self):
        cfg = SoftConfig(sigma=0.9, trunc=np.inf)
        rng = np.random.default_rng(5)
        d = Grid(SPEC, rng.normal(size=(21, 21)))
        c = random_cloud(6)

        def f(x):
            return float(
                (soft_dsm(PointCloud(positions=x), SPEC, cfg).values * d.values).sum()
            )

        grad = soft_dsm_backward(c, SPEC, cfg, d)
        fd_check(f, grad, c.positions, cfg.sigma)


class TestProjectToGround:
    def test_zenith_identity(self):
        c = random_cloud(7)
        xy, jac = project_to_ground(c, SunConfig(0.0, 90.0))
        np.testing.assert_allclose(xy, c.positions[:, :2], atol=1e-12)
        np.testing.assert_allclose(jac[:, 2], [0.0, 0.0], atol=1e-12)

    def test_east_45(self):
        xy, _ = project_to_ground(cloud([0, 0, 10]), SunConfig(90.0, 45.0))
        np.testing.assert_allclose(xy[0], [-10.0, 0.0], atol=1e-9)

    def test_north_30(self):
        xy, _ = project_to_ground(cloud([1, 1, 2]), SunConfig(0.0, 30.0))
        np.testing.assert_allclose(xy[0], [1.0, 1.0 - 2.0 * np.sqrt(3.0)], atol=1e-9)

    def test_jacobian_matches_projection(self):
        sun = SunConfig(213.0, 37.0)
        c = random_cloud(8)
        xy, jac = project_to_ground(c, sun)
        np.testing.assert_allclose(xy, c.positions @ jac.T, atol=1e-12)


class TestSoftShadow:
    def test_zenith_equals_silhouette(self):
        cfg = SoftConfig(sigma=1.0)
        c = random_cloud(9, 30)
        sh = soft_shadow(c, SunConfig(0.0, 90.0), SPEC, cfg)
        sil = soft_silhouette(c, SPEC, cfg)
        assert np.max(np.abs(sh.values - sil.values)) <= 1e-12

    def test_empty_cloud(self):
        c = cloud(np.zeros((0, 3)))
        sh = soft_shadow(c, SunConfig(100.0, 40.0), SPEC, SoftConfig(sigma=1.0))
        assert not sh.values.any()
        g = soft_shadow_backward(
            c, SunConfig(100.0, 40.0), SPEC, SoftConfig(sigma=1.0), Grid.zeros(SPEC)
        )
        assert g.shape == (0, 3)

    def test_z_grads_match_finite_differences(self):
        cfg = SoftConfig(sigma=1.0, trunc=np.inf)
        sun = SunConfig(120.0, 40.0)
        rng = np.random.default_rng(10)
        d = Grid(SPEC, rng.normal(size=(21, 21)))
        c = random_cloud(11, 20, z_hi=4.0, extent=4.0)

        def f(x):
            return float(
                (soft_shadow(PointCloud(positions=x), sun, SPEC, cfg).values * d.values).sum()
            )

        grad = soft_shadow_backward(c, sun, SPEC, cfg, d)
        fd_check(f, grad, c.positions, cfg.sigma)


class TestSoftConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma": 0.0},
            {"sigma": -1.0},
            {"sigma": 5e-324, "trunc": 0.0},
            {"sigma": 1.0, "trunc": 1.0 - 1e-12},
            {"sigma": 1.0, "trunc": -1.0},
            {"sigma": 1.0, "trunc": 0.5},
            {"sigma": float("nan")},
            {"sigma": float("inf")},
            {"sigma": float("-inf")},
            {"sigma": 1.0, "trunc": float("-inf")},
            {"sigma": 1.0, "trunc": float("nan")},
        ],
    )
    def test_rejects_bad_constants(self, kwargs):
        with pytest.raises(InvalidConfig):
            SoftConfig(**kwargs)

    def test_sets_only_the_splat_width_and_cutoff(self):
        """The opacity and the temperature are the constants ALPHA and BETA, not settings."""
        assert [f.name for f in dataclasses.fields(SoftConfig)] == ["sigma", "trunc"]
        with pytest.raises(TypeError):
            SoftConfig(sigma=1.0, alpha=0.5)


class TestAdaptersAgree:
    """The loss's scored passes and the standalone renderers are one path."""

    def setup_method(self):
        self.cfg = SoftConfig(sigma=1.1)
        self.c = random_cloud(13, 40)
        self.target = Grid(SPEC, np.random.default_rng(14).normal(size=(21, 21)))

    def scored(self, render: Grid, scale: float = 1.0):
        """scale * raster_l2 of a standalone render against the target, and scale * its pixel gradient."""
        value, d_pixels = raster_l2(render, self.target)
        return value * scale, Grid(SPEC, d_pixels.values * scale)

    def test_silhouette(self):
        value, gxy = occupancy_forward_backward(self.c.positions[:, :2], SPEC, self.cfg, self.target)
        expected, d = self.scored(soft_silhouette(self.c, SPEC, self.cfg))
        assert np.float64(value).tobytes() == np.float64(expected).tobytes()
        grad = soft_silhouette_backward(self.c, SPEC, self.cfg, d)
        assert_same_bytes(gxy, grad[:, :2])

    def test_dsm(self):
        value, g3 = dsm_forward_backward(self.c.positions, SPEC, self.cfg, self.target)
        expected, d = self.scored(soft_dsm(self.c, SPEC, self.cfg), 1.0 / H_NORM**2)
        assert np.float64(value).tobytes() == np.float64(expected).tobytes()
        assert_same_bytes(g3, soft_dsm_backward(self.c, SPEC, self.cfg, d))

    def test_shadow(self):
        sun = SunConfig(150.0, 50.0)
        xy, jac = project_to_ground(self.c, sun)
        value, gxy = occupancy_forward_backward(xy, SPEC, self.cfg, self.target)
        expected, d = self.scored(soft_shadow(self.c, sun, SPEC, self.cfg))
        assert np.float64(value).tobytes() == np.float64(expected).tobytes()
        assert_same_bytes(gxy @ jac, soft_shadow_backward(self.c, sun, SPEC, self.cfg, d))


@pytest.mark.parametrize("backward, sun", [(soft_silhouette_backward, ()), (soft_dsm_backward, ()),
                                           (soft_shadow_backward, (SunConfig(150.0, 50.0),))],
                         ids=["silhouette", "dsm", "shadow"])
@pytest.mark.parametrize("other", [GridSpec(21, 21, -10.0, -9.0, 1.0), GridSpec(20, 21, -10.0, -10.0, 1.0)],
                         ids=["shifted", "resized"])
def test_a_pixel_gradient_on_another_grid_is_refused(backward, sun, other):
    """A backward renderer refuses pixel gradients on another grid, even one with as many pixels."""
    with pytest.raises(SpecMismatch, match="pixel gradient"):
        backward(random_cloud(3, 10), *sun, SPEC, SoftConfig(sigma=1.0), Grid.zeros(other))


# ---------------------------------------------------------------------------
# the in-place hot path against its pre-rewrite copy in oracles: same bytes


def assert_same_bytes(new, old):
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tobytes() == old.tobytes()


@settings(max_examples=150, derandomize=True, deadline=None)
@example(grid_cloud=(SPEC, np.zeros((0, 2))), z=[], sigma=1.0, trunc=3.0, seed=0)
@example(grid_cloud=(SPEC, np.zeros((0, 2))), z=[], sigma=1.0, trunc=np.inf, seed=0)
@example(grid_cloud=(SPEC, np.array([[0.0, 0.0], [0.4, 0.2], [30.0, 0.0]])), z=[400.0, 2.0, 1e3],
         sigma=1.0, trunc=3.0, seed=1)  # exp(BETA z) overflows on the grid
@given(grid_cloud=grids_and_clouds(), z=st.lists(st.floats(0.0, 400.0), min_size=12, max_size=12),
       sigma=st.floats(0.1, 3.0), trunc=st.floats(1.0, 6.0) | st.just(np.inf), seed=st.integers(0, 2**32 - 1))
def test_hot_path_equals_its_pre_rewrite_copy(grid_cloud, z, sigma, trunc, seed):
    spec, xy = grid_cloud
    positions = np.column_stack([xy, np.array(z[: len(xy)], dtype=float)])
    cfg = SoftConfig(sigma=sigma, trunc=trunc)
    d_flat = np.random.default_rng(seed).normal(size=spec.n_pixels)
    for new, old in zip(pixels_within(xy, spec, trunc * sigma),
                        oracles.pixels_within(xy, spec, trunc * sigma)):
        assert_same_bytes(new, old)
    with np.errstate(over="ignore", invalid="ignore"):  # the drawn z above 355 m
        for core, copy, points in ((_soft_or, oracles._soft_or, xy),
                                   (_soft_max_height, oracles._soft_max_height, positions)):
            new, old = core(points, spec, cfg), copy(points, spec, cfg)  # each VJP before the next pass
            assert_same_bytes(new[0], old[0])
            new_grad, old_grad = new[1](d_flat), old[1](d_flat)
            if old_grad.dtype == np.int64:  # the copy's bincount of an empty slot list
                assert new_grad.dtype == np.float64 and np.array_equal(new_grad, old_grad)
            else:
                assert_same_bytes(new_grad, old_grad)


@pytest.mark.parametrize("points", [np.zeros((0, 3)), np.array([[100.0, 100.0, 3.0]])])
def test_gradients_are_float64_without_slots(points):
    """An empty cloud, or one with no point near the grid, still gets float64 gradients."""
    c, cfg, sun = cloud(points), SoftConfig(sigma=1.0), SunConfig(150.0, 50.0)
    d = Grid.zeros(SPEC)
    for grad in (soft_dsm_backward(c, SPEC, cfg, d),
                 dsm_forward_backward(c.positions, SPEC, cfg, d)[1],
                 occupancy_forward_backward(c.positions[:, :2], SPEC, cfg, d)[1],
                 soft_silhouette_backward(c, SPEC, cfg, d),
                 soft_shadow_backward(c, sun, SPEC, cfg, d)):
        assert grad.dtype == np.float64 and grad.shape[0] == len(points) and not grad.any()


def test_a_vjp_runs_once():
    """A VJP builds its sums in its slot arrays, so a second call fails instead of lying."""
    c, cfg = random_cloud(18, 30), SoftConfig(sigma=1.1)
    d_flat = np.random.default_rng(19).normal(size=SPEC.n_pixels)
    for core, points in ((_soft_or, c.positions[:, :2]), (_soft_max_height, c.positions)):
        vjp = core(points, SPEC, cfg)[1]  # built after the previous VJP ran: only a second call trips the guard
        vjp(d_flat)
        with pytest.raises(RuntimeError, match="run a VJP before the next pass, and only once"):
            vjp(d_flat)


@pytest.mark.parametrize("first", ["soft_or", "soft_max_height"])
@pytest.mark.parametrize("later", ["soft_or", "soft_max_height", "pixels_within", "render_dsm"])
def test_a_vjp_after_a_later_pass_on_its_workspace_raises(first, later):
    """A later pass on the thread, a hard render too, overwrites the buffers a VJP reads, so
    the VJP refuses to run."""
    c, cfg = random_cloud(20, 30), SoftConfig(sigma=1.1)
    passes = {"soft_or": lambda: _soft_or(c.positions[:, :2], SPEC, cfg),
              "soft_max_height": lambda: _soft_max_height(c.positions, SPEC, cfg),
              "pixels_within": lambda: pixels_within(c.positions[:, :2], SPEC, 1.0),
              "render_dsm": lambda: render_dsm(c, SPEC, 0.5)}
    vjp = passes[first]()[1]
    passes[later]()
    with pytest.raises(RuntimeError, match="run a VJP before the next pass"):
        vjp(np.random.default_rng(21).normal(size=SPEC.n_pixels))


@st.composite
def dsm_points(draw):
    """One point, 2-30 points, or a (B, N, 3) stack of 2-4 copies of 1-30 points, some off SPEC."""
    kind = draw(st.sampled_from(["one", "many", "stack"]))
    n = 1 if kind == "one" else draw(st.integers(1 if kind == "stack" else 2, 30))
    shape = (draw(st.integers(2, 4)), n) if kind == "stack" else (n,)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.concatenate([rng.uniform(-12.0, 12.0, (*shape, 2)), rng.uniform(0.0, 8.0, (*shape, 1))], axis=-1)


@settings(max_examples=100, derandomize=True, deadline=None)
@example(positions=np.array([[0.2, -0.3, 4.0]]), seed=0)
@given(positions=dsm_points(), seed=st.integers(0, 2**32 - 1))
def test_the_dsm_vjp_keeps_the_heights_of_its_forward_pass(positions, seed):
    """The caller may change its positions between the soft-DSM pass and its VJP (an
    optimiser steps in place); the VJP returns the bytes of one whose points stayed put."""
    cfg, rng = SoftConfig(sigma=1.1), np.random.default_rng(seed)
    d_flat = rng.normal(size=(1 if positions.ndim == 2 else len(positions)) * SPEC.n_pixels)
    expected = _soft_max_height(positions, SPEC, cfg)[1](d_flat)
    moved = positions.copy()
    vjp = _soft_max_height(moved, SPEC, cfg)[1]
    moved += rng.normal(size=moved.shape)
    assert_same_bytes(vjp(d_flat), expected)


# one thread's buffers reused over drawn passes: the bytes of a fresh thread

def on_a_fresh_thread(fn):
    """fn() on a new thread, which has no buffers yet."""
    with ThreadPoolExecutor(1) as fresh:
        return fresh.submit(fn).result(timeout=60)


render_steps = st.lists(
    st.tuples(grids_and_clouds(), st.lists(st.floats(0.0, 400.0), min_size=12, max_size=12),
              st.floats(0.1, 3.0), st.floats(1.0, 6.0) | st.just(np.inf), st.integers(0, 2**32 - 1)),
    min_size=1, max_size=4)
_cloud_12 = (SPEC, np.random.default_rng(22).uniform(-12.0, 12.0, (12, 2)))  # some off the grid
_empty = (SPEC, np.zeros((0, 2)))
_one = (GridSpec(3, 2, 0.0, 0.0, 0.5), np.array([[0.2, 0.4]]))


def step_bytes(step) -> list[np.ndarray]:
    """Copies of pixels_within's arrays, each core's raster and VJP, and combined_loss's value,
    gradient and breakdown of one drawn step."""
    (spec, xy), z, sigma, trunc, seed = step
    positions = np.column_stack([xy, np.array(z[: len(xy)], dtype=float)])
    cfg = SoftConfig(sigma=sigma, trunc=trunc)
    rng = np.random.default_rng(seed)
    d_flat = rng.normal(size=spec.n_pixels)
    out = [a.copy() for a in pixels_within(xy, spec, trunc * sigma)]
    with np.errstate(over="ignore", invalid="ignore"):  # the drawn z above 355 m
        for core, points in ((_soft_or, xy), (_soft_max_height, positions)):
            pred, vjp = core(points, spec, cfg)
            out += [pred, vjp(d_flat)]
        raster = lambda: Grid(spec, (rng.random((spec.height, spec.width)) > 0.5).astype(float))
        targets = LossTargets(silhouette=raster(), shadow=raster(), dsm=raster())
        value, grad, breakdown = combined_loss(PointCloud(positions=positions), targets, SunConfig(150.0, 50.0),
                                               spec, cfg, LossWeights(0.0, 1.0, 0.5, 1.0))
    return out + [np.float64(value), grad, np.array(list(breakdown.values()))]


@settings(max_examples=100, derandomize=True, deadline=None)
@example(steps=[(_one, [1.0] * 12, 1.0, np.inf, 0), (_cloud_12, [3.0] * 12, 1.0, 3.0, 1),
                (_empty, [0.0] * 12, 1.0, 3.0, 2), (_cloud_12, [5.0] * 12, 2.5, np.inf, 3)])
@given(steps=render_steps)
def test_a_reused_workspace_gives_the_bytes_of_a_fresh_one(steps):
    for step in steps:  # on this thread, one after another
        for new, fresh in zip(step_bytes(step), on_a_fresh_thread(lambda: step_bytes(step)), strict=True):
            assert_same_bytes(new, fresh)


@st.composite
def soft_passes(draw):
    """(kind, grid, (N, 3) points, config) of one soft pass, its points drawn as grids_and_clouds'."""
    spec, xy = draw(grids_and_clouds())
    z = draw(st.lists(st.floats(0.0, 30.0), min_size=len(xy), max_size=len(xy)))
    cfg = SoftConfig(sigma=draw(st.floats(0.1, 3.0)), trunc=draw(st.floats(1.0, 6.0) | st.just(np.inf)))
    return draw(st.sampled_from(["sil", "shadow", "dsm"])), spec, np.column_stack([xy, z]).reshape(-1, 3), cfg


SUN = SunConfig(150.0, 50.0)
_large = ("dsm", SPEC, random_cloud(30, 12).positions, SoftConfig(sigma=1.0, trunc=np.inf))  # every pixel
_small = ("shadow", _one[0], np.array([[0.2, 0.4, 0.1]]), SoftConfig(sigma=0.5, trunc=1.0))


def pass_and_vjp(soft_pass, seed):
    """The raster of one soft pass and its VJP of a random pixel gradient."""
    kind, spec, positions, cfg = soft_pass
    pred, vjp = _pass(kind, positions, SUN, spec, cfg)
    return pred, vjp(Grid(spec, np.random.default_rng(seed).normal(size=(spec.height, spec.width))))


@settings(max_examples=100, derandomize=True, deadline=None)
@example(before=_large, now=_small, seed=0)  # the buffers hold a stale tail past this pass's slots
@example(before=_small, now=_large, seed=1)  # the buffers grow
@given(before=soft_passes(), now=soft_passes(), seed=st.integers(0, 2**32 - 1))
def test_a_pass_gives_the_bytes_it_gives_on_a_fresh_thread(before, now, seed):
    """What a thread ran before, a pass and its VJP of another kind, size, grid or cutoff, does not
    show in a pass's raster or VJP."""
    pass_and_vjp(before, seed + 1)
    for new, fresh in zip(pass_and_vjp(now, seed), on_a_fresh_thread(lambda: pass_and_vjp(now, seed))):
        assert_same_bytes(new, fresh)


# thread isolation: each thread's passes on its own buffers

def test_a_vjp_built_on_one_thread_runs_after_another_thread_ran_passes():
    c, cfg = random_cloud(23, 30), SoftConfig(sigma=1.1)
    d = Grid(SPEC, np.random.default_rng(24).normal(size=(21, 21)))
    for kind in ("sil", "shadow", "dsm"):
        expected = on_a_fresh_thread(lambda: _pass(kind, c.positions, SUN, SPEC, cfg)[1](d))
        with ThreadPoolExecutor(1) as a:
            vjp = a.submit(lambda: _pass(kind, c.positions, SUN, SPEC, cfg)[1]).result(timeout=60)
            pass_and_vjp(_large, 25)  # on this thread: its buffers grow, the worker's stay
            render_dsm(random_cloud(26, 60), SPEC, 2.0)
            assert_same_bytes(a.submit(vjp, d).result(timeout=60), expected)


def test_two_threads_never_share_a_buffer():
    """Two threads at once, each after a soft-DSM pass and its VJP (every named buffer), and
    this thread: no two of their buffers share memory."""
    both = threading.Barrier(2, timeout=60)

    def buffers():
        pass_and_vjp(_large, 27)
        both.wait()  # both threads are alive, so neither one's memory can have been reused
        return list(sensor.workspace._bufs.values())

    pass_and_vjp(_large, 28)
    with ThreadPoolExecutor(2) as two:
        futures = [two.submit(buffers) for _ in range(2)]
        owners = [f.result(timeout=60) for f in futures] + [list(sensor.workspace._bufs.values())]
    assert all(len(bufs) == 4 for bufs in owners)  # mask, ints, floats and dsm
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert not any(np.shares_memory(a, b) for a in owners[i] for b in owners[j])


@st.composite
def stacks(draw):
    """A grid and a (B, N, 3) stack of 1-8 copies of 0-30 points each, on and off the grid and
    on pixel edges, where a copy may repeat an earlier one."""
    spec = GridSpec(draw(st.integers(1, 16)), draw(st.integers(1, 16)),
                    draw(st.floats(-20.0, 20.0)), draw(st.floats(-20.0, 20.0)),
                    draw(st.floats(0.1, 3.0)))
    n = draw(st.integers(0, 30))
    frac = st.sampled_from([0.0, 0.5, -0.5]) | st.floats(-1.0, 1.0)
    point = st.tuples(st.integers(-4, 20), frac, st.integers(-4, 20), frac, st.floats(0.0, 30.0))
    copies = []
    for _ in range(draw(st.integers(1, 8))):
        if copies and draw(st.booleans()):
            copies.append(copies[draw(st.integers(0, len(copies) - 1))])
            continue
        copies.append([(spec.origin_x + (i + fi) * spec.pixel_size, spec.origin_y + (j + fj) * spec.pixel_size, z)
                       for i, fi, j, fj, z in draw(st.lists(point, min_size=n, max_size=n))])
    return spec, np.array(copies, dtype=float).reshape(len(copies), n, 3)


@settings(max_examples=100, derandomize=True, deadline=None)
@example(spec_stack=(SPEC, np.zeros((3, 0, 3))), sigma=1.0, trunc=np.inf, sun=SunConfig(150.0, 50.0))
@example(spec_stack=(SPEC, np.repeat(random_cloud(5, 12).positions[None], 4, axis=0)), sigma=1.0,
         trunc=np.inf, sun=SunConfig(150.0, 50.0))
@given(spec_stack=stacks(), sigma=st.floats(0.1, 3.0), trunc=st.floats(1.0, 6.0) | st.just(np.inf),
       sun=st.builds(SunConfig, st.floats(0.0, 360.0), st.floats(20.0, 90.0)))
def test_a_stacked_render_gives_each_copy_the_bytes_of_its_own_render(spec_stack, sigma, trunc, sun):
    spec, stack = spec_stack
    cfg = SoftConfig(sigma=sigma, trunc=trunc)
    for kind, single, args in (("sil", soft_silhouette, (spec, cfg)),
                               ("dsm", soft_dsm, (spec, cfg)),
                               ("shadow", soft_shadow, (sun, spec, cfg))):
        rasters = soft_stack(kind, stack, sun, spec, cfg)
        assert rasters.shape == (len(stack), spec.height, spec.width)
        for copy, raster in zip(stack, rasters, strict=True):
            assert_same_bytes(raster, single(PointCloud(positions=copy), *args).values)


@pytest.mark.parametrize("kind", ["geo", "silhouette", "ortho", ""])
def test_an_unknown_raster_kind_is_refused(kind):
    """Only the raster names of losses.TERMS render; nothing falls through to the shadow."""
    with pytest.raises(InvalidConfig, match="unknown raster kind"):
        soft_stack(kind, random_cloud(3, 10).positions[None], SunConfig(150.0, 50.0), SPEC, SoftConfig(sigma=1.0))


@pytest.mark.parametrize("kind", ["sil", "shadow", "dsm"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_every_raster_kind_refuses_a_stack_with_a_non_finite_position(kind, bad, axis):
    """A stack is checked as a PointCloud is, whatever the kind: no point is left out silently."""
    stack = random_cloud(4, 6).positions.reshape(2, 3, 3).copy()
    stack[1, 2, axis] = bad
    args = (SunConfig(150.0, 50.0), SPEC, SoftConfig(sigma=1.0))
    with pytest.raises(InvalidConfig, match="point positions must be finite"):
        soft_stack(kind, stack, *args)
    with pytest.raises(InvalidConfig, match="point positions must be finite"):
        _pass(kind, stack[1], *args)


def test_inputs_are_read_only():
    """No pass writes into the points, the pixel gradient or the target raster."""
    cfg, sun = SoftConfig(sigma=1.1), SunConfig(150.0, 50.0)
    c = random_cloud(16, 40)
    d = Grid(SPEC, np.random.default_rng(17).normal(size=(21, 21)))
    target = Grid(SPEC, np.random.default_rng(18).normal(size=(21, 21)))
    watched = [c.positions, d.values, target.values]
    before = [a.copy() for a in watched]
    soft_silhouette_backward(c, SPEC, cfg, d)
    soft_dsm_backward(c, SPEC, cfg, d)
    soft_shadow_backward(c, sun, SPEC, cfg, d)
    for xy in (c.positions[:, :2], project_to_ground(c, sun)[0]):
        watched.append(xy)
        before.append(xy.copy())
        occupancy_forward_backward(xy, SPEC, cfg, target)
    dsm_forward_backward(c.positions, SPEC, cfg, target)
    for a, b in zip(watched, before):
        assert_same_bytes(a, b)
