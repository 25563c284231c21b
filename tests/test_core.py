import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial import cKDTree

from oracles import pool_loop
from treerecon.core import (
    Grid,
    GridSpec,
    PointCloud,
    Rng,
    SunConfig,
    pixel_to_world,
    pool,
    pooled_spec,
    sun_direction,
    world_to_pixel,
)
from treerecon.errors import InvalidConfig


class TestWorldToPixel:
    def test_identity_case(self):
        spec = GridSpec(10, 10, 0.0, 0.0, 1.0)
        assert world_to_pixel(spec, 0.0, 0.0) == (0.0, 0.0)

    def test_half_meter_pixels(self):
        spec = GridSpec(10, 10, 0.0, 0.0, 0.5)
        assert world_to_pixel(spec, 2.0, 3.0) == (4.0, 6.0)

    def test_offset_origin(self):
        spec = GridSpec(10, 10, -5.0, -5.0, 1.0)
        assert world_to_pixel(spec, 0.0, 0.0) == (5.0, 5.0)

    def test_round_trip_on_pixel_centers(self):
        spec = GridSpec(7, 5, -3.2, 1.7, 0.25)
        u = np.arange(spec.width, dtype=float)
        v = np.arange(spec.height, dtype=float)
        for vv in v:
            x, y = pixel_to_world(spec, u, np.full_like(u, vv))
            u2, v2 = world_to_pixel(spec, x, y)
            np.testing.assert_allclose(u2, u, atol=1e-9)
            np.testing.assert_allclose(v2, vv, atol=1e-9)


class TestSunDirection:
    def test_zenith(self):
        np.testing.assert_allclose(
            sun_direction(SunConfig(0.0, 90.0)), [0.0, 0.0, -1.0], atol=1e-12
        )

    def test_east_45(self):
        s = np.sqrt(2) / 2
        np.testing.assert_allclose(
            sun_direction(SunConfig(90.0, 45.0)), [-s, 0.0, -s], atol=1e-12
        )

    def test_south_30(self):
        np.testing.assert_allclose(
            sun_direction(SunConfig(180.0, 30.0)),
            [0.0, np.cos(np.radians(30.0)), -0.5],
            atol=1e-12,
        )

    def test_always_unit_and_downward(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            sun = SunConfig(rng.uniform(0, 360), rng.uniform(1e-3, 90))
            d = sun_direction(sun)
            assert abs(np.linalg.norm(d) - 1.0) < 1e-12
            assert d[2] < 0

    @pytest.mark.parametrize("elevation", [0.0, -5.0, 90.5, 1e-310])
    def test_invalid_elevation(self, elevation):
        with pytest.raises(InvalidConfig):
            SunConfig(0.0, elevation)


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(1234).random(1_000_000)
        b = Rng(1234).random(1_000_000)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_stream(self):
        assert not np.array_equal(Rng(1).random(100), Rng(2).random(100))

    def test_is_numpys_pcg64_generator(self):
        rng = Rng(7)
        assert isinstance(rng, np.random.Generator) and isinstance(rng.bit_generator, np.random.PCG64)
        assert rng.integers(0, 2**62) == np.random.default_rng(7).integers(0, 2**62)


class TestTypes:
    def test_cloud_rejects_mismatched_colors(self):
        with pytest.raises(ValueError):
            PointCloud(positions=np.zeros((3, 3)), colors=np.zeros((2, 3)))

    def test_cloud_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PointCloud(positions=[[0, 0, np.nan]])

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0, 5)
        with pytest.raises(ValueError):
            GridSpec(5, 5, pixel_size=0.0)
        for bad in ({"pixel_size": np.nan}, {"pixel_size": np.inf}, {"origin_x": np.nan},
                    {"origin_y": -np.inf}, {"width": 2**31, "height": 2**31}):
            with pytest.raises(ValueError):
                GridSpec(**{"width": 5, "height": 5, **bad})

    def test_grid_reshapes_flat_values(self):
        g = Grid(GridSpec(3, 2), np.arange(6.0))
        assert g.values.shape == (2, 3)
        assert g.values[1, 0] == 3.0


@settings(max_examples=100, deadline=None)
@given(wide=hnp.arrays(np.float32, st.tuples(st.integers(1, 30), st.just(5)), elements=st.floats(-1e6, 1e6, width=32)),
       layout=st.sampled_from(["c", "fortran", "strided", "float32"]))
def test_a_cloud_holds_c_ordered_float64_positions_that_its_kd_tree_holds_too(wide, layout):
    """Whatever the layout of the input, the cloud's positions are one C-ordered float64 array
    with the input's values, copied only if the input is not already that, and a KD-tree built
    from them holds that very array (so `losses._chamfer_stack` accepts it as the cloud's tree)."""
    wide = wide.astype(np.float64)
    x = {"c": np.ascontiguousarray(wide[:, :3]), "fortran": np.asfortranarray(wide[:, :3]),
         "strided": wide[:, 1:4], "float32": wide[:, :3].astype(np.float32)}[layout]
    cloud = PointCloud(x)
    assert cloud.positions.dtype == np.float64 and cloud.positions.flags.c_contiguous
    assert cloud.positions.shape == x.shape and np.array_equal(cloud.positions, x)
    assert np.shares_memory(cloud.positions, x) == (x.dtype == np.float64 and x.flags.c_contiguous)
    assert cKDTree(cloud.positions).data is cloud.positions


# ---------------------------------------------------------------------------
# pooling: the loss grid is the input grid's factor x factor blocks


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 40), height=st.integers(1, 40), factor=st.integers(1, 3),
       origin=st.tuples(*[st.floats(-1e3, 1e3)] * 2), pixel_size=st.floats(0.01, 10.0),
       binary=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_pool_is_the_block_mean_on_the_pooled_grid(width, height, factor, origin, pixel_size, binary, seed):
    spec = GridSpec(width, height, *origin, pixel_size)
    values = np.random.default_rng(seed).normal(0.0, 10.0, (height, width))
    if binary:
        values = (values > 0).astype(np.float64)
    pooled = pool(Grid(spec, values), factor)
    coarse = pooled.spec
    assert coarse == pooled_spec(spec, factor)
    assert (coarse.width, coarse.height) == (-(-width // factor), -(-height // factor))
    assert coarse.pixel_size == factor * pixel_size
    assert np.array_equal(pooled.values, pool_loop(values, factor))
    if binary:
        assert np.all((0.0 <= pooled.values) & (pooled.values <= 1.0))
    # the center of each full block's coarse pixel is the mean of its fine pixels' centers
    scale = 1e-12 * (1e3 + (width + height) * pixel_size)
    for fine, grid, n in zip(spec.pixel_centers(), coarse.pixel_centers(), (width, height)):
        full = n // factor
        means = fine[: full * factor].reshape(full, factor).mean(axis=1)
        np.testing.assert_allclose(grid[:full], means, rtol=0, atol=scale)


def test_pool_of_a_one_pixel_grid_is_that_pixel():
    spec = GridSpec(1, 1, 3.0, -2.0, 0.25)
    pooled = pool(Grid(spec, [[0.7]]), 2)
    assert pooled.spec == GridSpec(1, 1, 3.125, -1.875, 0.5)
    assert pooled.values.tolist() == [[0.7]]
