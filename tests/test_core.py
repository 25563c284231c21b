import numpy as np
import pytest

from treerecon.core import (
    Grid,
    GridSpec,
    PointCloud,
    Rng,
    SunConfig,
    pixel_to_world,
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
                    {"origin_y": -np.inf}):
            with pytest.raises(ValueError):
                GridSpec(5, 5, **bad)

    def test_grid_reshapes_flat_values(self):
        g = Grid(GridSpec(3, 2), np.arange(6.0))
        assert g.values.shape == (2, 3)
        assert g.values[1, 0] == 3.0
