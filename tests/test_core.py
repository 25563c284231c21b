import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial import cKDTree

from oracles import pixel_centers, pool_loop
from treerecon.core import (
    Grid,
    GridSpec,
    PointCloud,
    RgbGrid,
    Rng,
    SunConfig,
    pool,
    pooled_spec,
    sun_direction,
    world_to_pixel,
)
from treerecon.errors import InvalidConfig, SpecMismatch


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
        u, v = world_to_pixel(spec, *pixel_centers(spec))
        np.testing.assert_allclose(u, np.arange(spec.width), atol=1e-9)
        np.testing.assert_allclose(v, np.arange(spec.height), atol=1e-9)


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
                    {"origin_y": -np.inf}, {"width": 2**31, "height": 2**31}, {"width": 2.5},
                    {"height": 3.0}, {"width": "5"}, {"width": np.int64(2**40), "height": np.int64(2**40)}):
            with pytest.raises(InvalidConfig):
                GridSpec(**{"width": 5, "height": 5, **bad})
        assert GridSpec(np.int64(5), np.uint8(3)).n_pixels == 15


SIZES = st.integers(1, 4)


@st.composite
def shaped_inputs(draw):
    """(constructor name, the accepted shape, a drawn shape of rank 0-3): each length at, or one
    either side of, a length of the accepted shape, or a product of them."""
    kind = draw(st.sampled_from(["positions", "colors", "classes", "grid", "rgb"]))
    n, h, w = draw(SIZES), draw(SIZES), draw(SIZES)
    right = {"positions": (n, 3), "colors": (n, 3), "classes": (n,), "grid": (h, w), "rgb": (h, w, 3)}[kind]
    lengths = sorted({d + k for d in right for k in (-1, 0, 1)} | {math.prod(right), 0})
    shape = tuple(draw(st.lists(st.sampled_from(lengths), max_size=3)))
    return kind, right, draw(st.sampled_from([shape, right, "ragged"]))


def construct(kind, right, values):
    """The kind's constructor given values, where the shape it accepts is right; returns the array it keeps."""
    if kind == "positions":
        return PointCloud(values).positions
    if kind in ("colors", "classes"):
        return getattr(PointCloud(np.zeros((right[0], 3)), **{kind: values}), kind)
    return (Grid if kind == "grid" else RgbGrid)(GridSpec(right[1], right[0]), values).values


@settings(max_examples=300, deadline=None)
@given(case=shaped_inputs())
@example(case=("positions", (4, 3), (4, 6)))  # x y z r g b rows
@example(case=("positions", (4, 3), (6, 2)))  # x y rows of the same size
@example(case=("grid", (2, 3), (3, 2)))  # a transposed (W, H) raster
@example(case=("grid", (2, 3), (6,)))  # flat values
@example(case=("rgb", (2, 4, 3), (3, 2, 4)))  # a channel-first orthophoto, as rasterio reads it
@example(case=("classes", (4,), (4, 1)))
@example(case=("positions", (2, 3), "ragged"))
def test_each_core_type_takes_its_own_shape_and_no_other(case):
    """PointCloud takes (N, 3) positions and colors and (N,) classes, Grid (H, W) and RgbGrid
    (H, W, 3) values of its spec; each keeps the values as given, and any other shape raises
    InvalidConfig (a cloud's) or SpecMismatch (a raster's), never re-cut into the accepted one.
    So does a ragged sequence, which numpy cannot make an array of."""
    kind, right, shape = case
    if shape == "ragged":
        values, accepted, given = [[0.0, 0.0], [1.0]], False, "a ragged or non-numeric sequence"
    else:
        values = np.arange(math.prod(shape), dtype=np.float64).reshape(shape) % 256
        accepted = len(shape) == len(right) and (shape == right or kind == "positions" and shape[1] == 3)
        given = str(shape)
    if accepted:
        assert np.array_equal(construct(kind, right, values), values)
    else:
        with pytest.raises(SpecMismatch if kind in ("grid", "rgb") else InvalidConfig,
                           match=rf"must have shape .*, not {re.escape(given)}"):
            construct(kind, right, values)


@settings(max_examples=300, deadline=None)
@given(classes=st.lists(st.integers(-300, 600) | st.integers(-2**70, 2**70) | st.floats(), min_size=1, max_size=6),
       as_array=st.booleans())
@example(classes=[256, 2], as_array=True)  # once cast to [0, 2]
@example(classes=[-1, 2], as_array=True)  # once cast to [255, 2]
@example(classes=[0.7, 1.0], as_array=True)  # once cast to [0, 1]
@example(classes=[256, 2], as_array=False)  # once numpy's own OverflowError
@example(classes=[0, 1.0, 255], as_array=False)
def test_a_cloud_takes_only_classes_that_are_bytes(classes, as_array):
    """A class, given in a list or in numpy's own array of those numbers (ints, floats, or
    objects for ints past int64), is kept as uint8 when it is a whole number from 0 to 255, and
    anything else, a fraction, NaN, inf or a number out of range, raises InvalidConfig."""
    given = np.array(classes) if as_array else classes
    positions = np.zeros((len(classes), 3))
    if all(float(c).is_integer() and 0 <= c <= 255 for c in classes):
        kept = PointCloud(positions, classes=given).classes
        assert kept.dtype == np.uint8 and kept.tolist() == [int(c) for c in classes]
    else:
        with pytest.raises(InvalidConfig, match="classes must be whole numbers from 0 to 255"):
            PointCloud(positions, classes=given)


@settings(max_examples=100, deadline=None)
@given(wide=hnp.arrays(np.float32, st.tuples(st.integers(1, 30), st.just(5)), elements=st.floats(-1e6, 1e6, width=32)),
       layout=st.sampled_from(["c", "fortran", "strided", "float32"]))
def test_a_cloud_holds_c_ordered_float64_positions_that_its_kd_tree_holds_too(wide, layout):
    """Whatever the layout of the input, the cloud's positions are one C-ordered float64 array
    with the input's values, copied only if the input is not already that, and a KD-tree built
    from them holds that very array (so `losses.chamfer` accepts it as the cloud's tree)."""
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
    for fine, grid, n in zip(pixel_centers(spec), pixel_centers(coarse), (width, height)):
        full = n // factor
        means = fine[: full * factor].reshape(full, factor).mean(axis=1)
        np.testing.assert_allclose(grid[:full], means, rtol=0, atol=scale)


def test_pool_of_a_one_pixel_grid_is_that_pixel():
    spec = GridSpec(1, 1, 3.0, -2.0, 0.25)
    pooled = pool(Grid(spec, [[0.7]]), 2)
    assert pooled.spec == GridSpec(1, 1, 3.125, -1.875, 0.5)
    assert pooled.values.tolist() == [[0.7]]
