import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import brute_hard_render, pixel_centers, render_ortho_lexsort, zero_grid
from treerecon.core import GridSpec, PointCloud, SunConfig
from treerecon.errors import InvalidConfig, MissingColors
from treerecon.sensor import (
    GROUND_COLOR,
    pixels_within,
    render_dsm,
    render_ortho,
    render_shadow_hard,
    render_silhouette,
    shadow_offsets,
)

SPEC = GridSpec(21, 21, -10.0, -10.0, 1.0)  # pixel centers at integers


def cloud_at(points, colors=None):
    return PointCloud(positions=np.array(points, dtype=float), colors=colors)


class TestRenderDsm:
    def test_uncovered_pixel_is_ground(self):
        dsm = render_dsm(cloud_at([[0, 0, 7]]), SPEC, 0.4)
        assert dsm.values[0, 0] == 0.0

    def test_single_point(self):
        dsm = render_dsm(cloud_at([[0, 0, 7]]), SPEC, 0.4)
        assert dsm.values[10, 10] == 7.0

    def test_max_semantics(self):
        dsm = render_dsm(cloud_at([[0, 0, 3], [0, 0, 9]]), SPEC, 0.4)
        assert dsm.values[10, 10] == 9.0

    def test_adding_point_never_decreases(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-8, 8, (50, 3))
        pts[:, 2] = rng.uniform(0, 10, 50)
        before = render_dsm(cloud_at(pts), SPEC, 0.6).values
        after = render_dsm(cloud_at(np.vstack([pts, [[1, 1, 5]]])), SPEC, 0.6).values
        assert np.all(after >= before)


class TestRenderOrtho:
    def test_uncovered_is_ground_color(self):
        ortho = render_ortho(cloud_at([[0, 0, 5]], [[0, 1, 0]]), SPEC, 0.4)
        np.testing.assert_allclose(ortho.values[0, 0], GROUND_COLOR)

    def test_single_point_color(self):
        ortho = render_ortho(cloud_at([[0, 0, 5]], [[0, 1, 0]]), SPEC, 0.4)
        np.testing.assert_allclose(ortho.values[10, 10], [0, 1, 0])

    def test_highest_wins(self):
        ortho = render_ortho(
            cloud_at([[0, 0, 3], [0, 0, 9]], [[0.5, 0.3, 0.1], [0, 1, 0]]), SPEC, 0.4
        )
        np.testing.assert_allclose(ortho.values[10, 10], [0, 1, 0])

    def test_tie_broken_by_larger_index(self):
        ortho = render_ortho(
            cloud_at([[0, 0, 5], [0, 0, 5]], [[1, 0, 0], [0, 0, 1]]), SPEC, 0.4
        )
        np.testing.assert_allclose(ortho.values[10, 10], [0, 0, 1])

    def test_missing_colors_rejected(self):
        with pytest.raises(MissingColors):
            render_ortho(cloud_at([[0, 0, 5]]), SPEC, 0.4)


class TestRenderSilhouette:
    def test_all_zero(self):
        from treerecon.core import Grid

        sil = render_silhouette(zero_grid(SPEC), 0.5)
        assert not sil.values.any()

    def test_threshold_and_strict_boundary(self):
        g = zero_grid(SPEC)
        g.values[0, 0] = 5.0
        g.values[0, 1] = 0.5
        sil = render_silhouette(g, 0.5)
        assert sil.values[0, 0] == 1.0
        assert sil.values[0, 1] == 0.0  # strict inequality at the boundary

    def test_silhouette_subset_of_dsm_footprint(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-8, 8, (80, 3))
        pts[:, 2] = rng.uniform(0, 12, 80)
        dsm = render_dsm(cloud_at(pts), SPEC, 0.5)
        sil = render_silhouette(dsm, 0.5)
        assert np.all(dsm.values[sil.values == 1.0] > 0.5)


class TestRenderShadowHard:
    def test_projection_east_45(self):
        shadow = render_shadow_hard(
            cloud_at([[0, 0, 10]]), SunConfig(90.0, 45.0), SPEC, 0.4
        )
        assert shadow.values[10, 0] == 1.0  # world (-10, 0)
        assert shadow.values[10, 10] == 0.0

    def test_zenith_shadow_underfoot(self):
        shadow = render_shadow_hard(
            cloud_at([[0, 0, 10]]), SunConfig(0.0, 90.0), SPEC, 0.4
        )
        assert shadow.values[10, 10] == 1.0

    def test_ground_point_shadows_in_place(self):
        for az, el in [(0, 30), (123, 47), (290, 80)]:
            shadow = render_shadow_hard(
                cloud_at([[2, 3, 0]]), SunConfig(az, el), SPEC, 0.4
            )
            assert shadow.values[13, 12] == 1.0

    def test_zenith_matches_silhouette_of_dsm(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-8, 8, (60, 3))
        pts[:, 2] = rng.uniform(0.1, 12, 60)
        cloud = cloud_at(pts)
        shadow = render_shadow_hard(cloud, SunConfig(0.0, 90.0), SPEC, 0.5)
        sil = render_silhouette(render_dsm(cloud, SPEC, 0.5), 0.0)
        np.testing.assert_array_equal(shadow.values, sil.values)


def _scattered(seed, n, lo, hi):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, (n, 3))
    pts[:, 2] = rng.uniform(0.0, 12.0, n)
    pts[1::7] = pts[::7][: len(pts[1::7])]  # exact duplicates: z ties in the ortho
    return pts


HARD_CASES = {
    "on-grid": (_scattered(3, 60, -9.0, 9.0), 0.8),
    "off-grid": (_scattered(4, 60, -16.0, 16.0), 1.3),
    "empty": (np.zeros((0, 3)), 0.5),
    "radius-beyond-grid": (_scattered(5, 4, -3.0, 3.0), 40.0),
    # on a pixel center with a radius of whole pixels: d^2 == r^2 at four centers
    "exact-boundary": (np.array([[0.0, 0.0, 7.0], [3.0, -4.0, 2.0]]), 2.0),
}


@pytest.mark.parametrize("case", sorted(HARD_CASES))
def test_hard_renderers_match_a_scan_of_every_pixel(case):
    pts, radius = HARD_CASES[case]
    colors = np.random.default_rng(6).uniform(0.0, 1.0, (len(pts), 3))
    cloud = cloud_at(pts, colors)
    covered, top, winner = brute_hard_render(pts[:, :2], pts[:, 2], SPEC, radius)
    ortho = np.tile(np.array(GROUND_COLOR), (*winner.shape, 1))
    ortho[covered] = colors[winner[covered]]
    assert render_dsm(cloud, SPEC, radius).values.tobytes() == top.tobytes()
    assert render_ortho(cloud, SPEC, radius).values.tobytes() == ortho.tobytes()

    sun = SunConfig(123.0, 47.0)
    ground = pts[:, :2] + pts[:, 2:3] * np.array(shadow_offsets(sun))
    shadow = brute_hard_render(ground, pts[:, 2], SPEC, radius)[0].astype(np.float64)
    assert render_shadow_hard(cloud, sun, SPEC, radius).values.tobytes() == shadow.tobytes()
    if case == "exact-boundary":
        assert top[10, 12] == top[12, 10] == top[10, 8] == top[8, 10] == 7.0


FAR = 1e10 + 0.1  # a grid origin whose float coordinates round by microns


@st.composite
def windowed_clouds(draw):
    """A grid of 1-40 x 1-40 pixels with origins up to 1e10 m, a radius (often a whole or
    half number of pixels, or 0.3 m steps, where d^2 == r^2 or one ulp from it), and up to
    12 points, each a pixel index on or off the grid plus a fraction: 0 (a pixel center),
    1/2 (a half-pixel lattice point) or any."""
    ps = draw(st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5, 0.6, 1.0, 2.5]) | st.floats(0.05, 3.0))
    radius = draw(st.integers(1, 40).map(lambda m: m * ps / 2) | st.integers(1, 10).map(lambda m: m * 0.3)
                  | st.floats(0.01, 12.0))
    origin = st.sampled_from([0.0, -5.0, 1e5, -1e7, 1e10]) | st.floats(-1e10, 1e10)
    spec = GridSpec(draw(st.integers(1, 40)), draw(st.integers(1, 40)), draw(origin), draw(origin), ps)
    frac = st.sampled_from([0.0, 0.5]) | st.floats(-1.0, 1.0)
    pixel = st.tuples(st.integers(-12, 52), frac, st.integers(-12, 52), frac)
    xy = [(spec.origin_x + (i + fi) * ps, spec.origin_y + (j + fj) * ps)
          for i, fi, j, fj in draw(st.lists(pixel, max_size=12))]
    return spec, radius, np.array(xy, dtype=float).reshape(-1, 2)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=windowed_clouds())
@example(case=(GridSpec(40, 1, 0.0, 0.0, 0.2), 3 * 0.3, np.array([[10.5 * 0.2, 0.0]])))  # 10 centers, not 9
@example(case=(GridSpec(21, 21, -10.0, -10.0, 1.0), 2.0, np.array([[0.0, 0.0], [3.0, -4.0]])))
@example(case=(GridSpec(9, 9, 1e10, -1e10, 0.5), 1.0, np.array([[1e10 + 2.0, -1e10 + 1.25]])))
@example(case=(GridSpec(12, 1, FAR, FAR, 0.1), 3 * 0.1 / 2, np.array([[FAR + 8.5 * 0.1, FAR]])))  # u rounds by 3e-6 px
@example(case=(GridSpec(5, 4, 0.0, 0.0, 1.0), 0.3, np.zeros((0, 2))))
def test_window_is_just_wide_enough(case):
    """Each axis's window holds floor(2r/ps) + 1 centers, the most a disk of radius r covers,
    or the grid's size; one more only where 2r/ps sits within float rounding below a whole
    number, where the d^2 test can take one center more. The pairs are a dense scan's."""
    spec, radius, xy = case
    point, flat, _, _, dx, dy = pixels_within(xy, spec, radius)
    most = math.floor(2 * radius / spec.pixel_size) + 1
    near_whole = (2 * radius / spec.pixel_size) % 1 > 1 - 1e-3
    for k, size in ((dx.shape[1], spec.width), (dy.shape[1], spec.height)):
        assert k == min(most, size) or (near_whole and k == min(most + 1, size))
    assert dx.shape[0] == dy.shape[0] == len(xy)
    xs, ys = pixel_centers(spec)
    d2 = (xy[:, 0, None, None] - xs) ** 2 + (xy[:, 1, None, None] - ys[:, None]) ** 2
    scan_point, row, col = np.nonzero(d2 <= radius**2)
    assert np.array_equal(point, scan_point) and np.array_equal(flat, row * spec.width + col)


@pytest.mark.parametrize("radius", [0.0, -0.5, float("nan")])
@pytest.mark.parametrize(
    "render",
    [
        lambda c, r: render_dsm(c, SPEC, r),
        lambda c, r: render_ortho(c, SPEC, r),
        lambda c, r: render_shadow_hard(c, SunConfig(135.0, 60.0), SPEC, r),
    ],
    ids=["dsm", "ortho", "shadow"],
)
def test_non_positive_radius_rejected(render, radius):
    with pytest.raises(ValueError, match="splat_radius must be positive"):
        render(cloud_at([[0, 0, 5]], [[0, 1, 0]]), radius)


@pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
def test_pixels_within_rejects_a_non_positive_radius_as_a_config_error(radius):
    with pytest.raises(InvalidConfig, match="splat_radius must be positive"):
        pixels_within(np.zeros((1, 2)), SPEC, radius)


@pytest.mark.parametrize("h_min", [-1.0, float("nan")])
def test_silhouette_rejects_a_negative_h_min_as_a_config_error(h_min):
    dsm = render_dsm(cloud_at([[0, 0, 5]]), SPEC, 0.4)
    with pytest.raises(InvalidConfig, match="h_min must be >= 0"):
        render_silhouette(dsm, h_min)
    assert render_silhouette(dsm, 0.0).values.sum() == 1.0  # 0 stays valid


# the orthophoto winner by per-pixel max equals the three-key lexsort it
# replaced and a scan of every pixel; a tiny set of heights (negative, -0.0, 0.0
# and positive) and of on- and off-grid positions makes ties in z and in (x, y) common
tie_clouds = st.integers(0, 24).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(st.sampled_from([-1.5, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0]),
                       st.sampled_from([-1.0, 0.0, 1.0, 1.5, 2.0, 4.0, 5.5]),
                       st.sampled_from([-1.0, 0.0, -0.0, 1.0, 2.0])), min_size=n, max_size=n),
    st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 3), min_size=n, max_size=n)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(cloud=tie_clouds, width=st.integers(1, 6), height=st.integers(1, 6),
       radius=st.sampled_from([0.4, 0.5, 1.0, 1.5, 3.0]))
@example(cloud=([], []), width=3, height=2, radius=1.0)
@example(cloud=([(1.0, 1.0, 0.0), (1.0, 1.0, -0.0), (1.0, 1.0, 0.0)], [(0.1, 0.2, 0.3)] * 3),
         width=3, height=3, radius=0.5)
def test_ortho_winner_equals_the_lexsort_and_a_scan(cloud, width, height, radius):
    pts, colors = (np.array(a, dtype=float).reshape(-1, 3) for a in cloud)
    spec = GridSpec(width, height, 0.0, 0.0, 1.0)
    c = cloud_at(pts, colors)
    ortho = render_ortho(c, spec, radius).values
    assert ortho.tobytes() == render_ortho_lexsort(c, spec, radius).values.tobytes()
    covered, _, winner = brute_hard_render(pts[:, :2], pts[:, 2], spec, radius)
    scan = np.tile(np.array(GROUND_COLOR), (height, width, 1))
    scan[covered] = colors[winner[covered]]
    assert ortho.tobytes() == scan.tobytes()
