import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import orthonormal_basis_cross, sample_params_listed, skeleton_parents, trunk_points_loop
from treerecon.core import CLASS_FOLIAGE, CLASS_TRUNK, Rng
from treerecon.errors import InvalidConfig
from treerecon.losses import chamfer
from treerecon.protree import (
    PER_BRANCH,
    SceneConfig,
    TreeParamRanges,
    TreeParams,
    generate_scene,
    grow_skeleton,
    sample_cloud,
    sample_params,
    _orthonormal_basis,
)


def fixed_params(**overrides) -> TreeParams:
    base = dict(
        trunk_height=8.0,
        trunk_radius=0.3,
        branch_depth=2,
        children_per_branch=(2, 2),
        length_decay=0.7,
        radius_decay=0.6,
        branch_angle_deg=(30.0, 30.0),
        crown_radius=2.0,
        foliage_fraction=0.8,
        n_points=500,
    )
    base.update(overrides)
    return TreeParams(**base)


def ordered(end):
    return st.tuples(end, end).map(sorted).map(tuple)


UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
VALID_RANGES = st.fixed_dictionaries({  # a non-empty range inside each TreeParams rule
    "trunk_height": ordered(st.floats(0.0, 1e3, exclude_min=True)),
    "trunk_radius": ordered(st.floats(0.0, 1e3, exclude_min=True)),
    "branch_depth": ordered(st.integers(0, 6)),
    "children_per_branch": ordered(st.integers(0, 5)),
    "length_decay": ordered(UNIT),
    "radius_decay": ordered(UNIT),
    "branch_angle_deg": ordered(st.floats(-180.0, 180.0)),
    "crown_radius": ordered(st.floats(0.0, 1e3)),
    "foliage_fraction": ordered(st.floats(0.0, 1.0)),
    "n_points": ordered(st.integers(1, 10_000)),
})
RANGE_FIELDS = [f.name for f in dataclasses.fields(TreeParamRanges)]
INT_FIELDS = ("branch_depth", "children_per_branch", "n_points")
WILD_ENDS = {  # NaN, infinities, 0, negatives and ends at or above 1
    False: st.sampled_from([np.nan, np.inf, -np.inf, -1.0, 0.0, 0.5, 1.0, 1.5, 200.0]),
    True: st.sampled_from([np.nan, np.inf, -np.inf, -1, 0, 1, 7]),
}
# (field, which end, value): one end of a valid range replaced, so a pair may also be reversed
WILD_END = st.sampled_from(RANGE_FIELDS).flatmap(
    lambda name: st.tuples(st.just(name), st.integers(0, 1), WILD_ENDS[name in INT_FIELDS]))


def is_valid(ranges) -> bool:
    """Every range finite and non-empty, and TreeParams takes all low ends, then all high ends."""
    if not all(-math.inf < lo <= hi < math.inf for lo, hi in ranges.values()):
        return False
    try:
        for end in (0, 1):
            TreeParams(**{k: r if k in PER_BRANCH else r[end] for k, r in ranges.items()})
    except InvalidConfig:
        return False
    return True


class TestSampleParams:
    def test_degenerate_ranges_give_exact_values(self):
        ranges = TreeParamRanges(
            trunk_height=(5.0, 5.0),
            trunk_radius=(0.2, 0.2),
            branch_depth=(3, 3),
            children_per_branch=(2, 2),
            length_decay=(0.7, 0.7),
            radius_decay=(0.6, 0.6),
            branch_angle_deg=(25.0, 25.0),
            crown_radius=(2.0, 2.0),
            foliage_fraction=(0.8, 0.8),
            n_points=(100, 100),
        )
        p = sample_params(Rng(0), ranges)
        assert p.trunk_height == 5.0
        assert p.branch_depth == 3
        assert p.length_decay == 0.7
        assert p.n_points == 100

    def test_same_seed_same_params(self):
        ranges = TreeParamRanges()
        assert sample_params(Rng(9), ranges) == sample_params(Rng(9), ranges)

    def test_trunk_height_mean(self):
        # uniform [4, 12]: mean 8, sd 8/sqrt(12); 1e4 draws
        ranges = TreeParamRanges(trunk_height=(4.0, 12.0))
        rng = Rng(7)
        draws = np.array(
            [sample_params(rng, ranges).trunk_height for _ in range(10_000)]
        )
        sigma_mean = (8.0 / np.sqrt(12.0)) / 100.0
        assert abs(draws.mean() - 8.0) < 3 * sigma_mean

    def test_empty_range_rejected(self):
        with pytest.raises(InvalidConfig):
            TreeParamRanges(trunk_height=(10.0, 4.0))

    @pytest.mark.parametrize("field, value", [
        ("trunk_height", (np.nan, 5.0)), ("trunk_height", (3.0, np.inf)),
        ("trunk_height", (0.0, 5.0)), ("trunk_radius", (-0.3, 0.4)),
        ("trunk_radius", (np.nan, np.nan)), ("crown_radius", (-1.0, 2.0)),
        ("crown_radius", (1.0, np.inf)), ("branch_angle_deg", (-np.inf, 30.0)),
        ("foliage_fraction", (0.5, np.nan)), ("length_decay", (np.nan, 0.7)),
        ("children_per_branch", (-3, -1)), ("children_per_branch", (-1, 2)),
        ("length_decay", (0.5, 1.5)), ("foliage_fraction", (0.5, 1.4)),
        ("branch_depth", (-3, -1)), ("branch_depth", (2, np.inf)), ("n_points", (1, np.inf)),
        ("n_points", (1, 2**63)),
    ])
    def test_nonfinite_or_nonpositive_range_rejected(self, field, value):
        with pytest.raises(InvalidConfig):
            TreeParamRanges(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("trunk_height", 0.0), ("trunk_height", np.nan), ("trunk_height", -2.0),
        ("trunk_height", np.inf), ("trunk_radius", -0.3), ("trunk_radius", np.inf),
        ("trunk_radius", 0.0), ("crown_radius", np.nan), ("crown_radius", -0.1),
        ("crown_radius", np.inf), ("branch_angle_deg", (np.nan, np.nan)),
        ("branch_angle_deg", (30.0, np.inf)), ("children_per_branch", (2, np.nan)),
        ("children_per_branch", (-3, -1)), ("children_per_branch", (-1, 2)),
        ("n_points", 2**63 - 1),
    ])
    def test_nonfinite_or_nonpositive_params_rejected(self, field, value):
        with pytest.raises(InvalidConfig):
            fixed_params(**{field: value})

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(ranges=VALID_RANGES, wild=st.lists(WILD_END, max_size=3),
           seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5))
    def test_ranges_accepted_exactly_when_both_corners_are_valid(self, ranges, wild, seeds):
        """Any draw from an accepted range set builds a TreeParams."""
        for name, end, value in wild:
            ranges[name] = (value, ranges[name][1]) if end == 0 else (ranges[name][0], value)
        if not is_valid(ranges):
            with pytest.raises(InvalidConfig):
                TreeParamRanges(**ranges)
            return
        accepted = TreeParamRanges(**ranges)
        for s in seeds:
            sample_params(Rng(s), accepted)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(ranges=VALID_RANGES, flat=st.sets(st.sampled_from(RANGE_FIELDS)),
           seed=st.integers(0, 2**63 - 1))
    def test_draws_equal_the_hand_listed_draws(self, ranges, flat, seed):
        """Walking the range fields draws what naming each field drew, and leaves the
        generator in the same state; `flat` ranges are lo == hi."""
        accepted = TreeParamRanges(**{k: (r[0], r[0]) if k in flat else r for k, r in ranges.items()})
        rng, ref = Rng(seed), Rng(seed)
        assert sample_params(rng, accepted) == sample_params_listed(ref, accepted)
        assert rng.random() == ref.random()

    def test_branch_depth_draws_both_ends(self):
        # integer ranges are inclusive: the default (2, 3) yields both
        depths = {sample_params(Rng(s), TreeParamRanges()).branch_depth for s in range(200)}
        assert depths == {2, 3}


class TestGrowSkeleton:
    def test_depth_zero_is_single_trunk(self):
        sk = grow_skeleton(fixed_params(branch_depth=0), Rng(0))
        assert len(sk) == 1
        np.testing.assert_array_equal(sk.starts[0], [0, 0, 0])
        np.testing.assert_array_equal(sk.ends[0], [0, 0, 8.0])

    def test_depth_one_three_children(self):
        sk = grow_skeleton(
            fixed_params(branch_depth=1, children_per_branch=(3, 3)), Rng(0)
        )
        assert len(sk) == 4

    def test_depth_two_geometric_sum(self):
        sk = grow_skeleton(
            fixed_params(branch_depth=2, children_per_branch=(2, 2)), Rng(0)
        )
        assert len(sk) == 1 + 2 + 4

    def test_child_counts_cover_the_inclusive_range(self):
        params = fixed_params(branch_depth=1, children_per_branch=(2, 4))
        counts = {len(grow_skeleton(params, Rng(s))) - 1 for s in range(50)}
        assert counts == {2, 3, 4}

    def test_connectivity(self):
        """Every segment but the trunk starts at the end of exactly one segment one level up."""
        sk = grow_skeleton(fixed_params(branch_depth=3), Rng(3))
        for i in range(1, len(sk)):
            assert len(skeleton_parents(sk, i)) == 1

    def test_radii_strictly_decrease(self):
        sk = grow_skeleton(fixed_params(branch_depth=3), Rng(3))
        for i in range(1, len(sk)):
            assert sk.radii[i] < sk.radii[skeleton_parents(sk, i)[0]]


class TestSampleCloud:
    def test_point_budget_and_attributes(self):
        params = fixed_params(n_points=100)
        cloud = sample_cloud(grow_skeleton(params, Rng(1)), params, Rng(2))
        assert len(cloud) == 100
        assert cloud.colors is not None and cloud.classes is not None

    def test_all_trunk_when_no_foliage(self):
        params = fixed_params(foliage_fraction=0.0, n_points=300)
        sk = grow_skeleton(params, Rng(1))
        cloud = sample_cloud(sk, params, Rng(2))
        assert np.all(cloud.classes == CLASS_TRUNK)
        # each point lies on some segment's lateral surface
        for p in cloud.positions:
            d_min = np.inf
            for s, e, r in zip(sk.starts, sk.ends, sk.radii):
                axis = e - s
                t = np.clip(np.dot(p - s, axis) / np.dot(axis, axis), 0, 1)
                radial = np.linalg.norm(p - (s + t * axis))
                d_min = min(d_min, radial - r)
            assert d_min <= 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_trunk_points_equal_the_per_point_loop(self, seed):
        params = fixed_params(foliage_fraction=0.0, n_points=300, branch_depth=3,
                              children_per_branch=(2, 4))
        sk = grow_skeleton(params, Rng(seed))
        cloud = sample_cloud(sk, params, Rng(seed + 100))
        ref = trunk_points_loop(sk, 300, Rng(seed + 100))
        ref[:, 2] = np.maximum(ref[:, 2], 0.0)
        assert np.array_equal(cloud.positions, ref)

    def test_all_foliage_in_crown_sphere(self):
        params = fixed_params(
            foliage_fraction=1.0, branch_depth=0, crown_radius=2.0, n_points=400
        )
        sk = grow_skeleton(params, Rng(1))
        cloud = sample_cloud(sk, params, Rng(2))
        assert np.all(cloud.classes == CLASS_FOLIAGE)
        tip = sk.ends[0]
        # ground clamping can only decrease distance in z
        unclamped = np.linalg.norm(cloud.positions[:, :2] - tip[:2], axis=1)
        assert np.all(unclamped <= params.crown_radius + 1e-9)
        assert np.all(cloud.positions[:, 2] >= 0)

    def test_every_terminal_tip_gets_foliage(self):
        params = fixed_params(branch_depth=1, children_per_branch=(3, 3), crown_radius=0.1,
                              foliage_fraction=1.0, n_points=300)
        sk = grow_skeleton(params, Rng(4))
        cloud = sample_cloud(sk, params, Rng(5))
        tips = sk.ends[sk.depths == 1]
        nearest = np.linalg.norm(cloud.positions[:, None] - tips[None], axis=2).argmin(axis=1)
        assert len(tips) == 3 and set(nearest) == {0, 1, 2}

    def test_budget_exact_for_odd_fractions(self):
        for frac in (0.13, 0.5, 0.77, 0.999):
            params = fixed_params(foliage_fraction=frac, n_points=251)
            cloud = sample_cloud(grow_skeleton(params, Rng(1)), params, Rng(2))
            assert len(cloud) == 251


class TestGenerateScene:
    def test_deterministic(self):
        a = generate_scene(11)
        b = generate_scene(11)
        np.testing.assert_array_equal(a.cloud.positions, b.cloud.positions)
        np.testing.assert_array_equal(a.dsm.values, b.dsm.values)
        np.testing.assert_array_equal(a.ortho.values, b.ortho.values)
        np.testing.assert_array_equal(a.shadow.values, b.shadow.values)

    def test_adjacent_seeds_differ(self):
        a = generate_scene(11)
        b = generate_scene(12)
        value, _ = chamfer(a.cloud, b.cloud)
        assert value > 0

    def test_nonempty_cloud_guaranteed(self):
        cfg = SceneConfig(ranges=TreeParamRanges(n_points=(1, 1)))
        assert len(generate_scene(0, cfg).cloud) == 1


# the tree frame's written-out cross products equal np.cross byte for byte: unit
# vectors with |d0| on either side of the helper switch at 0.9 and with signed zeros
NEAR_SWITCH = [math.nextafter(0.9, 0.0), 0.9, math.nextafter(0.9, 1.0)]
first = st.one_of(st.sampled_from(NEAR_SWITCH + [0.0, 1.0]), st.floats(0.0, 1.0))
turn = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi, 1.5 * math.pi]), st.floats(0.0, 2 * math.pi))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(d0=first, phi=turn, signs=st.tuples(*[st.sampled_from([1.0, -1.0])] * 3))
@example(d0=0.0, phi=0.0, signs=(-1.0, 1.0, -1.0))  # (-0, 1, -0)
@example(d0=1.0, phi=0.0, signs=(-1.0, -1.0, -1.0))  # (-1, -0, -0)
def test_orthonormal_basis_equals_np_cross(d0, phi, signs):
    r = math.sqrt(1.0 - d0 * d0)
    # a zero from cos or sin keeps its sign from `signs`: -0.0 is drawn as well
    d = np.array([d0, r * math.cos(phi), r * math.sin(phi)]) * np.array(signs)
    for got, want in zip(_orthonormal_basis(d), orthonormal_basis_cross(d)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
