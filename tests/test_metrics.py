import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from oracles import brute_chamfer, fscore_unbounded, zero_grid
from treerecon import core, losses, metrics
from treerecon.core import PointCloud, Rng
from treerecon.errors import EmptyFootprint, InvalidConfig
from treerecon.metrics import eval_chamfer, format_report, fscore
from treerecon.protree import generate_scene
from treerecon.reconstruct import baseline_extrude


def cloud(points):
    return PointCloud(positions=np.array(points, dtype=float).reshape(-1, 3))


def random_cloud(seed, n):
    rng = np.random.default_rng(seed)
    return PointCloud(positions=rng.uniform(-5, 5, (n, 3)))


class TestEvalChamfer:
    def test_identity(self):
        a = random_cloud(0, 25)
        assert eval_chamfer(a, a) == 0.0

    def test_singletons(self):
        assert eval_chamfer(cloud([0, 0, 0]), cloud([0, 0, 3])) == 18.0

    def test_matches_brute_force(self):
        for seed in range(10):
            a = random_cloud(seed, 35)
            b = random_cloud(seed + 100, 28)
            assert abs(eval_chamfer(a, b) - brute_chamfer(a.positions, b.positions)) <= 1e-12


class TestFscore:
    def test_identity(self):
        a = random_cloud(1, 20)
        assert fscore(a, a, 0.5) == (1.0, 1.0, 1.0)

    def test_all_misses(self):
        assert fscore(cloud([0, 0, 0]), cloud([0, 0, 1]), 0.5) == (0.0, 0.0, 0.0)

    def test_half_precision(self):
        p, r, f = fscore(cloud([[0, 0, 0], [5, 0, 0]]), cloud([0, 0, 0]), 0.5)
        assert (p, r) == (0.5, 1.0)
        assert abs(f - 2.0 / 3.0) < 1e-12

    def test_boundary_match_inclusive(self):
        p, r, f = fscore(cloud([0, 0, 0]), cloud([0.5, 0, 0]), 0.5)
        assert (p, r, f) == (1.0, 1.0, 1.0)

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            fscore(cloud([0, 0, 0]), cloud([0, 0, 0]), 0.0)


# lattice clouds at a spacing of tau or tau / 2, so that nearest distances hit
# exactly tau (which counts) and 2 tau, and coincide
lattice = st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=1, max_size=12)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(pred=lattice, gt=lattice, tau=st.one_of(
    st.sampled_from([1e-170, 1e-160, 5e-324, 0.1, 0.25, 0.5, 1.0, 3.0, 1e300]),
    st.floats(1e-6, 1e6)), half=st.booleans())
@example(pred=[(0, 0, 0)], gt=[(0, 0, 0)], tau=1e-170, half=False)  # coincident: d = 0 <= tau
@example(pred=[(0, 0, 0)], gt=[(1, 0, 0), (2, 0, 0)], tau=0.1, half=False)  # d = tau, d = 2 tau
def test_fscore_equals_unbounded_queries(pred, gt, tau, half):
    step = tau / 2 if half else tau
    a, b = (cloud(np.array(c, dtype=float) * step) for c in (pred, gt))
    assert fscore(a, b, tau) == fscore_unbounded(a, b, tau)


@pytest.mark.parametrize("tau", [5e-324, 1e-170, 1e-150, 1.5e-150, 1e-140, 0.1, 0.5, 3.0, 1e300, 1.7e308])
def test_a_match_at_tau_counts_and_one_a_float_past_it_does_not(tau):
    """The nearest point at exactly tau and at the next float above it: the scores of unbounded
    searches. Where tau^2 is a normal float, the first is a match and the second not; outside,
    d^2 underflows to 0 (a match) or overflows to inf (a miss) for both."""
    for d, hit in ((tau, 1.0), (float(np.nextafter(tau, np.inf)), 0.0)):
        a, b = cloud([0, 0, 0]), cloud([d, 0, 0])
        score = fscore(a, b, tau)
        assert score == fscore_unbounded(a, b, tau)
        if np.finfo(float).tiny <= tau * tau < np.inf:
            assert score == (hit, hit, hit)


@st.composite
def scored_pairs(draw):
    """(pred, gt, tau): 1 to 3,000 points a side, some drawn from a few lattice points so that
    points repeat and nearest distances tie, gt at times far from pred, and tau from tiny to huge."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = st.integers(1, 3000) | st.sampled_from([1, 2, 3, 999, 2999, 3000])
    clouds = []
    for k in (draw(sizes), draw(sizes)):
        if draw(st.booleans()):  # duplicates: k draws from a lattice of at most 40 points
            lattice = rng.integers(-3, 4, (draw(st.integers(1, 40)), 3)) * draw(st.sampled_from([0.25, 1.0]))
            clouds.append(lattice[rng.integers(0, len(lattice), k)])
        else:
            clouds.append(rng.uniform(-5.0, 5.0, (k, 3)))
    offset = draw(st.sampled_from([0.0, 0.0, 100.0, 1e6]))  # gt far from pred
    tau = draw(st.sampled_from([5e-324, 1e-170, 0.25, 0.5, 1e300]) | st.floats(1e-6, 1e7))
    return PointCloud(clouds[0]), PointCloud(clouds[1] + offset), tau


def uniform(seed, n, offset=0.0):
    return PointCloud(np.random.default_rng(seed).uniform(-5.0, 5.0, (n, 3)) + offset)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(pair=scored_pairs())
@example(pair=(uniform(0, 1), uniform(1, 1), 0.5))
@example(pair=(uniform(2, 1), uniform(3, 3000), 1e-6))
@example(pair=(uniform(4, 2999), uniform(5, 1, 1e6), 1e300))
@example(pair=(PointCloud(np.zeros((3000, 3))), PointCloud(np.ones((2999, 3))), 5e-324))  # all distances tie
def test_the_worker_changes_no_score(pair):
    """eval_chamfer and fscore give the same floats with the worker thread (on two or more CPUs)
    and without it (the CPU rule patched to find no CPU)."""
    pred, gt, tau = pair
    metrics._last.record = None  # each side searches for itself
    pooled = eval_chamfer(pred, gt), *fscore(pred, gt, tau)
    metrics._last.record = None
    with mock.patch.object(core, "other_cpus", set):
        alone = eval_chamfer(pred, gt), *fscore(pred, gt, tau)
    assert np.array(pooled).tobytes() == np.array(alone).tobytes()


# a thread's scores of one pair of clouds read its one search of them

TAUS = st.sampled_from([5e-324, 1e-170, 1e-150, 0.1, 0.5, 3.0, 1e150, 1e300, 1.7e308]) | st.floats(5e-324, 1.7e308)


@st.composite
def probed_pairs(draw):
    """(pred, gt, taus): 1 to 200 points a side, so N * M falls on both sides of `losses._TABLE_MAX`,
    with each coordinate one of k * taus[0] / 2 for |k| <= 2 and the float just past taus[0], so that
    nearest distances tie, equal taus[0] or pass it by one float; then one to three more taus."""
    taus = [draw(TAUS)] + draw(st.lists(TAUS, min_size=1, max_size=3))
    coords = [k * (taus[0] / 2) for k in range(-2, 3)] + [float(np.nextafter(taus[0], np.inf))]
    sizes = st.integers(1, 200) | st.sampled_from([1, 64, 65, 200])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pred, gt = (PointCloud(rng.choice(coords, (draw(sizes), 3))) for _ in range(2))
    return pred, gt, taus


def zeros(n):
    return PointCloud(np.zeros((n, 3)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, derandomize=True, deadline=None)
@given(pair=probed_pairs())
@example(pair=(zeros(65), zeros(65), [5e-324, 1.7e308]))  # coincident above the table size: d = 0 <= tau
@example(pair=(cloud([0, 0, 0] * 70), cloud([0, 0, 0.1] * 69 + [0, 0, float(np.nextafter(0.1, 1))]), [0.1]))
@example(pair=(uniform(0, 120), uniform(1, 120, 100.0), [0.5, 200.0, 1e6]))  # gt far from pred
def test_fscore_after_eval_chamfer_keeps_the_bytes_of_fscore_alone_and_of_unbounded_queries(pair):
    """fscore alone, fscore at each tau after one eval_chamfer of the same clouds, and unbounded
    queries give the same bytes, and eval_chamfer gives chamfer's value, with no numpy warning.
    eval_chamfer searches only where its Chamfer reads trees, and keeps its search for fscore there
    even where a squared distance overflows and it raises InvalidConfig, as chamfer does."""
    pred, gt, taus = pair
    metrics._last.record = None  # fscore alone: its own search
    alone = [fscore(pred, gt, tau) for tau in taus]
    metrics._last.record = None  # eval_chamfer's own search, where it makes one
    shared = len(pred) * len(gt) > losses._TABLE_MAX
    try:
        value = eval_chamfer(pred, gt)
    except InvalidConfig:
        with pytest.raises(InvalidConfig):
            losses.chamfer(pred, gt)
    else:
        assert np.float64(value).tobytes() == np.float64(losses.chamfer(pred, gt)[0]).tobytes()
    assert (metrics._last.record is not None) == shared
    event(f"fscore reads eval_chamfer's distances: {shared}")
    after = [fscore(pred, gt, tau) for tau in taus]
    unbounded = [fscore_unbounded(pred, gt, tau) for tau in taus]
    assert np.array(alone).tobytes() == np.array(after).tobytes() == np.array(unbounded).tobytes()


@contextlib.contextmanager
def scoring_calls():
    """Counts of the KD-trees built, the `query_pair` calls made and the threads started while open."""
    counts = dict.fromkeys(("trees", "pairs", "threads"), 0)

    def counted(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call

    with mock.patch.object(metrics, "cKDTree", counted("trees", metrics.cKDTree)), \
            mock.patch.object(losses, "cKDTree", counted("trees", losses.cKDTree)), \
            mock.patch.object(metrics, "query_pair", counted("pairs", metrics.query_pair)), \
            mock.patch.object(losses, "query_pair", counted("pairs", losses.query_pair)), \
            mock.patch.object(threading.Thread, "start", counted("threads", threading.Thread.start)):
        yield counts


@pytest.mark.parametrize("first", ["eval_chamfer", "fscore"])
def test_one_evaluation_in_either_order_builds_two_trees_and_queries_once(first):
    """One evaluation of a pair, eval_chamfer and fscore at three taus in either order, builds two
    trees and makes one pair of queries, all in the first call, whose worker (on two or more CPUs)
    is the only thread; it gives the unbounded queries' scores and chamfer's value."""
    pred, gt = uniform(0, 2000), uniform(1, 2000)
    taus = (0.1, 0.5, 2.0)
    calls = {"eval_chamfer": lambda: eval_chamfer(pred, gt), "fscore": lambda: [fscore(pred, gt, tau) for tau in taus]}
    second = "fscore" if first == "eval_chamfer" else "eval_chamfer"
    metrics._last.record = None
    with scoring_calls() as counts:
        results = {first: calls[first]()}
        assert counts["trees"] == 2 and counts["pairs"] == 1 and counts["threads"] <= 1
        before = dict(counts)
        results[second] = calls[second]()
        assert counts == before
    assert results["fscore"] == [fscore_unbounded(pred, gt, tau) for tau in taus]
    assert np.float64(results["eval_chamfer"]).tobytes() == np.float64(losses.chamfer(pred, gt)[0]).tobytes()


def test_the_record_is_never_read_for_other_clouds():
    """After eval_chamfer of (pred, gt), fscore queries again, and gives the unbounded queries'
    scores, for pred or gt edited in place, for another cloud of the same length, for pred and gt
    swapped and on another thread; each of these would change the scores a stale record gave."""
    def edited(c):
        c.positions[:10] += 3.0
        return c

    cases = {
        "pred edited in place": lambda pred, gt: (edited(pred), gt),
        "gt edited in place": lambda pred, gt: (pred, edited(gt)),
        "another pred of the same length": lambda pred, gt: (uniform(2, len(pred)), gt),
        "pred and gt swapped": lambda pred, gt: (gt, pred),
    }
    for name, other in cases.items():
        pred, gt = uniform(0, 100), uniform(1, 90)
        eval_chamfer(pred, gt)
        stale = fscore(pred, gt, 1.0)
        pred, gt = other(pred, gt)
        with scoring_calls() as counts:
            scores = fscore(pred, gt, 1.0)
        assert counts["pairs"] == 1, name
        assert scores == fscore_unbounded(pred, gt, 1.0) != stale, name
    metrics._last.record = None
    with ThreadPoolExecutor(1) as other_thread:  # that thread's record is its own
        other_thread.submit(eval_chamfer, pred, gt).result(timeout=60)
    with scoring_calls() as counts:
        assert fscore(pred, gt, 1.0) == fscore_unbounded(pred, gt, 1.0)
    assert counts["pairs"] == 1


class TestBaselineExtrude:
    def setup_method(self):
        self.scene = generate_scene(3)

    def test_point_budget(self):
        base = baseline_extrude(
            self.scene.dsm, self.scene.silhouette, self.scene.ortho, 777, Rng(0)
        )
        assert len(base) == 777

    def test_z_equals_dsm_at_pixel(self):
        base = baseline_extrude(
            self.scene.dsm, self.scene.silhouette, self.scene.ortho, 500, Rng(0)
        )
        spec = self.scene.dsm.spec
        u = np.round((base.positions[:, 0] - spec.origin_x) / spec.pixel_size)
        v = np.round((base.positions[:, 1] - spec.origin_y) / spec.pixel_size)
        heights = self.scene.dsm.values[v.astype(int), u.astype(int)]
        np.testing.assert_array_equal(base.positions[:, 2], heights)

    def test_points_inside_silhouette(self):
        base = baseline_extrude(
            self.scene.dsm, self.scene.silhouette, self.scene.ortho, 500, Rng(1)
        )
        spec = self.scene.dsm.spec
        u = np.round((base.positions[:, 0] - spec.origin_x) / spec.pixel_size)
        v = np.round((base.positions[:, 1] - spec.origin_y) / spec.pixel_size)
        assert np.all(self.scene.silhouette.values[v.astype(int), u.astype(int)] == 1.0)

    def test_empty_silhouette_rejected(self):
        empty = zero_grid(self.scene.dsm.spec)
        with pytest.raises(EmptyFootprint):
            baseline_extrude(self.scene.dsm, empty, self.scene.ortho, 100, Rng(0))

    def test_deterministic(self):
        a = baseline_extrude(
            self.scene.dsm, self.scene.silhouette, self.scene.ortho, 300, Rng(5)
        )
        b = baseline_extrude(
            self.scene.dsm, self.scene.silhouette, self.scene.ortho, 300, Rng(5)
        )
        np.testing.assert_array_equal(a.positions, b.positions)


class TestFormatReport:
    def test_key_value_pairs(self):
        out = format_report({"chamfer": 1.25, "fscore": 0.5})
        assert out == "chamfer=1.25 fscore=0.5"
