import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import chamfer_tie_loop, fd_gradient_loop, truncation_safe_loop
from treerecon import diffrender, gradcheck, losses
from treerecon.core import GridSpec, PointCloud, SunConfig
from treerecon.diffrender import SoftConfig
from treerecon.gradcheck import (
    _MARGIN,
    _truncation_safe,
    chamfer_mask,
    fd_gradient,
    run_gradcheck,
    shadow_mask,
    silhouette_mask,
)
from treerecon.losses import cKDTree
from treerecon.sensor import project_to_ground


def test_truncation_mask_matches_per_point_loop():
    rng = np.random.default_rng(0)
    unsafe = 0
    for _ in range(100):
        spec = GridSpec.centered(int(rng.integers(5, 25)), float(rng.uniform(0.3, 1.0)))
        cfg = SoftConfig(sigma=float(rng.uniform(0.2, 1.5)),
                         trunc=float(rng.choice([1.0, 3.0, np.inf])))
        xy = rng.uniform(-8.0, 8.0, (int(rng.integers(1, 60)), 2))
        slacks = [float(x) for x in rng.choice([1e-3, 0.1, 0.5], size=2)]
        for safe, slack in zip(_truncation_safe(xy, spec, cfg, *slacks), slacks, strict=True):
            np.testing.assert_array_equal(
                safe, truncation_safe_loop(xy, spec, cfg.trunc * cfg.sigma, slack)
            )
            unsafe += int((~safe).sum())
    assert unsafe > 100  # both outcomes are exercised


def random_points(rng, n):
    return PointCloud(positions=np.column_stack([rng.uniform(-6.0, 6.0, (n, 2)), rng.uniform(0.0, 4.0, n)]))


def test_silhouette_and_shadow_masks_match_the_per_point_loop():
    """x and y (and for the silhouette, z too) at slack _MARGIN h; the shadow's z at that
    slack times the projection's displacement per meter of height, when above 1."""
    rng = np.random.default_rng(1)
    spec = GridSpec.centered(20, 0.5)
    unsafe_xy = unsafe_z_only = 0
    for _ in range(200):
        c = random_points(rng, int(rng.integers(1, 50)))
        cfg = SoftConfig(sigma=float(rng.uniform(0.35, 0.75)), trunc=float(rng.choice([1.0, 3.0, np.inf])))
        sun = SunConfig(float(rng.uniform(0.0, 360.0)), float(rng.uniform(20.0, 90.0)))
        h = float(10 ** rng.uniform(-5.0, -2.0))
        cutoff, slack = cfg.trunc * cfg.sigma, _MARGIN * h
        safe = truncation_safe_loop(c.positions[:, :2], spec, cutoff, slack)
        np.testing.assert_array_equal(silhouette_mask(c, spec, cfg, h),
                                      np.column_stack([safe, safe, np.ones(len(c), dtype=bool)]))
        xy, jac = project_to_ground(c, sun)
        safe_xy = truncation_safe_loop(xy, spec, cutoff, slack)
        safe_z = truncation_safe_loop(xy, spec, cutoff, slack * max(1.0, np.hypot(jac[0, 2], jac[1, 2])))
        np.testing.assert_array_equal(shadow_mask(c, sun, spec, cfg, h),
                                      np.column_stack([safe_xy, safe_xy, safe_z]))
        unsafe_xy += int((~safe).sum() + (~safe_xy).sum())
        unsafe_z_only += int((safe_xy & ~safe_z).sum())
    assert unsafe_xy > 1000 and unsafe_z_only > 30  # both slacks decide some points


def test_chamfer_mask_matches_an_all_pairs_loop():
    """Including a gt that shares the cloud's array, and clouds of fewer than two points."""
    rng = np.random.default_rng(2)
    unsafe = 0
    for trial in range(200):
        c = random_points(rng, int(rng.integers(1, 40)))
        gt = c if trial % 4 == 0 else random_points(rng, int(rng.integers(1, 40)))
        h = float(10 ** rng.uniform(-4.0, -1.0))
        safe = chamfer_tie_loop(c.positions, gt.positions, _MARGIN * h)
        mask = chamfer_mask(c, gt, h, cKDTree(gt.positions), cKDTree(c.positions).query(gt.positions, k=2))
        np.testing.assert_array_equal(mask, np.column_stack([safe, safe, safe]))
        unsafe += int((~safe).sum())
    assert unsafe > 500



def test_a_trial_builds_four_kd_trees_and_its_chamfer_mask_builds_none(monkeypatch):
    """Per trial `losses` builds the scorer's ground-truth tree and the cloud's tree of its one
    two-nearest search, then the cloud's tree of the analytic Chamfer's reverse query and that of the
    combined loss's (as many points each: `gradcheck` draws a ground truth of N points), and
    `gradcheck`'s own `cKDTree` is never called: the Chamfer mask reads the scorer's search."""
    builds, own = [], []

    class Tree(cKDTree):
        def __init__(self, data, *args, **kwargs):
            builds.append(len(data))
            super().__init__(data, *args, **kwargs)

    monkeypatch.setattr(losses, "cKDTree", Tree)
    monkeypatch.setattr(gradcheck, "cKDTree", lambda *args, **kwargs: own.append(args) or cKDTree(*args, **kwargs))
    run_gradcheck(seed=0, trials=3)
    assert len(builds) == 12 and builds[0::4] == builds[1::4] == builds[2::4] == builds[3::4] and own == []

def recorded_scorers(monkeypatch) -> list[list]:
    """Per `MoveScorer` that run_gradcheck builds: first the number of points of each slot list
    `losses` built while it was built, then per call (copies, those numbers, breakdown, changed)."""
    built, listed = [], []
    lists = losses._Slots
    monkeypatch.setattr(losses, "_Slots", lambda xy, *args: listed.append(len(xy)) or lists(xy, *args))

    class Recorded(losses.MoveScorer):
        def __init__(self, *args):
            listed.clear()
            super().__init__(*args)
            built.append([listed[:]])

        def __call__(self, point, moved):
            listed.clear()
            values, breakdown, changed = super().__call__(point, moved)
            built[-1].append((len(point), listed[:], breakdown, changed))
            return values, breakdown, changed

    monkeypatch.setattr(gradcheck, "MoveScorer", Recorded)
    return built


def test_combined_path_checks_the_soft_dsm(monkeypatch):
    """The DSM term is off by default; the combined path turns it on, so every call of each
    trial's one scorer scores every term and renders every raster kind, the soft DSM too."""
    built = recorded_scorers(monkeypatch)
    run_gradcheck(seed=0, trials=2)
    assert len(built) == 2 and all(len(calls) > 2 for calls in built)
    for _, _, breakdown, changed in (call for _, *calls in built for call in calls):
        assert list(breakdown) == list(losses.TERMS) and sorted(changed) == ["dsm", "shadow", "sil"]


def test_each_point_set_lists_the_clouds_slots_once_per_trial(monkeypatch):
    """The cloud's (x, y), which the silhouette and the soft DSM share, and its ground projection
    list the cloud's N points' slots once per trial, when the trial's scorer is built, and each
    call lists only its copies' moved points, once per point set."""
    built = recorded_scorers(monkeypatch)
    run_gradcheck(seed=0, trials=2, n_points=30)
    assert [lists for lists, *_ in built] == [[30, 30]] * 2
    calls = [call for _, *calls in built for call in calls]
    assert len(calls) > 4 and all(lists == [copies] * 2 for copies, lists, _, _ in calls)


@pytest.mark.parametrize("budget", [7, 64])
def test_a_trial_lists_each_point_sets_slots_once_per_chunk(monkeypatch, budget):
    """Per chunk of FD_CHUNK_COPIES copies (the last holds the rest), the scorer lists the slots of
    its copies' moved (x, y) and then of their ground projection, once each."""
    handed, moves = [], []
    lists = losses._Slots
    monkeypatch.setattr(losses, "_Slots", lambda xy, *args: handed.append(xy.copy()) or lists(xy, *args))
    monkeypatch.setattr(gradcheck, "FD_CHUNK_COPIES", budget)

    class Recorded(losses.MoveScorer):
        def __call__(self, point, moved):
            handed.clear()
            result = super().__call__(point, moved)
            moves.append((moved.copy(), handed[:], self.sun))
            return result

    monkeypatch.setattr(gradcheck, "MoveScorer", Recorded)
    run_gradcheck(seed=3, trials=1, n_points=20)
    assert len(moves) >= 2 and all(len(moved) == budget for moved, *_ in moves[:-1]) and len(moves[-1][0]) <= budget
    for moved, sets, sun in moves:
        assert [xy.tobytes() for xy in sets] == [moved[:, :2].tobytes(),
                                                 project_to_ground(PointCloud(moved), sun)[0].tobytes()]


@pytest.mark.parametrize("seed, n", [(0, 20), (1, 35), (18, 50)])
def test_a_trial_hands_the_footprint_builder_n_points_and_its_copies_per_kind(monkeypatch, seed, n):
    """Past the six one-cloud passes of the analytic gradients (three `*_backward` and three in
    `combined_loss`), the finite differences of a trial hand `sensor.pixels_within` the cloud's N
    points and each of its copies' one moved point, per raster kind: at most 3 (N + copies) points,
    where materialized copies would hand it N points each."""
    handed = []
    build = diffrender.pixels_within
    monkeypatch.setattr(diffrender, "pixels_within", lambda xy, *args: handed.append(len(xy)) or build(xy, *args))
    masks, fd = [], gradcheck.fd_gradient
    monkeypatch.setattr(gradcheck, "fd_gradient", lambda f, ps, h, mask: masks.append(mask) or fd(f, ps, h, mask))
    run_gradcheck(seed=seed, trials=1, n_points=n)
    copies = 2 * int(np.count_nonzero(masks[0]))
    assert len(masks) == 1 and copies > 3 * n
    assert sum(handed) - 6 * n <= 3 * (n + copies)


def wavy(p: np.ndarray) -> float:
    """A smooth scalar of one (N, 3) cloud that mixes every coordinate."""
    return float((np.sin(3.0 * p) * np.cos(p[:, ::-1]) + p**3).sum())


def materialized(positions: np.ndarray, point: np.ndarray, moved: np.ndarray) -> np.ndarray:
    """The (B, N, 3) copies of positions that fd_gradient's (point, moved) stand for: copy k with
    point point[k] at moved[k]."""
    stack = np.repeat(positions[None], len(point), axis=0)
    stack[np.arange(len(point)), point] = moved
    return stack


class Recording:
    """(point, moved) -> `of` each materialized copy of positions; records each call's copies."""

    def __init__(self, positions: np.ndarray, of=wavy):
        self.positions, self.of, self.copies = positions, of, []

    def __call__(self, point, moved):
        self.copies.append(len(point))
        return [self.of(p) for p in materialized(self.positions, point, moved)]


@settings(max_examples=100, derandomize=True, deadline=None)
@example(n=5, bits=[False] * 15, h=1e-4, budget=32)  # f gets no copies
@example(n=0, bits=[], h=1e-4, budget=32)
@given(n=st.integers(0, 40), bits=st.lists(st.booleans(), min_size=120, max_size=120),
       h=st.floats(1e-7, 1e-2), budget=st.integers(1, 80))
def test_fd_gradient_equals_the_in_place_loop(n, bits, h, budget):
    """Byte for byte, over drawn masks and chunk sizes that need not divide the copies."""
    positions = np.random.default_rng(n).uniform(-5.0, 5.0, (n, 3))
    mask = np.array(bits[: 3 * n], dtype=bool).reshape(n, 3)
    f = Recording(positions)
    with mock.patch.object(gradcheck, "FD_CHUNK_COPIES", budget):
        grad = fd_gradient(f, positions, h, mask)
    assert grad.tobytes() == fd_gradient_loop(wavy, positions, h, mask).tobytes()
    assert sum(f.copies) == 2 * int(mask.sum())
    assert all(copies <= budget for copies in f.copies)


@settings(max_examples=100, derandomize=True, deadline=None)
@example(n=5, k=3, bits=[False] * 45, budget=32)  # f gets no copies
@given(n=st.integers(1, 30), k=st.integers(1, 5), bits=st.lists(st.booleans(), min_size=450, max_size=450),
       budget=st.integers(1, 80))
def test_each_column_of_fd_gradient_is_a_call_on_that_column_alone(n, k, bits, budget):
    """f of (B, K) values: on each column's own mask, its (N, 3) slice has the bytes of
    fd_gradient of that column on that mask, the union of the masks driving the call."""
    positions = np.random.default_rng(n).uniform(-5.0, 5.0, (n, 3))
    masks = np.array(bits[: 3 * n * k], dtype=bool).reshape(k, n, 3)
    column = lambda c: Recording(positions, lambda p: wavy(p * (c + 1)))
    with mock.patch.object(gradcheck, "FD_CHUNK_COPIES", budget):
        fds = fd_gradient(lambda point, moved: np.column_stack([column(c)(point, moved) for c in range(k)]),
                          positions, 1e-4, masks.any(axis=0))
        assert fds.shape == (k, n, 3)
        for c, mask in enumerate(masks):
            alone = fd_gradient(column(c), positions, 1e-4, mask)
            assert np.where(mask, fds[c], 0.0).tobytes() == alone.tobytes()


@pytest.mark.parametrize("n, budget", [(35, 32), (35, 70), (35, 69), (300, 256), (1, 1), (1, 6), (1, 7)])
def test_fd_gradient_hands_f_its_copies_a_chunk_at_a_time(n, budget):
    """Every call but the last gets FD_CHUNK_COPIES copies, and the last the rest."""
    positions = np.random.default_rng(3).uniform(-5.0, 5.0, (n, 3))
    f = Recording(positions)
    with mock.patch.object(gradcheck, "FD_CHUNK_COPIES", budget):
        fd_gradient(f, positions, 1e-4, np.ones((n, 3), dtype=bool))
    assert sum(f.copies) == 6 * n and f.copies[:-1] == [budget] * (len(f.copies) - 1)
    assert 1 <= f.copies[-1] <= budget


@pytest.mark.parametrize("seed", [0, 18])
def test_a_trials_fd_arrays_keep_their_bytes_whatever_the_chunk_size(monkeypatch, seed):
    """The scorer reduces each copy on its own, so each of a trial's fd arrays has the same bytes
    whether the copies come one per call, a few, FD_CHUNK_COPIES or all in one call."""
    fd, arrays = gradcheck.fd_gradient, []
    monkeypatch.setattr(gradcheck, "fd_gradient", lambda *args: arrays.append(fd(*args)) or arrays[-1])
    for budget in (1, 7, gradcheck.FD_CHUNK_COPIES, 10**6):
        monkeypatch.setattr(gradcheck, "FD_CHUNK_COPIES", budget)
        run_gradcheck(seed=seed, trials=2)
    assert len(arrays) == 8
    assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays[:2] * 3, arrays[2:], strict=True))


@pytest.mark.parametrize("k", [None, 1, 2])
def test_an_empty_mask_gives_zeros_of_the_shape_a_full_one_gives(k):
    """(N, 3) for (B,) values and (K, N, 3) for (B, K) values, whatever the mask."""
    positions = np.random.default_rng(4).uniform(-5.0, 5.0, (4, 3))
    f = lambda point, moved: np.zeros(len(point) if k is None else (len(point), k))
    full = fd_gradient(f, positions, 1e-4, np.ones((4, 3), dtype=bool))
    empty = fd_gradient(f, positions, 1e-4, np.zeros((4, 3), dtype=bool))
    assert full.shape == empty.shape == ((4, 3) if k is None else (k, 4, 3)) and not empty.any()


@pytest.mark.parametrize("shape", [(4, 3), (5, 2), (6, 3), (15,)])
def test_fd_gradient_rejects_a_mask_of_another_shape(shape):
    f = Recording(np.zeros((5, 3)))
    with pytest.raises(ValueError, match="mask shape"):
        fd_gradient(f, np.zeros((5, 3)), 1e-4, np.ones(shape, dtype=bool))
    assert f.copies == []


def test_a_trial_at_the_widest_splat_peaks_under_3_5_mb():
    """One trial's traced peak, on a fresh thread, so that its `sensor.workspace` starts empty.
    Seed 18 draws sigma = 1.496 px, next to the widest (1.5 px), so its splat windows are about
    the largest a trial renders: 1.10 MB at FD_CHUNK_COPIES = 64, 1.85 at 128, 3.31 at 256 and
    3.82 at 512 (MB of 2**20 bytes), which is all of this trial's 300 copies in one call. A call
    lists its copies' moved slots, about 4 KB a copy in the thread's buffers and its temporaries,
    so a chunk of 300 copies fails here first. Rows of an (H, W) raster per copy peaked at 1.24 MB
    at 32 copies a call, and stacks of materialized copies at 2.79 MB at 512 points a stack."""
    peak = []

    def trial():
        tracemalloc.start()
        try:
            run_gradcheck(seed=18, trials=1, n_points=50)
            peak.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    worker = threading.Thread(target=trial)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive() and len(peak) == 1
    assert peak[0] < 3.5 * 2**20
