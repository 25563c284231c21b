import numpy as np

from oracles import chamfer_tie_loop, truncation_safe_loop
from treerecon import gradcheck, losses
from treerecon.core import GridSpec, PointCloud, SunConfig
from treerecon.diffrender import SoftConfig
from treerecon.gradcheck import (
    _MARGIN,
    _truncation_safe,
    chamfer_mask,
    run_gradcheck,
    shadow_mask,
    silhouette_mask,
)
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
        np.testing.assert_array_equal(chamfer_mask(c, gt, h), np.column_stack([safe, safe, safe]))
        unsafe += int((~safe).sum())
    assert unsafe > 500


def test_combined_path_checks_the_soft_dsm(monkeypatch):
    """The DSM term is off by default; the combined path turns it on, so every loss
    evaluation gradcheck makes runs the soft-DSM pass too."""
    calls = {"combined": 0, "dsm": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(gradcheck, "combined_loss", counted("combined", gradcheck.combined_loss))
    monkeypatch.setattr(losses, "dsm_forward_backward", counted("dsm", losses.dsm_forward_backward))
    run_gradcheck(seed=0, trials=1)
    assert calls["dsm"] == calls["combined"] > 1
