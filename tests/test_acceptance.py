"""Acceptance suite: one test per top-level criterion, each printing a
PASS/FAIL line (visible with pytest -s or in the verbose test listing)."""
import filecmp
import time

import numpy as np
import pytest

from oracles import brute_chamfer
from treerecon.cli import main
from treerecon.core import Grid, GridSpec, PointCloud, Rng, RgbGrid, SunConfig
from treerecon.diffrender import SoftConfig, soft_shadow, soft_silhouette
from treerecon.gradcheck import REL_TOL, run_gradcheck
from treerecon.io_formats import (
    Manifest,
    SceneFiles,
    read_manifest,
    read_pfm,
    read_ply,
    read_ppm,
    write_manifest,
    write_pfm,
    write_ply,
    write_ppm,
)
from treerecon.losses import LossWeights, chamfer, combined_loss
from treerecon.losses import LossTargets
from treerecon.metrics import eval_chamfer, fscore
from treerecon.protree import TreeParams, generate_scene, grow_skeleton, sample_cloud
from treerecon.reconstruct import OptimConfig, reconstruct


def report(n, name, ok, detail=""):
    line = f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    scores = run_gradcheck(seed=0, trials=100)
    elapsed = time.perf_counter() - t0
    worst = max(scores.values())
    ok = all(s <= REL_TOL for s in scores.values()) and elapsed < 120.0
    report(
        1,
        "gradient correctness",
        ok,
        f"100 trials, max rel error {worst:.3e}, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_2_chamfer_oracle_equivalence():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        n, m = rng.integers(1, 501, 2)
        a = PointCloud(positions=rng.uniform(-20, 20, (n, 3)))
        b = PointCloud(positions=rng.uniform(-20, 20, (m, 3)))
        fast, _ = chamfer(a, b)
        worst = max(worst, abs(fast - brute_chamfer(a.positions, b.positions)))
    report(2, "chamfer oracle equivalence", worst <= 1e-12,
           f"200 instances up to 500x500, max |diff| {worst:.2e}")


def test_criterion_3_self_reconstruction():
    ratios = []
    for seed in range(10):
        scene = generate_scene(seed)
        noise = np.random.default_rng(1000 + seed)
        start = scene.cloud.positions + noise.normal(0.0, 0.5, scene.cloud.positions.shape)
        cd0 = eval_chamfer(PointCloud(positions=start), scene.cloud)
        cfg = OptimConfig(iters=500, weights=LossWeights(1, 0, 0, 0), log_every=500)
        res = reconstruct(
            scene.ortho, scene.dsm, gt_cloud=scene.cloud, cfg=cfg, init_positions=start
        )
        ratios.append(cd0 / eval_chamfer(res.cloud, scene.cloud))
    ok = all(r >= 5.0 for r in ratios)
    report(3, "self-reconstruction", ok,
           f"Chamfer reduction factors min {min(ratios):.1f} (need >= 5 on all 10 scenes)")


def test_criterion_4_beats_baseline(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "dataset"
    assert main(["generate", "--count", "20", "--seed", "42", "--out", str(out)]) == 0
    assert main(["bench", "--dataset", str(out)]) == 0
    elapsed = time.perf_counter() - t0

    rows = (out / "bench.csv").read_text().strip().splitlines()[1:]
    stats = {"reconstruct": [], "baseline": []}
    for row in rows:
        scene, method, cd, p, r, f = row.split(",")
        stats[method].append((float(cd), float(r)))
    cd_rec = np.mean([s[0] for s in stats["reconstruct"]])
    cd_base = np.mean([s[0] for s in stats["baseline"]])
    r_rec = np.mean([s[1] for s in stats["reconstruct"]])
    r_base = np.mean([s[1] for s in stats["baseline"]])
    ok = r_rec >= 1.2 * r_base and cd_rec < cd_base and elapsed < 900.0
    report(
        4,
        "input-only beats baseline",
        ok,
        f"recall {r_rec:.3f} vs {r_base:.3f} (x{r_rec / r_base:.2f}, need >= 1.2), "
        f"chamfer {cd_rec:.3f} vs {cd_base:.3f}, {elapsed:.0f}s (< 900s)",
    )


def test_criterion_5_zenith_equivalence():
    spec = GridSpec.centered(32, 0.5)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        n = rng.integers(1, 80)
        pts = rng.uniform(-7, 7, (n, 3))
        pts[:, 2] = rng.uniform(0, 10, n)
        cloud = PointCloud(positions=pts)
        cfg = SoftConfig(sigma=float(rng.uniform(0.4, 1.0)))
        sh = soft_shadow(cloud, SunConfig(rng.uniform(0, 360), 90.0), spec, cfg)
        sil = soft_silhouette(cloud, spec, cfg)
        worst = max(worst, float(np.max(np.abs(sh.values - sil.values))))
    report(5, "zenith shadow == silhouette", worst <= 1e-12,
           f"50 clouds, max pixel |diff| {worst:.2e}")


def test_criterion_6_determinism(tmp_path):
    gen_flags = ["--grid-size", "64", "--points-per-tree", "500"]
    dirs = []
    for name, jobs in (("a", 1), ("b", 1), ("c", 2)):
        out = tmp_path / name
        rc = main(
            ["generate", "--count", "5", "--seed", "7", "--out", str(out),
             "--jobs", str(jobs)] + gen_flags
        )
        assert rc == 0
        dirs.append(out)
    ok = True
    for other in dirs[1:]:
        for scene in sorted(x.name for x in dirs[0].iterdir()):
            files = sorted(x.name for x in (dirs[0] / scene).iterdir())
            _, mismatch, errors = filecmp.cmpfiles(
                dirs[0] / scene, other / scene, files, shallow=False
            )
            ok = ok and not mismatch and not errors

    manifest = dirs[0] / "scene_00000" / "manifest.json"
    recon = []
    for name in ("r1.ply", "r2.ply"):
        out = tmp_path / name
        rc = main(
            ["reconstruct", "--manifest", str(manifest), "--out", str(out),
             "--iters", "50", "--points", "300", "--seed", "9"]
        )
        assert rc == 0
        recon.append(out.read_bytes() + out.with_suffix(".history.csv").read_bytes())
    ok = ok and recon[0] == recon[1]
    report(6, "determinism", ok,
           "generate x2 + --jobs 2 byte-identical; reconstruct x2 byte-identical")


def test_criterion_7_io_round_trips(tmp_path):
    rng = np.random.default_rng(7)
    failures = 0

    for i in range(500):  # PLY
        n = int(rng.integers(0, 60))
        cloud = PointCloud(
            positions=rng.uniform(-100, 100, (n, 3)),
            colors=rng.random((n, 3)),
            classes=rng.integers(0, 2, n).astype(np.uint8) if rng.random() < 0.5 else None,
        )
        p = tmp_path / "c.ply"
        write_ply(cloud, p)
        back = read_ply(p)
        ok = np.array_equal(back.positions, cloud.positions.astype(np.float32))
        ok &= np.array_equal(
            np.floor(np.clip(back.colors, 0, 1) * 255 + 0.5),
            np.floor(np.clip(cloud.colors, 0, 1) * 255 + 0.5),
        )
        if cloud.classes is not None:
            ok &= np.array_equal(back.classes, cloud.classes)
        failures += not ok

    for i in range(500):  # PFM
        w, h = rng.integers(1, 40, 2)
        spec = GridSpec(int(w), int(h), *rng.uniform(-10, 10, 2), float(rng.uniform(0.1, 2)))
        vals = rng.normal(scale=100, size=(h, w)).astype(np.float32).astype(np.float64)
        p = tmp_path / "g.pfm"
        write_pfm(Grid(spec, vals), p)
        failures += not np.array_equal(read_pfm(p).values, vals)

    for i in range(500):  # PPM
        w, h = rng.integers(1, 40, 2)
        spec = GridSpec(int(w), int(h))
        vals = rng.integers(0, 256, (h, w, 3)) / 255.0
        p = tmp_path / "g.ppm"
        write_ppm(RgbGrid(spec, vals), p)
        failures += not np.array_equal(read_ppm(p).values, vals)

    for i in range(500):  # manifest
        m = Manifest(
            seed=int(rng.integers(0, 1 << 31)),
            grid=GridSpec(
                int(rng.integers(1, 2000)), int(rng.integers(1, 2000)),
                *rng.uniform(-1e4, 1e4, 2), float(rng.uniform(1e-3, 10)),
            ),
            sun=SunConfig(float(rng.uniform(0, 360)), float(rng.uniform(1e-6, 90))),
            files=SceneFiles(ortho=f"o{i}.ppm"),
        )
        p = tmp_path / "m.json"
        write_manifest(m, p)
        failures += read_manifest(p) != m

    report(7, "I/O round trips", failures == 0,
           f"{failures} failures over 500 instances per format")


def test_criterion_8_invariant_battery():
    rng = np.random.default_rng(8)
    ok = True
    notes = []

    # Chamfer symmetry and permutation tolerance
    a = PointCloud(positions=rng.uniform(-5, 5, (40, 3)))
    b = PointCloud(positions=rng.uniform(-5, 5, (50, 3)))
    va, _ = chamfer(a, b)
    vb, _ = chamfer(b, a)
    perm = PointCloud(positions=a.positions[rng.permutation(40)])
    vp, _ = chamfer(perm, b)
    ok &= abs(va - vb) <= 1e-12 and abs(va - vp) <= 1e-12
    notes.append("chamfer symmetric + permutation-invariant")

    # fscore monotone in tau
    prev = (0.0, 0.0)
    for tau in (0.1, 0.3, 0.5, 1.0, 3.0):
        p, r, _ = fscore(a, b, tau)
        ok &= p >= prev[0] and r >= prev[1]
        prev = (p, r)
    notes.append("fscore monotone in tau")

    # loss non-negativity and exact linearity in the weights
    scene = generate_scene(88)
    pred = PointCloud(positions=rng.uniform(-5, 5, (60, 3)) + [0, 0, 6])
    targets = LossTargets(
        silhouette=scene.silhouette, shadow=scene.shadow,
        dsm=scene.dsm, gt_cloud=scene.cloud,
    )
    cfg = SoftConfig(sigma=scene.spec.pixel_size)
    v1, g1, _ = combined_loss(
        pred, targets, scene.sun, scene.spec, cfg, LossWeights(1, 1, 0.5, 1)
    )
    v2, g2, _ = combined_loss(
        pred, targets, scene.sun, scene.spec, cfg, LossWeights(2, 2, 1, 2)
    )
    ok &= v1 >= 0 and abs(v2 - 2 * v1) <= 1e-12 * max(1.0, abs(v2))
    ok &= bool(np.all(np.abs(g2 - 2 * g1) <= 1e-15))
    notes.append("loss nonneg + linear in weights")

    # skeleton connectivity and point-budget exactness
    params = TreeParams(
        trunk_height=5.0, trunk_radius=0.3, branch_depth=3,
        children_per_branch=(2, 3), length_decay=0.7, radius_decay=0.6,
        branch_angle_deg=(20.0, 50.0), crown_radius=2.0,
        foliage_fraction=0.8, n_points=321,
    )
    sk = grow_skeleton(params, Rng(0))
    for i in range(1, len(sk)):
        ok &= bool(np.linalg.norm(sk.starts[i] - sk.ends[sk.parents[i]]) < 1e-9)
    cloud = sample_cloud(sk, params, Rng(1))
    ok &= len(cloud) == 321
    notes.append("skeleton connected + point budget exact")

    report(8, "invariant battery", ok, "; ".join(notes))
