"""Command-line interface: generate / reconstruct / eval / gradcheck / bench.

`main` returns 0 on success; a run stopped by an error prints one `error: …`
line to stderr and returns the error's `exit_code`, the table in `errors.py`.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .core import GridSpec, Rng, SunConfig, check_seed
from .errors import EmptyInput, InvalidConfig, MalformedFile, MissingTarget, TreeReconError
from .gradcheck import REL_TOL, run_gradcheck
from .io_formats import load_scene, read_manifest, read_pfm, read_ply, read_ppm, save_scene, write_ply
from .losses import TERMS, resolve_weights
from .metrics import DEFAULT_TAU, check_tau, eval_chamfer, format_report, fscore
from .protree import SceneConfig, TreeParamRanges, generate_scene
from .reconstruct import OptimConfig, baseline_extrude, reconstruct


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise InvalidConfig(f"jobs must be >= 1, got {jobs}")


def _map_tasks(fn, tasks: list, jobs: int) -> list:
    """fn over tasks in order: in `jobs` worker processes when jobs > 1, else here."""
    if jobs > 1 and tasks:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


# ---------------------------------------------------------------------------
# generate


def _scene_config(args) -> SceneConfig:
    return SceneConfig(
        ranges=TreeParamRanges(n_points=(args.points_per_tree, args.points_per_tree)),
        spec=GridSpec.centered(args.grid_size, args.pixel_size),
        sun=SunConfig(azimuth_deg=args.sun_az, elevation_deg=args.sun_el),
    )


def _generate_one(task):
    seed, out_dir, cfg = task
    scene = generate_scene(seed, cfg)
    save_scene(scene, out_dir)
    return seed, out_dir, len(scene.cloud)


def cmd_generate(args) -> int:
    if args.count < 0:
        raise InvalidConfig(f"count must be >= 0, got {args.count}")
    check_seed(args.seed)  # also at --count 0, which seeds nothing
    out = Path(args.out)
    cfg = _scene_config(args)
    _check_jobs(args.jobs)
    tasks = [
        (args.seed + i, str(out / f"scene_{i:05d}"), cfg) for i in range(args.count)
    ]
    results = _map_tasks(_generate_one, tasks, args.jobs)
    out.mkdir(parents=True, exist_ok=True)  # save_scene makes it too, except at --count 0
    for seed, out_dir, n in results:
        print(f"{out_dir}: seed={seed} points={n}")
    return 0


# ---------------------------------------------------------------------------
# reconstruct


def _load_inputs(args):
    """Resolve ortho/dsm/shadow/sun. Each file is its flag's, else the one the
    manifest names next to it, else absent; the flags' sun overrides the manifest's.
    A shadow with no sun is refused unless --lambda-shadow 0 turns its term off."""
    if (args.sun_az is None) != (args.sun_el is None):
        raise InvalidConfig("--sun-az and --sun-el must be given together")
    manifest = read_manifest(args.manifest) if args.manifest else None
    ortho_path, dsm_path, shadow_path = (
        getattr(args, role) or (Path(args.manifest).parent / getattr(manifest.files, role) if manifest else None)
        for role in ("ortho", "dsm", "shadow")
    )
    if ortho_path is None or dsm_path is None:
        raise MissingTarget("need --ortho and --dsm (or --manifest)")
    spec = manifest.grid if manifest else None
    ortho = read_ppm(ortho_path, spec)
    dsm = read_pfm(dsm_path, spec)
    shadow = None
    # a --shadow file must exist; the manifest's is optional, as real scenes may lack one
    if shadow_path is not None and (args.shadow or shadow_path.exists()):
        shadow = read_pfm(shadow_path, dsm.spec)
    sun = manifest.sun if manifest else None
    if args.sun_az is not None:
        sun = SunConfig(azimuth_deg=args.sun_az, elevation_deg=args.sun_el)
    if shadow is not None and sun is None and args.lambda_shadow != 0:
        raise MissingTarget("a shadow target needs a sun: give --sun-az and --sun-el, or a --manifest")
    return ortho, dsm, shadow, sun


def _write_history(path, history):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["iter", "total", *TERMS])
        for it, total, breakdown in history:
            w.writerow([it, repr(total)] + [repr(breakdown.get(k, 0.0)) for k in TERMS])


def cmd_reconstruct(args) -> int:
    out = Path(args.out)
    if not out.parent.is_dir():  # found before any input is read, not after the run
        raise FileNotFoundError(f"no such output directory: {out.parent}")
    ortho, dsm, shadow, sun = _load_inputs(args)
    gt = read_ply(args.gt) if args.gt else None
    weights = resolve_weights(gt, shadow, **{f"lambda_{t}": getattr(args, f"lambda_{t}") for t in TERMS})
    cfg = OptimConfig(
        n_points=args.points,
        iters=args.iters,
        lr=args.lr,
        weights=weights,
        seed=args.seed,
        h_min=args.h_min,
        log_every=args.log_every,
    )
    result = reconstruct(
        ortho, dsm, sun=sun, shadow_target=shadow, gt_cloud=gt, cfg=cfg
    )
    write_ply(result.cloud, out)
    _write_history(out.with_suffix(".history.csv"), result.loss_history)
    _, total0, _ = result.loss_history[0]
    it, total, breakdown = result.loss_history[-1]
    terms = " ".join(f"{k}={v:.6g}" for k, v in sorted(breakdown.items()))
    print(f"iter={it} total={total:.6g} initial={total0:.6g} stop={result.stop} {terms}")
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    check_tau(args.tau)  # before either cloud is read
    pred = read_ply(args.pred)
    gt = read_ply(args.gt)
    cd = eval_chamfer(pred, gt)
    p, r, f = fscore(pred, gt, args.tau)
    print(
        format_report(
            {"chamfer": cd, "precision": p, "recall": r, "fscore": f, "tau": args.tau}
        )
    )
    return 0


# ---------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck(args) -> int:
    scores = run_gradcheck(seed=args.seed, trials=args.trials, n_points=args.points)
    for name, score in scores.items():
        status = "ok" if score <= REL_TOL else "FAIL"
        print(f"{name}: max_rel_error={score:.3e} [{status}]")
    return 0 if all(s <= REL_TOL for s in scores.values()) else TreeReconError.exit_code


# ---------------------------------------------------------------------------
# bench


def _bench_one(task):
    scene_dir, cfg, tau, seed = task
    scene = load_scene(scene_dir)
    cfg = dataclasses.replace(cfg, seed=seed)
    recon = reconstruct(
        scene.ortho,
        scene.dsm,
        sun=scene.sun,
        shadow_target=scene.shadow,
        cfg=cfg,
    ).cloud
    base = baseline_extrude(scene.dsm, scene.silhouette, scene.ortho, cfg.n_points, Rng(seed))
    rows = []
    for method, cloud in (("reconstruct", recon), ("baseline", base)):
        cd = eval_chamfer(cloud, scene.cloud)
        p, r, f = fscore(cloud, scene.cloud, tau)
        rows.append([Path(scene_dir).name, method, cd, p, r, f])
    return rows


def cmd_bench(args) -> int:
    # the configuration is checked before any scene is read
    check_tau(args.tau)
    cfg = OptimConfig(n_points=args.points, iters=args.iters)  # weights None: resolved per scene
    _check_jobs(args.jobs)
    dataset = Path(args.dataset)
    scene_dirs = sorted(d for d in dataset.iterdir() if d.is_dir())
    if not scene_dirs:
        raise EmptyInput(f"no scene directories under {dataset}")
    tasks = []
    for d in scene_dirs:
        seed = read_manifest(d / "manifest.json").seed
        tasks.append((str(d), cfg, args.tau, seed))
    all_rows = _map_tasks(_bench_one, tasks, args.jobs)

    out = dataset / "bench.csv"
    with open(out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["scene", "method", "chamfer", "precision", "recall", "fscore"])
        for rows in all_rows:
            for row in rows:
                w.writerow(row[:2] + [repr(v) for v in row[2:]])

    flat = [row for rows in all_rows for row in rows]
    for method in ("reconstruct", "baseline"):
        sel = [r for r in flat if r[1] == method]
        means = np.mean([r[2:] for r in sel], axis=0)
        print(
            f"{method}: mean_chamfer={means[0]:.6g} mean_precision={means[1]:.6g} "
            f"mean_recall={means[2]:.6g} mean_fscore={means[3]:.6g}"
        )
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Every default is read from the config class the flag feeds."""
    scene, optim = SceneConfig(), OptimConfig()
    parser = argparse.ArgumentParser(
        prog="treerecon",
        description="Tree point-cloud reconstruction from orthophoto + DSM",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a dataset of scenes")
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--grid-size", type=int, default=scene.spec.width)
    g.add_argument("--pixel-size", type=float, default=scene.spec.pixel_size)
    g.add_argument("--sun-az", type=float, default=scene.sun.azimuth_deg)
    g.add_argument("--sun-el", type=float, default=scene.sun.elevation_deg)
    g.add_argument("--points-per-tree", type=int, default=scene.ranges.n_points[0])
    g.add_argument("--jobs", type=int, default=1)
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("reconstruct", help="optimize a cloud against one scene")
    r.add_argument("--ortho")
    r.add_argument("--dsm")
    r.add_argument("--manifest")
    r.add_argument("--shadow")
    r.add_argument("--gt")
    r.add_argument("--out", required=True)
    r.add_argument("--iters", type=int, default=optim.iters)
    r.add_argument("--points", type=int, default=optim.n_points)
    r.add_argument("--lr", type=float, default=optim.lr)
    for term in TERMS:
        r.add_argument(f"--lambda-{term}", type=float, default=None)
    r.add_argument("--sun-az", type=float, default=None)
    r.add_argument("--sun-el", type=float, default=None)
    r.add_argument("--h-min", type=float, default=optim.h_min)
    r.add_argument("--log-every", type=int, default=optim.log_every)
    r.add_argument("--seed", type=int, default=optim.seed)
    r.set_defaults(func=cmd_reconstruct)

    e = sub.add_parser("eval", help="score a prediction against ground truth")
    e.add_argument("--pred", required=True)
    e.add_argument("--gt", required=True)
    e.add_argument("--tau", type=float, default=DEFAULT_TAU)
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--points", type=int, default=None)
    c.add_argument("--trials", type=int, default=100)
    c.set_defaults(func=cmd_gradcheck)

    b = sub.add_parser("bench", help="reconstruct + baseline over a dataset")
    b.add_argument("--dataset", required=True)
    b.add_argument("--tau", type=float, default=DEFAULT_TAU)
    b.add_argument("--iters", type=int, default=optim.iters)
    b.add_argument("--points", type=int, default=optim.n_points)
    b.add_argument("--jobs", type=int, default=1)
    b.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TreeReconError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return getattr(e, "exit_code", MalformedFile.exit_code)  # a bare OSError is an I/O failure
    except MemoryError as e:  # a run too large for this machine, such as a huge --points
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return TreeReconError.exit_code


if __name__ == "__main__":
    sys.exit(main())
