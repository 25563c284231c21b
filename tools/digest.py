"""Print one SHA-256 per output artefact of a treerecon checkout.

Run from the root of a checkout (it imports `treerecon` from that checkout's
`src/`):

    python tools/digest.py > digests.txt

Each line is `<sha256>  <artefact>`. Two checkouts that produce the same
bytes print the same lines, so `diff` of their outputs shows every artefact
whose bytes changed. The artefacts:

- every file of `generate --count 3 --seed 0` at the default grid and at
  `--grid-size 32 --pixel-size 0.5`, and of `generate --count 1 --seed 0
  --pixel-size 0.3`, where the splat radius is 1.67 pixels, so the hard
  renders' window (`sensor._window`) is narrower than its old 5 centres
- `bench.csv` after `bench --iters 5 --points 200` on the small dataset
- the PLY and history of a default `reconstruct` of the first default-grid
  scene, and of two 20-iteration ones with the ground truth (`--gt`): at
  the default weights, and with the Chamfer term alone
- the stdout, PLY and history of `reconstruct --iters 20 --points 200` of
  the first small-grid scene through each way of naming its inputs:
  `--ortho --dsm`; `--ortho --dsm --shadow --sun-az --sun-el`; `--manifest`
  on a copy of the scene without `shadow.pfm`; `--manifest --sun-az 200
  --sun-el 40`; with the soft-DSM term on, `--manifest --lambda-dsm 1`
  with and without `--gt`; and the loop's edges, `--manifest --iters 0`
  (the later `--iters` wins) and `--manifest --log-every 7`
- the same three of `reconstruct --iters 20 --points 40 --gt` of a small-grid
  scene generated with `--points-per-tree 64`: 40 x 64 points is a size whose
  Chamfer reads the distance table (`losses._TABLE_MAX`), where every other
  `--gt` run here builds KD-trees
- the same three of a Chamfer-only `reconstruct --gt` of the first small-grid
  scene at the default `--iters` and `--points`, which must end by the
  stopping rule (`stop=loss`): every iteration of a whole run queries the one
  ground-truth KD-tree the run builds
- the `eval` report of the default reconstruction and of the ground truth against
  itself, at tau 1e-170, 0.1, 0.5 and 3, where Chamfer builds KD-trees and
  `fscore` reads the search `eval_chamfer` made; at the same taus that of the
  `--points 40` reconstruction against its 64-point ground truth, whose Chamfer
  reads the distance table and whose `fscore` makes the pair's one search;
  and at tau 0.5 that of the default reconstruction with its body's digits
  re-written as Arabic-Indic digits, which the C parse (`np.loadtxt`) refuses and Python's `float()` and `int()`
  read as the same numbers, so its line equals `eval/default/tau=0.5`'s only
  while the row pass keeps every byte
- `run_gradcheck(seed=s, trials=3)` scores for s = 0-5, and
  `run_gradcheck(seed=0, trials=1, n_points=200)`'s, whose N * M above
  `losses._TABLE_MAX` makes the analytic Chamfer query the cloud's KD-tree,
  not the distance table
- the `--help` text of the top-level parser and of each subcommand, at a
  fixed width of 80 columns, with its exit code
- the exit code and stderr of `bench` on a dataset with no scene directory,
  the temporary directory's path in the message replaced by `<tmp>`
- the float64 positions, loss history and stopping point of a Chamfer-only
  `reconstruct` (through the library) of the small-grid scene of seed 0 from
  its ground truth plus seeded N(0, 0.5) noise, the benchmark's `self_recon`
  set-up, where most points keep their last nearest ground-truth point
  without a search (`losses.GtSearch`)

It writes scratch files to a temporary directory, which it removes.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import treerecon as tr  # noqa: E402
from treerecon.cli import main  # noqa: E402
from treerecon.gradcheck import run_gradcheck  # noqa: E402

TAUS = ("1e-170", "0.1", "0.5", "3")
ARABIC_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
SMALL_GRID = ["--grid-size", "32", "--pixel-size", "0.5"]
COMMANDS = ("generate", "reconstruct", "eval", "gradcheck", "bench")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def capture(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one CLI call; argparse's own exit (--help) included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


def run(argv: list[str]) -> str:
    """stdout of one CLI call; a non-zero exit code stops the digest."""
    rc, out, err = capture(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}: {err}")
    return out


def reconstruct(tmp: Path, name: str, argv: list[str], expect: str = ""):
    """(artefact, sha256) of the stdout, PLY and history of `reconstruct --out <tmp>/<name>.ply`;
    a stdout without `expect` stops the digest."""
    pred = tmp / f"{name.replace('/', '_')}.ply"
    stdout = run(["reconstruct", "--out", str(pred)] + argv)
    if expect not in stdout:
        raise SystemExit(f"reconstruct {name}: {expect!r} not in its stdout {stdout!r}")
    yield f"reconstruct/{name}/stdout", sha(stdout.encode())
    yield f"reconstruct/{name}/pred.ply", sha(pred.read_bytes())
    yield f"reconstruct/{name}/pred.history.csv", sha(pred.with_suffix(".history.csv").read_bytes())


def generated(tmp: Path, name: str, flags: list[str]):
    """(artefact, sha256) of every file of `generate --seed 0 --out <tmp>/<name>` with flags."""
    run(["generate", "--seed", "0", "--out", str(tmp / name)] + flags)
    for path in sorted((tmp / name).rglob("*")):
        if path.is_file():
            yield f"generate/{name}/{path.relative_to(tmp / name)}", sha(path.read_bytes())


def digests(tmp: Path):
    """(artefact, sha256) pairs, in a fixed order."""
    sets = {"default": [], "small": SMALL_GRID}
    for name, flags in sets.items():
        yield from generated(tmp, name, ["--count", "3"] + flags)
    yield from generated(tmp, "pixel=0.3", ["--count", "1", "--pixel-size", "0.3"])

    run(["bench", "--dataset", str(tmp / "small"), "--iters", "5", "--points", "200"])
    yield "bench/small/bench.csv", sha((tmp / "small" / "bench.csv").read_bytes())

    scene = tmp / "default" / "scene_00000"
    gt = str(scene / "gt.ply")
    geo_only = ["--gt", gt, "--lambda-sil", "0", "--lambda-shadow", "0", "--iters", "20"]
    for name, flags in (("default", []), ("with_gt", ["--gt", gt, "--iters", "20"]), ("geo_only", geo_only)):
        yield from reconstruct(tmp, name, ["--manifest", str(scene / "manifest.json")] + flags)

    small = tmp / "small" / "scene_00000"
    no_shadow = tmp / "no_shadow"
    shutil.copytree(small, no_shadow)
    (no_shadow / "shadow.pfm").unlink()
    files = ["--ortho", str(small / "ortho.ppm"), "--dsm", str(small / "dsm.pfm")]
    inputs = {
        "ortho+dsm": files,
        "ortho+dsm+shadow+sun": files + ["--shadow", str(small / "shadow.pfm"),
                                         "--sun-az", "135", "--sun-el", "70"],
        "manifest_without_shadow": ["--manifest", str(no_shadow / "manifest.json")],
        "manifest+sun": ["--manifest", str(small / "manifest.json"), "--sun-az", "200", "--sun-el", "40"],
        "manifest+lambda_dsm": ["--manifest", str(small / "manifest.json"), "--lambda-dsm", "1"],
        "manifest+lambda_dsm+gt": ["--manifest", str(small / "manifest.json"), "--lambda-dsm", "1",
                                   "--gt", str(small / "gt.ply")],
        "manifest+iters=0": ["--manifest", str(small / "manifest.json"), "--iters", "0"],
        "manifest+log_every=7": ["--manifest", str(small / "manifest.json"), "--log-every", "7"],
    }
    for name, flags in inputs.items():
        yield from reconstruct(tmp, f"small/{name}", ["--iters", "20", "--points", "200"] + flags)
    yield from reconstruct(tmp, "small/geo_only_to_the_stop", ["--manifest", str(small / "manifest.json"), "--gt",
                                                               str(small / "gt.ply"), "--lambda-sil", "0",
                                                               "--lambda-shadow", "0"], expect=" stop=loss ")

    run(["generate", "--count", "1", "--seed", "0", "--points-per-tree", "64", "--out", str(tmp / "gt64")]
        + SMALL_GRID)
    gt64 = tmp / "gt64" / "scene_00000"
    yield from reconstruct(tmp, "small_gt64/points=40", ["--manifest", str(gt64 / "manifest.json"), "--gt",
                                                         str(gt64 / "gt.ply"), "--iters", "20", "--points", "40"])

    for name, pred, truth in (("default", str(tmp / "default.ply"), gt), ("gt", gt, gt),
                              ("small_gt64/points=40", str(tmp / "small_gt64_points=40.ply"), str(gt64 / "gt.ply"))):
        for tau in TAUS:
            yield f"eval/{name}/tau={tau}", sha(run(["eval", "--pred", pred, "--gt", truth, "--tau", tau]).encode())
    head, body = (tmp / "default.ply").read_text().split("end_header\n")
    refused = tmp / "default_arabic_digits.ply"
    refused.write_text(head + "end_header\n" + body.translate(ARABIC_DIGITS), encoding="utf-8")
    yield "eval/default_arabic_digits/tau=0.5", sha(run(["eval", "--pred", str(refused), "--gt", gt,
                                                         "--tau", "0.5"]).encode())

    for seed in range(6):
        scores = run_gradcheck(seed=seed, trials=3)
        yield f"gradcheck/seed={seed}", sha(repr(sorted(scores.items())).encode())
    scores = run_gradcheck(seed=0, trials=1, n_points=200)
    yield "gradcheck/seed=0,points=200", sha(repr(sorted(scores.items())).encode())

    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):  # argparse wraps help at COLUMNS
        for command in ("", *COMMANDS):
            rc, out, err = capture([command, "--help"] if command else ["--help"])
            yield f"help/{command or 'treerecon'}", sha(f"{rc}\n{out}{err}".encode())

    (tmp / "empty").mkdir()
    rc, out, err = capture(["bench", "--dataset", str(tmp / "empty")])
    yield "bench/empty/exit+stderr", sha(f"{rc}\n{out}{err}".replace(str(tmp), "<tmp>").encode())

    scene = tr.generate_scene(0, tr.SceneConfig(spec=tr.GridSpec.centered(32, 0.5)))
    gt = scene.cloud.positions
    start = gt + np.random.default_rng(0).normal(0.0, 0.5, gt.shape)
    res = tr.reconstruct(scene.ortho, scene.dsm, gt_cloud=scene.cloud, init_positions=start,
                         cfg=tr.OptimConfig(weights=tr.LossWeights(1.0, 0.0, 0.0, 0.0)))
    if res.stop != "loss":
        raise SystemExit(f"the noisy ground truth's run stopped by {res.stop}, not by the stopping rule")
    yield "reconstruct/small/geo_only_from_noisy_gt", sha(res.cloud.positions.tobytes()
                                                          + repr((res.loss_history, res.stop_iter)).encode())


def main_digest() -> int:
    with tempfile.TemporaryDirectory(prefix="treerecon-digest-") as tmp:
        for name, digest in digests(Path(tmp)):
            print(f"{digest}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
