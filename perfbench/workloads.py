"""The four benchmark workloads: inputs from a seed, a timed operation, a check.

Each workload reaches the program only through its public entry points
(``treerecon.cli.main``, ``generate_scene``, ``reconstruct``, ``load_scene``,
``baseline_extrude``, ``eval_chamfer``, ``fscore``) and the public types
they take. Entry points are looked up on their module at call time, so the
traced run sees every call.

A run does a fixed number of operations, so every commit measured with one
seed does the same work on the same inputs and its recall is comparable.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TAU = 0.5  # recall radius in meters, the CLI's and the paper's default


class CheckFailed(Exception):
    """An operation's output is wrong; counted as a failed operation."""


def require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the smoke test shrinks them, the benchmark does not."""

    grid_size: int = 128
    pixel_size: float = 0.25
    points_per_tree: int = 2000
    recon_points: int = 2000
    recon_iters: int = 50
    self_iters: int = 500
    gradcheck_points: int | None = None  # None: 20..50, the CLI's own range


FULL = Sizes()
SMOKE = Sizes(grid_size=32, pixel_size=0.5, points_per_tree=300, recon_points=200,
              recon_iters=3, self_iters=300, gradcheck_points=4)


def _tr():
    return importlib.import_module("treerecon")


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = importlib.import_module("treerecon.cli").main(argv)
    return code, out.getvalue()


def _generate_flags(sizes: Sizes) -> list[str]:
    return ["--grid-size", str(sizes.grid_size), "--pixel-size", str(sizes.pixel_size),
            "--points-per-tree", str(sizes.points_per_tree)]


def _report_value(text: str, key: str) -> float:
    match = re.search(rf"\b{key}=(\S+)", text)
    require(match is not None, f"no {key}= in output")
    return float(match.group(1))


def _read_ply_positions(path: Path) -> tuple[int, np.ndarray]:
    """Declared vertex count and x y z rows of an ASCII PLY, read independently."""
    text = path.read_text()
    header, _, body = text.partition("end_header\n")
    declared = int(re.search(r"element vertex (\d+)", header).group(1))
    rows = np.loadtxt(io.StringIO(body), ndmin=2) if body.strip() else np.zeros((0, 6))
    return declared, rows[:, :3]


class Workload:
    """Base: subclasses set name and op_s, and define setup, op and check."""

    name = ""
    # seconds one operation and its check took at the seed commit on a
    # 2-core x86 machine; fixes how many operations a run of --seconds does,
    # identically on every commit measured with this benchmark
    op_s = 1.0
    iters_per_op = 0  # Adam iterations in one operation

    def __init__(self, seed: int, seconds: int, sizes: Sizes, workdir: Path):
        self.sizes = sizes
        self.workdir = workdir
        self.n_ops = max(1, round(seconds / self.op_s))
        self.seeds = [1000 * seed + i for i in range(self.n_ops)]
        self.chamfers: list[float] = []

    def setup(self):
        """Make this run's inputs from the seed. May be called repeatedly."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> float:
        """Raise CheckFailed on a wrong output; return the op's recall."""
        raise NotImplementedError


class ReconInputs(Workload):
    """The user path: reconstruct from a scene's inputs, then eval vs gt.ply."""

    name = "recon_inputs"
    op_s = 3.3

    def __init__(self, *args):
        super().__init__(*args)
        self.iters_per_op = self.sizes.recon_iters

    def setup(self):
        shutil.rmtree(self.workdir / "scenes", ignore_errors=True)
        code, _ = _cli(["generate", "--count", str(self.n_ops), "--seed", str(self.seeds[0]),
                        "--out", str(self.workdir / "scenes")] + _generate_flags(self.sizes))
        require(code == 0, f"generate exited {code}")

    def op(self, i):
        scene = self.workdir / "scenes" / f"scene_{i:05d}"
        pred = self.workdir / f"pred_{i}.ply"
        rc_recon, _ = _cli(["reconstruct", "--manifest", str(scene / "manifest.json"),
                            "--out", str(pred), "--iters", str(self.sizes.recon_iters),
                            "--points", str(self.sizes.recon_points)])
        rc_eval, report = _cli(["eval", "--pred", str(pred), "--gt", str(scene / "gt.ply"),
                                "--tau", str(TAU)])
        return rc_recon, rc_eval, report, pred

    def check(self, i, out):
        rc_recon, rc_eval, report, pred = out
        require(rc_recon == 0, f"reconstruct exited {rc_recon}")
        require(rc_eval == 0, f"eval exited {rc_eval}")
        declared, xyz = _read_ply_positions(pred)
        require(declared == self.sizes.recon_points == len(xyz), "wrong point count")
        require(bool(np.all(np.isfinite(xyz))), "non-finite positions")
        require(bool(np.all(xyz[:, 2] >= 0.0)), "points below the ground")
        require(pred.with_suffix(".history.csv").is_file(), "no history CSV")
        self.chamfers.append(_report_value(report, "chamfer"))
        return _report_value(report, "recall")


class SelfRecon(Workload):
    """Criterion 3: geo-only Adam from noisy ground truth, Chamfer/KD-tree bound."""

    name = "self_recon"
    op_s = 2.5

    def __init__(self, *args):
        super().__init__(*args)
        self.iters_per_op = self.sizes.self_iters

    def setup(self):
        tr = _tr()
        cfg = _scene_config(self.sizes)
        self.scenes = [tr.generate_scene(s, cfg) for s in self.seeds]
        self.starts = [
            scene.cloud.positions + np.random.default_rng(s).normal(0.0, 0.5, scene.cloud.positions.shape)
            for s, scene in zip(self.seeds, self.scenes)
        ]

    def op(self, i):
        tr = _tr()
        scene = self.scenes[i]
        cfg = tr.OptimConfig(iters=self.sizes.self_iters, weights=tr.LossWeights(1.0, 0.0, 0.0, 0.0),
                             log_every=self.sizes.self_iters)
        return tr.reconstruct(scene.ortho, scene.dsm, gt_cloud=scene.cloud, cfg=cfg,
                              init_positions=self.starts[i])

    def check(self, i, out):
        tr = _tr()
        gt = self.scenes[i].cloud
        start = tr.eval_chamfer(tr.PointCloud(positions=self.starts[i]), gt)
        end = tr.eval_chamfer(out.cloud, gt)
        require(end <= start / 5.0, f"Chamfer fell only {start:.4g} -> {end:.4g}")
        self.chamfers.append(end)
        return tr.fscore(out.cloud, gt, TAU)[1]


class SceneIO(Workload):
    """Dataset path: generate + write a scene, read it back, score the baseline."""

    name = "scene_io"
    op_s = 0.2

    def op(self, i):
        tr = _tr()
        out_dir = self.workdir / f"io_{i}"
        code, _ = _cli(["generate", "--count", "1", "--seed", str(self.seeds[i]),
                        "--out", str(out_dir)] + _generate_flags(self.sizes))
        scene = importlib.import_module("treerecon.io_formats").load_scene(out_dir / "scene_00000")
        base = tr.baseline_extrude(scene.dsm, scene.silhouette, scene.ortho,
                                   self.sizes.points_per_tree, tr.Rng(self.seeds[i]))
        chamfer = tr.eval_chamfer(base, scene.cloud)
        _, recall, _ = tr.fscore(base, scene.cloud, TAU)
        return code, scene, chamfer, recall

    def check(self, i, out):
        code, scene, chamfer, recall = out
        shutil.rmtree(self.workdir / f"io_{i}", ignore_errors=True)
        require(code == 0, f"generate exited {code}")
        ref = _tr().generate_scene(self.seeds[i], _scene_config(self.sizes))
        require(scene.manifest.seed == ref.seed and scene.manifest.grid == ref.spec,
                "manifest differs")
        f32 = np.float32
        for name in ("dsm", "silhouette", "shadow"):
            require(np.array_equal(getattr(scene, name).values,
                                   getattr(ref, name).values.astype(f32)), f"{name} differs")
        half_step = 0.5 / 255 + 1e-9  # 8-bit color quantization
        require(np.abs(scene.ortho.values - ref.ortho.values).max() <= half_step, "ortho differs")
        require(np.array_equal(scene.cloud.positions, ref.cloud.positions.astype(f32)),
                "cloud positions differ")
        require(np.abs(scene.cloud.colors - ref.cloud.colors).max() <= half_step, "colors differ")
        require(np.array_equal(scene.cloud.classes, ref.cloud.classes), "classes differ")
        self.chamfers.append(chamfer)
        return recall


class Gradcheck(Workload):
    """Renderers at N = 20-50 on a 20x20 grid: fixed cost per call, not throughput."""

    name = "gradcheck"
    op_s = 0.5

    def __init__(self, *args):
        super().__init__(*args)
        # N spread evenly over the CLI's own range 20..50 in a seeded order,
        # rather than drawn per trial: a random draw of N moves the tail
        # percentile from run to run more than the code's speed does
        lo, hi = (20, 50) if self.sizes.gradcheck_points is None else (self.sizes.gradcheck_points,) * 2
        points = np.rint(np.linspace(lo, hi, self.n_ops)).astype(int)
        self.points = np.random.default_rng(self.seeds[0]).permutation(points)

    def op(self, i):
        return _cli(["gradcheck", "--trials", "1", "--seed", str(self.seeds[i]),
                     "--points", str(self.points[i])])

    def check(self, i, out):
        code, report = out
        require(code == 0, f"gradcheck exited {code}")
        paths = re.findall(r"^(\w+): max_rel_error=\S+ \[(\w+)\]$", report, re.M)
        require(len(paths) > 0, "no gradient paths reported")
        # share of gradient paths matching their finite-difference reference
        return sum(status == "ok" for _, status in paths) / len(paths)


def _scene_config(sizes: Sizes):
    tr = _tr()
    return tr.SceneConfig(
        ranges=tr.TreeParamRanges(n_points=(sizes.points_per_tree, sizes.points_per_tree)),
        spec=tr.GridSpec.centered(sizes.grid_size, sizes.pixel_size),
    )


WORKLOADS = {w.name: w for w in (ReconInputs, SelfRecon, SceneIO, Gradcheck)}
