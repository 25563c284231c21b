import argparse
import contextlib
import csv
import filecmp
import importlib
import io
import itertools
import json
import shutil
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treerecon import cli, gradcheck
from treerecon.cli import main
from treerecon.core import Grid
from treerecon.io_formats import read_pfm, read_ply, write_pfm, write_ply
from treerecon.losses import TERMS, LossWeights
from treerecon.protree import generate_scene

GEN_SMALL = ["--grid-size", "48", "--pixel-size", "0.25", "--points-per-tree", "300"]


def gen(tmp_path, name, count, seed, jobs=1):
    out = tmp_path / name
    rc = main(
        ["generate", "--count", str(count), "--seed", str(seed), "--out", str(out),
         "--jobs", str(jobs)] + GEN_SMALL
    )
    assert rc == 0
    return out


def assert_trees_identical(a, b):
    names = sorted(x.name for x in a.iterdir())
    assert names == sorted(x.name for x in b.iterdir())
    for scene in names:
        files = sorted(x.name for x in (a / scene).iterdir())
        match, mismatch, errors = filecmp.cmpfiles(a / scene, b / scene, files, shallow=False)
        assert not mismatch and not errors


class TestGenerate:
    def test_run_twice_byte_identical(self, tmp_path):
        a = gen(tmp_path, "a", 1, 7)
        b = gen(tmp_path, "b", 1, 7)
        assert_trees_identical(a, b)

    def test_count_zero(self, tmp_path):
        out = gen(tmp_path, "empty", 0, 0)
        assert list(out.iterdir()) == []

    def test_seed_offset_rule(self, tmp_path):
        multi = gen(tmp_path, "multi", 3, 7)
        single = gen(tmp_path, "single", 1, 8)
        files = sorted(x.name for x in (multi / "scene_00001").iterdir())
        match, mismatch, errors = filecmp.cmpfiles(
            multi / "scene_00001", single / "scene_00000", files, shallow=False
        )
        assert not mismatch and not errors

    def test_jobs_do_not_change_output(self, tmp_path):
        serial = gen(tmp_path, "serial", 3, 42)
        parallel = gen(tmp_path, "parallel", 3, 42, jobs=3)
        assert_trees_identical(serial, parallel)


@settings(max_examples=5, derandomize=True, deadline=None)
@given(seed=st.integers(0, 10**6), count=st.integers(0, 3))
def test_jobs_do_not_change_generate_or_bench_bytes(tmp_path_factory, seed, count):
    """`generate` and `bench.csv` bytes do not depend on --jobs (each example starts a pool)."""
    tmp = tmp_path_factory.mktemp("jobs")
    for jobs in ("1", "2"):
        assert main(["generate", "--count", str(count), "--seed", str(seed), "--out", str(tmp / jobs),
                     "--jobs", jobs, "--grid-size", "16", "--pixel-size", "0.75",
                     "--points-per-tree", "300"]) == 0
    assert_trees_identical(tmp / "1", tmp / "2")
    codes = [main(["bench", "--dataset", str(tmp / jobs), "--iters", "3", "--points", "50",
                   "--jobs", jobs]) for jobs in ("1", "2")]
    assert codes == ([0, 0] if count else [3, 3])  # no scene to bench exits 3
    if count:
        assert (tmp / "1" / "bench.csv").read_bytes() == (tmp / "2" / "bench.csv").read_bytes()


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenes")
    out = root / "data"
    rc = main(["generate", "--count", "1", "--seed", "5", "--out", str(out)] + GEN_SMALL)
    assert rc == 0
    return out / "scene_00000"


def refuse_reconstruct(monkeypatch):
    """Make reaching `reconstruct` from the CLI fail the test."""
    def reached(*args, **kwargs):
        raise AssertionError("a rejected input reached reconstruct")

    monkeypatch.setattr(cli, "reconstruct", reached)


def negative_seed_manifest(scene_dir) -> bytes:
    """The scene's manifest with seed -1, naming its files by absolute path."""
    doc = json.loads((scene_dir / "manifest.json").read_text())
    doc["seed"] = -1
    doc["files"] = {role: str(scene_dir / name) for role, name in doc["files"].items()}
    return json.dumps(doc).encode()


class TestReconstruct:
    def test_iters_zero_is_the_initialization(self, scene_dir, tmp_path):
        outs = []
        for name in ("a.ply", "b.ply"):
            out = tmp_path / name
            rc = main(
                ["reconstruct", "--manifest", str(scene_dir / "manifest.json"),
                 "--out", str(out), "--iters", "0", "--points", "200", "--seed", "3"]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_default_flags_reduce_loss(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "r.ply"
        rc = main(
            ["reconstruct", "--manifest", str(scene_dir / "manifest.json"),
             "--out", str(out), "--iters", "40", "--points", "200"]
        )
        assert rc == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        kv = dict(p.split("=") for p in line.split())
        assert float(kv["total"]) < float(kv["initial"])
        assert out.exists() and out.with_suffix(".history.csv").exists()
        assert kv["stop"] in ("loss", "iters") and "dsm" not in kv
        last = out.with_suffix(".history.csv").read_text().strip().splitlines()[-1]
        assert last.split(",")[0] == kv["iter"]  # the history ends on the stop iteration

    def test_bench_and_reconstruct_share_the_default_weights(self, scene_dir, tmp_path, monkeypatch):
        """Input-only runs of both commands resolve the default objective: no geo, no DSM term. The
        helper process is kept off (no CPU for it), so this thread's one call scores every term."""
        seen = []

        def spy(cloud, targets, sun, spec, soft_cfg, weights, *buffers):
            seen.append(weights)
            return real(cloud, targets, sun, spec, soft_cfg, weights, *buffers)

        module = importlib.import_module("treerecon.reconstruct")
        real = module.combined_loss
        monkeypatch.setattr(module, "combined_loss", spy)
        monkeypatch.setattr(importlib.import_module("treerecon.core"), "other_cpus", set)
        data = tmp_path / "data"
        shutil.copytree(scene_dir, data / scene_dir.name)
        # --iters 0: one combined_loss call per reconstruction
        assert main(["reconstruct", "--manifest", str(data / scene_dir.name / "manifest.json"),
                     "--out", str(tmp_path / "r.ply"), "--iters", "0", "--points", "20"]) == 0
        assert main(["bench", "--dataset", str(data), "--iters", "0", "--points", "20"]) == 0
        assert seen == [LossWeights(0.0, 1.0, 0.5, 0.0)] * 2

    def test_one_lambda_flag_per_loss_term(self):
        """The --lambda-* flags are read from losses.TERMS, in its order, each unset by default."""
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = [(a.option_strings, a.type, a.default) for a in sub.choices["reconstruct"]._actions
                 if any(o.startswith("--lambda-") for o in a.option_strings)]
        assert flags == [([f"--lambda-{t}"], float, None) for t in TERMS]

    def test_missing_shadow_with_positive_lambda(self, scene_dir, tmp_path):
        rc = main(
            ["reconstruct", "--ortho", str(scene_dir / "ortho.ppm"),
             "--dsm", str(scene_dir / "dsm.pfm"), "--out", str(tmp_path / "r.ply"),
             "--iters", "1", "--points", "50", "--lambda-shadow", "0.5"]
        )
        assert rc == 4

    def test_divergence_exits_5_without_output(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "r.ply"
        # a step that leaves float32, and a gradient too large for Adam to square
        for flags, iteration in ((["--lr", "1e300"], 1), (["--lambda-dsm", "1e300"], 0)):
            rc = main(
                ["reconstruct", "--manifest", str(scene_dir / "manifest.json"), "--out", str(out),
                 "--iters", "5", "--points", "50"] + flags
            )
            err = capsys.readouterr().err
            assert rc == 5
            assert err.startswith(f"error: iteration {iteration}:") and "Traceback" not in err
            assert not out.exists() and not out.with_suffix(".history.csv").exists()

    def test_empty_gt_cloud_exits_3(self, scene_dir, tmp_path, capsys):
        from treerecon.core import PointCloud

        empty = tmp_path / "empty.ply"
        write_ply(PointCloud(positions=np.zeros((0, 3))), empty)
        rc = main(
            ["reconstruct", "--manifest", str(scene_dir / "manifest.json"),
             "--gt", str(empty), "--out", str(tmp_path / "r.ply"),
             "--iters", "1", "--points", "20"]
        )
        assert rc == 3
        assert capsys.readouterr().err == "error: chamfer requires two non-empty clouds\n"

    def test_missing_input_file(self, tmp_path):
        rc = main(
            ["reconstruct", "--ortho", str(tmp_path / "nope.ppm"),
             "--dsm", str(tmp_path / "nope.pfm"), "--out", str(tmp_path / "r.ply")]
        )
        assert rc == 2


class TestEval:
    def test_self_eval(self, scene_dir, tmp_path, capsys):
        gt = scene_dir / "gt.ply"
        rc = main(["eval", "--pred", str(gt), "--gt", str(gt)])
        assert rc == 0
        kv = dict(p.split("=") for p in capsys.readouterr().out.split())
        assert float(kv["chamfer"]) == 0.0
        assert float(kv["fscore"]) == 1.0

    def test_bad_tau_exits_5_before_reading_either_cloud(self, tmp_path, capsys):
        missing = str(tmp_path / "nonexistent.ply")
        rc = main(["eval", "--pred", missing, "--gt", missing, "--tau", "nan"])
        err = capsys.readouterr().err
        assert rc == 5
        assert err.count("error:") == 1 and err.startswith("error:") and "tau" in err

    def test_matches_metrics_module(self, scene_dir, tmp_path, capsys):
        from treerecon import metrics
        from treerecon.metrics import eval_chamfer, fscore

        pred_cloud = generate_scene(6).cloud
        pred = tmp_path / "pred.ply"
        write_ply(pred_cloud, pred)
        rc = main(["eval", "--pred", str(pred), "--gt", str(scene_dir / "gt.ply")])
        assert rc == 0
        kv = dict(p.split("=") for p in capsys.readouterr().out.split())
        a = read_ply(pred)
        b = read_ply(scene_dir / "gt.ply")
        metrics._last.record = None  # a search of its own, not the one the CLI kept
        assert abs(float(kv["chamfer"]) - eval_chamfer(a, b)) < 1e-4 * max(
            1.0, eval_chamfer(a, b)
        )
        _, _, f = fscore(a, b, 0.5)
        assert abs(float(kv["fscore"]) - f) < 1e-4

    def test_empty_pred(self, scene_dir, tmp_path):
        from treerecon.core import PointCloud

        empty = tmp_path / "empty.ply"
        write_ply(PointCloud(positions=np.zeros((0, 3))), empty)
        rc = main(["eval", "--pred", str(empty), "--gt", str(scene_dir / "gt.ply")])
        assert rc == 3

    def test_an_empty_pred_prints_only_its_error_line(self, scene_dir, tmp_path, capsys):
        """A 0-vertex body gives the PLY parse no data; that raises no warning, so stderr holds
        the one `error:` line."""
        empty = tmp_path / "empty.ply"
        empty.write_text("ply\nformat ascii 1.0\nelement vertex 0\nproperty float x\nproperty float y\n"
                         "property float z\nproperty uchar red\nproperty uchar green\nproperty uchar blue\n"
                         "end_header\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["eval", "--pred", str(empty), "--gt", str(scene_dir / "gt.ply")])
        assert rc == 3 and caught == []
        assert capsys.readouterr() == ("", "error: chamfer requires two non-empty clouds\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["reconstruct", "--points", "0"],
        ["reconstruct", "--points", str(2**63 - 1)],
        ["reconstruct", "--iters", "-1"],
        ["reconstruct", "--lr", "0"],
        ["reconstruct", "--log-every", "0"],
        ["reconstruct", "--lambda-geo", "0", "--lambda-sil", "0",
         "--lambda-shadow", "0", "--lambda-dsm", "0"],
        ["eval", "--tau", "0"],
        ["generate", "--grid-size", "0"],
        ["generate", "--pixel-size", "0"],
        ["generate", "--jobs", "0"],
        ["bench", "--jobs", "0"],
        ["reconstruct", "--lambda-sil", "nan"],
        ["reconstruct", "--lambda-dsm", "inf"],
        ["reconstruct", "--lr", "nan"],
        ["reconstruct", "--lr", "inf"],
        ["reconstruct", "--h-min", "-1"],
        ["reconstruct", "--h-min", "nan"],
        ["reconstruct", "--sun-az", "inf", "--sun-el", "70"],
        ["reconstruct", "--sun-az", "nan", "--sun-el", "70"],
        ["generate", "--sun-az", "inf"],
        ["generate", "--sun-az", "nan"],
        ["eval", "--tau", "nan"],
        ["reconstruct", "--sun-az", "nan"],
        ["reconstruct", "--sun-el", "45"],
        ["bench", "--tau", "nan"],
        ["bench", "--tau", "0"],
        ["generate", "--seed", "-1"],
        ["reconstruct", "--seed", "-4"],
        ["gradcheck", "--seed", "-1"],
        ["gradcheck", "--trials", "0"],
        ["gradcheck", "--trials", "-1"],
        ["gradcheck", "--points", "0"],
        ["gradcheck", "--points", "-3"],
        ["gradcheck", "--points", str(2**63)],
        ["generate", "--count", "-2"],
        ["generate", "--points-per-tree", str(2**63)],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_invalid_config_value_exits_5(argv, scene_dir, tmp_path, capsys, monkeypatch):
    refuse_reconstruct(monkeypatch)
    inputs = {
        "reconstruct": ["--manifest", str(scene_dir / "manifest.json"),
                        "--out", str(tmp_path / "r.ply")],
        "eval": ["--pred", str(scene_dir / "gt.ply"), "--gt", str(scene_dir / "gt.ply")],
        "generate": ["--count", "1", "--out", str(tmp_path / "g")],
        "bench": ["--dataset", str(scene_dir.parent)],
        "gradcheck": ["--trials", "1"],
    }
    rc = main(argv[:1] + inputs[argv[0]] + argv[1:])
    err = capsys.readouterr().err
    assert rc == 5
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "g").exists()  # generate writes nothing, not even its --out


PLY_HEADER = (
    "ply\nformat ascii 1.0\nelement vertex {n}\nproperty float x\nproperty float y\n"
    "property float z\nproperty uchar red\nproperty uchar green\nproperty uchar blue\n"
    "end_header\n"
)
MALFORMED = {
    "ply-negative-count": ("ply", PLY_HEADER.format(n=-1).encode()),
    "ply-bare-element": ("ply", b"ply\nformat ascii 1.0\nelement\nend_header\n"),
    "ply-nan": ("ply", (PLY_HEADER.format(n=1) + "nan 0 0 1 2 3\n").encode()),
    "ply-float32-overflow": ("ply", (PLY_HEADER.format(n=1) + "1e39 0 0 1 2 3\n").encode()),
    "ply-extra-row": ("ply", (PLY_HEADER.format(n=2) + "0 0 0 1 2 3\n" * 3).encode()),
    "ply-garbage-row": ("ply", (PLY_HEADER.format(n=2) + "0 0 0 1 2 3\n" * 2 + "garbage here\n").encode()),
    "ply-not-utf8": ("ply", b"ply\nformat ascii 1.0\n\xff\xfe\n"),
    "manifest-not-utf8": ("manifest", b'{"seed": \xff}'),
    "manifest-negative-seed": ("manifest", negative_seed_manifest),
    "pfm-negative-size": ("dsm", b"Pf\n-1 -1\n-1.0\n" + b"\0" * 4),
    "pfm-zero-size": ("dsm", b"Pf\n0 0\n-1.0\n"),
    "ppm-negative-size": ("ortho", b"P6\n-1 -1\n255\n" + b"\0" * 3),
    "ppm-zero-size": ("ortho", b"P6\n0 0\n255\n"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(case, scene_dir, tmp_path, capsys, monkeypatch):
    refuse_reconstruct(monkeypatch)
    role, data = MALFORMED[case]
    bad = tmp_path / f"bad.{role}"
    bad.write_bytes(data(scene_dir) if callable(data) else data)
    if role == "ply":
        argv = ["eval", "--pred", str(bad), "--gt", str(scene_dir / "gt.ply")]
    elif role == "manifest":
        argv = ["reconstruct", "--manifest", str(bad), "--out", str(tmp_path / "r.ply")]
    else:
        inputs = {"ortho": str(scene_dir / "ortho.ppm"), "dsm": str(scene_dir / "dsm.pfm")}
        inputs[role] = str(bad)
        argv = ["reconstruct", "--ortho", inputs["ortho"], "--dsm", inputs["dsm"],
                "--out", str(tmp_path / "r.ply")]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("field", ["pixel_size", "origin_x"])
def test_manifest_non_finite_grid_exits_2(field, scene_dir, tmp_path, capsys):
    scene = tmp_path / "scene"
    shutil.copytree(scene_dir, scene)
    doc = json.loads((scene / "manifest.json").read_text())
    doc["grid"][field] = float("nan")
    (scene / "manifest.json").write_text(json.dumps(doc))
    rc = main(["reconstruct", "--manifest", str(scene / "manifest.json"),
               "--out", str(tmp_path / "r.ply"), "--iters", "1", "--points", "20"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("parent", ["missing", "a file"])
def test_an_output_directory_that_is_not_there_exits_2_before_any_input_is_read(parent, scene_dir, tmp_path,
                                                                                 capsys, monkeypatch):
    calls = []  # every reader and the run itself, spied on
    for name in ("read_manifest", "read_ppm", "read_pfm", "read_ply", "reconstruct"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: calls.append(name))
    out_dir = tmp_path / "out"
    if parent == "a file":
        out_dir.write_bytes(b"")
    rc = main(["reconstruct", "--manifest", str(scene_dir / "manifest.json"), "--gt", str(scene_dir / "gt.ply"),
               "--out", str(out_dir / "p.ply")])
    assert rc == 2 and calls == []
    assert capsys.readouterr().err == f"error: no such output directory: {out_dir}\n"


def test_a_gt_reconstruct_an_eval_and_a_one_job_bench_start_no_thread(scene_dir, tmp_path, monkeypatch):
    """Each command runs every KD-tree search on the calling thread: `threading.Thread.start` is
    never called, with 200 points against the ground truth (the Chamfer term on in `reconstruct`)."""
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
    pred, data = tmp_path / "r.ply", tmp_path / "data"
    shutil.copytree(scene_dir, data / scene_dir.name)  # bench writes its bench.csv beside the scenes
    runs = {
        "reconstruct": ["reconstruct", "--manifest", str(scene_dir / "manifest.json"), "--gt",
                        str(scene_dir / "gt.ply"), "--out", str(pred), "--iters", "3", "--points", "200"],
        "eval": ["eval", "--pred", str(pred), "--gt", str(scene_dir / "gt.ply")],
        "bench": ["bench", "--dataset", str(data), "--iters", "3", "--points", "200", "--jobs", "1"],
    }
    for name, argv in runs.items():
        assert main(argv) == 0, name
        assert started == [], name
    assert 200 * len(read_ply(scene_dir / "gt.ply")) > 64**2


@pytest.mark.parametrize("message", ["", "Unable to allocate 745. GiB for an array with shape (100000000000, 1)"])
def test_running_out_of_memory_exits_5_with_one_error_line(message, scene_dir, tmp_path, capsys, monkeypatch):
    def reconstruct(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "reconstruct", reconstruct)
    out = tmp_path / "r.ply"
    rc = main(["reconstruct", "--manifest", str(scene_dir / "manifest.json"), "--out", str(out)])
    assert rc == 5
    assert capsys.readouterr().err == "error: out of memory" + (f": {message}" if message else "") + "\n"
    assert not out.exists() and not out.with_suffix(".history.csv").exists()


class TestGradcheck:
    def test_small_run_passes(self, capsys):
        assert main(["gradcheck", "--trials", "3", "--seed", "1"]) == 0

    def test_single_point_degenerate(self, capsys):
        assert main(["gradcheck", "--trials", "2", "--points", "1"]) == 0

    def test_corrupted_gradient_fails(self, capsys, monkeypatch):
        real = gradcheck.soft_dsm_backward
        monkeypatch.setattr(gradcheck, "soft_dsm_backward", lambda *args: real(*args) + 1e-2)
        assert main(["gradcheck", "--trials", "2"]) == 5


class TestBench:
    def run_bench(self, tmp_path, name, seed=11):
        out = tmp_path / name
        rc = main(
            ["generate", "--count", "3", "--seed", str(seed), "--out", str(out)]
            + GEN_SMALL
        )
        assert rc == 0
        rc = main(
            ["bench", "--dataset", str(out), "--iters", "10", "--points", "150"]
        )
        assert rc == 0
        return (out / "bench.csv").read_text()

    def test_row_count_and_rerun_identical(self, tmp_path, capsys):
        first = self.run_bench(tmp_path, "d1")
        lines = first.strip().splitlines()
        assert len(lines) == 1 + 6  # header + 2 methods x 3 scenes
        assert lines[0] == "scene,method,chamfer,precision,recall,fscore"
        second = self.run_bench(tmp_path, "d2")
        assert first == second

    def test_empty_dataset(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["bench", "--dataset", str(empty)]) == 3
        assert capsys.readouterr().err == f"error: no scene directories under {empty}\n"

    def test_negative_manifest_seed_exits_2_before_any_scene(self, scene_dir, tmp_path, capsys,
                                                            monkeypatch):
        refuse_reconstruct(monkeypatch)
        data = tmp_path / "data"
        for name in ("scene_00000", "scene_00001"):  # a good scene, then the bad one
            shutil.copytree(scene_dir, data / name)
        (data / "scene_00001" / "manifest.json").write_bytes(negative_seed_manifest(scene_dir))
        rc = main(["bench", "--dataset", str(data)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("flag", [["--iters", "-1"], ["--points", "0"]])
    def test_bad_optimiser_config_exits_5_before_any_scene(self, tmp_path, capsys, monkeypatch,
                                                           flag, jobs):
        def reached(*args, **kwargs):
            raise AssertionError("bench read a scene or started workers before checking its config")

        for name in ("load_scene", "read_manifest", "_map_tasks"):
            monkeypatch.setattr(cli, name, reached)
        (tmp_path / "data" / "scene_00000").mkdir(parents=True)
        rc = main(["bench", "--dataset", str(tmp_path / "data"), "--jobs", jobs] + flag)
        assert rc == 5
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("dataset", ["scene without manifest", "empty"])
    def test_bad_jobs_exits_5_before_the_dataset(self, tmp_path, capsys, dataset):
        data = tmp_path / "data"
        data.mkdir()
        if dataset == "scene without manifest":
            (data / "scene_00000").mkdir()
        rc = main(["bench", "--dataset", str(data), "--jobs", "0"])
        assert rc == 5
        assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# flag fuzzing: any float value of a numeric flag ends in a contract exit code


@pytest.fixture(scope="module")
def small_scene(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "data"
    rc = main(["generate", "--count", "1", "--seed", "3", "--out", str(out), "--grid-size", "32",
               "--pixel-size", "0.5", "--points-per-tree", "300"])
    assert rc == 0
    return out / "scene_00000"


def run_cli(argv) -> tuple[int, str, list]:
    """(exit code, stderr, Python warnings) of one in-process run; an escaping
    exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except SystemExit as e:  # argparse rejects the command line
            rc = e.code
    return rc, err.getvalue(), [str(w.message) for w in caught]


def assert_contract_exit(rc, err, caught):
    """A contract exit code, no warning, and stderr empty or one `error:` line."""
    assert rc in (0, 2, 3, 4, 5)
    assert caught == []
    assert err == "" or (err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n"))


# plausible values, boundary values, and any float at all
ANY_FLOAT = st.one_of(
    st.floats(0.01, 100.0),
    st.sampled_from([0.0, -1.0, 1e300, -1e300, 1e-310, 5e-324, float("nan"), float("inf")]),
    st.floats(),
)
RECON_FLAGS = ("lr", "lambda-geo", "lambda-sil", "lambda-shadow", "lambda-dsm", "h-min")


@settings(max_examples=80, derandomize=True, deadline=None)
@example(values={}, sun=(135.0, 1e-300), tau=0.5, iters=1, points=50)  # shadows beyond float range
@example(values={"lambda-dsm": 1e300}, sun=None, tau=0.5, iters=1, points=50)  # too large for Adam
@example(values={"lr": 354.0}, sun=None, tau=0.5, iters=1, points=1)  # too high for exp(beta z)
@given(
    values=st.dictionaries(st.sampled_from(RECON_FLAGS), ANY_FLOAT, max_size=2),
    sun=st.none() | st.tuples(ANY_FLOAT, ANY_FLOAT),
    tau=ANY_FLOAT,
    iters=st.integers(0, 3),
    points=st.integers(1, 50),
)
def test_fuzzed_flags_exit_with_a_contract_code(small_scene, tmp_path_factory, values, sun, tau,
                                                iters, points):
    out = tmp_path_factory.getbasetemp() / "fuzz_pred.ply"
    argv = ["reconstruct", "--manifest", str(small_scene / "manifest.json"), "--out", str(out),
            "--iters", str(iters), "--points", str(points)]
    argv += [f"--{flag}={value!r}" for flag, value in values.items()]
    if sun is not None:
        argv += [f"--sun-az={sun[0]!r}", f"--sun-el={sun[1]!r}"]
    rc, err, caught = run_cli(argv)
    assert_contract_exit(rc, err, caught)
    pred = out if rc == 0 else small_scene / "gt.ply"
    assert_contract_exit(*run_cli(["eval", "--pred", str(pred), "--gt",
                                   str(small_scene / "gt.ply"), f"--tau={tau!r}"]))


# flag -> the largest value drawn; every integer flag also draws down to -3.
# The caps keep each run tiny: no worker pool, at most 5 gradcheck points.
INT_FLAGS = {
    "reconstruct": {"seed": 5, "iters": 3, "points": 50, "log-every": 3},
    "gradcheck": {"seed": 5, "trials": 2, "points": 5},
    "generate": {"count": 2, "seed": 5, "grid-size": 8, "points-per-tree": 50},
}
LOWEST = {"seed": 0, "iters": 0, "count": 0}  # the least valid value; 1 for the other flags
INT_ARGS = st.sampled_from(sorted(INT_FLAGS)).flatmap(lambda command: st.tuples(
    st.just(command),
    st.fixed_dictionaries({}, optional={flag: st.integers(-3, hi)
                                        for flag, hi in INT_FLAGS[command].items()}),
))


@settings(max_examples=100, derandomize=True, deadline=None)
@example(args=("generate", {"seed": -1}))  # each of these ended in a traceback or exited 0
@example(args=("reconstruct", {"seed": -4}))
@example(args=("gradcheck", {"seed": -1}))
@example(args=("gradcheck", {"trials": 0}))
@example(args=("gradcheck", {"points": 0}))
@example(args=("gradcheck", {"points": -3}))
@example(args=("generate", {"count": -2}))
@example(args=("generate", {"grid-size": 2147483648}))  # numpy refused the array size: a traceback
@example(args=("generate", {"grid-size": 10000000000}))
@example(args=("reconstruct", {"points": 2**63 - 1}))  # numpy refused the (n, 3) array: a traceback
@example(args=("reconstruct", {"points": 2**63}))
@example(args=("reconstruct", {"points": 10**20}))  # too large for a C long
@example(args=("gradcheck", {"points": 2**63}))
@example(args=("generate", {"points-per-tree": 2**63}))  # past rng.integers' int64 bounds
@given(args=INT_ARGS)
def test_fuzzed_integer_flags_exit_with_a_contract_code(small_scene, tmp_path_factory, args):
    command, values = args
    base = tmp_path_factory.getbasetemp()
    small = {
        "reconstruct": ["--manifest", str(small_scene / "manifest.json"),
                        "--out", str(base / "fuzz_int.ply"), "--iters", "1", "--points", "20"],
        "gradcheck": ["--trials", "1", "--points", "5"],
        "generate": ["--count", "1", "--out", str(base / "fuzz_gen"), "--grid-size", "8",
                     "--points-per-tree", "20"],
    }
    argv = [command] + small[command] + [f"--{flag}={value}" for flag, value in values.items()]
    rc, err, caught = run_cli(argv)
    assert_contract_exit(rc, err, caught)
    if any(value < LOWEST.get(flag, 1) for flag, value in values.items()):
        assert rc == 5


# ---------------------------------------------------------------------------
# reconstruct's input rule: each of --ortho, --dsm and --shadow is its flag's file,
# else the one the manifest names next to it, else absent


INPUT_FILES = {"--ortho": "ortho.ppm", "--dsm": "dsm.pfm", "--shadow": "shadow.pfm"}


def reconstruct_bytes(tmp_path, argv) -> tuple[bytes, bytes]:
    """PLY and history bytes of a short reconstruct; a non-zero exit fails the test."""
    out = tmp_path / "r.ply"
    assert main(["reconstruct", "--out", str(out), "--iters", "2", "--points", "20"] + argv) == 0
    return out.read_bytes(), out.with_suffix(".history.csv").read_bytes()


@pytest.mark.parametrize("flags", [flags for k in range(4) for flags in itertools.combinations(INPUT_FILES, k)],
                         ids=lambda flags: " ".join(flags) or "manifest alone")
def test_flags_naming_the_manifests_own_files_change_no_byte(flags, small_scene, tmp_path):
    manifest = ["--manifest", str(small_scene / "manifest.json")]
    named = [arg for flag in flags for arg in (flag, str(small_scene / INPUT_FILES[flag]))]
    assert reconstruct_bytes(tmp_path, manifest + named) == reconstruct_bytes(tmp_path, manifest)


def test_sun_flags_stand_in_for_the_manifests_sun(small_scene, tmp_path):
    manifest = ["--manifest", str(small_scene / "manifest.json")]
    flagged = reconstruct_bytes(tmp_path, manifest + ["--sun-az", "200", "--sun-el", "40"])
    assert flagged != reconstruct_bytes(tmp_path, manifest)
    scene = tmp_path / "scene"
    shutil.copytree(small_scene, scene)
    doc = json.loads((scene / "manifest.json").read_text())
    doc["sun"] = {"azimuth_deg": 200.0, "elevation_deg": 40.0}
    (scene / "manifest.json").write_text(json.dumps(doc))
    assert flagged == reconstruct_bytes(tmp_path, ["--manifest", str(scene / "manifest.json")])


def test_a_scene_without_its_shadow_runs_without_the_shadow_term(small_scene, tmp_path):
    scene = tmp_path / "scene"
    shutil.copytree(small_scene, scene)
    (scene / "shadow.pfm").unlink()
    _, history = reconstruct_bytes(tmp_path, ["--manifest", str(scene / "manifest.json")])
    rows = list(csv.DictReader(io.StringIO(history.decode())))
    assert rows and all(row["shadow"] == "0.0" for row in rows)


@settings(max_examples=20, derandomize=True, deadline=None)
@example(nodata={0: np.nan}, outside={})  # one NaN pixel once ended the run with exit 5
@given(nodata=st.dictionaries(st.integers(0, 32 * 32 - 1), st.sampled_from([np.nan, np.inf, -np.inf]),
                              min_size=1, max_size=40),
       outside=st.dictionaries(st.integers(0, 32 * 32 - 1), st.floats(-50.0, -1e-3) | st.floats(1.001, 50.0),
                               max_size=40))
def test_nodata_shadow_pixels_read_as_unshadowed(small_scene, tmp_path_factory, nodata, outside):
    """A run on a shadow holding NaN, infinities and finite values outside [0, 1] exits 0
    and writes the bytes of a run on that raster with its non-finite pixels set to 0."""
    tmp = tmp_path_factory.getbasetemp()
    shadow = read_pfm(small_scene / "shadow.pfm")
    values = shadow.values.reshape(-1).copy()
    for pixels in (outside, nodata):
        values[list(pixels)] = list(pixels.values())
    runs = []
    for name, raster in (("drawn", values), ("zeroed", np.where(np.isfinite(values), values, 0.0))):
        path = tmp / f"shadow_{name}.pfm"
        write_pfm(Grid(shadow.spec, raster.reshape(shadow.values.shape)), path)
        runs.append(reconstruct_bytes(tmp, ["--manifest", str(small_scene / "manifest.json"), "--shadow", str(path)]))
    assert runs[0] == runs[1]


def test_a_shadow_without_a_sun_runs_when_its_term_is_off(small_scene, tmp_path):
    """--lambda-shadow 0 needs no sun: the shadow file then changes no byte."""
    files = [arg for flag, name in INPUT_FILES.items() for arg in (flag, str(small_scene / name))]
    off = ["--lambda-shadow", "0"]
    assert reconstruct_bytes(tmp_path, files + off) == reconstruct_bytes(tmp_path, files[:4] + off)


@pytest.mark.parametrize("case", ["missing --shadow file", "empty --ortho without a manifest",
                                  "--shadow without a sun"])
def test_an_input_the_rule_cannot_resolve_exits_with_its_code(case, small_scene, tmp_path, capsys,
                                                              monkeypatch):
    refuse_reconstruct(monkeypatch)
    missing = tmp_path / "nope.pfm"
    argv, code, err = {
        "missing --shadow file": (["--manifest", str(small_scene / "manifest.json"), "--shadow", str(missing)],
                                  2, f"error: cannot read {missing}: "),
        "empty --ortho without a manifest": (["--ortho", "", "--dsm", str(small_scene / "dsm.pfm")],
                                             4, "error: need --ortho and --dsm (or --manifest)\n"),
        "--shadow without a sun": ([arg for flag, name in INPUT_FILES.items() for arg in (flag, str(small_scene / name))],
                                   4, "error: a shadow target needs a sun: give --sun-az and --sun-el"),
    }[case]
    assert main(["reconstruct", "--out", str(tmp_path / "r.ply")] + argv) == code
    stderr = capsys.readouterr().err
    assert stderr.startswith(err) and stderr.count("\n") == 1


def test_reconstruct_runs_on_an_odd_grid(tmp_path):
    """An odd grid pools with a partial last block on each axis."""
    out = tmp_path / "data"
    assert main(["generate", "--count", "1", "--seed", "3", "--out", str(out), "--grid-size", "33",
                 "--pixel-size", "0.5", "--points-per-tree", "200"]) == 0
    pred = tmp_path / "pred.ply"
    assert main(["reconstruct", "--manifest", str(out / "scene_00000" / "manifest.json"), "--out", str(pred),
                 "--iters", "3", "--points", "100"]) == 0
    positions = read_ply(pred).positions
    assert positions.shape == (100, 3) and np.all(np.isfinite(positions))
