"""Smoke test of the benchmark at tiny sizes (run.py --smoke).

Checks that every metric BENCHMARK.json declares is printed with its unit,
that self times are non-negative, that the computed counters repeat exactly
for one seed, and that the benchmark refuses to run without the program.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COMPUTED = ("slots", "slot_useful_ratio", "kdtree_builds", "fd_evals", "bytes_written",
            "bytes_read", "adam_steps")


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(res: dict, declared: list[dict]):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    res = result(bench(workload, 0))
    check_metrics(res, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_per_layer_metrics(workload):
    first = result(bench(workload, 1))
    check_metrics(first, SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in first["metrics"].items()}
    assert all(metrics[k] >= 0 for k in metrics if k.endswith("_ms")), metrics
    assert metrics["absent_wraps"] == 0 and metrics["counter_errors"] == 0
    again = {k: v["value"] for k, v in result(bench(workload, 1))["metrics"].items()}
    for name in COMPUTED:
        assert again[name] == metrics[name], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_names_and_changed_arguments_do_not_raise(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import tracing
    from treerecon import losses

    tracer = tracing.Tracer()
    tracer.wrap("treerecon.no_such_module", "f", "f")
    tracer.wrap("treerecon.losses", "no_such_function", "f")
    tracer.wrap("treerecon.losses", "raster_l2", "raster_l2", lambda tr, a, k, r: a[9])
    tracer.active = True
    try:
        grid = losses.Grid(losses.GridSpec(2, 2), [[1.0, 0.0], [0.0, 0.0]])
        value, _ = losses.raster_l2(grid, grid)
    finally:
        tracer.uninstall()
    assert value == 0.0
    assert tracer.absent == ["treerecon.no_such_module.f", "treerecon.losses.no_such_function"]
    metrics = tracing.layer_metrics(tracer)
    assert metrics["absent_wraps"] == 2 and metrics["counter_errors"] == 1
    assert metrics["spans"] == 1
