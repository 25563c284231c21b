"""Run alternating parent/change pairs of one benchmark workload, of one default
`treerecon reconstruct` or `treerecon gradcheck`, or of the criterion-4 dataset
run, and compare them.

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seed S [--out BENCH_n.json]
    python tools/bench_pairs.py PARENT CHANGE --reconstruct MANIFEST [--gt PLY] --pairs N [--out BENCH_n.json]
    python tools/bench_pairs.py PARENT CHANGE --criterion4 [--dataset-seed S] --pairs N [--out BENCH_n.json]
    python tools/bench_pairs.py PARENT CHANGE --gradcheck --pairs N [--out BENCH_n.json]

PARENT and CHANGE are two source checkouts. Pair i runs each checkout once
in a fresh process, the parent first when i is even and the change first
when i is odd.

With `--workload`, a run is the checkout's own `perfbench/run.py --workload W
--seed S+i --seconds T`; T is the `run_seconds` of CHANGE's BENCHMARK.json
(25). Each run prints one JSON line, with the run's CPU seconds (user + sys
of the child process) as `cpu_s` and its minor page faults as `minflt`.
Then, for each of that file's end-to-end metrics, one line gives both
medians, the parent's interquartile distance and the number of pairs the
change won (ties count for neither), and a last line gives each side's
median CPU seconds and minor page faults.

With `--reconstruct`, a run is `python -m treerecon.cli reconstruct
--manifest MANIFEST` at its defaults, on the checkout's `src/`, and with
`--gt PLY` also `--gt PLY` (which turns the Chamfer term on). With
`--criterion4`, a run is the acceptance suite's criterion-4 workload in
fresh processes, `generate --count 20 --seed S` (`--dataset-seed`, 42 by
default, the acceptance suite's scenes) into a new directory and then
`bench` of that directory, at their defaults. With `--gradcheck`, a run is
`python -m treerecon.cli gradcheck` at its defaults (100 trials), which must
print `[ok]` on each of its five paths, or the script stops. Each records
each run's wall, user and sys seconds, its minor page faults and the SHA-256
of what it wrote (the PLY, `bench.csv`, or gradcheck's report, which the run
also keeps as `report`); the summary compares wall, user, sys and CPU
(user + sys) seconds and the minor page faults as above and says whether
every run wrote the same bytes, and whether every run of each side did.
Minor page faults (first touches of fresh memory) are `ru_minflt` of the
finished child processes. A criterion-4 run also records the mean
Chamfer, recall and F-score of each method in its `bench.csv` (`quality`),
and the summary gives each side's median of them next to the timings.

`--out` writes the same summary into a JSON file under `workloads.W` (or
`reconstruct`, `reconstruct_gt` with `--gt`, `criterion4` or `gradcheck_cli`), keeping
what the file already holds for the others.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
CLI_TIMES = ("wall_s", "user_s", "sys_s", "cpu_s")
CHILD_COUNTS = ("cpu_s", "minflt")  # per workload run, from the children's rusage
METHODS = ("reconstruct", "baseline")  # the methods of a bench.csv
QUALITY = ("chamfer", "recall", "fscore")  # the bench.csv columns a criterion-4 run averages
GRADCHECK_PATHS = 5  # the paths a gradcheck report prints, one line each


def child_usage(before: resource.struct_rusage, after: resource.struct_rusage) -> dict:
    """User, sys and CPU seconds and minor page faults of the children that ended in between."""
    user, system = after.ru_utime - before.ru_utime, after.ru_stime - before.ru_stime
    return {"user_s": user, "sys_s": system, "cpu_s": user + system, "minflt": after.ru_minflt - before.ru_minflt}


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The JSON result of one benchmark run in a fresh process, plus its CPU seconds
    (`cpu_s`, user + sys) and minor page faults (`minflt`); a failed run stops the script."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    usage = child_usage(before, after)
    return {**json.loads(proc.stdout.strip().splitlines()[-1]), **{k: usage[k] for k in CHILD_COUNTS}}


def cli_once(checkout: Path, commands: list[list[str]], output: Path | None = None) -> dict:
    """Wall, user and sys seconds and minor page faults of `python -m treerecon.cli` commands,
    run one after another in fresh processes on the checkout's `src/`, and the SHA-256 of the
    file `output` they wrote, or with no `output` of the last command's stdout, kept as
    `stdout`; a failed command stops the script."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    for command in commands:
        argv = [sys.executable, "-m", "treerecon.cli", *command]
        proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if output is None:
        return {"wall_s": wall, **child_usage(before, after), "stdout": proc.stdout,
                "sha256": hashlib.sha256(proc.stdout.encode()).hexdigest()}
    return {"wall_s": wall, **child_usage(before, after),
            "sha256": hashlib.sha256(output.read_bytes()).hexdigest()}


def gradcheck_once(checkout: Path) -> dict:
    """`cli_once` of one default `gradcheck`, its report as `report` (one line per path); a run
    that does not print `[ok]` on each of GRADCHECK_PATHS paths stops the script."""
    result = cli_once(checkout, [["gradcheck"]])
    report = result.pop("stdout").splitlines()
    status = [re.fullmatch(r"\w+: max_rel_error=\S+ \[(\w+)\]", line) for line in report]
    if len(report) != GRADCHECK_PATHS or not all(m and m.group(1) == "ok" for m in status):
        raise SystemExit(f"{checkout}: gradcheck did not print [ok] on {GRADCHECK_PATHS} paths:\n" + "\n".join(report))
    return {**result, "report": report}


def reconstruct_once(checkout: Path, manifest: Path, out: Path, gt: Path | None = None) -> dict:
    """`cli_once` of one default `reconstruct --manifest` (given `gt`, with `--gt gt`), writing its
    PLY to `out`."""
    command = ["reconstruct", "--manifest", str(manifest), "--out", str(out)]
    return cli_once(checkout, [command + (["--gt", str(gt)] if gt else [])], out)


def bench_quality(path: Path) -> dict:
    """{method: {column: mean}} of a bench.csv, for each of METHODS and QUALITY."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    return {method: {col: statistics.fmean(float(r[col]) for r in rows if r["method"] == method)
                     for col in QUALITY} for method in METHODS}


def criterion4_once(checkout: Path, dataset: Path, seed: int) -> dict:
    """`cli_once` of `generate --count 20 --seed seed` into the new directory `dataset`, then `bench`
    of it, both at their defaults, with `bench_quality` of its bench.csv as `quality`; the dataset
    is removed afterwards."""
    try:
        result = cli_once(checkout, [["generate", "--count", "20", "--seed", str(seed), "--out", str(dataset)],
                                     ["bench", "--dataset", str(dataset)]], dataset / "bench.csv")
        return {**result, "quality": bench_quality(dataset / "bench.csv")}
    finally:
        shutil.rmtree(dataset, ignore_errors=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One end-to-end metric over the pairs: medians, quartiles, wins and the bound check."""
    sign = 1.0 if metric["better"] == "lower" else -1.0  # sign * (change - parent) > 0 is worse
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    worse_by = sign * (cm - pm) / abs(pm) if pm else sign * (cm - pm)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": {"median": pm, "q1": p1, "q3": p3},
        "change": {"median": cm, "q1": c1, "q3": c3},
        "parent_iqr": p3 - p1,
        "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "ties": sum(c == p for p, c in zip(parent, change)),
        "worse_by": worse_by,
        "within_bound": None if metric["bound"] is None else worse_by <= metric["bound"],
        "parent_runs": parent,
        "change_runs": change,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload")
    what.add_argument("--reconstruct", type=Path, metavar="MANIFEST")
    what.add_argument("--criterion4", action="store_true")
    what.add_argument("--gradcheck", action="store_true")
    parser.add_argument("--gt", type=Path, metavar="PLY")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--dataset-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if (args.seed is None) == (args.workload is not None):
        parser.error("--seed goes with --workload, and only with it")
    if args.gt and not args.reconstruct:
        parser.error("--gt goes with --reconstruct, and only with it")
    if args.dataset_seed is not None and not args.criterion4:
        parser.error("--dataset-seed goes with --criterion4, and only with it")
    dataset_seed = 42 if args.dataset_seed is None else args.dataset_seed
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    checkouts = dict(zip(SIDES, (args.parent, args.change)))

    if args.workload:
        name, metrics = args.workload, benchmark["end_to_end"]
        run = lambda side, i, tmp: run_once(checkouts[side], args.workload, args.seed + i, benchmark["run_seconds"])
        value = lambda result, metric: result["metrics"][metric]["value"]
        label = lambda i: {"workload": name, "pair": i, "seed": args.seed + i}
    else:
        wall_bound = next(m["bound"] for m in benchmark["end_to_end"] if m["name"] == "wall_s")
        metrics = [{"name": t, "unit": "s", "better": "lower", "bound": wall_bound if t == "wall_s" else None}
                   for t in CLI_TIMES]
        metrics.append({"name": "minflt", "unit": "faults", "better": "lower", "bound": None})
        value = lambda result, metric: result[metric]
        if args.gradcheck:
            name = "gradcheck_cli"
            run = lambda side, i, tmp: gradcheck_once(checkouts[side])
            label = lambda i: {"gradcheck": "defaults", "pair": i}
        elif args.criterion4:
            name = "criterion4"
            run = lambda side, i, tmp: criterion4_once(checkouts[side], Path(tmp) / "data", dataset_seed)
            label = lambda i: {"criterion4": f"generate --count 20 --seed {dataset_seed}; bench", "pair": i}
        else:
            name = "reconstruct_gt" if args.gt else "reconstruct"
            gt = args.gt and args.gt.resolve()
            run = lambda side, i, tmp: reconstruct_once(checkouts[side], args.reconstruct.resolve(),
                                                        Path(tmp) / "r.ply", gt)
            label = lambda i: {"reconstruct": str(args.reconstruct), "gt": args.gt and str(args.gt), "pair": i}

    runs = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        for i in range(args.pairs):
            for order, side in enumerate(SIDES if i % 2 == 0 else SIDES[::-1]):
                result = run(side, i, tmp)
                runs[side].append(result)
                print(json.dumps({**label(i), "side": side, "order": order, **result}), flush=True)

    summary = {"pairs": args.pairs}
    if args.workload:
        summary["seeds"] = [args.seed + i for i in range(args.pairs)]
        summary["failed"] = {side: sum(r["failed"] for r in runs[side]) for side in SIDES}
        for count in CHILD_COUNTS:
            summary[count] = {side: {"median": statistics.median(r[count] for r in runs[side]),
                                     "runs": [r[count] for r in runs[side]]} for side in SIDES}
    else:
        if args.reconstruct:
            summary["manifest"], summary["gt"] = str(args.reconstruct), args.gt and str(args.gt)
        summary["same_bytes"] = len({r["sha256"] for side in SIDES for r in runs[side]}) == 1
        summary["same_bytes_per_side"] = {side: len({r["sha256"] for r in runs[side]}) == 1 for side in SIDES}
    if args.criterion4:
        summary["dataset_seed"] = dataset_seed
        summary["quality"] = {side: {method: {col: statistics.median(r["quality"][method][col] for r in runs[side])
                                              for col in QUALITY} for method in METHODS} for side in SIDES}
    summary["metrics"] = {m["name"]: compare(m, *([value(r, m["name"]) for r in runs[side]] for side in SIDES))
                          for m in metrics}
    for metric, m in summary["metrics"].items():
        bound = "" if m["bound"] is None else f" (bound {m['bound']})"
        print(f"{name} {metric}: parent median {m['parent']['median']:.6g} "
              f"change median {m['change']['median']:.6g} {m['unit']}, parent IQR {m['parent_iqr']:.4g}, "
              f"change won {m['change_wins']} of {args.pairs} pairs ({m['ties']} ties), "
              f"worse by {m['worse_by']:+.4f}{bound}")
    if args.workload:
        cpu, faults = summary["cpu_s"], summary["minflt"]
        print(f"{name} cpu_s: parent median {cpu['parent']['median']:.6g} "
              f"change median {cpu['change']['median']:.6g} s (child user + sys per run); "
              f"minflt: parent median {faults['parent']['median']:.6g} "
              f"change median {faults['change']['median']:.6g} (child minor page faults per run)")
    else:
        print(f"{name}: every run wrote the same bytes: {summary['same_bytes']}; "
              + ", ".join(f"every {side} run: {same}" for side, same in summary["same_bytes_per_side"].items()))
    if args.criterion4:
        for method in METHODS:
            print(f"{name} {method} mean " + "; ".join(
                f"{col}: parent {summary['quality']['parent'][method][col]:.6g} "
                f"change {summary['quality']['change'][method][col]:.6g}" for col in QUALITY))

    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        if args.workload:
            doc.setdefault("workloads", {})[name] = summary
        else:
            doc[name] = summary
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
