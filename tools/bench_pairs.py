"""Run alternating parent/change pairs of one benchmark workload and compare them.

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seed S [--out BENCH_n.json]

PARENT and CHANGE are two source checkouts. Pair i runs each checkout's own
`perfbench/run.py --workload W --seed S+i --seconds T` in a fresh process,
the parent first when i is even and the change first when i is odd; T is
the `run_seconds` of CHANGE's BENCHMARK.json (25). Each run prints one JSON
line, with the run's CPU seconds (user + sys of the child process) as
`cpu_s`. Then, for each of that file's end-to-end metrics, one line gives both
medians, the parent's interquartile distance and the number of pairs the
change won (ties count for neither), and a last line gives each side's
median CPU seconds.

`--out` writes the same summary into a JSON file under `workloads.W`,
keeping what the file already holds for other workloads.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The JSON result of one benchmark run in a fresh process, plus its CPU seconds
    (`cpu_s`, user + sys); a failed run stops the script."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {**json.loads(proc.stdout.strip().splitlines()[-1]), "cpu_s": cpu_s}


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
        "within_bound": worse_by <= metric["bound"],
        "parent_runs": parent,
        "change_runs": change,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())

    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    seeds = [args.seed + i for i in range(args.pairs)]
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        for order, side in enumerate(SIDES if i % 2 == 0 else SIDES[::-1]):
            result = run_once(checkouts[side], args.workload, seed, benchmark["run_seconds"])
            runs[side].append(result)
            print(json.dumps({"workload": args.workload, "pair": i, "seed": seed, "side": side,
                              "order": order, **result}), flush=True)

    summary = {
        "seeds": seeds,
        "pairs": args.pairs,
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "cpu_s": {side: {"median": statistics.median(r["cpu_s"] for r in runs[side]),
                         "runs": [r["cpu_s"] for r in runs[side]]} for side in SIDES},
        "metrics": {
            m["name"]: compare(m, *([r["metrics"][m["name"]]["value"] for r in runs[side]] for side in SIDES))
            for m in benchmark["end_to_end"]
        },
    }
    for name, m in summary["metrics"].items():
        print(f"{args.workload} {name}: parent median {m['parent']['median']:.6g} "
              f"change median {m['change']['median']:.6g} {m['unit']}, parent IQR {m['parent_iqr']:.4g}, "
              f"change won {m['change_wins']} of {args.pairs} pairs ({m['ties']} ties), "
              f"worse by {m['worse_by']:+.4f} (bound {m['bound']})")
    cpu = summary["cpu_s"]
    print(f"{args.workload} cpu_s: parent median {cpu['parent']['median']:.6g} "
          f"change median {cpu['change']['median']:.6g} s (child user + sys per run)")

    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc.setdefault("workloads", {})[args.workload] = summary
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
