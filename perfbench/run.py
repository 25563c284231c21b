"""treerecon benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` without an install. Everything runs in this one process at
``--jobs 1``. Inputs are made from ``--seed``; a run does the fixed number of
operations that took ``--seconds`` at the seed commit (see workloads.py), and
checks each operation's output.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` the same work runs under the outside-in tracer (tracing.py)
and the last line reports the per-layer metrics. Lines before it say the
same in words, with units, and name anything the tracer found absent.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# HostProbe() seconds on the 2-core x86 reference machine (median of 200)
PROBE_REF_S = 0.00555

# one BLAS thread: the soft renderers are elementwise, and on a small shared
# machine extra threads only add noise
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "recall": "ratio",
}


def import_program() -> float:
    """Import treerecon from this checkout's src/; returns seconds taken."""
    if not (SRC / "treerecon" / "__init__.py").is_file():
        sys.exit(f"error: no treerecon package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import treerecon  # noqa: F401  (timed: part of set-up)

    elapsed = time.perf_counter() - t0
    if Path(treerecon.__file__).resolve().parent != (SRC / "treerecon").resolve():
        sys.exit(f"error: imported treerecon from {treerecon.__file__}, not {SRC}")
    return elapsed


class HostProbe:
    """Times a fixed kernel to follow the shared host's speed.

    The host's speed moves by 10-40 % over minutes. Timing this kernel right
    before each operation lets the benchmark report every time at the
    reference host speed (see README.md). The kernel streams exp over a
    footprint-sized array, as the soft renderers do, and sorts, as KD-tree
    builds do. Its buffers are allocated once, so what the program does to
    the allocator cannot change the probe's own time.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._src = rng.random(2000 * 81)
        self._buf = np.empty_like(self._src)
        self._keys = rng.random(40000)
        self._sorted = np.empty_like(self._keys)

    def __call__(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        for _ in range(12):
            np.multiply(self._src, -1.3, out=self._buf)
            np.exp(self._buf, out=self._buf)
        for _ in range(6):
            self._sorted[:] = self._keys
            self._sorted.sort()
        return time.perf_counter() - t0


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten samples beyond it.

    Below 20 samples no percentile above the median qualifies, so the median
    is reported.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def run(args, import_s: float) -> dict:
    import tracing
    from workloads import FULL, SMOKE, WORKLOADS

    sizes = SMOKE if args.smoke else FULL
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        work = WORKLOADS[args.workload](args.seed, args.seconds, sizes, workdir)
        host_probe = HostProbe()
        setup_probe = host_probe()
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            work.setup()
            setups.append(time.perf_counter() - t0)

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)

        times, probes, recalls, failures = [], [], [], []
        for i in range(work.n_ops):
            probes.append(host_probe())
            if tracer:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out = work.op(i)
            except Exception:  # a failed operation is counted, not fatal
                out = None
                failures.append(f"op {i}: {traceback.format_exc()}")
            times.append(time.perf_counter() - t0)
            if tracer:
                tracer.active = False
            if out is None:
                recalls.append(0.0)
                continue
            try:
                recalls.append(work.check(i, out))
            except Exception as e:  # CheckFailed, or output too broken to inspect
                recalls.append(0.0)
                failures.append(f"op {i}: check failed: {e!r}")
        if tracer:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only when no other run is using it

    n = work.n_ops
    # seconds at the reference host speed; raw seconds are printed below
    scaled = [t * PROBE_REF_S / p for t, p in zip(times, probes)]
    pct, op_tail = tail(scaled)
    wall = sum(scaled)
    setup = (import_s + statistics.median(setups)) * PROBE_REF_S / setup_probe
    chamfer = statistics.fmean(work.chamfers) if work.chamfers else 0.0

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} operations={n} failed={len(failures)} "
          f"failed_frac={len(failures) / n:.4g} checks={'pass' if not failures else 'FAIL'} "
          f"trace={args.trace}")
    print(f"op_s_tail is p{pct:.1f} of {n} operations")
    print(f"host probe median {statistics.median(probes) * 1e3:.2f} ms (reference "
          f"{PROBE_REF_S * 1e3:.2f} ms); unscaled: wall_s={sum(times):.6g} s "
          f"op_s_p50={statistics.median(times):.6g} s "
          f"setup_s={import_s + statistics.median(setups):.6g} s")
    if work.iters_per_op:
        print(f"iters_per_s={n * work.iters_per_op / wall:.6g} 1/s "
              f"({work.iters_per_op} Adam iterations per operation)")
    if work.chamfers:
        print(f"chamfer={chamfer:.6g} m2 (mean vs ground truth)")

    if tracer:
        values = tracing.layer_metrics(tracer)
        values["wall_s_traced"] = wall
        values["chamfer_mean"] = chamfer
        units = tracing.UNITS
        for name in tracer.absent:
            print(f"absent {name}")
        print(f"trace overhead (tracer bookkeeping): {values['trace_overhead_s']:.4g} s of "
              f"{wall:.4g} s traced wall")
    else:
        values = {
            "setup_s": setup,
            "wall_s": wall,
            "op_s_p50": statistics.median(scaled),
            "op_s_tail": op_tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (n - len(failures)) / n,
            "recall": statistics.fmean(recalls),
        }
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    computed = set(tracing.COMPUTED) | {"slot_useful_ratio"} if tracer else set()
    for k, m in metrics.items():
        label = " (computed)" if k in computed else ""
        print(f"  {k} = {m['value']:.6g} {m['unit']}{label}")
    return {"correct": not failures, "attempted": n, "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    import_s = import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    print(json.dumps(run(args, import_s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
