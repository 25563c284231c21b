"""Outside-in tracer: times calls into the program's public functions.

Modules import each other's functions by name, so a function is wrapped in
the namespace of the module that *calls* it (for example
``treerecon.losses.occupancy_forward_backward`` is what ``combined_loss``
reaches). Every wrapped call records a span (label, parent span, start,
end). Self time is a span's duration minus the durations of its children.

The tracer's own bookkeeping, including the computed counters, runs on a
clock that is paused: its cost is added to ``overhead_s`` and removed from
every open span, so spans hold program time only.

A name that does not exist at the traced commit is reported as absent and
left alone, so the benchmark keeps running while the program changes.
"""
from __future__ import annotations

import importlib
import math
import os
import statistics
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [label, parent index or -1, start, end]
        self.stack: list[int] = []
        self.overhead_s = 0.0
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.active = False
        self._shadow_spans: set[int] = set()  # combined_loss spans that projected
        self._undo: list[tuple] = []

    # -- installing -------------------------------------------------------

    def wrap(self, module: str, attr: str, label, count=None):
        """Replace module.attr by a timing wrapper.

        label: span label, or a callable(tracer) -> label chosen at call time.
        count: optional callable(tracer, args, kwargs, result) run after the
        call, off the clock, to update computed counters.
        """
        mod, fn = self._find(module, attr)
        if fn is None:
            return
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            name = label(tracer) if callable(label) else label
            index = len(tracer.spans)
            span = [name, tracer.stack[-1] if tracer.stack else -1, 0.0, 0.0]
            tracer.spans.append(span)
            tracer.stack.append(index)
            t1 = time.perf_counter()
            tracer.overhead_s += t1 - t0
            span[2] = t1 - tracer.overhead_s
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = time.perf_counter()
                span[3] = t2 - tracer.overhead_s
                tracer.stack.pop()
            if count is not None:
                try:
                    count(tracer, args, kwargs, result)
                except Exception:  # arguments no longer what the counter reads
                    tracer.counts["counter_errors"] += 1
            tracer.overhead_s += time.perf_counter() - t2
            return result

        setattr(mod, attr, traced)
        self._undo.append((mod, attr, fn))

    def count_calls(self, module: str, attr: str, counter: str):
        """Replace module.attr by a wrapper that only counts calls."""
        mod, fn = self._find(module, attr)
        if fn is None:
            return
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                tracer.counts[counter] += 1
            return fn(*args, **kwargs)

        setattr(mod, attr, counted)
        self._undo.append((mod, attr, fn))

    def _find(self, module: str, attr: str):
        """(module, function), or (None, None) after recording it as absent."""
        try:
            mod = importlib.import_module(module)
        except ImportError:
            mod = None
        fn = getattr(mod, attr, None)
        if fn is None:
            self.absent.append(f"{module}.{attr}")
        return mod, fn

    def uninstall(self):
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    # -- call-site context ------------------------------------------------

    def enclosing(self, label: str) -> int:
        """Index of the innermost open span with this label, or -1."""
        for index in reversed(self.stack):
            if self.spans[index][0] == label:
                return index
        return -1

    def mark_projection(self):
        self._shadow_spans.add(self.enclosing("combined_loss"))

    def occupancy_label(self) -> str:
        """Silhouette unless project_to_ground ran earlier in this combined_loss."""
        loss = self.enclosing("combined_loss")
        return "occupancy_shadow" if loss >= 0 and loss in self._shadow_spans else "occupancy_sil"

    # -- results ----------------------------------------------------------

    def durations(self) -> dict[str, tuple[list[float], list[float]]]:
        """label -> (inclusive seconds per call, self seconds per call)."""
        child = [0.0] * len(self.spans)
        for label, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[list[float], list[float]]] = defaultdict(lambda: ([], []))
        for (label, _, start, end), inner in zip(self.spans, child):
            total, own = out[label]
            total.append(end - start)
            own.append(end - start - inner)
        return out


def median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


# ---------------------------------------------------------------------------
# computed counters (derived from call arguments, never from timings)


def footprint_slots(xy: np.ndarray, spec, cfg) -> tuple[int, int]:
    """(attempted, useful) footprint slots of one soft-render pass.

    Attempted is N * (2r + 1)^2 with r = ceil(trunc * sigma / pixel) + 1, the
    dense window every point gets. Useful slots are those whose pixel center
    is on the grid and within trunc * sigma of the point.
    """
    if not math.isfinite(cfg.trunc):
        return 0, 0
    ps = spec.pixel_size
    r = int(math.ceil(cfg.trunc * cfg.sigma / ps)) + 1
    offsets = np.arange(-r, r + 1)
    u = (xy[:, 0] - spec.origin_x) / ps
    v = (xy[:, 1] - spec.origin_y) / ps
    cols = np.round(u).astype(np.int64)[:, None] + offsets[None, :]
    rows = np.round(v).astype(np.int64)[:, None] + offsets[None, :]
    dx = xy[:, 0, None] - (spec.origin_x + cols * ps)
    dy = xy[:, 1, None] - (spec.origin_y + rows * ps)
    in_x = (cols >= 0) & (cols < spec.width)
    in_y = (rows >= 0) & (rows < spec.height)
    d2 = dy[:, :, None] ** 2 + dx[:, None, :] ** 2
    inside = in_y[:, :, None] & in_x[:, None, :] & (d2 <= (cfg.trunc * cfg.sigma) ** 2)
    return len(xy) * (2 * r + 1) ** 2, int(inside.sum())


def _add_slots(tracer: Tracer, xy, spec, cfg):
    attempted, useful = footprint_slots(np.asarray(xy, dtype=np.float64), spec, cfg)
    tracer.counts["slots"] += attempted
    tracer.counts["useful_slots"] += useful


def _ground_xy(positions: np.ndarray, sun) -> np.ndarray:
    """Where points land when slid along the sun ray to z = 0."""
    kx, ky = importlib.import_module("treerecon.sensor").shadow_offsets(sun)
    return positions[:, :2] + positions[:, 2:3] * np.array([kx, ky])


def _file_bytes(counter: str, path_arg: int):
    def count(tracer, args, kwargs, result):
        path = args[path_arg] if len(args) > path_arg else kwargs.get("path")
        tracer.counts[counter] += os.path.getsize(path)

    return count


def install(tracer: Tracer):
    """Wrap every layer boundary the per-layer metrics are read from."""
    T = "treerecon"
    w = tracer.wrap

    # cli: the entry point; its self time is argument parsing and glue
    w(f"{T}.cli", "main", "cli_main")
    w(f"{T}.cli", "reconstruct", "reconstruct")
    w(f"{T}.cli", "generate_scene", "generate_scene")
    w(f"{T}.cli", "save_scene", "save_scene")
    w(f"{T}.cli", "eval_chamfer", "eval_chamfer")
    w(f"{T}.cli", "fscore", "fscore")
    w(f"{T}.cli", "write_ply", "write_ply", _file_bytes("bytes_written", 1))
    w(f"{T}.cli", "_write_history", "write_history", _file_bytes("bytes_written", 0))
    w(f"{T}.cli", "read_ply", "read_ply", _file_bytes("bytes_read", 0))
    w(f"{T}.cli", "read_pfm", "read_pfm", _file_bytes("bytes_read", 0))
    w(f"{T}.cli", "read_ppm", "read_ppm", _file_bytes("bytes_read", 0))
    w(f"{T}.cli", "read_manifest", "read_manifest", _file_bytes("bytes_read", 0))
    w(f"{T}.cli", "run_gradcheck", "run_gradcheck")

    # package namespace: the entry points the benchmark calls directly
    w(T, "reconstruct", "reconstruct")
    w(T, "baseline_extrude", "baseline_extrude")
    w(T, "eval_chamfer", "eval_chamfer")
    w(T, "fscore", "fscore")
    w(f"{T}.io_formats", "load_scene", "load_scene")

    # reconstruct
    R = f"{T}.reconstruct"
    w(R, "derive_targets", "derive_targets")
    w(R, "init_cloud", "init_cloud")
    w(R, "combined_loss", "combined_loss")

    def adam_count(tracer, args, kwargs, result):
        tracer.counts["adam_steps"] += 1

    w(R, "adam_step", "adam_step", adam_count)

    # losses and the soft renderers as the combined loss reaches them
    L = f"{T}.losses"
    w(L, "chamfer", "chamfer")
    w(L, "nearest_neighbors", "nearest_neighbors")
    tracer.count_calls(L, "cKDTree", "kdtree_builds")

    def projected(tracer, args, kwargs, result):
        tracer.mark_projection()

    w(L, "project_to_ground", "project_to_ground", projected)
    w(L, "occupancy_forward_backward", Tracer.occupancy_label,
      lambda tr, a, k, r: _add_slots(tr, a[0], a[1], a[2]))
    w(L, "dsm_forward_backward", "dsm",
      lambda tr, a, k, r: _add_slots(tr, np.asarray(a[0])[:, :2], a[1], a[2]))

    # diffrender: the standalone renderers gradcheck calls
    D = f"{T}.diffrender"
    w(D, "project_to_ground", "project_to_ground")
    G = f"{T}.gradcheck"
    for name in ("soft_silhouette", "soft_dsm"):
        w(G, name, "soft_forward",
          lambda tr, a, k, r: _add_slots(tr, a[0].positions[:, :2], a[1], a[2]))
    w(G, "soft_shadow", "soft_forward",
      lambda tr, a, k, r: _add_slots(tr, _ground_xy(a[0].positions, a[1]), a[2], a[3]))
    for name in ("soft_silhouette_backward", "soft_dsm_backward"):
        w(G, name, "soft_backward",
          lambda tr, a, k, r: _add_slots(tr, a[0].positions[:, :2], a[1], a[2]))
    w(G, "soft_shadow_backward", "soft_backward",
      lambda tr, a, k, r: _add_slots(tr, _ground_xy(a[0].positions, a[1]), a[2], a[3]))

    # gradcheck
    def fd_count(tracer, args, kwargs, result):
        tracer.counts["fd_evals"] += 2 * int(np.count_nonzero(args[3]))

    w(G, "fd_gradient", "fd_gradient", fd_count)
    for name in ("silhouette_mask", "shadow_mask", "chamfer_mask"):
        w(G, name, "mask")
    w(G, "chamfer", "chamfer")
    w(G, "combined_loss", "combined_loss")
    tracer.count_calls(G, "cKDTree", "kdtree_builds")

    # metrics
    M = f"{T}.metrics"
    w(M, "chamfer", "chamfer")
    tracer.count_calls(M, "cKDTree", "kdtree_builds")

    # protree and the hard sensor renderers it calls
    P = f"{T}.protree"
    for name in ("render_dsm", "render_ortho", "render_shadow_hard"):
        w(P, name, name)

    # io_formats, as save_scene and load_scene reach the writers and readers
    I = f"{T}.io_formats"
    w(I, "write_ply", "write_ply", _file_bytes("bytes_written", 1))
    for name in ("write_pfm", "write_ppm", "write_manifest"):
        w(I, name, name, _file_bytes("bytes_written", 1))
    w(I, "read_ply", "read_ply", _file_bytes("bytes_read", 0))
    for name in ("read_pfm", "read_ppm", "read_manifest"):
        w(I, name, name, _file_bytes("bytes_read", 0))


# per-layer metric -> (span label, statistic); statistic is "ms" (median
# inclusive), "self_ms" (median self) or "calls"
TIMED = {
    "occupancy_sil_ms": ("occupancy_sil", "ms"),
    "occupancy_sil_calls": ("occupancy_sil", "calls"),
    "occupancy_shadow_ms": ("occupancy_shadow", "ms"),
    "occupancy_shadow_calls": ("occupancy_shadow", "calls"),
    "dsm_ms": ("dsm", "ms"),
    "dsm_calls": ("dsm", "calls"),
    "project_to_ground_ms": ("project_to_ground", "ms"),
    "soft_forward_ms": ("soft_forward", "ms"),
    "soft_forward_calls": ("soft_forward", "calls"),
    "soft_backward_ms": ("soft_backward", "ms"),
    "combined_loss_ms": ("combined_loss", "ms"),
    "combined_loss_self_ms": ("combined_loss", "self_ms"),
    "combined_loss_calls": ("combined_loss", "calls"),
    "chamfer_ms": ("chamfer", "ms"),
    "chamfer_calls": ("chamfer", "calls"),
    "nearest_neighbors_ms": ("nearest_neighbors", "ms"),
    "adam_step_ms": ("adam_step", "ms"),
    "reconstruct_self_ms": ("reconstruct", "self_ms"),
    "init_cloud_ms": ("init_cloud", "ms"),
    "derive_targets_ms": ("derive_targets", "ms"),
    "eval_chamfer_ms": ("eval_chamfer", "ms"),
    "fscore_ms": ("fscore", "ms"),
    "baseline_extrude_ms": ("baseline_extrude", "ms"),
    "generate_scene_ms": ("generate_scene", "ms"),
    "render_dsm_ms": ("render_dsm", "ms"),
    "render_ortho_ms": ("render_ortho", "ms"),
    "render_shadow_hard_ms": ("render_shadow_hard", "ms"),
    "save_scene_ms": ("save_scene", "ms"),
    "load_scene_ms": ("load_scene", "ms"),
    "write_ply_ms": ("write_ply", "ms"),
    "read_ply_ms": ("read_ply", "ms"),
    "fd_gradient_ms": ("fd_gradient", "ms"),
    "mask_ms": ("mask", "ms"),
    "cli_self_ms": ("cli_main", "self_ms"),
}

# computed counters: exact, and equal between two runs with one seed
COMPUTED = ("slots", "kdtree_builds", "fd_evals", "bytes_written", "bytes_read", "adam_steps")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    spans = tracer.durations()
    out: dict[str, float] = {}
    for metric, (label, stat) in TIMED.items():
        total, own = spans.get(label, ([], []))
        if stat == "calls":
            out[metric] = len(total)
        else:
            out[metric] = median_ms(own if stat == "self_ms" else total)
    for name in COMPUTED:
        out[name] = int(tracer.counts[name])
    slots = tracer.counts["slots"]
    out["slot_useful_ratio"] = tracer.counts["useful_slots"] / slots if slots else 0.0
    recon_total, _ = spans.get("reconstruct", ([], []))
    recon_s = sum(recon_total)
    out["adam_iters_per_s"] = out["adam_steps"] / recon_s if recon_s else 0.0
    out["spans"] = len(tracer.spans)
    out["absent_wraps"] = len(tracer.absent)
    out["counter_errors"] = int(tracer.counts["counter_errors"])
    out["trace_overhead_s"] = tracer.overhead_s
    return out


UNITS = {name: "count" if stat == "calls" else "ms" for name, (_, stat) in TIMED.items()}
UNITS.update({name: "count" for name in COMPUTED})
UNITS.update({
    "bytes_written": "B",
    "bytes_read": "B",
    "slot_useful_ratio": "ratio",
    "adam_iters_per_s": "1/s",
    "spans": "count",
    "absent_wraps": "count",
    "counter_errors": "count",
    "trace_overhead_s": "s",
    "wall_s_traced": "s",
    "chamfer_mean": "m2",
})
