"""End-to-end reconstruction: targets from inputs, initialization, Adam loop.

Per-scene optimization stands in for a trained network: the combined loss
is minimized directly over the point positions of a fixed-size cloud.
Colors are not optimized; they are assigned from the orthophoto.
"""
from __future__ import annotations

import contextlib
import math
import mmap
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import core, losses
from .core import (
    Grid,
    PointCloud,
    Rng,
    RgbGrid,
    SunConfig,
    check_point_count,
    check_seed,
    pool,
    pooled_spec,
    world_to_pixel,
)
from .diffrender import SoftConfig
from .errors import Diverged, EmptyCloud, EmptyFootprint, InvalidConfig, SpecMismatch
from .losses import TERMS, LossTargets, LossWeights, combined_loss, resolve_weights
from .sensor import H_MIN

EXCESS_GREEN_MIN = 0.05  # vegetation test: 2g - r - b must exceed this
LOSS_POOL = 2  # the raster terms are scored on the input grid pooled LOSS_POOL x LOSS_POOL
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
_F32_MAX = float(np.finfo(np.float32).max)  # the largest coordinate a PLY can store
_GRAD_MAX = math.sqrt(np.finfo(np.float64).max)  # Adam squares every gradient component
# the stopping rule: stop at the first t >= STOP_WINDOW where the loss fell by
# less than STOP_TOL of its value STOP_WINDOW iterations earlier
STOP_WINDOW = 25
STOP_TOL = 0.02


@dataclass
class OptimConfig:
    n_points: int = 2000
    iters: int = 800
    lr: float = 0.05
    weights: LossWeights | None = None  # None: resolved from the targets the run has
    seed: int = 0
    h_min: float = H_MIN
    log_every: int = 50

    def __post_init__(self):
        check_point_count(self.n_points)
        if self.iters < 0:
            raise InvalidConfig("iters must be >= 0")
        if not (0.0 < self.lr < math.inf):
            raise InvalidConfig("lr must be positive and finite")
        if not (0.0 <= self.h_min < math.inf):
            raise InvalidConfig("h_min must be nonnegative and finite")
        if self.log_every < 1:
            raise InvalidConfig("log_every must be >= 1")
        check_seed(self.seed)


@dataclass
class ReconResult:
    """The cloud, the logged (iteration, total, breakdown) rows, and why and when
    the run stopped: `stop` is "loss" (the stopping rule fired at `stop_iter`)
    or "iters" (the `OptimConfig.iters` cap); the last row is `stop_iter`'s."""

    cloud: PointCloud
    loss_history: list[tuple[int, float, dict[str, float]]]
    stop: str
    stop_iter: int


def _stalled(totals: list[float]) -> bool:
    """The stopping rule, given the total loss of every iteration so far."""
    if len(totals) <= STOP_WINDOW:
        return False
    before = totals[-1 - STOP_WINDOW]
    return before - totals[-1] < STOP_TOL * abs(before)


def derive_targets(ortho: RgbGrid, dsm: Grid, h_min: float, shadow: Grid | None = None) -> LossTargets:
    """Silhouette and DSM targets from the two real inputs, and the shadow target.

    Silhouette = finite AND tall (dsm > h_min) AND green (excess-green
    index > 0.05); the greenness test suppresses buildings. The DSM target
    is the DSM inside the silhouette and 0 elsewhere, so nodata (NaN or
    infinite) DSM pixels are background in both targets. The shadow target
    is `shadow` with its nodata pixels read as 0, unshadowed; real scenes may
    not have one (None).
    """
    if ortho.spec != dsm.spec:
        raise SpecMismatch("orthophoto and DSM must share a grid spec")
    r, g, b = ortho.values[..., 0], ortho.values[..., 1], ortho.values[..., 2]
    excess_green = 2.0 * g - r - b
    sil = np.isfinite(dsm.values) & (dsm.values > h_min) & (excess_green > EXCESS_GREEN_MIN)
    return LossTargets(
        silhouette=Grid(dsm.spec, sil.astype(np.float64)),
        dsm=Grid(dsm.spec, np.where(sil, dsm.values, 0.0)),
        shadow=None if shadow is None
        else Grid(shadow.spec, np.where(np.isfinite(shadow.values), shadow.values, 0.0)),
    )


def _recolor(positions: np.ndarray, ortho: RgbGrid, dsm: Grid) -> np.ndarray:
    """Orthophoto color at each point's pixel, darkened with depth."""
    u, v = world_to_pixel(ortho.spec, positions[:, 0], positions[:, 1])
    col = np.clip(np.round(u), 0, ortho.spec.width - 1).astype(np.int64)  # clipped before the cast,
    row = np.clip(np.round(v), 0, ortho.spec.height - 1).astype(np.int64)  # which a huge x or y overflows
    base = ortho.values[row, col]
    h = dsm.values[row, col]
    scale = np.where(h > 0, np.sqrt(np.clip(positions[:, 2] / np.maximum(h, 1e-9), 0.0, 1.0)), 1.0)
    return base * scale[:, None]


def _surface_points(
    dsm: Grid, silhouette: Grid, ortho: RgbGrid, n_points: int, rng: np.random.Generator
) -> np.ndarray:
    """(n, 3) points drawn inside the silhouette footprint, at their pixel's DSM height.

    Pixels are chosen proportionally to silhouette mass and (x, y) jittered
    within the pixel; the draws run in that order (pixel, x, y). The three
    grids must share one spec: heights and colors are read at the silhouette's pixels.
    """
    if not dsm.spec == silhouette.spec == ortho.spec:
        raise SpecMismatch("DSM, silhouette and orthophoto must share a grid spec")
    mass = silhouette.values.reshape(-1)
    total = mass.sum()
    if total <= 0:
        raise EmptyFootprint("silhouette has no positive pixels")
    spec = silhouette.spec
    flat = rng.choice(spec.n_pixels, size=n_points, p=mass / total)
    row, col = flat // spec.width, flat % spec.width
    ps = spec.pixel_size
    x = spec.origin_x + col * ps + rng.uniform(-0.5, 0.5, n_points) * ps
    y = spec.origin_y + row * ps + rng.uniform(-0.5, 0.5, n_points) * ps
    return np.stack([x, y, dsm.values.reshape(-1)[flat]], axis=1)


def init_cloud(
    dsm: Grid, silhouette: Grid, ortho: RgbGrid, n_points: int, rng: np.random.Generator
) -> PointCloud:
    """Seed points inside the silhouette footprint, spread through the volume.

    Each footprint point is lowered to a uniform draw in [0.2 H, H], H its pixel's DSM height.
    """
    positions = _surface_points(dsm, silhouette, ortho, n_points, rng)
    positions[:, 2] *= rng.uniform(0.2, 1.0, n_points)
    return PointCloud(positions=positions, colors=_recolor(positions, ortho, dsm))


def baseline_extrude(
    dsm: Grid, silhouette: Grid, ortho: RgbGrid, n_points: int, rng: np.random.Generator
) -> PointCloud:
    """Naive comparison baseline: points on the DSM canopy surface only.

    init_cloud's footprint points left at their pixel's DSM height: a shell with no crown interior.
    """
    positions = _surface_points(dsm, silhouette, ortho, n_points, rng)
    return PointCloud(positions=positions, colors=_recolor(positions, ortho, dsm))


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @staticmethod
    def zeros(shape) -> "AdamState":
        return AdamState(m=np.zeros(shape), v=np.zeros(shape))


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray, lr: float) -> np.ndarray:
    """One bias-corrected Adam update; mutates state, returns new params."""
    state.t += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = state.m / (1.0 - ADAM_BETA1**state.t)
    v_hat = state.v / (1.0 - ADAM_BETA2**state.t)
    return params - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class _Helper:
    """A process forked once per run onto `others` that runs `job`, the score of one loss `term`: `send`
    hands it the (n, 3) positions through one shared mmap and a command pipe, and `receive` returns the
    job's (value, gradient, {term: value}) once it replies "ok", or None for good once it has failed (no
    fork, its job raised or it died). It exits when its job raises or `close` ends the command pipe."""

    def __init__(self, job, term: str, n: int, others: set[int]):
        self.job, self.term, self.buf = job, term, np.ndarray(2 + 3 * n, buffer=mmap.mmap(-1, 8 * (2 + 3 * n)))
        (cmd_r, self.cmd), (self.reply, reply_w) = os.pipe(), os.pipe()
        self.pid = None
        with contextlib.suppress(OSError):
            self.pid = os.fork()
        if self.pid == 0:
            try:
                os.close(self.cmd)  # so the command pipe ends when the caller closes it or dies
                os.sched_setaffinity(0, others)
                while os.read(cmd_r, 1):
                    with np.errstate(over="ignore", invalid="ignore"):
                        value, grad, breakdown = job(self.buf[2:].reshape(n, 3).copy())
                    self.buf[:2], self.buf[2:] = (value, *breakdown.values()), grad.reshape(-1)
                    os.write(reply_w, b"ok")
            finally:
                os._exit(0)
        for fd in (cmd_r, reply_w):
            os.close(fd)

    def send(self, positions: np.ndarray) -> None:
        self.buf[2:] = positions.reshape(-1)
        with contextlib.suppress(BrokenPipeError):  # no reader: it has failed, and `receive` reads an end
            os.write(self.cmd, b"g")

    def receive(self) -> tuple[float, np.ndarray, dict[str, float]] | None:
        if os.read(self.reply, 2) == b"ok":
            return float(self.buf[0]), self.buf[2:].reshape(-1, 3).copy(), {self.term: float(self.buf[1])}

    def close(self) -> None:
        for fd in (self.cmd, self.reply):
            os.close(fd)
        if self.pid:
            os.waitpid(self.pid, 0)


def reconstruct(
    ortho: RgbGrid,
    dsm: Grid,
    sun: SunConfig | None = None,
    shadow_target: Grid | None = None,
    gt_cloud: PointCloud | None = None,
    cfg: OptimConfig | None = None,
    init_positions: np.ndarray | None = None,
) -> ReconResult:
    """Optimize a point cloud against the combined loss with Adam.

    init_positions, an (N, 3) array, overrides the silhouette-based initialization (used
    for perturbation studies); any other shape, or a coordinate not finite in float32,
    raises InvalidConfig. z is clamped to >= 0 after every step. The run stops at the first
    iteration where the stopping rule holds, or at `cfg.iters`, and logs that iteration's
    row. The raster terms are scored on the input grid pooled LOSS_POOL x LOSS_POOL (block
    means of the targets), with σ one input pixel in meters; the initialization and the colors
    read the input grid. Raises Diverged, naming the iteration, as soon as a position is no
    longer finite in float32, the loss is no longer finite or a gradient component is too large
    for Adam to square. A run with the Chamfer term on builds the ground truth's KD-tree once
    (through `losses.cKDTree`), as a `losses.GtSearch` that keeps each point's last nearest
    ground-truth point while the triangle inequality proves it is cKDTree's answer and queries the
    tree for the others, and hands every `combined_loss` call that search; both of Chamfer's
    KD-tree queries run on this thread (`losses.query_pair`). A run with two or more active terms
    first forks a `_Helper` process, off this thread's CPU (`core.other_cpus`), that scores the last
    (in `losses.TERMS` order) while this thread scores the others; it is forked only while no other
    thread runs. The run starts no thread, and every byte is that of one thread.
    """
    cfg = cfg or OptimConfig()
    spec = dsm.spec
    soft_cfg = SoftConfig(sigma=spec.pixel_size)
    targets = derive_targets(ortho, dsm, cfg.h_min, shadow_target)
    targets.gt_cloud = gt_cloud
    w = cfg.weights or resolve_weights(gt_cloud, shadow_target)
    *first, last = active = targets.require(w, sun, spec)  # checked on the input grid, before pooling
    loss_spec = pooled_spec(spec, LOSS_POOL)
    rasters = (targets.silhouette, targets.shadow, targets.dsm)
    pooled = LossTargets(*(None if g is None else pool(g, LOSS_POOL) for g in rasters), gt_cloud)

    rng = Rng(cfg.seed)
    if init_positions is not None:
        positions = np.array(init_positions, dtype=np.float64)
        if not np.all(np.abs(positions) <= _F32_MAX):
            raise InvalidConfig("init_positions holds a coordinate that is not finite in float32")
        if len(PointCloud(positions)) == 0:  # which refuses any shape but (N, 3)
            raise EmptyCloud("init_positions holds no points")
    else:
        positions = init_cloud(dsm, targets.silhouette, ortho, cfg.n_points, rng).positions
    history: list[tuple[int, float, dict[str, float]]] = []
    totals: list[float] = []
    state = AdamState.zeros(positions.shape)
    tree = losses.GtSearch(gt_cloud.positions) if "geo" in active else None  # queried by every Chamfer call
    own, helper = w, None
    if first and threading.active_count() == 1 and (others := core.other_cpus()):  # fork before any thread starts
        own = LossWeights(**{f"lambda_{t}": 0.0 if t == last else w.of(t) for t in TERMS})
        alone = LossWeights(**{f"lambda_{t}": w.of(t) if t == last else 0.0 for t in TERMS})
        helper = _Helper(lambda p: combined_loss(PointCloud(positions=p), pooled, sun, loss_spec, soft_cfg, alone),
                         last, len(positions), others)
    with contextlib.closing(helper) if helper else contextlib.nullcontext():
        for t in range(cfg.iters + 1):
            if t > 0:
                positions = adam_step(state, positions, grad, cfg.lr)
            positions[:, 2] = np.maximum(positions[:, 2], 0.0)
            if not np.all(np.abs(positions) <= _F32_MAX):
                raise Diverged(f"iteration {t}: a point position is not finite in float32")
            # an overflow in the loss (a point too high for the soft DSM's
            # exp(BETA z), say) either meets no pixel or makes the loss non-finite
            with np.errstate(over="ignore", invalid="ignore"):
                if helper:
                    helper.send(positions)
                value, grad, breakdown = combined_loss(PointCloud(positions=positions), pooled, sun, loss_spec,
                                                       soft_cfg, own, tree)
                if helper:  # added last, as combined_loss adds it: a sum from +0.0 is never -0.0, and 0.0 + x == x
                    v, g, b = helper.receive() or helper.job(positions)
                    value, grad, breakdown = value + v, grad + g, breakdown | b
            if not math.isfinite(value):
                raise Diverged(f"iteration {t}: the loss is {value}")
            if np.any(np.abs(grad) > _GRAD_MAX):
                raise Diverged(f"iteration {t}: a gradient component is too large for Adam to square")
            totals.append(value)
            stalled = _stalled(totals)
            if stalled or t % cfg.log_every == 0 or t == cfg.iters:
                history.append((t, value, breakdown))
            if stalled:
                break

    cloud = PointCloud(positions=positions, colors=_recolor(positions, ortho, dsm))
    return ReconResult(cloud=cloud, loss_history=history, stop="loss" if stalled else "iters", stop_iter=t)
