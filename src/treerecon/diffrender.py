"""Differentiable soft rasterizers with analytic position gradients.

Each point splats a truncated Gaussian footprint g = exp(-d^2 / 2 sigma^2)
onto nearby pixel centers (zero beyond trunc*sigma). A pass first builds a
compacted slot list of seven rows: (point, flat pixel, c, r, g) per pixel on
the grid and within the cutoff, in point, row, column order, c and r locating
the slot's offsets in its point's window, and two spares; the pairs come from
`sensor.pixels_within`, the enumerator the hard sensor splats through, and
only g is added here. Two cores compose the
slots into pixels, each returning the predicted flat raster and its
vector-Jacobian product (VJP):

  soft or (silhouette, shadow):  O = 1 - prod_i (1 - ALPHA * g_i),  0 < ALPHA < 1
  soft-max height (DSM):         H = sum(w z) / (sum(w) + EPS_GROUND),  w = g * exp(BETA z)

Pixel sums and per-point gradient sums are bincounts over the slot list.
Each core takes points and builds the list of its own pass in the calling
thread's buffers (`sensor.workspace`), which its passes share one after
another. A VJP works in the buffers, so it runs once, and before the next
pass on that thread (otherwise it raises). `_pass` is each raster kind once:
its core (the soft or for "sil" and "shadow", the soft-max height for "dsm")
and the chain rule back to an (x, y, z) row per point: zero z for the
silhouette; the shadow slides each point along the sun ray to the ground
plane (`sensor.project_to_ground`) and chains through that projection's
constant Jacobian. The public renderers are its forward rasters and its
VJPs. The loss's scored passes, and `losses.MoveScorer`, which patches one
cloud's pixel sums for copies that each move one point, on the pixels under
the moved point's old and new slots only, live in `losses`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Grid, GridSpec, PointCloud, SunConfig
from .errors import InvalidConfig, SpecMismatch
from .sensor import pixels_within, project_to_ground, workspace

ALPHA = 0.9  # per-point opacity of the soft or, below 1
BETA = 2.0  # soft-max height temperature, 1/m
EPS_GROUND = 1e-4  # virtual ground sample weight in the soft DSM


@dataclass(frozen=True)
class SoftConfig:
    """A splat's width and cutoff; ALPHA and BETA are fixed. Every check fails on NaN."""

    sigma: float  # Gaussian splat bandwidth, meters
    trunc: float = 3.0  # influence cutoff at trunc*sigma; inf for none

    def __post_init__(self):
        if not (0.0 < self.sigma < math.inf):
            raise InvalidConfig("sigma must be positive and finite")
        if not (self.trunc >= 1.0):
            raise InvalidConfig("trunc must be >= 1")


class _Slots:
    """Compacted footprint slots of one point set: (point, flat pixel, dx, dy, g).

    Holds only slots on the grid and within trunc*sigma, ordered by point,
    then pixel row, then pixel column. The Gaussian is separable: exp runs
    once per (point, column) and once per (point, row), and g is the product.
    Its offsets are dx.ravel()[c] and dy.ravel()[r]; its seven rows are the thread's buffers.
    """

    def __init__(self, xy: np.ndarray, spec: GridSpec, cfg: SoftConfig):
        self.n, self.n_pixels, self.sigma = len(xy), spec.n_pixels, cfg.sigma
        self.point, self.flat, self.c, self.r, self.dx, self.dy = pixels_within(xy, spec, cfg.trunc * cfg.sigma)
        self.pass_no = workspace.passes
        self.g, *self.spare = workspace.get("floats", (3, len(self.c)))
        k = -0.5 / cfg.sigma**2
        with np.errstate(over="ignore"):  # a point far off the grid has no slot
            np.exp(k * self.dx**2).ravel().take(self.c, out=self.g, mode="clip")
            self.g *= np.exp(k * self.dy**2).ravel().take(self.r, out=self.spare[0], mode="clip")

    def check_current(self):
        """Let one VJP of this list run, once, and before the thread's next pass."""
        if workspace.passes != self.pass_no:  # a later pass, or this VJP, took the buffers
            raise RuntimeError("buffers reused; run a VJP before the next pass, and only once")
        workspace.passes += 1

    def to_pixels(self, values: np.ndarray) -> np.ndarray:
        """Sum per-slot values into a flat pixel array."""
        sums = np.bincount(self.flat, weights=values, minlength=self.n_pixels)
        return sums.astype(np.float64, copy=False)  # bincount of no slots is int64

    def to_points(self, values: np.ndarray) -> np.ndarray:
        """Sum per-slot values per point."""
        sums = np.bincount(self.point, weights=values, minlength=self.n)
        return sums.astype(np.float64, copy=False)

    def xy_grad(self, dL_dlog_g: np.ndarray, out: np.ndarray) -> np.ndarray:
        """(N, 2) gradient from per-slot g * dL/dg, with the products in slot-sized `out`;
        d(log g)/dxy = -(xy - pixel center) / sigma^2."""
        scale = np.divide(dL_dlog_g, self.sigma**2, out=dL_dlog_g)
        gx = self.to_points(np.multiply(self.dx.ravel().take(self.c, out=out, mode="clip"), scale, out=out))
        gy = self.to_points(np.multiply(self.dy.ravel().take(self.r, out=out, mode="clip"), scale, out=out))
        return -np.stack([gx, gy], axis=1)


# ---------------------------------------------------------------------------
# the two composition cores: (pred_flat, vjp), vjp(d_flat) -> point gradients


def _soft_or(xy: np.ndarray, spec: GridSpec, cfg: SoftConfig):
    """Soft-or occupancy of (N, 2) points; the VJP returns a gradient row per point."""
    s = _Slots(xy, spec, cfg)
    log_t, tmp = s.spare
    np.multiply(s.g, ALPHA, out=log_t)
    log_prod = s.to_pixels(np.log(np.subtract(1.0, log_t, out=log_t), out=log_t))

    def vjp(d_flat: np.ndarray) -> np.ndarray:
        # dO/dg_i = ALPHA * prod_{j != i} (1 - ALPHA g_j): the full product with
        # factor i divided back out, which ALPHA < 1 keeps above zero
        s.check_current()
        dL = np.subtract(log_prod.take(s.flat, out=tmp, mode="clip"), log_t, out=log_t)
        np.exp(dL, out=dL)
        dL *= np.multiply(d_flat.take(s.flat, out=tmp, mode="clip"), ALPHA, out=tmp)
        return s.xy_grad(np.multiply(dL, s.g, out=dL), tmp)

    return 1.0 - np.exp(log_prod), vjp


def _soft_max_height(positions: np.ndarray, spec: GridSpec, cfg: SoftConfig):
    """Soft-max height of (N, 3) points; the VJP returns an (x, y, z) row per point."""
    s = _Slots(positions[:, :2], spec, cfg)
    tmp = s.spare[1]
    z = positions[:, 2].copy()  # the VJP may run after the caller changed positions
    w = s.g  # w = g * exp(BETA z) takes the place of g, which no other pass reads
    w *= np.exp(BETA * z).take(s.point, out=tmp, mode="clip")
    denom = s.to_pixels(w) + EPS_GROUND
    h = s.to_pixels(np.multiply(w, z.take(s.point, out=tmp, mode="clip"), out=tmp)) / denom

    def vjp(d_flat: np.ndarray) -> np.ndarray:
        # quotient rule: dH/dw = (z - H) / denom; w varies with x, y (through g)
        # and z (through exp), and z also enters the numerator directly
        s.check_current()
        dH_dw, tmp = s.spare
        inv_denom = 1.0 / denom
        z.take(s.point, out=dH_dw, mode="clip")
        dH_dw -= h.take(s.flat, out=tmp, mode="clip")
        dH_dw *= inv_denom.take(s.flat, out=tmp, mode="clip")
        np.multiply(d_flat.take(s.flat, out=tmp, mode="clip"), dH_dw, out=tmp)
        gxy = s.xy_grad(np.multiply(tmp, w, out=tmp), workspace.get("dsm", tmp.shape))  # all 3 rows are taken
        dH_dw *= BETA
        dH_dw *= w
        gz = w  # z: d * (w / denom + dH/dw * BETA * w), summed in w's own array
        gz *= inv_denom.take(s.flat, out=tmp, mode="clip")
        gz += dH_dw
        gz *= d_flat.take(s.flat, out=tmp, mode="clip")
        return np.column_stack([gxy, s.to_points(gz)])

    return h, vjp


# ---------------------------------------------------------------------------
# one pass per raster kind, and the public renderers as views of it


def _pass(kind: str, positions: np.ndarray, sun: SunConfig | None, spec: GridSpec, cfg: SoftConfig):
    """One soft render of kind "sil", "shadow" or "dsm" (only the shadow reads sun) of (N, 3) points:
    (the flat raster, a VJP taking a pixel gradient Grid on spec and returning an (x, y, z) row per
    point). Non-finite positions raise InvalidConfig, for every kind."""
    cloud = PointCloud(positions)  # checked finite
    if kind == "dsm":
        pred, vjp = _soft_max_height(cloud.positions, spec, cfg)
        chain = lambda g: g
    elif kind == "sil":
        pred, vjp = _soft_or(cloud.positions[:, :2], spec, cfg)
        chain = lambda gxy: np.column_stack([gxy, np.zeros(len(gxy))])  # the silhouette ignores z
    elif kind == "shadow":
        xy, jac = project_to_ground(cloud, sun)
        pred, vjp = _soft_or(xy, spec, cfg)
        chain = lambda gxy: gxy @ jac
    else:
        raise InvalidConfig(f"unknown raster kind {kind!r}; expected sil, shadow or dsm")

    def xyz_vjp(d_pixels: Grid) -> np.ndarray:
        if d_pixels.spec != spec:
            raise SpecMismatch("pixel gradient grid spec does not match render spec")
        return chain(vjp(d_pixels.values.reshape(-1)))

    return pred, xyz_vjp


def soft_silhouette(cloud: PointCloud, spec: GridSpec, cfg: SoftConfig) -> Grid:
    """Soft occupancy map in [0, 1)."""
    return Grid(spec, _pass("sil", cloud.positions, None, spec, cfg)[0].reshape(spec.height, spec.width))


def soft_silhouette_backward(cloud: PointCloud, spec: GridSpec, cfg: SoftConfig, d_pixels: Grid) -> np.ndarray:
    """Backprop pixel gradients to (N, 3) point gradients; the z gradient is zero."""
    return _pass("sil", cloud.positions, None, spec, cfg)[1](d_pixels)


def soft_dsm(cloud: PointCloud, spec: GridSpec, cfg: SoftConfig) -> Grid:
    """Smooth height map: soft-max-weighted mean z with a virtual ground sample."""
    return Grid(spec, _pass("dsm", cloud.positions, None, spec, cfg)[0].reshape(spec.height, spec.width))


def soft_dsm_backward(cloud: PointCloud, spec: GridSpec, cfg: SoftConfig, d_pixels: Grid) -> np.ndarray:
    """Quotient-rule (N, 3) gradients of the soft DSM in x, y, and z."""
    return _pass("dsm", cloud.positions, None, spec, cfg)[1](d_pixels)


def soft_shadow(cloud: PointCloud, sun: SunConfig, spec: GridSpec, cfg: SoftConfig) -> Grid:
    """Soft shadow mask: soft silhouette of the ground-projected points."""
    return Grid(spec, _pass("shadow", cloud.positions, sun, spec, cfg)[0].reshape(spec.height, spec.width))


def soft_shadow_backward(cloud: PointCloud, sun: SunConfig, spec: GridSpec, cfg: SoftConfig,
                         d_pixels: Grid) -> np.ndarray:
    """Soft-or backward chained through the ground projection Jacobian."""
    return _pass("shadow", cloud.positions, sun, spec, cfg)[1](d_pixels)
