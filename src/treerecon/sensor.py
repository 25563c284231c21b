"""Hard top-down renderers: DSM, orthophoto, silhouette, and shadow rasters.

Points are splatted as flat disks of fixed radius. These renderers are not
differentiable; they produce the optimization targets and synthetic sensor
data. Highest point wins color ties, with larger point index as tiebreak.

`pixels_within` is the one enumerator of the pixel centers a footprint
covers, shared with the soft renderers in `diffrender` and the cutoff test
in `gradcheck`: one d^2 <= r^2 mask over each point's window of
floor(2r/ps) + 1 on-grid centers per axis (plus float-rounding slack), no
wider than its disk. Here the pairs are a hard disk
and nothing more, there the same pairs carry a Gaussian weight. The pairs
live in the calling thread's buffers (`workspace`): a pass's arrays, and a
VJP reading them, are valid until that thread's next pass.
`project_to_ground` is the one sun-ray projection to the ground plane.
"""
from __future__ import annotations

import math
import threading

import numpy as np

from .core import Grid, GridSpec, PointCloud, RgbGrid, SunConfig, sun_direction
from .errors import InvalidConfig

GROUND_COLOR = (0.55, 0.5, 0.42)
H_MIN = 0.5  # meters; a DSM pixel above this height is canopy, not ground


def _window(coord: np.ndarray, origin: float, size: int, ps: float, radius: float):
    """Per point, a run of pixel centers along one axis that lies on the grid
    and covers every center within `radius` of the point.

    A disk of radius r covers at most floor(2r/ps) + 1 centers per axis, the
    first at ceil(u - r/ps), u the point in pixels. Float rounding in u and in
    the d^2 test, a few ulp of the grid's own coordinates (|origin|/ps + size
    pixels), can let the test take a center just past the disk (a disk of
    3 * 0.3 m on a half-pixel point can take 10 centers 0.2 m apart, not 9), so
    `slack` pixels of it widen the run and move its start back.
    Returns the pixel indices (N, k) and the offsets point minus center (N, k).
    """
    reach = radius / ps
    slack = 4 * np.finfo(np.float64).eps * (abs(origin) / ps + size + reach + 1)
    span = 2 * (reach + slack)
    width = math.floor(span) + 1 if span < size else size
    first = np.ceil((coord - origin) / ps - (reach + slack)).clip(0, size - width)
    idx = first.astype(np.int64)[:, None] + np.arange(width)
    return idx, coord[:, None] - (origin + idx * ps)


class Workspace(threading.local):
    """Each thread's pass buffers: slot-sized arrays allocated anew per pass cost more in
    first-touch page faults than in arithmetic. A thread keeps them, sized by its largest
    pass plus 1/8, until it ends; `passes` counts its passes, so a VJP sees a later one.
    """

    def __init__(self):
        self.passes, self._bufs = 0, {}

    def get(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Buffer `name`, uninitialised, as an array of `shape`."""
        size = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < size:
            buf = self._bufs[name] = np.empty(size + size // 8, dtype)  # 1/8 headroom
        return buf[:size].reshape(shape)


workspace = Workspace()  # the only instance; each thread sees its own buffers in it


def pixels_within(xy: np.ndarray, spec: GridSpec, radius: float):
    """Every (point, pixel) pair whose pixel center lies within `radius` of the point.

    One disk test d^2 <= radius^2 over each point's (ky, kx) window picks the
    pairs, ordered by point, then pixel row, then pixel column. Returns
    (point, flat pixel, c, r, dx, dy): dx (N, kx) and dy (N, ky) are the
    offsets point minus pixel center along x and y over each point's window,
    and c and r index each pair's column in dx.ravel() and row in dy.ravel().
    point, flat, c and r are rows of `workspace`, one pass on this thread; its first float row is scratch.
    """
    if not radius > 0:
        raise InvalidConfig("splat_radius must be positive")
    workspace.passes += 1
    with np.errstate(over="ignore", invalid="ignore"):  # an off-grid or NaN point covers nothing
        cols, dx = _window(xy[:, 0], spec.origin_x, spec.width, spec.pixel_size, radius)
        rows, dy = _window(xy[:, 1], spec.origin_y, spec.height, spec.pixel_size, radius)
        kx, ky = dx.shape[1], dy.shape[1]
        mask = workspace.get("mask", (len(xy), ky, kx), bool)
        for p in range(0, len(xy), 512):  # d^2 of 512 points at a time: no (N, ky, kx) float array
            b = slice(p, p + 512)
            np.less_equal(dx[b, None, :] ** 2 + dy[b, :, None] ** 2, radius**2, out=mask[b])
    point, flat, r, c = workspace.get("ints", (4, np.count_nonzero(mask)), np.int64)
    block, end = 512 * ky * kx, 0  # the hits of 512 points per flatnonzero
    for start in range(0, mask.size, block):  # c = the flat mask index of each hit, for now
        chunk = mask.ravel()[start:start + block]
        np.add(np.flatnonzero(chunk), start, out=c[end:(end := end + np.count_nonzero(chunk))])
    tmp = workspace.get("floats", c.shape).view(np.int64)  # a float row no one reads before _Slots fills it
    np.floor_divide(np.floor_divide(c, kx, out=r), ky, out=point)
    c -= np.multiply(np.subtract(r, point, out=tmp), kx, out=tmp)  # c = point * kx + hit % kx
    np.multiply(rows.ravel().take(r, out=flat, mode="clip"), spec.width, out=flat)
    flat += cols.ravel().take(c, out=tmp, mode="clip")
    return point, flat, c, r, dx, dy


def render_dsm(cloud: PointCloud, spec: GridSpec, splat_radius: float) -> Grid:
    """Max-z disk splat; uncovered pixels are ground (0)."""
    out = np.zeros(spec.n_pixels)
    pt_idx, flat = pixels_within(cloud.positions[:, :2], spec, splat_radius)[:2]
    np.maximum.at(out, flat, cloud.positions[pt_idx, 2])
    return Grid(spec, out.reshape(spec.height, spec.width))


def render_ortho(cloud: PointCloud, spec: GridSpec, splat_radius: float) -> RgbGrid:
    """Color of the highest covering point per pixel; ground color elsewhere.

    The winner, the largest (z, point index), is the largest index among the
    pairs at the pixel's max z; z is finite, so the -inf start and == are exact.
    """
    colors = cloud.require_colors()
    out = RgbGrid.filled(spec, GROUND_COLOR)
    pt_idx, flat = pixels_within(cloud.positions[:, :2], spec, splat_radius)[:2]
    z = cloud.positions[pt_idx, 2]
    top = np.full(spec.n_pixels, -np.inf)
    np.maximum.at(top, flat, z)
    on_top = z == top[flat]
    winner = np.full(spec.n_pixels, -1)
    np.maximum.at(winner, flat[on_top], pt_idx[on_top])
    won = np.flatnonzero(winner >= 0)
    out.values.reshape(-1, 3)[won] = colors[winner[won]]
    return out


def render_silhouette(dsm: Grid, h_min: float) -> Grid:
    """Binary occupancy: 1 where the DSM is strictly above h_min."""
    if not (h_min >= 0):
        raise InvalidConfig("h_min must be >= 0")
    return Grid(dsm.spec, (dsm.values > h_min).astype(np.float64))


def shadow_offsets(sun: SunConfig) -> tuple[float, float]:
    """Per-meter-of-height ground displacement of a cast shadow."""
    d = sun_direction(sun)
    # ray p + t*d hits z=0 at t = z / -d.z
    return d[0] / -d[2], d[1] / -d[2]


def project_to_ground(cloud: PointCloud, sun: SunConfig) -> tuple[np.ndarray, np.ndarray]:
    """Slide points along the sun ray to z = 0.

    Returns the (N, 2) ground coordinates and the constant 2x3 Jacobian
    d(ground xy)/d(point xyz), shared by all points.
    """
    kx, ky = shadow_offsets(sun)
    with np.errstate(over="ignore"):  # a low sun may cast a shadow beyond float range
        xy = cloud.positions[:, :2] + cloud.positions[:, 2:3] * np.array([kx, ky])
    return xy, np.array([[1.0, 0.0, kx], [0.0, 1.0, ky]])


def render_shadow_hard(
    cloud: PointCloud, sun: SunConfig, spec: GridSpec, splat_radius: float
) -> Grid:
    """Binary shadow mask: points projected to the ground along the sun ray."""
    out = np.zeros(spec.n_pixels)
    out[pixels_within(project_to_ground(cloud, sun)[0], spec, splat_radius)[1]] = 1.0
    return Grid(spec, out.reshape(spec.height, spec.width))
