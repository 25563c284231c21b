"""Core domain types: point clouds, georeferenced rasters, sun geometry, the seeded RNG.

The CPU rule lives here too: `other_cpus` names the CPUs a second line of work may use
(`reconstruct`'s helper process, the Chamfer and F-score worker thread), and
`worker_pool` opens that thread.

Conventions used throughout:
  - meters everywhere, z up, flat ground plane at z = 0
  - pixel (u, v): u is the column (along +x), v is the row (along +y);
    the *center* of pixel (0, 0) sits at world (origin_x, origin_y)
  - raster arrays are numpy (height, width), row-major, so values[v, u]
"""
from __future__ import annotations

import math
import multiprocessing
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, MissingColors

CLASS_TRUNK = 0
CLASS_FOLIAGE = 1


@dataclass
class PointCloud:
    """N 3D points with optional per-point RGB colors and trunk/foliage class.

    positions: (N, 3) float64 in C order (a copy unless the input already is), so a KD-tree
    built from it holds this very array; colors: (N, 3) float64 in [0, 1] or None;
    classes: (N,) uint8 (0 trunk, 1 foliage) or None.
    """

    positions: np.ndarray
    colors: np.ndarray | None = None
    classes: np.ndarray | None = None

    def __post_init__(self):
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(self.positions)):
            raise InvalidConfig("point positions must be finite")
        n = len(self.positions)
        if self.colors is not None:
            self.colors = np.asarray(self.colors, dtype=np.float64).reshape(-1, 3)
            if len(self.colors) != n:
                raise InvalidConfig("colors length must match positions")
        if self.classes is not None:
            self.classes = np.asarray(self.classes, dtype=np.uint8).reshape(-1)
            if len(self.classes) != n:
                raise InvalidConfig("classes length must match positions")

    def __len__(self):
        return len(self.positions)

    def require_colors(self) -> np.ndarray:
        if self.colors is None:
            raise MissingColors("point cloud has no colors")
        return self.colors


@dataclass(frozen=True)
class GridSpec:
    """Georeference of a raster: size, world origin of pixel (0,0) center, pixel size."""

    width: int
    height: int
    origin_x: float = 0.0
    origin_y: float = 0.0
    pixel_size: float = 1.0

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise InvalidConfig("grid must be at least 1x1")
        if self.width * self.height * 24 > sys.maxsize:  # an (H, W, 3) float64 raster's bytes past numpy's intp
            raise InvalidConfig("grid is too large for an array on this machine")
        if not (math.isfinite(self.pixel_size) and self.pixel_size > 0):
            raise InvalidConfig("pixel_size must be positive and finite")
        if not (math.isfinite(self.origin_x) and math.isfinite(self.origin_y)):
            raise InvalidConfig("grid origin must be finite")

    @property
    def n_pixels(self) -> int:
        return self.width * self.height

    def pixel_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """World x coords of columns and y coords of rows."""
        xs = self.origin_x + np.arange(self.width) * self.pixel_size
        ys = self.origin_y + np.arange(self.height) * self.pixel_size
        return xs, ys

    @staticmethod
    def centered(size: int, pixel_size: float) -> "GridSpec":
        """Square grid whose world extent is centered on (0, 0)."""
        half = (size - 1) / 2.0 * pixel_size
        return GridSpec(size, size, -half, -half, pixel_size)


@dataclass
class Grid:
    """Single-channel float raster with georeference."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).reshape(
            self.spec.height, self.spec.width
        )

    @staticmethod
    def zeros(spec: GridSpec) -> "Grid":
        return Grid(spec, np.zeros((spec.height, spec.width)))


def pooled_spec(spec: GridSpec, factor: int) -> GridSpec:
    """spec's factor x factor pixel blocks as pixels, the last on each axis maybe partial;
    pixel (0, 0)'s center is the center of the first block."""
    shift = (factor - 1) / 2.0 * spec.pixel_size
    return GridSpec(-(-spec.width // factor), -(-spec.height // factor), spec.origin_x + shift,
                    spec.origin_y + shift, factor * spec.pixel_size)


def pool(grid: Grid, factor: int) -> Grid:
    """Block mean of grid on pooled_spec's grid; a partial edge block averages its in-grid pixels."""
    spec, (h, w) = pooled_spec(grid.spec, factor), grid.values.shape
    blocks = np.zeros((2, spec.height * factor, spec.width * factor))  # the values and the in-grid pixels
    blocks[:, :h, :w] = grid.values, np.ones((h, w))
    sums, counts = blocks.reshape(2, spec.height, factor, spec.width, factor).sum(axis=4).sum(axis=2)
    return Grid(spec, sums / counts)


@dataclass
class RgbGrid:
    """RGB raster with channels in [0, 1]."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).reshape(
            self.spec.height, self.spec.width, 3
        )

    @staticmethod
    def filled(spec: GridSpec, color) -> "RgbGrid":
        v = np.empty((spec.height, spec.width, 3))
        v[:] = color
        return RgbGrid(spec, v)


@dataclass(frozen=True)
class SunConfig:
    """Sun position: azimuth clockwise from +y (north), elevation above horizon."""

    azimuth_deg: float
    elevation_deg: float

    def __post_init__(self):
        if not math.isfinite(self.azimuth_deg):
            raise InvalidConfig(f"sun azimuth must be finite, got {self.azimuth_deg}")
        # above the horizon, and high enough that cot(elevation), the shadow
        # length per meter of height, is finite
        el = self.elevation_deg
        if not (0.0 < el <= 90.0 and math.tan(math.radians(el)) * sys.float_info.max > 1.0):
            raise InvalidConfig(f"sun elevation must be in (0, 90] with finite shadows, got {el}")


def world_to_pixel(spec: GridSpec, x, y):
    """Continuous pixel coordinates (u, v) of world (x, y); may fall off-grid."""
    u = (np.asarray(x, dtype=np.float64) - spec.origin_x) / spec.pixel_size
    v = (np.asarray(y, dtype=np.float64) - spec.origin_y) / spec.pixel_size
    return u, v


def pixel_to_world(spec: GridSpec, u, v):
    """World (x, y) of continuous pixel coordinates (u, v)."""
    x = spec.origin_x + np.asarray(u, dtype=np.float64) * spec.pixel_size
    y = spec.origin_y + np.asarray(v, dtype=np.float64) * spec.pixel_size
    return x, y


def sun_direction(sun: SunConfig) -> np.ndarray:
    """Unit light-travel direction; always points downward (z < 0)."""
    phi = math.radians(sun.azimuth_deg)
    theta = math.radians(sun.elevation_deg)
    return np.array(
        [
            -math.sin(phi) * math.cos(theta),
            -math.cos(phi) * math.cos(theta),
            -math.sin(theta),
        ]
    )


def check_seed(seed: int) -> int:
    """The seed as an int; PCG64 takes only non-negative seeds."""
    if seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {seed}")
    return int(seed)


def check_point_count(n: int) -> None:
    """Raise InvalidConfig unless there is at least one point and an (n, 3) float64
    array of them has a byte size numpy's intp can hold, before anything is allocated."""
    if n < 1:
        raise InvalidConfig(f"n_points must be >= 1, got {n}")
    if n * 24 > sys.maxsize:
        raise InvalidConfig(f"n_points {n} is too large for an array on this machine")


def Rng(seed: int) -> np.random.Generator:
    """The deterministic random stream: numpy's PCG64 generator, seeded.

    PCG64's output is fully specified by its seed, so identical seeds plus
    identical call sequences yield identical streams on every platform.
    Draw sites use numpy's conventions (`integers` excludes its upper end
    unless `endpoint=True`).
    """
    return np.random.Generator(np.random.PCG64(check_seed(seed)))


def other_cpus() -> set[int]:
    """The allowed CPUs other than this thread's: none in a `--jobs` worker process, on one CPU or off Linux."""
    try:
        allowed = set() if multiprocessing.parent_process() else os.sched_getaffinity(0)
        with open("/proc/thread-self/stat") as f:  # field 39: the CPU this thread runs on
            return allowed - {int(f.read().rsplit(")", 1)[1].split()[36])}
    except (OSError, AttributeError):
        return set()


def worker_pool() -> ThreadPoolExecutor | None:
    """A one-worker pool kept on `other_cpus()` (a new thread stays on its creator's CPU here), or None."""
    return ThreadPoolExecutor(1, initializer=os.sched_setaffinity, initargs=(0, others)) \
        if (others := other_cpus()) else None
