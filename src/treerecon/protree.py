"""Procedural tree generator: parameter sampling, skeleton growth, point sampling.

Trees are grown as a recursive branching skeleton (no species grammar): the
trunk rises from the origin, and each segment below the maximum depth spawns
a few children rotated away from its axis. Ground-truth clouds are sampled
on trunk lateral surfaces and inside foliage spheres at branch tips.

Every draw comes from one numpy Generator (`core.Rng(seed)`) in a fixed
order, so a seed fixes the scene. Integer ranges are inclusive at both ends.
`generate_scene` returns the `io_formats.Scene` that `load_scene` returns too,
with a manifest holding the seed, the grid spec and the sun.
"""
from __future__ import annotations

import math
import typing
from dataclasses import dataclass

import numpy as np

from .core import (
    CLASS_FOLIAGE,
    CLASS_TRUNK,
    GridSpec,
    PointCloud,
    Rng,
    SunConfig,
    check_point_count,
)
from .errors import InvalidConfig
from .io_formats import Manifest, Scene
from .sensor import H_MIN, render_dsm, render_ortho, render_shadow_hard, render_silhouette

TRUNK_COLOR = (0.35, 0.23, 0.12)
FOLIAGE_COLOR = (0.15, 0.45, 0.15)
COLOR_JITTER = 0.08
SPLAT_RADIUS = 0.5  # meters; the disk each GT point covers in the sensor rasters
PER_BRANCH = ("children_per_branch", "branch_angle_deg")  # TreeParams ranges drawn per branch


@dataclass(frozen=True)
class TreeParams:
    """One tree's generation parameters.

    Scalar fields are concrete draws; children_per_branch (inclusive) and
    branch_angle_deg stay as ranges and are re-drawn per branch during growth.
    """

    trunk_height: float
    trunk_radius: float
    branch_depth: int
    children_per_branch: tuple[int, int]
    length_decay: float
    radius_decay: float
    branch_angle_deg: tuple[float, float]
    crown_radius: float
    foliage_fraction: float
    n_points: int

    def __post_init__(self):
        if not (0.0 < self.trunk_height < math.inf and 0.0 < self.trunk_radius < math.inf):
            raise InvalidConfig("trunk_height and trunk_radius must be positive and finite")
        if not (0.0 <= self.crown_radius < math.inf):
            raise InvalidConfig("crown_radius must be nonnegative and finite")
        if not (0.0 < self.length_decay < 1.0 and 0.0 < self.radius_decay < 1.0):
            raise InvalidConfig("decay ratios must be strictly in (0, 1)")
        if self.branch_depth < 0:
            raise InvalidConfig("branch_depth must be >= 0")
        check_point_count(self.n_points)
        if not (0.0 <= self.foliage_fraction <= 1.0):
            raise InvalidConfig("foliage_fraction must be in [0, 1]")
        for name in PER_BRANCH:
            lo, hi = getattr(self, name)
            if not (-math.inf < lo <= hi < math.inf):
                raise InvalidConfig(f"{name} range must be finite and non-empty")
        if not (self.children_per_branch[0] >= 0):
            raise InvalidConfig("children_per_branch must be >= 0")


_INT_FIELDS = {name for name, hint in typing.get_type_hints(TreeParams).items() if hint is int}


@dataclass(frozen=True)
class TreeParamRanges:
    """Species-agnostic uniform ranges for sample_params; integer ranges are inclusive."""

    trunk_height: tuple[float, float] = (3.0, 6.0)
    trunk_radius: tuple[float, float] = (0.15, 0.4)
    branch_depth: tuple[int, int] = (2, 3)
    children_per_branch: tuple[int, int] = (2, 4)
    length_decay: tuple[float, float] = (0.55, 0.75)
    radius_decay: tuple[float, float] = (0.55, 0.75)
    branch_angle_deg: tuple[float, float] = (25.0, 55.0)
    crown_radius: tuple[float, float] = (1.5, 3.5)
    foliage_fraction: tuple[float, float] = (0.75, 0.92)
    n_points: tuple[int, int] = (2000, 2000)

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            lo, hi = getattr(self, name)
            if not (-math.inf < lo <= hi < math.inf):
                raise InvalidConfig(f"range for {name} must be finite and non-empty")
        # every TreeParams rule is an interval, so a draw between two valid corners is valid
        for end in (0, 1):
            TreeParams(**{k: r if k in PER_BRANCH else r[end] for k, r in vars(self).items()})


@dataclass
class Skeleton:
    """Branching skeleton: (start, end, radius, depth) per segment."""

    starts: np.ndarray  # (S, 3)
    ends: np.ndarray  # (S, 3)
    radii: np.ndarray  # (S,)
    depths: np.ndarray  # (S,) int

    def __len__(self):
        return len(self.radii)


def sample_params(rng: np.random.Generator, ranges: TreeParamRanges) -> TreeParams:
    """Draw one TreeParams uniformly from the configured ranges, field by field in
    declaration order; PER_BRANCH ranges pass through unchanged."""
    return TreeParams(**{
        name: r if name in PER_BRANCH
        else int(rng.integers(*r, endpoint=True)) if name in _INT_FIELDS
        else float(rng.uniform(*r))
        for name, r in vars(ranges).items()
    })


def _orthonormal_basis(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors perpendicular to unit vector d: cross products written out
    on floats in np.cross's order of operations, zero components included."""
    a0, a1, a2 = d.tolist()
    b0, b1, b2 = (1.0, 0.0, 0.0) if abs(a0) < 0.9 else (0.0, 1.0, 0.0)
    u = np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    u /= np.linalg.norm(u)
    b0, b1, b2 = u.tolist()
    return u, np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def grow_skeleton(params: TreeParams, rng: np.random.Generator) -> Skeleton:
    """Grow the branching skeleton breadth-first from the trunk."""
    starts = [np.zeros(3)]
    ends = [np.array([0.0, 0.0, params.trunk_height])]
    radii = [params.trunk_radius]
    depths = [0]

    frontier = [0]  # indices of segments that may still branch
    while frontier:
        nxt = []
        for idx in frontier:
            depth = depths[idx]
            if depth >= params.branch_depth:
                continue
            seg_vec = ends[idx] - starts[idx]
            seg_len = np.linalg.norm(seg_vec)
            direction = seg_vec / seg_len
            u, v = _orthonormal_basis(direction)
            k = int(rng.integers(*params.children_per_branch, endpoint=True))
            for _ in range(k):
                psi = np.radians(float(rng.uniform(*params.branch_angle_deg)))
                lam = float(rng.uniform(0.0, 2.0 * np.pi))
                child_dir = np.cos(psi) * direction + np.sin(psi) * (
                    np.cos(lam) * u + np.sin(lam) * v
                )
                child_len = seg_len * params.length_decay
                starts.append(ends[idx].copy())
                ends.append(ends[idx] + child_dir * child_len)
                radii.append(radii[idx] * params.radius_decay)
                depths.append(depth + 1)
                nxt.append(len(radii) - 1)
        frontier = nxt

    return Skeleton(
        starts=np.array(starts),
        ends=np.array(ends),
        radii=np.array(radii),
        depths=np.array(depths, dtype=np.int64),
    )


def _jittered_colors(base, n: int, rng: np.random.Generator) -> np.ndarray:
    c = np.tile(np.asarray(base), (n, 1))
    c += rng.uniform(-COLOR_JITTER, COLOR_JITTER, (n, 3))
    return np.clip(c, 0.0, 1.0)


def sample_cloud(skeleton: Skeleton, params: TreeParams, rng: np.random.Generator) -> PointCloud:
    """Sample exactly n_points labeled, colored points from the skeleton.

    Trunk points sit on segment lateral surfaces (chosen by surface area);
    foliage points fill spheres of crown_radius at terminal segment tips.
    Below-ground samples are clamped to z = 0 to keep the point budget exact.
    Either part may be empty: a size-0 draw consumes nothing from rng.
    """
    n = params.n_points
    n_trunk = int(np.floor(n * (1.0 - params.foliage_fraction) + 0.5))
    n_foliage = n - n_trunk

    axes = skeleton.ends - skeleton.starts
    lengths = np.linalg.norm(axes, axis=1)
    area = skeleton.radii * lengths
    seg = rng.choice(len(skeleton), size=n_trunk, p=area / area.sum())
    t = rng.random(n_trunk)[:, None]
    ang = rng.uniform(0.0, 2.0 * np.pi, n_trunk)
    # one (u, v) frame per segment, shared by all of its points
    u, v = map(np.array, zip(*(_orthonormal_basis(a / n) for a, n in zip(axes, lengths))))
    ring = np.cos(ang)[:, None] * u[seg] + np.sin(ang)[:, None] * v[seg]
    trunk = skeleton.starts[seg] + t * axes[seg] + skeleton.radii[seg][:, None] * ring
    trunk_colors = _jittered_colors(TRUNK_COLOR, n_trunk, rng)

    terminal = np.flatnonzero(skeleton.depths == skeleton.depths.max())
    pick = rng.integers(len(terminal), size=n_foliage)
    # uniform in a ball: direction from a normal draw, radius via cube root
    direction = rng.normal(size=(n_foliage, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = params.crown_radius * rng.random(n_foliage) ** (1.0 / 3.0)
    foliage = skeleton.ends[terminal][pick] + direction * radius[:, None]
    foliage_colors = _jittered_colors(FOLIAGE_COLOR, n_foliage, rng)

    positions = np.concatenate([trunk, foliage])
    positions[:, 2] = np.maximum(positions[:, 2], 0.0)
    classes = np.repeat(np.array([CLASS_TRUNK, CLASS_FOLIAGE], dtype=np.uint8), [n_trunk, n_foliage])
    return PointCloud(positions, np.concatenate([trunk_colors, foliage_colors]), classes)


@dataclass(frozen=True)
class SceneConfig:
    """Everything generate_scene needs besides the seed."""

    ranges: TreeParamRanges = TreeParamRanges()
    spec: GridSpec = GridSpec.centered(128, 0.25)
    sun: SunConfig = SunConfig(azimuth_deg=135.0, elevation_deg=70.0)


def generate_scene(seed: int, cfg: SceneConfig = SceneConfig()) -> Scene:
    """Deterministically synthesize one scene from a seed."""
    rng = Rng(seed)
    params = sample_params(rng, cfg.ranges)
    skeleton = grow_skeleton(params, rng)
    cloud = sample_cloud(skeleton, params, rng)
    dsm = render_dsm(cloud, cfg.spec, SPLAT_RADIUS)
    ortho = render_ortho(cloud, cfg.spec, SPLAT_RADIUS)
    silhouette = render_silhouette(dsm, H_MIN)
    shadow = render_shadow_hard(cloud, cfg.sun, cfg.spec, SPLAT_RADIUS)
    return Scene(
        manifest=Manifest(seed=int(seed), grid=cfg.spec, sun=cfg.sun),
        ortho=ortho,
        dsm=dsm,
        silhouette=silhouette,
        shadow=shadow,
        cloud=cloud,
    )
