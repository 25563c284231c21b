"""Finite-difference verification of every analytic gradient path.

Central differences with step h = 1e-4 * sigma are compared per component
against the backward passes of the soft renderers, Chamfer, and the
combined loss. Components whose perturbation window straddles a kernel
truncation boundary or a nearest-neighbor tie are skipped: the objective
is non-smooth exactly there, so finite differences are meaningless (the
same exclusion a Chamfer check needs away from tie points).

`fd_gradient` hands one scorer per trial (B, N, 3) stacks of perturbed
copies of the cloud, FD_CHUNK_POINTS points at a time, over every component
some path checks; each path reads its own column on its own mask. The scorer
scores the stack value-only with `losses.combined_loss_stack`, which renders
it once per raster kind on the thread's buffers, the silhouette and the soft
DSM on one slot list of its (x, y) and the shadow on its own, and returns
those renders with its scores. Its geo breakdown is the Chamfer path's value
and its value the combined path's; each kind's render, dotted with the pixel
gradient in one reduction over the stack, is that kind's path value, so each
stack is rendered once per kind. Each copy's values have the bytes of its own
one-cloud render, `chamfer` and `combined_loss`.
"""
from __future__ import annotations

import numpy as np

from .core import Grid, GridSpec, PointCloud, Rng, SunConfig, check_point_count
from .diffrender import (
    SoftConfig,
    soft_dsm,
    soft_dsm_backward,
    soft_shadow,
    soft_shadow_backward,
    soft_silhouette,
    soft_silhouette_backward,
)
from .errors import InvalidConfig
from .losses import LossTargets, LossWeights, cKDTree, chamfer, combined_loss, combined_loss_stack
from .sensor import pixels_within, project_to_ground

REL_TOL = 1e-3
ABS_FLOOR = 1e-8
_REF_FLOOR = ABS_FLOOR / REL_TOL  # err <= max(REL*|g|, ABS)  <=>  err <= REL*max(|g|, this)
_MARGIN = 20.0  # boundary exclusion margin, in units of the FD step
# points per stack of perturbed copies that fd_gradient hands f (at least one
# copy): each scorer call pays about 0.9 ms whatever its size (two footprint
# builds, three renders, a KD-tree build, the Chamfer table), which larger
# stacks spread, but the stack's (B, H, W) renders and per-point windows grow
# with its copies: 512 points took 18 % off a gradcheck operation for 2 % more
# peak memory, 1024 29 % for 5.5 %
FD_CHUNK_POINTS = 512

# perfbench/tracing.py wraps the one-cloud forward renderers under these names
# here, although gradcheck renders stacks; ROADMAP item 3a or item 10 retires this
_TRACED_RENDERERS = (soft_silhouette, soft_dsm, soft_shadow)


def fd_gradient(f, positions: np.ndarray, h: float, mask: np.ndarray) -> np.ndarray:
    """Central finite differences over the (N, 3) components that `mask` selects.

    f maps a (B, N, 3) stack of perturbed copies of positions to (B,) values, or to (B, K),
    for an (N, 3) or a (K, N, 3) result. Component (i, j), in np.nonzero order, gets the
    copy with x + h and then the copy with (x + h) - 2h, the values an in-place loop sees,
    and a column's result there reads only those two values; the copies reach f in chunks
    of at most FD_CHUNK_POINTS points (at least one copy each), so memory stays bounded in N.
    A mask that selects nothing gives f one stack of no copies, for the shape of its values.
    """
    if mask.shape != positions.shape:
        raise InvalidConfig(f"mask shape {mask.shape} does not match positions shape {positions.shape}")
    rows, cols = np.nonzero(mask)
    plus = positions[rows, cols] + h
    moved = np.column_stack([plus, plus - 2 * h]).ravel()  # per component: +h, then -2h from there
    per_chunk = max(1, FD_CHUNK_POINTS // max(1, len(positions)))
    chunks = []
    for start in range(0, max(len(moved), 1), per_chunk):
        k = np.arange(start, min(start + per_chunk, len(moved)))
        stack = np.repeat(positions[None], len(k), axis=0)
        stack[np.arange(len(k)), rows[k // 2], cols[k // 2]] = moved[k]
        chunks.append(np.asarray(f(stack), dtype=np.float64))
    values = np.concatenate(chunks)
    grad = np.zeros(values.shape[1:] + positions.shape)
    grad[..., rows, cols] = ((values[0::2] - values[1::2]) / (2 * h)).T
    return grad


def max_error_score(analytic, fd, mask) -> float:
    """Max over components of |analytic - fd| / max(|fd|, floor); pass <= REL_TOL."""
    err = np.abs(analytic - fd)
    ref = np.maximum(np.abs(fd), _REF_FLOOR)
    score = np.where(mask, err / ref, 0.0)
    return float(score.max()) if score.size else 0.0


def _truncation_safe(xy: np.ndarray, spec: GridSpec, cfg: SoftConfig, *slacks: float) -> list[np.ndarray]:
    """Per slack, True per point when no in-grid pixel center sits within that slack of the cutoff.

    Only pairs within cutoff + slack can. One `pixels_within` call at the largest
    slack lists them, and each slack keeps the pairs its own call's d^2 test would.
    """
    cutoff = cfg.trunc * cfg.sigma
    point, _, c, r, dx, dy = pixels_within(xy, spec, cutoff + max(slacks))
    d2 = dx.ravel()[c] ** 2 + dy.ravel()[r] ** 2
    d = np.sqrt(d2)
    return [np.bincount(point[(d2 <= (cutoff + slack) ** 2) & (np.abs(d - cutoff) < slack)],
                        minlength=len(xy)) == 0 for slack in slacks]


def silhouette_mask(cloud, spec, cfg, h) -> np.ndarray:
    """Components safe to finite-difference for silhouette/DSM renders.

    z never crosses the (xy) truncation boundary, so only x and y are
    ever excluded.
    """
    safe, = _truncation_safe(cloud.positions[:, :2], spec, cfg, _MARGIN * h)
    return np.stack([safe, safe, np.ones(len(cloud), dtype=bool)], axis=1)


def shadow_mask(cloud, sun, spec, cfg, h) -> np.ndarray:
    """Safe components for the shadow render; z moves the projection too."""
    xy, jac = project_to_ground(cloud, sun)
    k = np.hypot(jac[0, 2], jac[1, 2])  # projected displacement per meter of z
    safe_xy, safe_z = _truncation_safe(xy, spec, cfg, _MARGIN * h, _MARGIN * h * max(1.0, k))
    return np.stack([safe_xy, safe_xy, safe_z], axis=1)


def chamfer_mask(cloud, gt, h) -> np.ndarray:
    """Exclude points whose nearest-neighbor assignment (to gt, or gt's to them) could flip within h."""
    pa, pb = cloud.positions, gt.positions
    mask = np.ones((len(pa), 3), dtype=bool)
    for of_gt, (query, ref) in enumerate(((pa, pb), (pb, pa))):
        if len(ref) >= 2:
            d, idx = cKDTree(ref).query(query, k=2)
            tied = d[:, 1] ** 2 - d[:, 0] ** 2 < _MARGIN * h * (d[:, 0] + d[:, 1] + 1.0)
            mask[idx[tied].ravel() if of_gt else tied] = False
    return mask


def _random_positions(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 3) positions: x and y uniform in [-4, 4], z in [0, 4], drawn in that order."""
    return np.stack(
        [rng.uniform(-4.0, 4.0, n), rng.uniform(-4.0, 4.0, n), rng.uniform(0.0, 4.0, n)],
        axis=1,
    )


def _random_pixel_grad(spec: GridSpec, rng: np.random.Generator) -> Grid:
    return Grid(spec, rng.normal(size=(spec.height, spec.width)) / spec.n_pixels)


def run_gradcheck(seed: int = 0, trials: int = 100, n_points: int | None = None) -> dict[str, float]:
    """Each path's worst `max_error_score` (a pass is <= REL_TOL) over `trials` random
    configurations (sigma, sun, points and targets; ALPHA and BETA are constants) of
    `n_points` points each (20 to 50 drawn per trial when None)."""
    if trials < 1:
        raise InvalidConfig(f"trials must be >= 1, got {trials}")
    if n_points is not None:
        check_point_count(n_points)
    rng = Rng(seed)
    scores: dict[str, float] = {}
    spec = GridSpec.centered(20, 0.5)

    for _ in range(trials):
        n = int(rng.integers(20, 50, endpoint=True)) if n_points is None else int(n_points)
        positions = _random_positions(rng, n)
        cfg = SoftConfig(sigma=float(rng.uniform(0.7, 1.5)) * spec.pixel_size)
        sun = SunConfig(
            azimuth_deg=float(rng.uniform(0.0, 360.0)),
            elevation_deg=float(rng.uniform(20.0, 90.0)),
        )
        h = 1e-4 * cfg.sigma
        d_pix = _random_pixel_grad(spec, rng)
        gt = PointCloud(positions=_random_positions(rng, n))
        targets = LossTargets(
            silhouette=Grid(spec, (rng.random((spec.height, spec.width)) > 0.7).astype(float)),
            shadow=Grid(spec, (rng.random((spec.height, spec.width)) > 0.7).astype(float)),
            dsm=Grid(spec, rng.uniform(0.0, 4.0, (spec.height, spec.width))),
            gt_cloud=gt,
        )
        weights = LossWeights(1.0, 1.0, 0.5, 1.0)  # every term on, the DSM's too
        cloud = PointCloud(positions=positions)

        def path_values(ps):
            """Stack -> per copy, each path's scalar: <its render of each kind, d_pix>, whose
            gradient the kind's backward returns, then its Chamfer and its loss value."""
            values, breakdown, renders = combined_loss_stack(ps, targets, sun, spec, cfg, weights)
            dots = [(renders[kind] * d_pix.values).reshape(-1, spec.n_pixels).sum(axis=1)
                    for kind in ("sil", "dsm", "shadow")]
            return np.column_stack([*dots, breakdown["geo"], values])

        mask_sil = silhouette_mask(cloud, spec, cfg, h)
        mask_sh = shadow_mask(cloud, sun, spec, cfg, h)
        mask_ch = chamfer_mask(cloud, gt, h)
        # (path, its analytic gradient, components to check), in path_values' column order
        paths = (
            ("silhouette", soft_silhouette_backward(cloud, spec, cfg, d_pix), mask_sil),
            ("dsm", soft_dsm_backward(cloud, spec, cfg, d_pix), mask_sil),
            ("shadow", soft_shadow_backward(cloud, sun, spec, cfg, d_pix), mask_sh),
            ("chamfer", chamfer(cloud, gt)[1], mask_ch),
            ("combined", combined_loss(cloud, targets, sun, spec, cfg, weights)[1], mask_sil & mask_sh & mask_ch),
        )
        fds = fd_gradient(path_values, positions, h, mask_sil | mask_sh | mask_ch)
        for (name, analytic, mask), fd in zip(paths, fds, strict=True):
            scores[name] = max(scores.get(name, 0.0), max_error_score(analytic, fd, mask))

    return scores
