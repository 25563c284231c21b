"""Finite-difference verification of every analytic gradient path.

Central differences with step h = 1e-4 * sigma are compared per component
against the backward passes of the soft renderers, Chamfer, and the
combined loss. Components whose perturbation window straddles a kernel
truncation boundary or a nearest-neighbor tie are skipped: the objective
is non-smooth exactly there, so finite differences are meaningless (the
same exclusion a Chamfer check needs away from tie points).

`fd_gradient` hands one scorer per trial its perturbed copies, each as the
point it moves and that point's moved position, over every component some
path checks; each path reads its own column on its own mask. The scorer, a
`losses.MoveScorer` of the trial's cloud, swaps the moved point's terms in
the cloud's pixel sums on the pixels under its old and new slots, so a copy
costs its moved point's footprint, not N points or a whole raster. Its geo
breakdown is the Chamfer path's value, its value the combined path's, and a
kind's path value is its render dotted with the pixel gradient: the cloud's
dot, once per trial, plus each copy's changed pixels' differences. The
trial's analytic Chamfer, combined loss and Chamfer mask query the scorer's
ground-truth KD-tree; the mask also reads the scorer's k=2 search of the cloud.
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
from .losses import LossTargets, LossWeights, MoveScorer, cKDTree, chamfer, combined_loss
from .sensor import pixels_within, project_to_ground

REL_TOL = 1e-3
ABS_FLOOR = 1e-8
_REF_FLOOR = ABS_FLOOR / REL_TOL  # err <= max(REL*|g|, ABS)  <=>  err <= REL*max(|g|, this)
_MARGIN = 20.0  # boundary exclusion margin, in units of the FD step
# copies per scorer call: a call lists its copies' moved slots in the thread's buffers, about
# 4 KB a copy; 64 keep `perfbench`'s gradcheck peak RSS where 32 copies of whole rasters had it,
# while 128 and 256 raised it 0.4 and 2.1 MB though they pass 3.5 MB (the widest trial's traced
# peak 1.10, 1.85 and 3.31 MB) and a 2,000-point run, where Chamfer works in blocks (BENCH_50.json)
FD_CHUNK_COPIES = 64

# perfbench/tracing.py wraps the one-cloud forward renderers under these names
# here, although gradcheck patches pixel sums; ROADMAP item 6 or item 9 retires this
_TRACED_RENDERERS = (soft_silhouette, soft_dsm, soft_shadow)
_KINDS = ("sil", "dsm", "shadow")  # the raster kinds of the first three paths, in path order


def fd_gradient(f, positions: np.ndarray, h: float, mask: np.ndarray) -> np.ndarray:
    """Central finite differences over the (N, 3) components that `mask` selects.

    Each copy of positions moves one point: f maps the (B,) indices of the moved points and their
    (B, 3) moved positions to (B,) values, or to (B, K), for an (N, 3) or a (K, N, 3) result.
    Component (i, j), in np.nonzero order, gets the copy with x + h and then the copy with
    (x + h) - 2h, the values an in-place loop sees, and a column's result there reads only those two
    values; the copies reach f FD_CHUNK_COPIES at a time. A mask that selects nothing gives f one
    call of no copies, for the shape of its values.
    """
    if mask.shape != positions.shape:
        raise InvalidConfig(f"mask shape {mask.shape} does not match positions shape {positions.shape}")
    rows, cols = np.nonzero(mask)
    plus = positions[rows, cols] + h
    point = np.repeat(rows, 2)
    moved = positions[point]
    moved[np.arange(len(point)), np.repeat(cols, 2)] = np.column_stack([plus, plus - 2 * h]).ravel()
    values = np.concatenate([np.asarray(f(point[k:k + FD_CHUNK_COPIES], moved[k:k + FD_CHUNK_COPIES]),
                                        dtype=np.float64)
                             for k in range(0, max(len(point), 1), FD_CHUNK_COPIES)])
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


def chamfer_mask(cloud, gt, h, tree: cKDTree, reverse: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Exclude points whose nearest-neighbor assignment (to gt, or gt's to them) could flip within h.
    The cloud's points query `tree`, a default `cKDTree` of gt's positions; gt's read `reverse`, a
    `MoveScorer`'s: `cKDTree(cloud.positions).query(gt.positions, k=2)`."""
    mask = np.ones((len(cloud), 3), dtype=bool)
    for of_gt, ref in enumerate((gt, cloud)):
        if len(ref) >= 2:
            d, idx = reverse if of_gt else tree.query(cloud.positions, k=2)
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

        scorer = MoveScorer(cloud, targets, sun, spec, cfg, weights)
        d = d_pix.values.reshape(-1)
        dots = {kind: (scorer.renders[kind] * d).sum() for kind in _KINDS}

        def path_values(point, moved):
            """Per copy, each path's scalar: <its render of each kind, d_pix>, whose gradient the
            kind's backward returns, as the cloud's dot plus the copy's changed pixels' differences,
            then its Chamfer and its loss value."""
            values, breakdown, changed = scorer(point, moved)
            columns = []
            for kind in _KINDS:
                copy, pixel, value = changed[kind]
                delta = (value - scorer.renders[kind][pixel]) * d[pixel]
                columns.append(dots[kind] + np.bincount(copy, delta, minlength=len(point)))
            return np.column_stack([*columns, breakdown["geo"], values])

        mask_sil = silhouette_mask(cloud, spec, cfg, h)
        mask_sh = shadow_mask(cloud, sun, spec, cfg, h)
        mask_ch = chamfer_mask(cloud, gt, h, scorer.tree, scorer.reverse)
        # (path, its analytic gradient, components to check), in path_values' column order
        paths = (
            ("silhouette", soft_silhouette_backward(cloud, spec, cfg, d_pix), mask_sil),
            ("dsm", soft_dsm_backward(cloud, spec, cfg, d_pix), mask_sil),
            ("shadow", soft_shadow_backward(cloud, sun, spec, cfg, d_pix), mask_sh),
            ("chamfer", chamfer(cloud, gt, tree=scorer.tree)[1], mask_ch),
            ("combined", combined_loss(cloud, targets, sun, spec, cfg, weights, tree=scorer.tree)[1],
             mask_sil & mask_sh & mask_ch),
        )
        fds = fd_gradient(path_values, positions, h, mask_sil | mask_sh | mask_ch)
        for (name, analytic, mask), fd in zip(paths, fds, strict=True):
            scores[name] = max(scores.get(name, 0.0), max_error_score(analytic, fd, mask))

    return scores
