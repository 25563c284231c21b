"""Independent oracles: brute-force Chamfer and central finite differences."""
import numpy as np

from treerecon.protree import _orthonormal_basis


def brute_chamfer(a: np.ndarray, b: np.ndarray) -> float:
    """O(N*M) squared Chamfer distance; ties by smallest index via argmin."""
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return float(d2.min(axis=1).mean() + d2.min(axis=0).mean())


def brute_chamfer_grad(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gradient of brute_chamfer in a, ties by smallest index."""
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    ia = d2.argmin(axis=1)
    ib = d2.argmin(axis=0)
    grad = 2.0 * (a - b[ia]) / len(a)
    np.add.at(grad, ib, 2.0 * (a[ib] - b) / len(b))
    return grad


def finite_diff(f, x: np.ndarray, h: float) -> np.ndarray:
    """Central finite differences of scalar f at every component of x."""
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        xp = xf.copy()
        xp[i] += h
        hi = f(xp.reshape(x.shape))
        xp[i] -= 2 * h
        lo = f(xp.reshape(x.shape))
        flat[i] = (hi - lo) / (2 * h)
    return grad


def truncation_safe_loop(xy, spec, cutoff: float, slack: float) -> np.ndarray:
    """Per point: no pixel center within `slack` of distance `cutoff` (one point at a time)."""
    xs, ys = spec.pixel_centers()
    safe = np.ones(len(xy), dtype=bool)
    r = cutoff + slack + spec.pixel_size
    for i, (x, y) in enumerate(xy):
        cx = xs[np.abs(xs - x) <= r]
        cy = ys[np.abs(ys - y) <= r]
        if len(cx) == 0 or len(cy) == 0:
            continue
        d = np.sqrt((x - cx[:, None]) ** 2 + (y - cy[None, :]) ** 2)
        safe[i] = not np.any(np.abs(d - cutoff) < slack)
    return safe


def brute_hard_render(xy: np.ndarray, z: np.ndarray, spec, radius: float):
    """Hard disk splat by a scan of every pixel center against every point.

    Returns per pixel (H, W): covered (some point within radius, d^2 <= r^2),
    top (highest covering z, ground 0) and winner (covering point with the
    largest (z, index), -1 where uncovered).
    """
    xs, ys = spec.pixel_centers()
    covered = np.zeros((spec.height, spec.width), dtype=bool)
    top = np.zeros((spec.height, spec.width))
    winner = np.full((spec.height, spec.width), -1)
    for row in range(spec.height):
        for col in range(spec.width):
            d2 = (xy[:, 0] - xs[col]) ** 2 + (xy[:, 1] - ys[row]) ** 2
            hits = [int(i) for i in np.flatnonzero(d2 <= radius**2)]
            if hits:
                covered[row, col] = True
                top[row, col] = max(0.0, max(z[i] for i in hits))
                winner[row, col] = max(hits, key=lambda i: (z[i], i))
    return covered, top, winner


def trunk_points_loop(skeleton, n_trunk: int, rng) -> np.ndarray:
    """Trunk surface points with the (u, v) frame built per point, one point at a time.

    Draws from rng in sample_cloud's order: segment, position along it, angle.
    """
    axes = skeleton.ends - skeleton.starts
    lengths = np.linalg.norm(axes, axis=1)
    area = skeleton.radii * lengths
    seg = rng.choice(len(skeleton), size=n_trunk, p=area / area.sum())
    t = rng.random(n_trunk)[:, None]
    ang = rng.uniform(0.0, 2.0 * np.pi, n_trunk)
    pts = skeleton.starts[seg] + t * axes[seg]
    for i in range(n_trunk):
        u, v = _orthonormal_basis(axes[seg[i]] / lengths[seg[i]])
        pts[i] += skeleton.radii[seg[i]] * (np.cos(ang[i]) * u + np.sin(ang[i]) * v)
    return pts
