"""Independent oracles: brute force, finite differences, loops, the per-row PLY
codec, the soft-render hot path as it was before its in-place rewrite, the
combined loss with each pass on a slot list of its own, and the
orthophoto, tree frame and F-score as they were before the dataset path was
made faster, finite differences as they were before they came in stacks, and
the tree-parameter draws as they were before they walked the range fields."""
import math
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from treerecon.core import Grid, GridSpec, PointCloud, RgbGrid
from treerecon.diffrender import ALPHA, BETA, EPS_GROUND, SoftConfig, project_to_ground
from treerecon.errors import MalformedPly
from treerecon.io_formats import _color_to_uchar
from treerecon.losses import H_NORM, TERMS, chamfer, raster_l2
from treerecon.protree import TreeParams, _orthonormal_basis
from treerecon.sensor import GROUND_COLOR, pixels_within as sensor_pixels_within


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


def fd_gradient_loop(f, positions: np.ndarray, h: float, mask: np.ndarray) -> np.ndarray:
    """`gradcheck.fd_gradient` as a loop over components that perturbs one array
    in place and calls f with one (N, 3) cloud at a time."""
    grad = np.zeros_like(positions)
    for i in range(positions.shape[0]):
        for j in range(3):
            if not mask[i, j]:
                continue
            p = positions.copy()
            p[i, j] += h
            hi = f(p)
            p[i, j] -= 2 * h
            lo = f(p)
            grad[i, j] = (hi - lo) / (2 * h)
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


def chamfer_tie_loop(a: np.ndarray, b: np.ndarray, width: float) -> np.ndarray:
    """Per point of a, whether no nearest-neighbor assignment it is in is near a tie (all pairs).

    A query's two nearest reference points (d0 <= d1) are near a tie when
    d1^2 - d0^2 < width * (d0 + d1 + 1). An a point is unsafe when its own two
    nearest b points are, or when it is one of the two nearest a points of a b
    point whose are.
    """
    safe = np.ones(len(a), dtype=bool)
    for query, ref, own in ((a, b, True), (b, a, False)):
        if len(ref) < 2:
            continue
        for i, q in enumerate(query):
            d = np.sqrt(((ref - q) ** 2).sum(axis=1))
            j0, j1 = np.argsort(d, kind="stable")[:2]
            if d[j1] ** 2 - d[j0] ** 2 < width * (d[j0] + d[j1] + 1.0):
                safe[[i] if own else [j0, j1]] = False
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


def surface_points_loop(dsm: Grid, silhouette: Grid, n: int, rng) -> np.ndarray:
    """Footprint points one at a time, in the sampler's draw order (pixel, x jitter, y jitter):
    each point at its silhouette pixel's center plus the jitter, at that pixel's DSM height."""
    spec = silhouette.spec
    mass = silhouette.values.reshape(-1)
    flat = rng.choice(spec.n_pixels, size=n, p=mass / mass.sum())
    jx, jy = rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, n)
    pts = np.empty((n, 3))
    for i in range(n):
        row, col = divmod(int(flat[i]), spec.width)
        ps = spec.pixel_size
        pts[i] = (spec.origin_x + col * ps + jx[i] * ps, spec.origin_y + row * ps + jy[i] * ps,
                  dsm.values[row, col])
    return pts


def write_ply_rows(cloud: PointCloud, path) -> None:
    """write_ply formatting one f-string per vertex row."""
    n = len(cloud)
    colors = cloud.colors if cloud.colors is not None else np.ones((n, 3))
    rgb = _color_to_uchar(colors)
    pos = cloud.positions.astype(np.float32)
    has_class = cloud.classes is not None
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {n}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
    ]
    if has_class:
        lines.append("property uchar class")
    lines.append("end_header")
    for i in range(n):
        row = f"{pos[i, 0]:.9g} {pos[i, 1]:.9g} {pos[i, 2]:.9g} {rgb[i, 0]} {rgb[i, 1]} {rgb[i, 2]}"
        if has_class:
            row += f" {cloud.classes[i]}"
        lines.append(row)
    Path(path).write_text("\n".join(lines) + "\n")


def read_ply_rows(path) -> PointCloud:
    """read_ply parsing and checking one vertex row at a time."""
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise MalformedPly(f"cannot read {path}: {e}") from e
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise MalformedPly("not UTF-8 text", line=data.count(b"\n", 0, e.start) + 1) from None
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise MalformedPly("missing 'ply' magic", line=1)

    n = None
    props: list[str] = []
    body_start = None
    for ln, raw in enumerate(lines[1:], start=2):
        tok = raw.split()
        if not tok or tok[0] == "comment":
            continue
        if tok[0] == "format":
            if tok[1:] != ["ascii", "1.0"]:
                raise MalformedPly("only 'format ascii 1.0' supported", line=ln)
        elif tok[0] == "element":
            if len(tok) != 3 or tok[1] != "vertex":
                raise MalformedPly("only a single vertex element supported", line=ln)
            try:
                n = int(tok[2])
            except ValueError:
                raise MalformedPly("bad vertex count", line=ln) from None
            if n < 0:
                raise MalformedPly("negative vertex count", line=ln)
        elif tok[0] == "property":
            if len(tok) != 3:
                raise MalformedPly("bad property line", line=ln)
            props.append(tok[2])
        elif tok[0] == "end_header":
            body_start = ln
            break
        else:
            raise MalformedPly(f"unexpected header token {tok[0]!r}", line=ln)
    if n is None or body_start is None:
        raise MalformedPly("header missing element vertex or end_header")
    expected = ["x", "y", "z", "red", "green", "blue"]
    has_class = props == expected + ["class"]
    if not has_class and props != expected:
        raise MalformedPly(f"unsupported property layout {props}")

    n_fields = 7 if has_class else 6
    body = lines[body_start : body_start + n]
    if len(body) < n:
        raise MalformedPly(f"expected {n} vertex rows, found {len(body)}")
    positions = np.zeros((n, 3))
    colors = np.zeros((n, 3))
    classes = np.zeros(n, dtype=np.uint8) if has_class else None
    with np.errstate(over="ignore"):  # out-of-range float32 parses to inf, rejected below
        for i, raw in enumerate(body):
            ln = body_start + 1 + i
            tok = raw.split()
            if len(tok) != n_fields:
                raise MalformedPly(f"expected {n_fields} fields", line=ln)
            try:
                positions[i] = [float(np.float32(t)) for t in tok[:3]]
                uchars = [int(t) for t in tok[3:]]
            except ValueError:
                raise MalformedPly("non-numeric vertex field", line=ln) from None
            if any(c < 0 or c > 255 for c in uchars):
                raise MalformedPly("color or class out of uchar range", line=ln)
            colors[i] = np.array(uchars[:3]) / 255.0
            if has_class:
                classes[i] = uchars[3]
    bad = np.flatnonzero(~np.isfinite(positions).all(axis=1))
    if len(bad):
        raise MalformedPly("non-finite coordinate", line=body_start + 1 + int(bad[0]))
    return PointCloud(positions=positions, colors=colors, classes=classes)


# ---------------------------------------------------------------------------
# the footprint enumerator, the slot list and the two soft-render cores as
# they were before each pair-sized step was made in integers or in place:
# every array they return is the reference the rewrite must equal byte for byte


def _window(coord: np.ndarray, origin: float, size: int, ps: float, radius: float):
    """Per point, a run of pixel centers along one axis that lies on the grid
    and covers every center within `radius` of the point.

    The run is centered on the point's rounded pixel, which lies at most half
    a pixel from the point, so 2*ceil(radius/ps) + 1 centers cover the disk.
    Returns the pixel indices (N, k) and the offsets point minus center (N, k).
    """
    reach = radius / ps
    width = min(2 * math.ceil(reach) + 1, size) if math.isfinite(reach) else size
    first = np.clip(np.round((coord - origin) / ps) - (width - 1) // 2, 0, size - width)
    idx = first[:, None] + np.arange(width)
    return idx, coord[:, None] - (origin + idx * ps)


def pixels_within(xy: np.ndarray, spec: GridSpec, radius: float):
    """Every (point, pixel) pair whose pixel center lies within `radius` of the point.

    One disk test d^2 <= radius^2 over each point's (ky, kx) window picks the
    pairs, ordered by point, then pixel row, then pixel column. Returns
    (point, flat pixel, c, r, dx, dy): dx (N, kx) and dy (N, ky) are the
    offsets point minus pixel center along x and y over each point's window,
    and c and r index each pair's column in dx.ravel() and row in dy.ravel().
    """
    if not radius > 0:
        raise ValueError("splat_radius must be positive")
    with np.errstate(over="ignore"):  # a point far off the grid covers nothing
        cols, dx = _window(xy[:, 0], spec.origin_x, spec.width, spec.pixel_size, radius)
        rows, dy = _window(xy[:, 1], spec.origin_y, spec.height, spec.pixel_size, radius)
        hit = np.flatnonzero(dx[:, None, :] ** 2 + dy[:, :, None] ** 2 <= radius**2)
    kx, ky = dx.shape[1], dy.shape[1]
    point = hit // (ky * kx)
    r, c = hit // kx, point * kx + hit % kx
    flat = (rows.ravel()[r] * spec.width + cols.ravel()[c]).astype(np.int64)
    return point, flat, c, r, dx, dy


class _Slots:
    """Compacted footprint slots of one point set: (point, flat pixel, dx, dy, g).

    Holds only slots on the grid and within trunc*sigma, ordered by point,
    then pixel row, then pixel column. The Gaussian is separable: exp runs
    once per (point, column) and once per (point, row), and g is the product.
    """

    def __init__(self, xy: np.ndarray, spec: GridSpec, cfg: SoftConfig):
        self.n, self.n_pixels, self.sigma = len(xy), spec.n_pixels, cfg.sigma
        self.point, self.flat, c, r, dx, dy = pixels_within(xy, spec, cfg.trunc * cfg.sigma)
        self.dx, self.dy = dx.ravel()[c], dy.ravel()[r]  # point minus pixel center
        k = -0.5 / cfg.sigma**2
        with np.errstate(over="ignore"):  # a point far off the grid has no slot
            self.g = np.exp(k * dx**2).ravel()[c] * np.exp(k * dy**2).ravel()[r]

    def to_pixels(self, values: np.ndarray) -> np.ndarray:
        """Sum per-slot values into a flat pixel array."""
        return np.bincount(self.flat, weights=values, minlength=self.n_pixels)

    def to_points(self, values: np.ndarray) -> np.ndarray:
        """Sum per-slot values per point."""
        return np.bincount(self.point, weights=values, minlength=self.n)

    def xy_grad(self, dL_dlog_g: np.ndarray) -> np.ndarray:
        """(N, 2) gradient from per-slot g * dL/dg; d(log g)/dxy = -(xy - c) / sigma^2."""
        scale = dL_dlog_g / self.sigma**2
        return -np.stack([self.to_points(scale * self.dx), self.to_points(scale * self.dy)], axis=1)


def _soft_or(xy: np.ndarray, spec: GridSpec, cfg: SoftConfig):
    """Soft-or occupancy of (N, 2) points; the VJP returns (N, 2) gradients."""
    s = _Slots(xy, spec, cfg)
    log_t = np.log(1.0 - ALPHA * s.g)
    log_prod = s.to_pixels(log_t)

    def vjp(d_flat: np.ndarray) -> np.ndarray:
        # dO/dg_i = ALPHA * prod_{j != i} (1 - ALPHA g_j): the full product with
        # factor i divided back out, which ALPHA < 1 keeps above zero
        loo = np.exp(log_prod[s.flat] - log_t)
        return s.xy_grad(d_flat[s.flat] * ALPHA * loo * s.g)

    return 1.0 - np.exp(log_prod), vjp


def _soft_max_height(positions: np.ndarray, spec: GridSpec, cfg: SoftConfig):
    """Soft-max height of (N, 3) points; the VJP returns (N, 3) gradients."""
    s = _Slots(positions[:, :2], spec, cfg)
    z = positions[s.point, 2]
    w = s.g * np.exp(BETA * positions[:, 2])[s.point]
    denom = s.to_pixels(w) + EPS_GROUND
    h = s.to_pixels(w * z) / denom

    def vjp(d_flat: np.ndarray) -> np.ndarray:
        d = d_flat[s.flat]
        inv_denom = (1.0 / denom)[s.flat]
        # quotient rule: dH/dw = (z - H) / denom; w varies with x, y (through g)
        # and z (through exp), and z also enters the numerator directly
        dH_dw = (z - h[s.flat]) * inv_denom
        gz = s.to_points(d * (w * inv_denom + dH_dw * BETA * w))
        return np.column_stack([s.xy_grad(d * dH_dw * w), gz])

    return h, vjp


def combined_loss(cloud, targets, sun, spec, cfg, weights):
    """The combined loss with three independent render passes, each on its own
    slot list from the cores above, run and summed in TERMS order."""

    def scored(render_pass, target, scale=1.0):
        pred, vjp = render_pass
        value, d_pixels = raster_l2(Grid(spec, pred), target)
        return value * scale, vjp(d_pixels.values.reshape(-1) * scale)

    grad = np.zeros((len(cloud), 3))
    breakdown = {}
    total = 0.0
    for term in TERMS:
        lam = weights.of(term)
        if lam <= 0:
            continue
        if term == "geo":
            value, g = chamfer(cloud, targets.gt_cloud)
        elif term == "sil":
            value, gxy = scored(_soft_or(cloud.positions[:, :2], spec, cfg), targets.silhouette)
            g = np.column_stack([gxy, np.zeros(len(cloud))])
        elif term == "shadow":
            xy, jac = project_to_ground(cloud, sun)
            value, gxy = scored(_soft_or(xy, spec, cfg), targets.shadow)
            g = gxy @ jac
        else:
            value, g = scored(_soft_max_height(cloud.positions, spec, cfg), targets.dsm, 1.0 / H_NORM**2)
        breakdown[term] = value
        total += lam * value
        grad += lam * g
    return total, grad, breakdown


# ---------------------------------------------------------------------------
# the dataset path as it was before its rewrite: the orthophoto winner by a
# three-key lexsort, the tree frame by np.cross and the F-score by unbounded
# KD-tree queries; the rewrite must equal each one byte for byte


def render_ortho_lexsort(cloud: PointCloud, spec: GridSpec, splat_radius: float) -> RgbGrid:
    """Color of the highest covering point per pixel; ground color elsewhere."""
    colors = cloud.require_colors()
    out = RgbGrid.filled(spec, GROUND_COLOR)
    pt_idx, flat = sensor_pixels_within(cloud.positions[:, :2], spec, splat_radius)[:2]
    # winner per pixel = lexicographically largest (z, point index), the last
    # of its pixel's run; pixel indices are >= 0, so the appended -1 ends the last run
    order = np.lexsort((pt_idx, cloud.positions[pt_idx, 2], flat))
    flat_sorted = flat[order]
    last = np.flatnonzero(np.diff(flat_sorted, append=-1))
    win_pixels = flat_sorted[last]
    win_points = pt_idx[order][last]
    out.values.reshape(-1, 3)[win_pixels] = colors[win_points]
    return out


def orthonormal_basis_cross(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors perpendicular to unit vector d."""
    helper = np.array([1.0, 0.0, 0.0]) if abs(d[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = np.cross(d, helper)
    u /= np.linalg.norm(u)
    v = np.cross(d, u)
    return u, v


def fscore_unbounded(pred: PointCloud, gt: PointCloud, tau: float) -> tuple[float, float, float]:
    """(precision, recall, f) at match radius tau; recall is 'coverage'."""
    d_pred, _ = cKDTree(gt.positions).query(pred.positions)
    d_gt, _ = cKDTree(pred.positions).query(gt.positions)
    precision = float((d_pred <= tau).mean())
    recall = float((d_gt <= tau).mean())
    f = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f


def sample_params_listed(rng, ranges) -> TreeParams:
    """sample_params with every TreeParams field drawn by name, in declaration order."""
    return TreeParams(
        trunk_height=float(rng.uniform(*ranges.trunk_height)),
        trunk_radius=float(rng.uniform(*ranges.trunk_radius)),
        branch_depth=int(rng.integers(*ranges.branch_depth, endpoint=True)),
        children_per_branch=ranges.children_per_branch,
        length_decay=float(rng.uniform(*ranges.length_decay)),
        radius_decay=float(rng.uniform(*ranges.radius_decay)),
        branch_angle_deg=ranges.branch_angle_deg,
        crown_radius=float(rng.uniform(*ranges.crown_radius)),
        foliage_fraction=float(rng.uniform(*ranges.foliage_fraction)),
        n_points=int(rng.integers(*ranges.n_points, endpoint=True)),
    )
