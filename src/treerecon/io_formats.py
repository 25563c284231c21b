"""File formats: ASCII PLY clouds, PFM float rasters, PPM images, JSON manifests.

Byte-level contracts:
  - PLY: ascii 1.0; one vertex element with properties x y z (float) and
    red green blue (uchar, color*255 rounded half-up); optional uchar `class`
    (0 trunk, 1 foliage). A second element or another type is rejected at
    its header line. Positions are written at float32 precision as `%.9g`. The
    body is written with one format operation and read by one C parse
    (`np.loadtxt` over the layout); every body that parse refuses goes to one
    pass over its rows (split, float() and int() per field), which reads it
    or raises the line-numbered error of its first bad row. A non-blank row
    after the declared vertex rows is refused at its line. `write_ply` refuses
    a coordinate that is not finite in float32 before it writes a byte.
  - PFM: grayscale `Pf`, scale -1.0 (little-endian float32), rows written
    bottom-to-top; row v = 0 is the bottom (smallest y).
  - PPM: binary `P6`, maxval 255, same color rounding as PLY.
  - Manifest: JSON with exactly {seed, grid, sun, files, generator_version};
    unknown or missing fields are rejected. Rasters carry no georeference
    themselves; the grid spec lives only in the manifest.

A `Scene` is one scene directory in memory: its manifest and the five
arrays. `protree.generate_scene` and `load_scene` both return one, and
`save_scene` writes one, so re-saving a loaded scene reproduces its files.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, fields, is_dataclass
from functools import cache
from itertools import chain
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .core import Grid, GridSpec, PointCloud, RgbGrid, SunConfig, check_seed
from .errors import (
    InvalidConfig,
    MalformedManifest,
    MalformedPfm,
    MalformedPly,
    MalformedPpm,
    SpecMismatch,
)

GENERATOR_VERSION = "treerecon-0.1.0"
# the one PLY vertex layout, in order, with each property's type; the last, class, is optional
_PLY_TYPES = {"x": "float", "y": "float", "z": "float",
              "red": "uchar", "green": "uchar", "blue": "uchar", "class": "uchar"}


def _color_to_uchar(c: np.ndarray) -> np.ndarray:
    """round-half-up of c*255 into uint8"""
    return np.floor(np.clip(c, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


# ---------------------------------------------------------------------------
# PLY


def write_ply(cloud: PointCloud, path) -> None:
    n = len(cloud)
    with np.errstate(over="ignore"):  # a coordinate beyond float32 casts to inf, refused below
        positions = cloud.positions.astype(np.float32)
    if not np.isfinite(positions).all():
        raise InvalidConfig("a point coordinate is not finite in float32")
    colors = cloud.colors if cloud.colors is not None else np.ones((n, 3))
    props = list(_PLY_TYPES)
    columns = [positions.astype(np.float64), _color_to_uchar(colors)]
    if cloud.classes is None:
        props.pop()
    else:
        columns.append(cloud.classes[:, None])
    header = ["ply", "format ascii 1.0", f"element vertex {n}"]
    header += [f"property {_PLY_TYPES[p]} {p}" for p in props] + ["end_header", ""]
    # one % over every row; float32 positions are exact as float64, so each
    # "%.9g" prints the float32 value
    row_fmt = "%.9g %.9g %.9g" + " %d" * (len(props) - 3) + "\n"
    values = [v for c in columns for v in c.T.tolist()]
    body = (row_fmt * n) % tuple(chain.from_iterable(zip(*values)))
    Path(path).write_text("\n".join(header) + body)


def read_ply(path) -> PointCloud:
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
            if n is not None or len(tok) != 3 or tok[1] != "vertex":
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
            want = _PLY_TYPES.get(tok[2], tok[1])  # an unknown name fails the layout check
            if tok[1] != want:
                raise MalformedPly(f"property {tok[2]} must be {want}, not {tok[1]!r}", line=ln)
            props.append(tok[2])
        elif tok[0] == "end_header":
            body_start = ln
            break
        else:
            raise MalformedPly(f"unexpected header token {tok[0]!r}", line=ln)
    if n is None or body_start is None:
        raise MalformedPly("header missing element vertex or end_header")
    layout = list(_PLY_TYPES)
    has_class = props == layout
    if not has_class and props != layout[:-1]:
        raise MalformedPly(f"unsupported property layout {props}")

    body = lines[body_start : body_start + n]
    if len(body) < n:
        raise MalformedPly(f"expected {n} vertex rows, found {len(body)}")
    xyz, uchars = _parse_body(body, len(props), body_start + 1)
    with np.errstate(over="ignore"):  # out-of-range float32 parses to inf, rejected below
        positions = xyz.astype(np.float32, order="C").astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(positions).all(axis=1))
    if len(bad):
        raise MalformedPly("non-finite coordinate", line=body_start + 1 + int(bad[0]))
    for ln, raw in enumerate(lines[body_start + n :], start=body_start + n + 1):
        if raw.split():
            raise MalformedPly(f"a row after the {n} declared vertex rows", line=ln)
    colors = np.ascontiguousarray(uchars[:, :3]) / 255.0
    classes = uchars[:, 3].astype(np.uint8) if has_class else None
    return PointCloud(positions=positions, colors=colors, classes=classes)


def _parse_body(body: list[str], n_fields: int, first_line: int) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 3) float64 positions and (n, n_fields - 3) int64 uchars of n body rows.

    One C parse (`np.loadtxt`, split on whitespace as str.split splits) reads them; where it refuses
    (a ValueError, a row count other than n, as a blank row is skipped, or a uchar outside 0-255),
    one pass over the rows, Python's float() and int() over str.split() fields, reads them or raises
    at the first row with a wrong field count, a non-numeric field or a uchar out of range, tested in
    that order.
    """
    layout = [("xyz", np.float64, 3), ("uchar", np.int64, n_fields - 3)]
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # a 0-vertex body
            table = np.loadtxt(body, dtype=layout, comments=None, ndmin=1)
        if len(table) == len(body) and ((table["uchar"] >= 0) & (table["uchar"] <= 255)).all():
            return table["xyz"], table["uchar"]
    except ValueError:
        pass
    xyz, uchars = [], []
    for ln, tok in enumerate(map(str.split, body), start=first_line):
        if len(tok) != n_fields:
            raise MalformedPly(f"expected {n_fields} fields", line=ln)
        try:
            xyz += map(float, tok[:3])
            row = list(map(int, tok[3:]))
        except ValueError:
            raise MalformedPly("non-numeric vertex field", line=ln) from None
        if min(row) < 0 or max(row) > 255:
            raise MalformedPly("color or class out of uchar range", line=ln)
        uchars += row
    return np.array(xyz).reshape(-1, 3), np.array(uchars, dtype=np.int64).reshape(-1, n_fields - 3)


# ---------------------------------------------------------------------------
# PFM / PPM


def write_pfm(grid: Grid, path) -> None:
    h, w = grid.spec.height, grid.spec.width
    header = f"Pf\n{w} {h}\n-1.0\n".encode("ascii")
    data = grid.values.astype("<f4").tobytes()  # row v=0 first = bottom-to-top
    Path(path).write_bytes(header + data)


def _read_raster(path, spec: GridSpec | None, error, kind: str, parse_third, decode):
    """(grid spec, values) of a PFM or PPM file.

    The header is three newline-terminated lines: magic, "width height",
    and a number (PFM scale, PPM maxval) parsed by parse_third. Any read or
    parse failure, and a width or height below 1, raises `error`;
    decode(magic, w, h, third, body) checks the rest and returns the values.
    A given spec must match the file's size, else SpecMismatch; without
    one the file's size makes a default spec.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise error(f"cannot read {path}: {e}") from e
    try:
        magic_end = raw.index(b"\n")
        dims_end = raw.index(b"\n", magic_end + 1)
        third_end = raw.index(b"\n", dims_end + 1)
        magic = raw[:magic_end].decode("ascii").strip()
        w, h = map(int, raw[magic_end + 1 : dims_end].split())
        third = parse_third(raw[dims_end + 1 : third_end])
    except (ValueError, IndexError) as e:
        raise error(f"bad {kind} header: {e}") from e
    if w < 1 or h < 1:
        raise error(f"{kind} size must be positive, got {w}x{h}")
    values = decode(magic, w, h, third, raw[third_end + 1 :])
    if spec is None:
        return GridSpec(width=w, height=h), values
    if spec.width != w or spec.height != h:
        raise SpecMismatch(
            f"{kind} is {w}x{h} but manifest grid is {spec.width}x{spec.height}"
        )
    return spec, values


def _decode_pfm(magic, w, h, scale, body):
    if magic != "Pf":
        raise MalformedPfm(f"expected grayscale 'Pf', got {magic!r}")
    if scale >= 0:
        raise MalformedPfm("only little-endian (negative scale) PFM supported")
    if len(body) != w * h * 4:
        raise MalformedPfm(f"expected {w * h * 4} data bytes, got {len(body)}")
    return np.frombuffer(body, dtype="<f4").astype(np.float64).reshape(h, w)


def read_pfm(path, spec: GridSpec | None = None) -> Grid:
    return Grid(*_read_raster(path, spec, MalformedPfm, "PFM", float, _decode_pfm))


def write_ppm(grid: RgbGrid, path) -> None:
    h, w = grid.spec.height, grid.spec.width
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + _color_to_uchar(grid.values).tobytes())


def _decode_ppm(magic, w, h, maxval, body):
    if magic != "P6":
        raise MalformedPpm(f"expected binary 'P6', got {magic!r}")
    if maxval != 255:
        raise MalformedPpm("only maxval 255 supported")
    if len(body) != w * h * 3:
        raise MalformedPpm(f"expected {w * h * 3} data bytes, got {len(body)}")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w, 3) / 255.0


def read_ppm(path, spec: GridSpec | None = None) -> RgbGrid:
    return RgbGrid(*_read_raster(path, spec, MalformedPpm, "PPM", int, _decode_ppm))


# ---------------------------------------------------------------------------
# scene manifest


@dataclass(frozen=True)
class SceneFiles:
    ortho: str = "ortho.ppm"
    dsm: str = "dsm.pfm"
    silhouette: str = "silhouette.pfm"
    shadow: str = "shadow.pfm"
    cloud: str = "gt.ply"


@dataclass(frozen=True)
class Manifest:
    seed: int
    grid: GridSpec
    sun: SunConfig
    files: SceneFiles = SceneFiles()
    generator_version: str = GENERATOR_VERSION

    def __post_init__(self):
        check_seed(self.seed)


@dataclass
class Scene:
    """One scene: its manifest (seed, grid spec, sun), sensor rasters and ground-truth cloud."""

    manifest: Manifest
    ortho: RgbGrid
    dsm: Grid
    silhouette: Grid
    shadow: Grid
    cloud: PointCloud

    @property
    def seed(self) -> int:
        return self.manifest.seed

    @property
    def spec(self) -> GridSpec:
        return self.manifest.grid

    @property
    def sun(self) -> SunConfig:
        return self.manifest.sun


def write_manifest(manifest: Manifest, path) -> None:
    Path(path).write_text(json.dumps(asdict(manifest), indent=2) + "\n")


# annotated type -> (the JSON values it takes, their name); bools are never numbers
_JSON_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string"),
               dict: (dict, "an object")}


_hints = cache(get_type_hints)  # a dataclass's field types, its string annotations compiled once


def _from_doc(cls, doc: dict, where: str = ""):
    """Build dataclass `cls` from the JSON object `doc`, popping what it takes.

    Every field is required and must hold its JSON type (see _JSON_TYPES);
    numbers are converted to their annotated type and nested dataclasses
    are built the same way. Unknown fields are rejected once the object is built.
    """
    hints, values = _hints(cls), {}
    for f in fields(cls):
        if f.name not in doc:
            raise MalformedManifest(f"missing field {where}{f.name}")
        kind, value = hints[f.name], doc.pop(f.name)
        kind = dict if is_dataclass(kind) else kind
        takes, what = _JSON_TYPES[kind]
        if isinstance(value, bool) or not isinstance(value, takes):
            raise MalformedManifest(f"field {where}{f.name} must be {what}")
        values[f.name] = kind(value)
    for name, value in values.items():
        if is_dataclass(hints[name]):
            values[name] = _from_doc(hints[name], value, f"{where}{name}.")
    obj = cls(**values)
    if doc:
        raise MalformedManifest(f"unknown field {where}{next(iter(doc))}")
    return obj


def read_manifest(path) -> Manifest:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise MalformedManifest(f"cannot read {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON, or nested too deep
        raise MalformedManifest(f"invalid JSON: {e}", line=getattr(e, "lineno", None)) from e
    if not isinstance(doc, dict):
        raise MalformedManifest("manifest root must be an object")
    try:
        return _from_doc(Manifest, doc)
    except (TypeError, ValueError, OverflowError) as e:
        raise MalformedManifest(f"bad field value: {e}") from e


# ---------------------------------------------------------------------------
# whole-scene persistence


def save_scene(scene: Scene, out_dir) -> None:
    """Write one scene directory (rasters, GT cloud, manifest) under the default
    file names, with a manifest naming them at the current generator version: a
    loaded manifest may name its files by absolute path, outside out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = SceneFiles()
    write_ppm(scene.ortho, out / files.ortho)
    write_pfm(scene.dsm, out / files.dsm)
    write_pfm(scene.silhouette, out / files.silhouette)
    write_pfm(scene.shadow, out / files.shadow)
    write_ply(scene.cloud, out / files.cloud)
    write_manifest(Manifest(seed=scene.seed, grid=scene.spec, sun=scene.sun), out / "manifest.json")


def load_scene(scene_dir) -> Scene:
    d = Path(scene_dir)
    manifest = read_manifest(d / "manifest.json")
    spec = manifest.grid
    return Scene(
        manifest=manifest,
        ortho=read_ppm(d / manifest.files.ortho, spec),
        dsm=read_pfm(d / manifest.files.dsm, spec),
        silhouette=read_pfm(d / manifest.files.silhouette, spec),
        shadow=read_pfm(d / manifest.files.shadow, spec),
        cloud=read_ply(d / manifest.files.cloud),
    )
