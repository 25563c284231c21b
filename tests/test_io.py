import contextlib
import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import read_ply_rows, write_ply_rows
from treerecon.core import Grid, GridSpec, PointCloud, RgbGrid, SunConfig
from treerecon.errors import (
    MalformedFile,
    MalformedManifest,
    MalformedPfm,
    MalformedPly,
    MalformedPpm,
    SpecMismatch,
)
from treerecon.io_formats import (
    Manifest,
    SceneFiles,
    load_scene,
    read_manifest,
    read_pfm,
    read_ply,
    read_ppm,
    save_scene,
    write_manifest,
    write_pfm,
    write_ply,
    write_ppm,
)
from treerecon.protree import SceneConfig, TreeParamRanges, generate_scene

SPEC = GridSpec(6, 4, -1.5, 2.0, 0.25)


def random_cloud(seed, n, with_classes=True):
    rng = np.random.default_rng(seed)
    return PointCloud(
        positions=rng.uniform(-50, 50, (n, 3)),
        colors=rng.random((n, 3)),
        classes=rng.integers(0, 2, n).astype(np.uint8) if with_classes else None,
    )


class TestPly:
    def test_empty_cloud(self, tmp_path):
        p = tmp_path / "empty.ply"
        write_ply(PointCloud(positions=np.zeros((0, 3))), p)
        assert "element vertex 0" in p.read_text()
        assert len(read_ply(p)) == 0

    @pytest.mark.parametrize("with_classes", [False, True])
    def test_an_empty_body_raises_no_warning(self, tmp_path, with_classes):
        """The C parse of a 0-vertex body finds no data and warns so; read_ply keeps that off
        stderr, so it reads the file even with every warning an error (`-W error`)."""
        p = tmp_path / "empty.ply"
        write_ply(PointCloud(np.zeros((0, 3)), classes=np.zeros(0, np.uint8) if with_classes else None), p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cloud = read_ply(p)
        assert cloud.positions.shape == (0, 3) and cloud.colors.shape == (0, 3)
        assert (cloud.classes is not None) == with_classes

    def test_round_trip_float32_quantization(self, tmp_path):
        cloud = random_cloud(0, 1000)
        p = tmp_path / "c.ply"
        write_ply(cloud, p)
        back = read_ply(p)
        np.testing.assert_array_equal(
            back.positions, cloud.positions.astype(np.float32).astype(np.float64)
        )
        np.testing.assert_array_equal(back.classes, cloud.classes)

    def test_color_rounding(self, tmp_path):
        cloud = PointCloud(
            positions=np.zeros((2, 3)), colors=[[1.0, 1.0, 1.0], [0.5, 0.5, 0.5]]
        )
        p = tmp_path / "c.ply"
        write_ply(cloud, p)
        body = p.read_text().splitlines()
        assert body[-2].split()[3:6] == ["255", "255", "255"]
        assert body[-1].split()[3:6] == ["128", "128", "128"]

    def test_second_write_byte_identical(self, tmp_path):
        cloud = random_cloud(1, 50)
        a, b = tmp_path / "a.ply", tmp_path / "b.ply"
        write_ply(cloud, a)
        write_ply(cloud, b)
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_reports_line(self, tmp_path):
        p = tmp_path / "bad.ply"
        p.write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                     "property float x\nproperty float y\nproperty float z\n"
                     "property uchar red\nproperty uchar green\nproperty uchar blue\n"
                     "end_header\n0 0 zebra 1 2 3\n")
        with pytest.raises(MalformedPly) as e:
            read_ply(p)
        assert e.value.line == 11

    def test_second_element_rejected(self, tmp_path):
        p = tmp_path / "two.ply"
        p.write_text(ply_text([["0", "0", "0", "1", "2", "3"]] * 3).replace(
            "element vertex 3\n", "element vertex 3\nelement vertex 1\n"))
        with pytest.raises(MalformedPly, match="single vertex element") as e:
            read_ply(p)
        assert e.value.line == 4

    @pytest.mark.parametrize("declared, line", [
        ("property double x", 4), ("property int y", 5), ("property list z", 6),
        ("property float red", 7), ("property float class", 10),
    ])
    def test_property_type_checked(self, tmp_path, declared, line):
        _, typ, name = declared.split()
        text = ply_text([["0", "0", "0", "1", "2", "3", "1"]], has_class=True)
        want = "float" if name in "xyz" else "uchar"
        p = tmp_path / "typed.ply"
        p.write_text(text.replace(f"property {want} {name}\n", declared + "\n"))
        with pytest.raises(MalformedPly, match=f"property {name} must be {want}, not '{typ}'") as e:
            read_ply(p)
        assert e.value.line == line

    def test_missing_magic(self, tmp_path):
        p = tmp_path / "bad.ply"
        p.write_text("not a ply\n")
        with pytest.raises(MalformedPly):
            read_ply(p)


class TestPfm:
    def test_zero_grid_round_trip(self, tmp_path):
        p = tmp_path / "z.pfm"
        write_pfm(Grid.zeros(SPEC), p)
        assert not read_pfm(p, SPEC).values.any()

    def test_random_grid_bit_exact(self, tmp_path):
        vals = np.random.default_rng(0).normal(size=(4, 6)).astype(np.float32)
        p = tmp_path / "g.pfm"
        write_pfm(Grid(SPEC, vals.astype(np.float64)), p)
        np.testing.assert_array_equal(read_pfm(p, SPEC).values, vals.astype(np.float64))

    def test_spec_mismatch(self, tmp_path):
        p = tmp_path / "g.pfm"
        write_pfm(Grid.zeros(SPEC), p)
        with pytest.raises(SpecMismatch):
            read_pfm(p, GridSpec(5, 5))

    def test_color_pfm_rejected(self, tmp_path):
        p = tmp_path / "bad.pfm"
        p.write_bytes(b"PF\n1 1\n-1.0\n" + b"\0" * 12)
        with pytest.raises(MalformedPfm):
            read_pfm(p)

    def test_truncated_body_rejected(self, tmp_path):
        p = tmp_path / "bad.pfm"
        p.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\0" * 8)
        with pytest.raises(MalformedPfm):
            read_pfm(p)


class TestPpm:
    def test_round_trip_exact_on_representable(self, tmp_path):
        rng = np.random.default_rng(1)
        vals = rng.integers(0, 256, (4, 6, 3)) / 255.0
        p = tmp_path / "g.ppm"
        write_ppm(RgbGrid(SPEC, vals), p)
        np.testing.assert_array_equal(read_ppm(p, SPEC).values, vals)

    def test_quantization_round_half_up(self, tmp_path):
        vals = np.full((4, 6, 3), 0.5)
        p = tmp_path / "g.ppm"
        write_ppm(RgbGrid(SPEC, vals), p)
        assert np.all(read_ppm(p).values == 128 / 255.0)

    def test_bad_maxval(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P6\n1 1\n65535\n" + b"\0" * 6)
        with pytest.raises(MalformedPpm):
            read_ppm(p)


class TestManifest:
    def manifest(self):
        return Manifest(seed=42, grid=SPEC, sun=SunConfig(135.0, 70.0))

    def test_round_trip(self, tmp_path):
        p = tmp_path / "manifest.json"
        write_manifest(self.manifest(), p)
        assert read_manifest(p) == self.manifest()

    def test_missing_sun(self, tmp_path):
        import json

        p = tmp_path / "manifest.json"
        write_manifest(self.manifest(), p)
        doc = json.loads(p.read_text())
        del doc["sun"]
        p.write_text(json.dumps(doc))
        with pytest.raises(MalformedManifest):
            read_manifest(p)

    def test_extra_field_rejected(self, tmp_path):
        import json

        p = tmp_path / "manifest.json"
        write_manifest(self.manifest(), p)
        doc = json.loads(p.read_text())
        doc["comment"] = "hi"
        p.write_text(json.dumps(doc))
        with pytest.raises(MalformedManifest):
            read_manifest(p)

    @pytest.mark.parametrize("field, value", [
        ("seed", 7.9), ("seed", True), ("seed", "7"), ("grid.width", 4.6),
        ("grid.pixel_size", "0.5"), ("sun.elevation_deg", "50"), ("generator_version", 5),
        ("files.dsm", 3), ("sun", [135.0, 70.0]),
    ])
    def test_a_value_of_the_wrong_json_type_is_malformed(self, tmp_path, field, value):
        p = tmp_path / "manifest.json"
        write_manifest(self.manifest(), p)
        doc = json.loads(p.read_text())
        *parents, name = field.split(".")
        obj = doc
        for parent in parents:
            obj = obj[parent]
        obj[name] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(MalformedManifest, match=f"field {field} must be"):
            read_manifest(p)

    def test_invalid_json_reports_line(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text("{\n  broken\n}")
        with pytest.raises(MalformedManifest) as e:
            read_manifest(p)
        assert e.value.line == 2


class TestScenePersistence:
    def test_save_load_round_trip(self, tmp_path):
        scene = generate_scene(9)
        d = tmp_path / "scene"
        save_scene(scene, d)
        back = load_scene(d)
        assert back.manifest.seed == 9
        assert back.manifest.grid == scene.spec
        np.testing.assert_array_equal(
            back.cloud.positions, scene.cloud.positions.astype(np.float32)
        )
        np.testing.assert_allclose(back.dsm.values, scene.dsm.values, atol=1e-6)
        np.testing.assert_array_equal(back.silhouette.values, scene.silhouette.values)

    def test_save_twice_byte_identical(self, tmp_path):
        scene = generate_scene(9)
        a, b = tmp_path / "a", tmp_path / "b"
        save_scene(scene, a)
        save_scene(scene, b)
        for f in sorted(x.name for x in a.iterdir()):
            assert (a / f).read_bytes() == (b / f).read_bytes()


# ---------------------------------------------------------------------------
# fuzzing: any bytes either parse or raise a file error, never a traceback

FUZZ = settings(derandomize=True, deadline=None, max_examples=150)
READERS = {"ply": read_ply, "pfm": read_pfm, "ppm": read_ppm, "json": read_manifest}

PLY_LINES = [
    "format ascii 1.0", "format binary_little_endian 1.0", "element vertex 1",
    "element vertex 2", "element vertex -1", "element vertex 99999999999", "element",
    "element face 1", "property float x", "property float y", "property float z",
    "property uchar red", "property uchar green", "property uchar blue",
    "property uchar class", "property", "comment hi", "end_header", "0 0 0 1 2 3",
    "0 0 0 1 2 3 1", "nan 0 0 1 2 3", "1e39 0 0 1 2 3", "0 0 0 300 0 0",
    "0 0 0 1 2 3 256", "0 0 0 -1 2 3",
]
ply_text = st.lists(st.sampled_from(PLY_LINES) | st.text(max_size=20), max_size=16).map(
    lambda lines: ("ply\n" + "\n".join(lines)).encode("utf-8", "surrogatepass")
)
raster_bytes = st.builds(
    lambda magic, w, h, third, body: b"%s\n%d %d\n%s\n" % (magic, w, h, third) + body,
    st.sampled_from([b"Pf", b"P6", b"PF", b"P5"]),
    st.integers(-2, 3),
    st.integers(-2, 3),
    st.sampled_from([b"-1.0", b"1.0", b"255", b"nan", b"x"]),
    st.binary(max_size=40),
)


def manifest_doc(sun_elevation, width):
    return json.dumps({
        "seed": 0,
        "grid": {"width": width, "height": 2, "origin_x": 0.0, "origin_y": 0.0,
                 "pixel_size": 1.0},
        "sun": {"azimuth_deg": 0.0, "elevation_deg": sun_elevation},
        "files": {"ortho": "o", "dsm": "d", "silhouette": "s", "shadow": "h", "cloud": "c"},
        "generator_version": "v",
    }).encode()


manifest_bytes = st.builds(
    manifest_doc,
    st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4) | st.none(),
    st.integers(-2, 3) | st.floats() | st.text(max_size=4),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def read_fuzzed(fuzz_dir, kind, data):
    path = fuzz_dir / f"input.{kind}"
    path.write_bytes(data)
    try:
        READERS[kind](path)
    except (MalformedFile, SpecMismatch):
        pass


@pytest.mark.parametrize("kind", sorted(READERS))
@FUZZ
@given(data=st.binary(max_size=300))
def test_fuzz_arbitrary_bytes(fuzz_dir, kind, data):
    read_fuzzed(fuzz_dir, kind, data)


@FUZZ
@given(data=ply_text)
def test_fuzz_ply_header_and_rows(fuzz_dir, data):
    read_fuzzed(fuzz_dir, "ply", data)


@pytest.mark.parametrize("kind", ["pfm", "ppm"])
@FUZZ
@given(data=raster_bytes)
def test_fuzz_raster_header_and_body(fuzz_dir, kind, data):
    read_fuzzed(fuzz_dir, kind, data)


@FUZZ
@given(data=manifest_bytes)
def test_fuzz_manifest_field_values(fuzz_dir, data):
    read_fuzzed(fuzz_dir, "json", data)


# ---------------------------------------------------------------------------
# round trips: write -> read gives the value at the stated precision, and
# write -> read -> write gives the same bytes

ROUND_TRIP = settings(derandomize=True, deadline=None, max_examples=200)
unit = st.floats(0.0, 1.0)


@st.composite
def clouds(draw):
    n = draw(st.integers(0, 12))
    return PointCloud(
        positions=draw(hnp.arrays(np.float64, (n, 3), elements=st.floats(-3e38, 3e38))),
        colors=draw(st.none() | hnp.arrays(np.float64, (n, 3), elements=unit)),
        classes=draw(st.none() | hnp.arrays(np.uint8, n)),
    )


def grid_specs(max_side=6):
    return st.builds(GridSpec, st.integers(1, max_side), st.integers(1, max_side))


def rewrite_is_identical(write, read, value, tmp_dir, suffix):
    """Write value, read it back, write that; return what was read after
    checking both files hold the same bytes."""
    first, second = tmp_dir / f"first{suffix}", tmp_dir / f"second{suffix}"
    write(value, first)
    back = read(first)
    write(back, second)
    assert first.read_bytes() == second.read_bytes()
    return back


@ROUND_TRIP
@given(cloud=clouds())
def test_ply_round_trip(fuzz_dir, cloud):
    back = rewrite_is_identical(write_ply, read_ply, cloud, fuzz_dir, ".ply")
    np.testing.assert_array_equal(back.positions, cloud.positions.astype(np.float32))
    colors = cloud.colors if cloud.colors is not None else np.ones((len(cloud), 3))
    assert np.all(np.abs(back.colors - colors) <= 0.5 / 255 + 1e-12)
    if cloud.classes is None:
        assert back.classes is None
    else:
        np.testing.assert_array_equal(back.classes, cloud.classes)


@ROUND_TRIP
@given(data=st.data(), spec=grid_specs())
def test_pfm_round_trip(fuzz_dir, data, spec):
    values = data.draw(hnp.arrays(np.float32, (spec.height, spec.width),
                                  elements=st.floats(width=32, allow_infinity=False)))
    back = rewrite_is_identical(write_pfm, lambda p: read_pfm(p, spec), Grid(spec, values),
                                fuzz_dir, ".pfm")
    np.testing.assert_array_equal(back.values, values.astype(np.float64))


@ROUND_TRIP
@given(data=st.data(), spec=grid_specs())
def test_ppm_round_trip(fuzz_dir, data, spec):
    values = data.draw(hnp.arrays(np.float64, (spec.height, spec.width, 3), elements=unit))
    back = rewrite_is_identical(write_ppm, lambda p: read_ppm(p, spec), RgbGrid(spec, values),
                                fuzz_dir, ".ppm")
    assert np.all(np.abs(back.values - values) <= 0.5 / 255 + 1e-12)


finite = st.floats(allow_nan=False, allow_infinity=False)
manifests = st.builds(
    Manifest,
    seed=st.integers(0, 2**64),
    grid=st.builds(GridSpec, st.integers(1, 10**6), st.integers(1, 10**6), finite, finite,
                   st.floats(1e-300, 1e300)),
    sun=st.builds(SunConfig, finite, st.floats(1e-3, 90.0)),
    files=st.builds(SceneFiles, *[st.text(max_size=8)] * 5),
    generator_version=st.text(max_size=8),
)


@ROUND_TRIP
@given(manifest=manifests)
def test_manifest_round_trip(fuzz_dir, manifest):
    back = rewrite_is_identical(write_manifest, read_manifest, manifest, fuzz_dir, ".json")
    assert back == manifest


@settings(derandomize=True, deadline=None, max_examples=8)
@given(seed=st.integers(0, 2**32 - 1),
       spec=st.sampled_from([SceneConfig().spec, GridSpec.centered(32, 0.5)]),
       sun=st.sampled_from([SceneConfig().sun, SunConfig(200.0, 40.0)]))
def test_a_scene_survives_a_save_and_a_load(fuzz_dir, seed, spec, sun):
    """The loaded scene is the generated one at file precision, and saving it
    again writes the same six files byte for byte."""
    scene = generate_scene(seed, SceneConfig(TreeParamRanges(n_points=(150, 150)), spec, sun))
    a, b = fuzz_dir / "scene_a", fuzz_dir / "scene_b"
    save_scene(scene, a)
    back = load_scene(a)
    assert type(back) is type(scene)
    assert (back.seed, back.spec, back.sun) == (scene.seed, scene.spec, scene.sun)
    for name in ("dsm", "silhouette", "shadow"):
        np.testing.assert_array_equal(getattr(back, name).values,
                                      getattr(scene, name).values.astype(np.float32))
    np.testing.assert_array_equal(back.cloud.positions, scene.cloud.positions.astype(np.float32))
    save_scene(back, b)
    names = sorted(path.name for path in a.iterdir())
    assert len(names) == 6 and names == sorted(path.name for path in b.iterdir())
    for name in names:
        assert (b / name).read_bytes() == (a / name).read_bytes(), name


# ---------------------------------------------------------------------------
# differential: the one-pass PLY codec against the per-row codec it replaced
# (tests/oracles.py), on drawn bodies with and without defects

DIFFERENTIAL = settings(derandomize=True, deadline=None, max_examples=300)
F32_MAX = float(np.finfo(np.float32).max)
F32_TINY = float(np.finfo(np.float32).smallest_subnormal)

float_token = (
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.9g}")
    | st.floats(-1e6, 1e6).map(repr)
    | st.integers(-10**6, 10**6).map(str)
)
DEFECTS = ["1.5", "256", "-1", "zebra", "1_0", "+5", "٣", "9" * 25, "1e50", "nan", "-inf", "",
           "1.0", "0x1", "NaN", "Infinity", "1e400"]
# field separators str.split splits on; "\x1c" also ends a line for str.splitlines
SEPARATORS = [" ", "\t", "\x1c", "\u2003", "\xa0", " \t "]


@st.composite
def ply_bodies(draw):
    """PLY text whose body is valid or has a few defects."""
    has_class = draw(st.booleans())
    n_fields = 7 if has_class else 6
    uchar = st.integers(0, 255).map(str)
    rows = draw(st.lists(st.tuples(*[float_token] * 3, *[uchar] * (n_fields - 3)).map(list),
                         max_size=8))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        # half the defects go to the first row, so that some rows hold two,
        # and half the bad tokens to a uchar field
        row = rows[draw(st.integers(0, len(rows) - 1) | st.just(0))]
        defect = draw(st.sampled_from(DEFECTS + ["<extra field>", "<missing field>"]))
        if defect == "<extra field>":
            row.append("0")
        elif defect == "<missing field>":
            row.pop()
        else:
            row[draw(st.integers(0, len(row) - 1) | st.integers(3, len(row) - 1))] = defect
    if rows and draw(st.integers(0, 7)) == 0:  # a blank row, which np.loadtxt would skip
        rows.insert(draw(st.integers(0, len(rows) - 1)), [])
    declared = max(0, len(rows) + draw(st.just(0) | st.sampled_from([-2, -1, 1, 2])))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\u2028"]))  # str.splitlines breaks
    return ply_text(rows, has_class, declared, eol, draw(st.just(" ") | st.sampled_from(SEPARATORS)))


def ply_text(rows, has_class=False, declared=None, eol="\n", sep=" "):
    """A PLY with these body rows (lists of tokens joined by sep), declaring len(rows) unless told."""
    declared = len(rows) if declared is None else declared
    lines = ["ply", "format ascii 1.0", f"element vertex {declared}"]
    lines += [f"property float {axis}" for axis in "xyz"]
    lines += [f"property uchar {c}" for c in ("red", "green", "blue", "class")[:3 + has_class]]
    lines.append("end_header")
    return eol.join(lines + [sep.join(r) for r in rows]) + eol


def read_outcome(read, path):
    """The arrays read, or the MalformedPly message and line raised."""
    try:
        cloud = read(path)
    except MalformedPly as e:
        return ("error", str(e), e.line)
    return ("cloud", cloud)


@pytest.mark.parametrize("c_parse", [True, False], ids=["c_parse", "rows_only"])
@DIFFERENTIAL
@given(text=ply_bodies())
@example(text=ply_text([["0", "0", "0", "255", "0", "0"]]))
@example(text=ply_text([["0", "0", "0", "1.5", "0", "0"]]))  # int(), not float()
@example(text=ply_text([["0", "0", "0", "0", "-1", "0", "9" * 25]], has_class=True))
@example(text=ply_text([["0", "zebra", "0", "256", "0", "0"]]))  # non-numeric before range
@example(text=ply_text([["0", "0", "zebra", "0", "0"]]))  # field count before non-numeric
@example(text=ply_text([["0", "0", "0", "-1", "0", "0"], ["0", "0"]]))  # row order
@example(text=ply_text([["nan", "0", "0", "0", "0", "0"], ["0", "٣", "0", "1.5", "0", "0"]]))
@example(text=ply_text([["1e50", "0", "0", "0", "0", "0"], ["0", "0", "0"]], declared=3))
@example(text=ply_text([["0", "0", "0", "0", "0", "0"], [], ["1", "2", "3", "4", "5", "6"]]))  # a blank row
@example(text=ply_text([["0", "0", "0", "0", "0", "0"], ["1", "2", "3", "4", "5", "6"]], declared=2, eol="\n\n"))
@example(text=ply_text([["0", "1.0", "0", "0x1", "0", "0"]], sep="\xa0"))
@example(text=ply_text([["0", "0", "0", "1_0", "0", "0"]], sep="\u2003"))  # int(), not the C parse
@example(text=ply_text([["Infinity", "0", "0", "0", "0", "0"]], sep="\t"))
@example(text=ply_text([["0", "0", "1e400", "0", "0", "0"], ["0", "0", "0", "NaN", "0", "0"]], sep="\x1c"))
def test_read_ply_equals_the_row_reader(fuzz_dir, c_parse, text):
    """With the C parse off (`np.loadtxt` refusing every body), the row pass alone equals the
    row reader on valid bodies too."""
    path = fuzz_dir / "drawn.ply"
    path.write_bytes(text.encode("utf-8"))
    refuse = contextlib.nullcontext() if c_parse else mock.patch.object(np, "loadtxt", side_effect=ValueError)
    with refuse:
        new = read_outcome(read_ply, path)
    old = read_outcome(read_ply_rows, path)
    if old[0] == "error":
        assert new == old
    else:
        assert new[0] == "cloud"
        for field in ("positions", "colors", "classes"):
            a, b = getattr(new[1], field), getattr(old[1], field)
            if b is None:
                assert a is None
            else:
                assert a.dtype == b.dtype and a.shape == b.shape and a.flags.c_contiguous
                assert a.tobytes() == b.tobytes()


position = (
    st.floats(-F32_MAX, F32_MAX, width=32)
    | st.floats(-3e38, 3e38)
    | st.sampled_from([0.0, -0.0, F32_TINY, -F32_TINY, F32_MAX, -F32_MAX])
)


@DIFFERENTIAL
@given(data=st.data(), n=st.integers(0, 12))
def test_write_ply_equals_the_row_writer(fuzz_dir, data, n):
    cloud = PointCloud(
        positions=data.draw(hnp.arrays(np.float64, (n, 3), elements=position)),
        colors=data.draw(st.none() | hnp.arrays(np.float64, (n, 3), elements=st.floats(-1, 2))),
        classes=data.draw(st.none() | hnp.arrays(np.uint8, n)),
    )
    new, old = fuzz_dir / "new.ply", fuzz_dir / "old.ply"
    write_ply(cloud, new)
    write_ply_rows(cloud, old)
    assert new.read_bytes() == old.read_bytes()
