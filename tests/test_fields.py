import json
import zipfile

import numpy as np
import pytest

from oracles import write_field_json_whole, write_field_savez, write_scalar_csv_whole
from pinned import heap_peak
from solsurf.errors import FieldFileError
from solsurf.fields import (
    CHART_EUCLIDEAN,
    CHART_MINKOWSKI,
    FIELD_FORMAT,
    STRIP_ROWS,
    Grid2,
    MatrixField,
    StripSource,
    cumulative_line_integral,
    diff1,
    diff2,
    interior_max,
    read_field,
    strip_jets,
    trim_margin,
    write_field,
    write_field_json,
    write_scalar_csv,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2("weird-chart")
    with pytest.raises(ValueError):
        Grid2(CHART_EUCLIDEAN, dims=(8, 101))
    with pytest.raises(ValueError):
        Grid2(CHART_EUCLIDEAN, spacing=(0.0, 0.1))


def test_grid_axes_and_xi():
    g = Grid2(CHART_EUCLIDEAN, origin=(1.0, -2.0), spacing=(0.1, 0.2), dims=(11, 21))
    assert g.axis1()[5] == pytest.approx(1.0)
    assert g.axis2()[10] == pytest.approx(-2.0)
    xi = g.xi()
    assert xi.shape == (21, 11)
    assert xi[10, 5] == pytest.approx(1.0 - 2.0j)
    gm = Grid2(CHART_MINKOWSKI)
    with pytest.raises(ValueError):
        gm.xi()


def test_stencil_fourth_order():
    # measured order of the first-derivative stencil on sin(x)cos(y)
    errs = []
    for h in (0.1, 0.05):
        g = Grid2(CHART_MINKOWSKI, spacing=(h, h), dims=(int(2 / h) + 1, int(2 / h) + 1))
        x, y = g.mesh()
        f = np.sin(x) * np.cos(y)
        d = diff1(f, h, axis=1)
        exact = np.cos(x) * np.cos(y)
        errs.append(interior_max((d - exact), 2))
    order = np.log2(errs[0] / errs[1])
    assert order > 3.8

    errs2 = []
    for h in (0.1, 0.05):
        g = Grid2(CHART_MINKOWSKI, spacing=(h, h), dims=(int(2 / h) + 1, int(2 / h) + 1))
        x, y = g.mesh()
        f = np.sin(x) * np.cos(y)
        d = diff2(f, h, axis=1)
        errs2.append(interior_max(d + np.sin(x) * np.cos(y), 2))
    assert np.log2(errs2[0] / errs2[1]) > 3.8


def test_chart_jets_euclidean_holomorphic():
    # for a holomorphic function, d2 must vanish and d1 is the derivative
    g = Grid2(CHART_EUCLIDEAN, spacing=(0.01, 0.01), dims=(41, 41))
    xi = g.xi()
    f = xi**3 * np.ones((1, 1, 1, 1))
    jets = strip_jets(MatrixField(g, f.astype(complex), 0))
    assert interior_max(jets.d2, jets.margin1) < 1e-11
    assert interior_max(jets.d1 - 3 * xi**2, jets.margin1) < 1e-11
    whole = jets.rows(slice(None))
    assert interior_max(whole.d11 - 6 * xi, jets.margin2) < 1e-10
    assert interior_max(whole.d12, jets.margin2) < 1e-10


def test_cumulative_integral_exact_on_cubics():
    h = 0.1
    x = np.arange(0, 2 + h / 2, h)
    f = 3 * x**2 - 2 * x + 1
    exact = x**3 - x**2 + x
    out = cumulative_line_integral(f, h, axis=0)
    assert np.max(np.abs(out - exact)) < 1e-12


def test_cumulative_integral_fourth_order():
    errs = []
    for h in (0.02, 0.01):
        x = np.arange(0, 1 + h / 2, h)
        out = cumulative_line_integral(np.sin(x), h, axis=0)
        errs.append(np.max(np.abs(out - (1 - np.cos(x)))))
    assert np.log2(errs[0] / errs[1]) > 3.7


def test_cumulative_integral_on_axis():
    h = 0.05
    g = Grid2(CHART_MINKOWSKI, spacing=(h, h), dims=(21, 9))
    x, y = g.mesh()
    f = x * y * np.ones((2, 2, 1, 1))
    out = cumulative_line_integral(f, h, axis=-1)
    exact = (x**2 - x[0, 0] ** 2) / 2 * y * np.ones((2, 2, 1, 1))
    assert np.max(np.abs(out - exact)) < 1e-12


def _field_with_nan_nodes(margin=0):
    g = Grid2(CHART_MINKOWSKI, origin=(0.25, -1.5), spacing=(0.1, 0.05), dims=(11, 9))
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((2, 2, 9, 11)) + 1j * rng.standard_normal((2, 2, 9, 11))
    vals[..., 0, :] = np.nan
    vals[1, 0, 4, 5] = complex(np.nan, 0.0)
    vals[0, 1, 3, 3] = complex(-0.0, 0.0)
    return MatrixField(g, vals, margin)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("lam", [None, 0.5 - 0.25j])
def test_field_npz_roundtrip_bit_exact(tmp_path, lam):
    f = _field_with_nan_nodes(margin=3)
    path = str(tmp_path / "field.npz")
    write_field(path, f, lam=lam)
    back, lam_back = read_field(path)
    assert _same_bits(back.values, f.values)
    assert back.grid == f.grid
    assert back.margin == 3
    assert lam_back == lam
    with np.load(path, allow_pickle=False) as z:
        keys = set(z.files)
        assert str(z["format"]) == FIELD_FORMAT
        assert all(z[k].dtype != object for k in keys)
    assert keys == {"values", "margin", "grid", "format"} | ({"lambda"} if lam else set())


@pytest.mark.parametrize("n, rows", [(2, 9), (3, 41), (2, 2 * STRIP_ROWS)])
@pytest.mark.parametrize("lam", [None, 0.5 - 0.25j])
def test_field_npz_members_equal_numpy_savez(tmp_path, n, rows, lam):
    # the streamed archive is np.savez's, member for member; only the zip
    # timestamps may differ
    g = Grid2(CHART_EUCLIDEAN, spacing=(0.1, 0.1), dims=(11, rows))
    rng = np.random.default_rng(rows)
    vals = rng.standard_normal((n, n, rows, 11)) + 1j * rng.standard_normal((n, n, rows, 11))
    vals[..., 0, :] = np.nan
    vals[0, 1, 3, 3] = complex(-0.0, np.inf)
    f = MatrixField(g, vals, 2)
    ours, numpys = str(tmp_path / "ours.npz"), str(tmp_path / "numpy.npz")
    write_field(ours, f, lam)
    write_field_savez(numpys, f, lam)
    with zipfile.ZipFile(ours) as za, zipfile.ZipFile(numpys) as zb:
        ia, ib = za.infolist(), zb.infolist()
        assert [i.filename for i in ia] == [i.filename for i in ib]
        for a, b in zip(ia, ib):
            assert za.read(a) == zb.read(b)
            for attr in ("compress_type", "external_attr", "file_size", "CRC", "header_offset",
                         "extra", "flag_bits"):
                assert getattr(a, attr) == getattr(b, attr), (a.filename, attr)
    back, lam_back = read_field(ours)
    assert _same_bits(back.values, f.values) and lam_back == lam


def test_write_field_heap_peak_stays_within_a_quarter_field(tmp_path):
    # the values go out one strip of grid rows at a time, so no copy of the
    # whole field is made
    g = Grid2(CHART_MINKOWSKI, spacing=(0.01, 0.01), dims=(201, 201))
    f = MatrixField(g, np.full((2, 2, 201, 201), 1.0 + 2.0j), 0)
    path = str(tmp_path / "field.npz")
    peak = heap_peak(lambda: write_field(path, f, 0.5))
    assert peak <= 0.25 * f.values.nbytes, peak / f.values.nbytes
    assert _same_bits(read_field(path)[0].values, f.values)


def test_write_field_of_a_strip_source_matches_the_field(tmp_path):
    # a strip source is written strip by strip, as its strips are formed,
    # into the same bytes as the field it forms; a field is read as strips
    g = Grid2(CHART_MINKOWSKI, spacing=(0.01, 0.01), dims=(11, 2 * STRIP_ROWS + 3))
    f = MatrixField(g, np.arange(4 * g.n2 * g.n1).reshape(2, 2, g.n2, g.n1) * (1 - 0.5j), 1)
    read = []

    def strip(rows):
        read.append(rows)
        return f.values[..., rows, :].copy()

    ours, theirs = str(tmp_path / "strips.npz"), str(tmp_path / "field.npz")
    write_field(ours, StripSource(g, 2, 1, strip), 0.5)
    write_field(theirs, f, 0.5)
    assert open(ours, "rb").read() == open(theirs, "rb").read()
    assert [(r.start, r.stop) for r in read] == [(0, STRIP_ROWS), (STRIP_ROWS, 2 * STRIP_ROWS),
                                                  (2 * STRIP_ROWS, g.n2)]
    assert _same_bits(f.strip(slice(2, 5)), f.values[..., 2:5, :])


def test_field_json_roundtrip_bit_exact(tmp_path):
    f = _field_with_nan_nodes(margin=1)
    path = str(tmp_path / "field.json")
    write_field_json(path, f, lam=0.5 - 0.25j)
    obj = json.loads(open(path).read())
    assert set(obj) == {"format", "grid", "n", "margin", "lambda", "re", "im"}
    assert len(obj["re"]) == len(obj["im"]) == f.values.size
    assert obj["re"][:4] == [None] * 4  # non-finite entries are null
    back, lam = read_field(path)
    assert lam == 0.5 - 0.25j
    assert _same_bits(back.values, f.values)
    assert back.grid == f.grid
    assert back.margin == 1
    # rewriting the reimported field is byte-identical
    path2 = str(tmp_path / "field2.json")
    write_field_json(path2, back, lam=lam)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_field_files_store_values_node_major(tmp_path):
    # in memory a field is (n, n, n2, n1); both file formats hold it
    # node-major, (n2, n1, n, n).  Small integer parts are exact, so the
    # comparisons are bit for bit on any platform.
    g = Grid2(CHART_MINKOWSKI, spacing=(0.1, 0.1), dims=(11, 9))
    i, j, i2, i1 = np.indices((3, 3, 9, 11))
    f = MatrixField(g, (100 * i2 + 10 * i1 + 3 * i + j) + 1j * (i2 - i1 + 2 * i - j), 1)
    npz, js = str(tmp_path / "f.npz"), str(tmp_path / "f.json")
    write_field(npz, f)
    write_field_json(js, f)
    with np.load(npz, allow_pickle=False) as z:
        stored = z["values"]
    assert stored.shape == (9, 11, 3, 3)
    for node in np.ndindex(9, 11):
        assert _same_bits(stored[node], np.ascontiguousarray(f.values[(..., *node)]))
    obj = json.loads(open(js).read())
    assert obj["re"] == stored.real.reshape(-1).tolist()
    assert obj["im"] == stored.imag.reshape(-1).tolist()
    assert obj["re"][:3] == [0.0, 1.0, 2.0] and obj["re"][9] == 10.0 and obj["re"][99] == 100.0
    for path in (npz, js):
        back, _ = read_field(path)
        assert back.values.flags.c_contiguous
        assert _same_bits(back.values, f.values)


@pytest.mark.parametrize("name", ["field.npz", "field.json"])
def test_field_margin_stored_not_guessed(tmp_path, name):
    # an interior NaN (a singular node) must not widen the margin
    g = Grid2(CHART_EUCLIDEAN, spacing=(0.1, 0.1), dims=(11, 11))
    vals = np.ones((2, 2, 11, 11), dtype=complex)
    vals[..., :2, :] = vals[..., -2:, :] = vals[..., :2] = vals[..., -2:] = np.nan
    vals[..., 5, 5] = np.nan
    path = str(tmp_path / name)
    (write_field if name.endswith(".npz") else write_field_json)(path, MatrixField(g, vals, 2))
    back, _ = read_field(path)
    assert back.margin == 2


def test_read_field_rejects_other_files(tmp_path):
    f = _field_with_nan_nodes()
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"grid": f.grid.to_json(), "n": 2,
                               "values": [{"n": 2, "re": [0] * 4, "im": [0] * 4}] * 99}))
    with pytest.raises(FieldFileError, match="old one-object-per-node layout"):
        read_field(str(old))
    write_field(str(tmp_path / "f.npz"), f)
    (tmp_path / "f.txt").write_bytes((tmp_path / "f.npz").read_bytes())
    with pytest.raises(FieldFileError, match=".npz"):
        read_field(str(tmp_path / "f.txt"))
    (tmp_path / "cut.npz").write_bytes((tmp_path / "f.npz").read_bytes()[:100])
    (tmp_path / "junk.npz").write_bytes(b"not a zip")
    np.savez(str(tmp_path / "plain.npz"), values=f.values)
    for bad in ("cut.npz", "junk.npz", "plain.npz"):
        with pytest.raises(FieldFileError):
            read_field(str(tmp_path / bad))
    # a native file whose node matrices are not square, or not numbers
    with np.load(str(tmp_path / "f.npz")) as z:
        arrays = {key: z[key] for key in z.files}
    nodes = arrays["values"].shape[:2]
    for values in (np.zeros(nodes + (3, 2), dtype=complex), np.zeros(nodes + (2, 3)),
                   np.full(nodes + (2, 2), "x"), np.full(nodes + (2, 2), True)):
        np.savez(str(tmp_path / "odd.npz"), **{**arrays, "values": values})
        with pytest.raises(FieldFileError, match="not square numeric matrices"):
            read_field(str(tmp_path / "odd.npz"))
    with pytest.raises(OSError):
        read_field(str(tmp_path / "missing.npz"))


def test_scalar_csv_rows(tmp_path):
    g = Grid2(CHART_MINKOWSKI, spacing=(0.1, 0.1), dims=(11, 9))
    scalar = np.arange(99, dtype=float).reshape(9, 11)
    path = str(tmp_path / "s.csv")
    write_scalar_csv(path, g, scalar, margin=2)
    lines = open(path).read().strip().split("\n")
    assert lines[0] == "x1,x2,value"
    assert len(lines) - 1 == (11 - 4) * (9 - 4)
    # the whole-block writer matches the per-node one, non-finite values included
    scalar = scalar / 7.0
    scalar[3, 4], scalar[5, 5], scalar[4, 6] = np.nan, -np.inf, -0.0
    write_scalar_csv(path, g, scalar, margin=2)
    x1, x2 = g.mesh()
    by_loop = ["x1,x2,value"] + [
        f"{x1[i2, i1]:.17g},{x2[i2, i1]:.17g},{scalar[i2, i1]:.17g}"
        for i2 in range(2, 9 - 2)
        for i1 in range(2, 11 - 2)
    ]
    assert open(path).read() == "\n".join(by_loop) + "\n"


@pytest.mark.parametrize("lam", [None, 0.5 - 0.25j])
@pytest.mark.parametrize("n2", [9, 2 * STRIP_ROWS, 3 * STRIP_ROWS + 5])
def test_streamed_exports_match_the_one_shot_oracle(tmp_path, lam, n2):
    # values over many decades, signed zeros, and NaN and infinite entries,
    # on grids one strip deep, a whole number of strips deep and not
    g = Grid2(CHART_EUCLIDEAN, (0.3, -1e-3), (0.07, 1 / 3), (11, n2))
    rng = np.random.default_rng(n2)
    shape = (3, 3, n2, 11)
    vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
    vals = vals + 1j * rng.standard_normal(shape)
    vals[..., 1, :] = np.nan
    vals[0, 2, -1, 4] = complex(np.inf, -0.0)
    vals[2, 1, n2 // 2, 7] = complex(-0.0, -np.inf)
    f = MatrixField(g, vals, 2)
    streamed, whole = str(tmp_path / "streamed"), str(tmp_path / "whole")
    write_field_json(streamed, f, lam)
    write_field_json_whole(whole, f, lam)
    assert open(streamed, "rb").read() == open(whole, "rb").read()
    scalar = vals[0, 2].real
    for margin in (0, 1, 3):
        write_scalar_csv(streamed, g, scalar, margin)
        write_scalar_csv_whole(whole, g, scalar, margin)
        assert open(streamed, "rb").read() == open(whole, "rb").read()


def test_trim_margin():
    g = Grid2(CHART_EUCLIDEAN, spacing=(0.1, 0.1), dims=(21, 21))
    vals = np.ones((2, 2, 21, 21), dtype=complex)
    out = trim_margin(MatrixField(g, vals, 3))
    assert out.grid.dims == (15, 15)
    assert out.margin == 0
    assert out.grid.axis1()[0] == pytest.approx(g.axis1()[3])
