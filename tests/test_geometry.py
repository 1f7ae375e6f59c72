import numpy as np
import pytest

from oracles import export_obj_whole, unembed_su2
from solsurf.fields import CHART_MINKOWSKI, STRIP_ROWS, Grid2, MatrixField, diff1, interior_max
from solsurf.geometry import embed_su2, export_obj
from solsurf.matlie import constant, inner

SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def flat_grid(h=0.05, n=41):
    return Grid2(CHART_MINKOWSKI, (0.0, 0.0), (h, h), (n, n))


def test_embed_zero_and_axis():
    g = flat_grid()
    zero = MatrixField(g, np.zeros((2, 2, g.n2, g.n1), dtype=complex), 0)
    assert np.max(np.abs(embed_su2(zero))) == 0
    # F = i t sigma_3 along x1 -> straight segment on the third axis
    x1, _ = g.mesh()
    f = MatrixField(g, 1j * x1 * constant(SIGMA3), 0)
    points = embed_su2(f)
    assert np.max(np.abs(points[..., 0])) < 1e-15
    assert np.max(np.abs(points[..., 1])) < 1e-15
    assert np.max(np.abs(points[..., 2] - x1)) < 1e-15


def test_embed_requires_su2():
    g = flat_grid()
    f3 = MatrixField(g, np.zeros((3, 3, g.n2, g.n1), dtype=complex), 0)
    with pytest.raises(ValueError):
        embed_su2(f3)


def test_embed_roundtrip_and_isometry():
    g = flat_grid()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((g.n2, g.n1, 3))
    f = unembed_su2(g, a)
    assert np.max(np.abs(embed_su2(f) - a)) < 1e-14
    # linear isometry: inner(X, Y) = dot(embed X, embed Y)
    b = rng.standard_normal((g.n2, g.n1, 3))
    f2 = unembed_su2(g, b)
    dots = np.einsum("...k,...k->...", a, b)
    assert np.max(np.abs(inner(f.values, f2.values) - dots)) < 1e-12


def test_degenerate_rank_from_traveling_surface():
    from solsurf.sigma import traveling_solution
    from solsurf.spectral import phi_traveling
    from solsurf.symmetry import (
        ConformalSpec,
        conformal_characteristic,
        frechet_apply,
        wave_functional,
    )
    from solsurf.immersion import pulled_back

    gm = Grid2(CHART_MINKOWSKI, (0.0, 0.0), (0.002, 0.002), (61, 61))
    wave, jets = traveling_solution(2.0, 1.0, gm)
    spec = ConformalSpec.minkowski((0.0, 1.0), (0.0, 1.0))
    q = conformal_characteristic(spec, jets)
    builder = lambda jd: phi_traveling(wave, jd, 0.5)  # noqa: E731
    ((prw_phi,),) = frechet_apply([wave_functional(builder)], jets, q)
    (calf,) = pulled_back(builder(jets), (), (prw_phi,))
    # Gram determinant of the grid-axis tangents under inner()
    t1 = diff1(calf.values, gm.h1, axis=-1)
    t2 = diff1(calf.values, gm.h2, axis=-2)
    det = inner(t1, t1) * inner(t2, t2) - inner(t1, t2) ** 2
    assert interior_max(det, calf.margin + 2) < 1e-12


def _obj_by_loop(pts):
    """Per-node reference for export_obj: one formatted line per vertex and face."""
    n2, n1 = pts.shape[:2]
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in pts.reshape(-1, 3)]
    for i2 in range(n2 - 1):
        for i1 in range(n1 - 1):
            a = i2 * n1 + i1 + 1
            lines.append(f"f {a} {a + 1} {a + n1 + 1}")
            lines.append(f"f {a} {a + n1 + 1} {a + n1}")
    return "\n".join(lines) + "\n"


def test_obj_export_counts(tmp_path):
    g = Grid2(CHART_MINKOWSKI, (0.0, 0.0), (0.1, 0.1), (9, 9))
    pts = np.zeros((9, 9, 3))
    pts[..., 0], pts[..., 1] = g.mesh()
    path = str(tmp_path / "surf.obj")
    export_obj(path, embed_su2(unembed_su2(g, pts)))
    lines = open(path).read().strip().split("\n")
    v_lines = [ln for ln in lines if ln.startswith("v ")]
    f_lines = [ln for ln in lines if ln.startswith("f ")]
    assert len(v_lines) == 81
    assert len(f_lines) == 2 * 8 * 8
    # a 2x2 sub-grid gives 4 vertices, 2 triangles
    path2 = str(tmp_path / "small.obj")
    export_obj(path2, np.zeros((2, 2, 3)))
    lines2 = open(path2).read().strip().split("\n")
    assert sum(ln.startswith("v ") for ln in lines2) == 4
    assert sum(ln.startswith("f ") for ln in lines2) == 2
    # the whole-block writer matches the per-node one, non-finite vertices included
    rng = np.random.default_rng(2)
    odd = rng.standard_normal((7, 5, 3)) * 10.0 ** rng.integers(-20, 20, (7, 5, 3))
    odd[1, 2] = np.nan
    odd[3, 0, 1], odd[4, 4, 2] = -0.0, -np.inf
    path3 = str(tmp_path / "odd.obj")
    export_obj(path3, odd)
    assert open(path3).read() == _obj_by_loop(odd)


def test_obj_float_fidelity(tmp_path):
    g = Grid2(CHART_MINKOWSKI, (0.0, 0.0), (0.1, 0.1), (9, 9))
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((9, 9, 3))
    path = str(tmp_path / "surf.obj")
    export_obj(path, embed_su2(unembed_su2(g, pts)))
    vs = []
    for ln in open(path):
        if ln.startswith("v "):
            vs.append([float(t) for t in ln.split()[1:]])
    back = np.array(vs).reshape(9, 9, 3)
    assert np.array_equal(back, pts)  # 17 significant digits round-trip


@pytest.mark.parametrize("n2", [9, 2 * STRIP_ROWS, 2 * STRIP_ROWS + 1, 3 * STRIP_ROWS + 5])
def test_obj_export_matches_the_one_shot_oracle(tmp_path, n2):
    # the vertex rows and the face rows, one fewer, each fill whole strips
    # on some of these grids and not on others
    rng = np.random.default_rng(n2)
    points = rng.standard_normal((n2, 10, 3)) * 10.0 ** rng.integers(-20, 20, (n2, 10, 3))
    points[3, 4] = (np.nan, -0.0, np.inf)
    streamed, whole = str(tmp_path / "streamed.obj"), str(tmp_path / "whole.obj")
    export_obj(streamed, points)
    export_obj_whole(whole, points)
    assert open(streamed, "rb").read() == open(whole, "rb").read()
