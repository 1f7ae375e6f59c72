import numpy as np
import pytest

from solsurf.fields import CHART_MINKOWSKI, Grid2, MatrixField, interior_max
from solsurf.geometry import (
    embed_su2,
    export_obj,
    first_fundamental_form,
    gauss_curvature,
    unembed_su2,
)
from solsurf.matlie import inner

SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def flat_grid(h=0.05, n=41):
    return Grid2(CHART_MINKOWSKI, (0.0, 0.0), (h, h), (n, n))


def test_embed_zero_and_axis():
    g = flat_grid()
    zero = MatrixField(g, np.zeros((g.n2, g.n1, 2, 2), dtype=complex), 0)
    surf = embed_su2(zero)
    assert np.max(np.abs(surf.points)) == 0
    # F = i t sigma_3 along x1 -> straight segment on the third axis
    x1, _ = g.mesh()
    f = MatrixField(g, (1j * x1)[..., None, None] * SIGMA3, 0)
    surf = embed_su2(f)
    assert np.max(np.abs(surf.points[..., 0])) < 1e-15
    assert np.max(np.abs(surf.points[..., 1])) < 1e-15
    assert np.max(np.abs(surf.points[..., 2] - x1)) < 1e-15


def test_embed_requires_su2():
    g = flat_grid()
    f3 = MatrixField(g, np.zeros((g.n2, g.n1, 3, 3), dtype=complex), 0)
    with pytest.raises(ValueError):
        embed_su2(f3)


def test_embed_roundtrip_and_isometry():
    g = flat_grid()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((g.n2, g.n1, 3))
    f = unembed_su2(g, a)
    surf = embed_su2(f)
    assert np.max(np.abs(surf.points - a)) < 1e-14
    # linear isometry: inner(X, Y) = dot(embed X, embed Y)
    b = rng.standard_normal((g.n2, g.n1, 3))
    f2 = unembed_su2(g, b)
    dots = np.einsum("...k,...k->...", a, b)
    assert np.max(np.abs(inner(f.values, f2.values) - dots)) < 1e-12


def test_metric_identity_for_orthonormal_plane():
    g = flat_grid()
    x1, x2 = g.mesh()
    e1 = 1j * np.array([[0.0, 1.0], [1.0, 0.0]])
    e2 = 1j * np.array([[0.0, -1j], [1j, 0.0]])
    f = MatrixField(g, x1[..., None, None] * e1 + x2[..., None, None] * e2, 0)
    metric, m = first_fundamental_form(f)
    ident = np.broadcast_to(np.eye(2), metric.shape)
    assert interior_max(np.abs(metric - ident).max(axis=(-1, -2)), m) < 1e-10
    assert np.all(np.linalg.eigvalsh(metric[m:-m, m:-m]) > -1e-12)
    k, km = gauss_curvature(g, metric, m)
    assert interior_max(np.where(np.isfinite(k), k, 0.0), km) < 1e-5


def test_sphere_curvature():
    # synthetic surface tracing a radius-r sphere via stereographic coordinates
    r = 1.7
    g = flat_grid(h=0.02, n=61)
    x, y = g.mesh()
    denom = 1.0 + x**2 + y**2
    n1 = 2 * x / denom
    n2 = 2 * y / denom
    n3 = (x**2 + y**2 - 1.0) / denom
    points = r * np.stack([n1, n2, n3], axis=-1)
    f = unembed_su2(g, points)
    metric, m = first_fundamental_form(f)
    k, km = gauss_curvature(g, metric, m)
    vals = k[km:-km, km:-km]
    vals = vals[np.isfinite(vals)]
    assert vals.size > 0
    assert np.max(np.abs(vals - 1.0 / r**2)) < 0.01 / r**2


def test_curvature_masks_degenerate_metric():
    g = flat_grid()
    x1, _ = g.mesh()
    f = MatrixField(g, (1j * x1)[..., None, None] * SIGMA3, 0)  # a curve
    metric, m = first_fundamental_form(f)
    assert interior_max(np.abs(metric[..., 0, 0] * metric[..., 1, 1]
                               - metric[..., 0, 1] ** 2), m) < 1e-12
    k, km = gauss_curvature(g, metric, m)
    assert np.all(~np.isfinite(k[km:-km, km:-km]))


def test_degenerate_rank_from_traveling_surface():
    from solsurf.sigma import traveling_solution
    from solsurf.spectral import phi_traveling
    from solsurf.symmetry import ConformalSpec, conformal_characteristic
    from solsurf.immersion import explicit_immersion, prolonged_wave

    gm = Grid2(CHART_MINKOWSKI, (0.0, 0.0), (0.002, 0.002), (61, 61))
    wave, jets = traveling_solution(2.0, 1.0, gm)
    spec = ConformalSpec.minkowski((0.0, 1.0), (0.0, 1.0))
    q = conformal_characteristic(spec, jets)
    builder = lambda jd: phi_traveling(wave, jd, 0.5)  # noqa: E731
    calf, _ = explicit_immersion(builder(jets), prolonged_wave(q, jets, builder))
    metric, m = first_fundamental_form(calf)
    det = metric[..., 0, 0] * metric[..., 1, 1] - metric[..., 0, 1] ** 2
    assert interior_max(det, m) < 1e-12


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
    f = unembed_su2(g, pts)
    surf = embed_su2(f)
    path = str(tmp_path / "surf.obj")
    export_obj(path, surf)
    lines = open(path).read().strip().split("\n")
    v_lines = [ln for ln in lines if ln.startswith("v ")]
    f_lines = [ln for ln in lines if ln.startswith("f ")]
    assert len(v_lines) == 81
    assert len(f_lines) == 2 * 8 * 8
    # a 2x2 sub-grid gives 4 vertices, 2 triangles
    sub = np.zeros((2, 2, 3))
    from solsurf.geometry import EmbeddedSurface

    small = EmbeddedSurface(grid=g, points=sub, normals=np.full((2, 2, 3), np.nan))
    path2 = str(tmp_path / "small.obj")
    export_obj(path2, small)
    lines2 = open(path2).read().strip().split("\n")
    assert sum(ln.startswith("v ") for ln in lines2) == 4
    assert sum(ln.startswith("f ") for ln in lines2) == 2
    # the whole-block writer matches the per-node one, non-finite vertices included
    rng = np.random.default_rng(2)
    odd = rng.standard_normal((7, 5, 3)) * 10.0 ** rng.integers(-20, 20, (7, 5, 3))
    odd[1, 2] = np.nan
    odd[3, 0, 1], odd[4, 4, 2] = -0.0, -np.inf
    path3 = str(tmp_path / "odd.obj")
    export_obj(path3, EmbeddedSurface(grid=g, points=odd, normals=np.zeros_like(odd)))
    assert open(path3).read() == _obj_by_loop(odd)


def test_obj_float_fidelity(tmp_path):
    g = Grid2(CHART_MINKOWSKI, (0.0, 0.0), (0.1, 0.1), (9, 9))
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((9, 9, 3))
    surf = embed_su2(unembed_su2(g, pts))
    path = str(tmp_path / "surf.obj")
    export_obj(path, surf)
    vs = []
    for ln in open(path):
        if ln.startswith("v "):
            vs.append([float(t) for t in ln.split()[1:]])
    back = np.array(vs).reshape(9, 9, 3)
    assert np.array_equal(back, pts)  # 17 significant digits round-trip
