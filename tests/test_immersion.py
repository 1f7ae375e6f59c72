import numpy as np
import pytest

from oracles import (
    compatibility_defect_whole,
    constant_field,
    integrated_surface_whole,
    su_projected_whole,
)
from solsurf.fields import (
    CHART_EUCLIDEAN,
    CHART_MINKOWSKI,
    STRIP_ROWS,
    Grid2,
    MatrixField,
    interior_max,
)
from solsurf.matlie import commutator, constant, fro, identity, mm, su_basis
from solsurf.sigma import theta_of, traveling_solution, u_pair, veronese_ladder
from solsurf.spectral import (
    WaveField,
    euclidean_terms,
    euclidean_wave,
    euclidean_wave_dlambda,
    phi_traveling,
    traveling_wave_dlambda,
)
from solsurf.symmetry import (
    ConformalSpec,
    conformal_characteristic,
    frechet_apply,
    traveling_R_fields,
    u_functional,
    wave_functional,
)
from solsurf.immersion import (
    assemble_tangents,
    compatibility_defect,
    conformal_immersion_closed,
    constant_difference_check,
    explicit_immersion,
    integrate_surface,
    linear_independence_report,
    psi_of,
    psi_residual,
    su_distance,
    su_projected,
    sym_tafel,
    tangent_check,
    u_dlambda,
)

GRID = Grid2(CHART_EUCLIDEAN, (0.0, 0.0), (0.0015, 0.0015), (101, 101))
GRID_M = Grid2(CHART_MINKOWSKI, (0.0, 0.0), (0.001, 0.001), (101, 101))
LADDER2 = veronese_ladder(2, GRID)
WAVE_M, JET_M = traveling_solution(2.0, 1.0, GRID_M)
LAM_E = 0.6j
LAM_M = 0.5


def identity_wave(grid, n, lam=0.0):
    vals = np.broadcast_to(identity(n), (n, n, grid.n2, grid.n1)).astype(complex).copy()
    return WaveField(grid, vals, 0, lam=lam)


def test_assemble_requires_ingredient():
    j = theta_of(LADDER2.rungs[0])
    with pytest.raises(ValueError):
        assemble_tangents(j, LAM_E)


def test_u_dlambda_coefficients():
    j = theta_of(LADDER2.rungs[0])
    du1, du2 = u_dlambda(j, LAM_E)
    k1 = commutator(j.d1, j.values)
    k2 = commutator(j.d2, j.values)
    assert interior_max(fro(du1.values - 2 / (1 + LAM_E) ** 2 * k1), du1.margin) < 1e-14
    assert interior_max(fro(du2.values + 2 / (1 - LAM_E) ** 2 * k2), du2.margin) < 1e-14


def test_integrate_zero_tangents():
    j = theta_of(LADDER2.rungs[0])
    w = euclidean_wave(j, 0, LAM_E)
    zero = MatrixField(GRID, np.zeros_like(j.values), 0)
    res = integrate_surface(zero, zero, w)
    assert interior_max(fro(res.field.values), res.field.margin) < 1e-15
    assert res.path_defect < 1e-15


def test_integrate_constant_commuting_tangents():
    # constant commuting conjugated tangents give the exact linear surface
    n1 = n2 = 21
    g = Grid2(CHART_MINKOWSKI, (0.0, 0.0), (0.1, 0.1), (n1, n2))
    m1 = 1j * np.array([[1.0, 0.0], [0.0, -1.0]])
    m2 = 2j * np.array([[1.0, 0.0], [0.0, -1.0]])
    a = constant_field(g, m1)
    b = constant_field(g, m2)
    w = identity_wave(g, 2)
    res = integrate_surface(a, b, w)
    x1, x2 = g.mesh()
    expected = (x1 - x1[0, 0]) * constant(m1) + (x2 - x2[0, 0]) * constant(m2)
    assert interior_max(fro(res.field.values - expected), 0) < 1e-13
    assert res.path_defect < 1e-13
    assert res.su_correction < 1e-13


def test_integrate_basepoint_and_validation():
    j = theta_of(LADDER2.rungs[0])
    w = euclidean_wave(j, 0, LAM_E)
    q = conformal_characteristic(ConformalSpec.euclidean((0.0, 0.0, 1.0)), j)
    ((a, b),) = frechet_apply([u_functional(LAM_E)], j, q)
    res = integrate_surface(a, b, w)
    m = max(a.margin, b.margin, w.margin)
    assert m > 0 and res.basepoint == (m, m)
    assert fro(res.field.values[..., m, m]) < 1e-14


def test_integrated_matches_closed_form_conformal():
    spec = ConformalSpec.euclidean((0.0, 0.0, 1.0))
    j = theta_of(LADDER2.rungs[0])
    w = euclidean_wave(j, 0, LAM_E)
    q = conformal_characteristic(spec, j)
    u1, u2 = u_pair(j, LAM_E)
    ((a, b),) = frechet_apply([u_functional(LAM_E)], j, q)
    assert compatibility_defect(a, b, u1, u2) < 1e-6
    res = integrate_surface(a, b, w, u1=u1, u2=u2)
    assert res.path_defect < 1e-6
    f_closed = conformal_immersion_closed(spec, j, w, LAM_E)
    assert su_distance(f_closed) < 1e-10  # admissible spectral parameter: F lies in su(2)
    _, variation = constant_difference_check(res.raw, f_closed)
    assert variation < 1e-7
    assert max(tangent_check(f_closed, w, a, b)) < 1e-6


def test_incompatible_pair_warns():
    j = theta_of(LADDER2.rungs[0])
    w = euclidean_wave(j, 0, LAM_E)
    u1, u2 = u_pair(j, LAM_E)
    zero = MatrixField(GRID, np.zeros_like(u1.values), u1.margin)
    with pytest.warns(UserWarning, match="not compatible"):
        res = integrate_surface(u1, zero, w, u1=u1, u2=u2)
    assert res.compat_defect > 1e-3
    assert res.path_defect > 1e-6


def _with_nan_rows(shape, rows, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    vals[..., rows, :] = np.nan
    return vals


def test_su_projected_strips_match_the_whole_field():
    # one strip all NaN, a NaN row in another, a NaN node in a third; the
    # last strip is short
    g = Grid2(CHART_MINKOWSKI, (0.0, 0.0), (0.1, 0.1), (13, 3 * STRIP_ROWS + 5))
    rows = list(range(STRIP_ROWS, 2 * STRIP_ROWS)) + [2 * STRIP_ROWS + 3]
    vals = _with_nan_rows((3, 3, g.n2, g.n1), rows, 1)
    vals[1, 2, 3, 4] = np.nan
    f = MatrixField(g, vals, 2)
    field, corr = su_projected(f)
    whole, whole_corr = su_projected_whole(f)
    assert np.array_equal(field.values, whole.values, equal_nan=True)
    assert corr == whole_corr and np.isfinite(corr)
    assert np.isnan(field.values[..., STRIP_ROWS : 2 * STRIP_ROWS, :]).all()


@pytest.mark.parametrize("chart", [CHART_EUCLIDEAN, CHART_MINKOWSKI])
def test_integrate_surface_strips_match_the_whole_grid(chart):
    # a NaN row of B leaves every later row of the x2 integral NaN, so the
    # path defect meets a partly NaN strip and strips that are all NaN
    g = Grid2(chart, (0.0, 0.0), (0.1, 0.1), (11, 4 * STRIP_ROWS + 3))
    a = MatrixField(g, _with_nan_rows((2, 2, g.n2, g.n1), [], 2), 1)
    b = MatrixField(g, _with_nan_rows((2, 2, g.n2, g.n1), [STRIP_ROWS + 5], 3), 1)
    w = WaveField(g, identity(2) + 0.1 * _with_nan_rows((2, 2, g.n2, g.n1), [], 4), 0, lam=0.5)
    res = integrate_surface(a, b, w)
    raw, path_defect = integrated_surface_whole(a, b, w)
    assert np.array_equal(res.raw.values, raw, equal_nan=True)
    assert res.path_defect == path_defect and np.isfinite(path_defect)
    assert np.isnan(raw[..., 2 * STRIP_ROWS :, :]).all()
    field, corr = su_projected_whole(MatrixField(g, raw, 1))
    assert np.array_equal(res.field.values, field.values, equal_nan=True)
    assert res.su_correction == corr


@pytest.mark.parametrize("chart", [CHART_EUCLIDEAN, CHART_MINKOWSKI])
@pytest.mark.parametrize("n", [2, 3])
def test_compatibility_defect_strips_match_the_whole_field(chart, n):
    # the stencils read two rows across each strip boundary: spikes on the
    # first two rows of a strip put the largest residual on its first row,
    # a NaN row near a boundary reaches into the next strip, and the last
    # strip is short
    g = Grid2(chart, (0.1, -0.2), (0.1, 0.05), (13, 3 * STRIP_ROWS + 5))
    shape = (n, n, g.n2, g.n1)
    a = MatrixField(g, _with_nan_rows(shape, [STRIP_ROWS - 1], 5), 1)
    a.values[..., 2 * STRIP_ROWS, 6] += 1e3
    a.values[..., 2 * STRIP_ROWS + 1, 6] += 2e3
    b = MatrixField(g, _with_nan_rows(shape, [3 * STRIP_ROWS + 1], 6), 0)
    u1 = MatrixField(g, _with_nan_rows(shape, [], 7), 2)
    u2 = MatrixField(g, _with_nan_rows(shape, [], 8), 0)
    defect = compatibility_defect(a, b, u1, u2)
    assert defect == compatibility_defect_whole(a, b, u1, u2) and np.isfinite(defect)


def test_sym_tafel_euclid():
    j = theta_of(LADDER2.rungs[0])
    w = euclidean_wave(j, 0, LAM_E)
    u1, u2 = u_pair(j, LAM_E)
    dphi = euclidean_wave_dlambda(GRID, euclidean_terms(j, 0), LAM_E)
    zero_f = sym_tafel(w, dphi, 0.0)
    assert interior_max(fro(zero_f.values), zero_f.margin) == 0
    fst = sym_tafel(w, dphi, 1.0)
    du1, du2 = u_dlambda(j, LAM_E)
    assert max(tangent_check(fst, w, du1, du2)) < 1e-6
    a, b = assemble_tangents(j, LAM_E, a_coeffs=(1.0,))
    res = integrate_surface(a, b, w, u1=u1, u2=u2)
    _, variation = constant_difference_check(res.raw, fst)
    assert variation < 1e-7


def test_sym_tafel_traveling_closed_form():
    # F^ST = a * 2 (d chi/d lam) Phi^-1 [theta_1, theta] Phi
    w = phi_traveling(WAVE_M, JET_M, LAM_M)
    dphi = traveling_wave_dlambda(WAVE_M, JET_M, w)
    fst = sym_tafel(w, dphi, 1.5)
    komm = commutator(JET_M.d1, JET_M.values)
    expected = 1.5 * 2.0 * WAVE_M.dlambda_chi(LAM_M) * mm(mm(w.inverse(), komm), w.values)
    assert interior_max(fro(fst.values - expected), fst.margin) < 1e-12


def test_gauge_immersion():
    j = theta_of(LADDER2.rungs[0])
    w = euclidean_wave(j, 0, LAM_E)
    u1, u2 = u_pair(j, LAM_E)
    zero = MatrixField(GRID, np.zeros_like(j.values), 0)
    # the gauge immersion is F = Phi^-1 S Phi
    f0 = MatrixField(GRID, w.conjugate(zero.values), max(w.margin, zero.margin))
    assert interior_max(fro(f0.values), f0.margin) == 0
    # constant S: tangents are Phi^-1 [S, u^alpha] Phi
    s = constant_field(GRID, 1j * np.array([[1.0, 0.0], [0.0, -1.0]]))
    fs = MatrixField(GRID, w.conjugate(s.values), max(w.margin, s.margin))
    t1 = MatrixField(GRID, commutator(s.values, u1.values), u1.margin)
    t2 = MatrixField(GRID, commutator(s.values, u2.values), u2.margin)
    assert max(tangent_check(fs, w, t1, t2)) < 1e-6
    # random smooth S: tangents Phi^-1 (D_alpha S + [S, u^alpha]) Phi
    basis = su_basis(2)
    x, y = GRID.mesh()
    rng = np.random.default_rng(7)
    s2_vals = np.zeros_like(j.values)
    for a in range(basis.elements.shape[-1]):
        c = rng.standard_normal(4)
        poly = c[0] + c[1] * x + c[2] * y + c[3] * x * y
        s2_vals = s2_vals + poly * constant(basis.elements[..., a])
    s2 = MatrixField(GRID, s2_vals, 0)
    fs2 = MatrixField(GRID, w.conjugate(s2.values), max(w.margin, s2.margin))
    from solsurf.fields import chart_first_derivatives

    d1s, d2s, sm = chart_first_derivatives(s2)
    t1 = MatrixField(GRID, d1s + commutator(s2.values, u1.values), sm)
    t2 = MatrixField(GRID, d2s + commutator(s2.values, u2.values), sm)
    assert max(tangent_check(fs2, w, t1, t2)) < 1e-6


def test_gauge_term_cancels_for_commuting_constant():
    # constant S commuting with both connection components: A = B = 0
    s = constant_field(GRID_M, commutator(JET_M.d1, JET_M.values)[..., 50, 50])
    a, b = assemble_tangents(JET_M, LAM_M, gauge=s)
    assert interior_max(fro(a.values), a.margin) < 1e-13
    assert interior_max(fro(b.values), b.margin) < 1e-13


def test_assemble_additivity():
    j = theta_of(LADDER2.rungs[0])
    spec = ConformalSpec.euclidean((0.0, 0.0, 1.0))
    s = constant_field(GRID, 1j * np.array([[0.0, 1.0], [1.0, 0.0]]))
    ((pw1, pw2),) = frechet_apply([u_functional(LAM_E)], j, conformal_characteristic(spec, j))
    a_all, b_all = assemble_tangents(j, LAM_E, a_coeffs=(1.0,), gauge=s, prw_u=(pw1, pw2))
    a1, b1 = assemble_tangents(j, LAM_E, a_coeffs=(1.0,))
    a2, b2 = assemble_tangents(j, LAM_E, gauge=s)
    a3, b3 = assemble_tangents(j, LAM_E, prw_u=(pw1, pw2))
    assert np.array_equal(a3.values, pw1.values, equal_nan=True)
    m = a_all.margin
    assert interior_max(fro(a_all.values - a1.values - a2.values - a3.values), m) < 1e-10
    assert interior_max(fro(b_all.values - b1.values - b2.values - b3.values), m) < 1e-10


def test_conformal_zero_spec():
    j = theta_of(LADDER2.rungs[0])
    w = euclidean_wave(j, 0, LAM_E)
    f = conformal_immersion_closed(ConformalSpec.euclidean((0.0,)), j, w, LAM_E)
    assert interior_max(fro(f.values), f.margin) == 0


def test_traveling_conformal_closed_form_reduction():
    # with theta_2 = kappa theta_1 the closed form collapses onto one direction
    spec = ConformalSpec.minkowski((0.4, 0.7), (-0.3, 0.7))
    w = phi_traveling(WAVE_M, JET_M, LAM_M)
    f = conformal_immersion_closed(spec, JET_M, w, LAM_M)
    komm = commutator(JET_M.d1, JET_M.values)
    coeff = -2 * (
        spec.f(GRID_M) / (1 + LAM_M) + WAVE_M.kappa * spec.g(GRID_M) / (1 - LAM_M)
    )
    expected = coeff * mm(mm(w.inverse(), komm), w.values)
    assert interior_max(fro(f.values - expected), f.margin) < 1e-12


def test_prolong_immersion_trivial_and_psi():
    j = theta_of(LADDER2.rungs[0])
    w = euclidean_wave(j, 0, LAM_E)
    zero_q = MatrixField(GRID, np.zeros_like(j.values), 0)
    ((prw_phi,),) = frechet_apply([wave_functional(lambda jd: euclidean_wave(jd, 0, LAM_E))], j, zero_q)
    calf = explicit_immersion(w, prw_phi)
    assert interior_max(fro(calf.values), calf.margin) < 1e-12

    # Psi = Phi F trivia and the deformed linear system
    zero_f = MatrixField(GRID, np.zeros_like(j.values), 0)
    assert interior_max(fro(psi_of(zero_f, w).values), 0) == 0
    spec = ConformalSpec.euclidean((0.0, 0.0, 1.0))
    q = conformal_characteristic(spec, j)
    u1, u2 = u_pair(j, LAM_E)
    ((a, b),) = frechet_apply([u_functional(LAM_E)], j, q)
    f_closed = conformal_immersion_closed(spec, j, w, LAM_E)
    psi = psi_of(f_closed, w)
    assert psi_residual(psi, w, u1, u2, a, b) < 1e-6


def test_psi_sym_tafel_is_dlambda_phi():
    j = theta_of(LADDER2.rungs[0])
    w = euclidean_wave(j, 0, LAM_E)
    dphi = euclidean_wave_dlambda(GRID, euclidean_terms(j, 0), LAM_E)
    fst = sym_tafel(w, dphi, 1.0)
    psi = psi_of(fst, w)
    assert interior_max(fro(psi.values - dphi.values), psi.margin) < 1e-7


def test_rank_degeneracy_and_gauge_restoration():
    spec = ConformalSpec.minkowski((0.0, 0.0, 1.0), (0.0,))
    w = phi_traveling(WAVE_M, JET_M, LAM_M)
    u1, u2 = u_pair(JET_M, LAM_M)
    r1, r2 = traveling_R_fields(spec, WAVE_M, JET_M, LAM_M)
    t1 = MatrixField(GRID_M, mm(mm(w.inverse(), r1.values), w.values), r1.margin)
    t2 = MatrixField(GRID_M, mm(mm(w.inverse(), r2.values), w.values), r2.margin)
    rep = linear_independence_report(t1, t2)
    assert rep["max_min_eigenvalue"] < 1e-10  # a curve, not a surface
    s = constant_field(GRID_M, 1j * np.array([[1.0, 0.0], [0.0, -1.0]]))
    tg1 = MatrixField(GRID_M, w.conjugate(r1.values + commutator(s.values, u1.values)), r1.margin)
    tg2 = MatrixField(GRID_M, w.conjugate(r2.values + commutator(s.values, u2.values)), r2.margin)
    rep2 = linear_independence_report(tg1, tg2)
    assert rep2["max_min_eigenvalue"] > 1e-3
