import numpy as np
import pytest

from oracles import dlambda_fd
from solsurf.errors import LambdaSingular
from solsurf.fields import CHART_EUCLIDEAN, CHART_MINKOWSKI, Grid2, interior_max
from solsurf.matlie import fro, identity, mm
from solsurf.sigma import projector, theta_of, traveling_solution, u_pair, veronese_ladder
from solsurf.spectral import (
    WaveField,
    _cond2,
    euclidean_terms,
    euclidean_wave,
    euclidean_wave_coefficients,
    euclidean_wave_dlambda,
    lsp_residual,
    phi_traveling,
    traveling_wave_dlambda,
    wave_diagnostics,
    wave_from_terms,
)

GRID = Grid2(CHART_EUCLIDEAN, (0.0, 0.0), (0.0015, 0.0015), (101, 101))
GRID_M = Grid2(CHART_MINKOWSKI, (0.0, 0.0), (0.001, 0.001), (101, 101))
LADDER2 = veronese_ladder(2, GRID)
LADDER3 = veronese_ladder(3, GRID)
WAVE_M, JET_M = traveling_solution(2.0, 1.0, GRID_M)


def test_wave_base_level_formula():
    # the sum over lowered rungs is empty at the bottom of the ladder
    lam = 0.5
    j = theta_of(LADDER2.rungs[0])
    w = euclidean_wave(j, 0, lam)
    _, beta = euclidean_wave_coefficients(lam)
    expected = identity(2) + beta * LADDER2.rungs[0].values
    assert interior_max(fro(w.values - expected), w.margin) < 1e-14


@pytest.mark.parametrize("n,ladder", [(2, LADDER2), (3, LADDER3)])
@pytest.mark.parametrize("lam", [0.5, -0.3, 2.0])
def test_lsp_residual_all_levels(n, ladder, lam):
    for k in range(n):
        j = theta_of(ladder.rungs[k])
        w = wave_from_terms(GRID, euclidean_terms(j, k, ladder), lam)
        u1, u2 = u_pair(j, lam)
        r1, r2, m = lsp_residual(w, u1, u2)
        assert interior_max(r1, m) < 1e-7
        assert interior_max(r2, m) < 1e-7


def test_lambda_singular():
    j = theta_of(LADDER2.rungs[0])
    with pytest.raises(LambdaSingular):
        euclidean_wave(j, 0, 1.0)
    with pytest.raises(LambdaSingular):
        phi_traveling(WAVE_M, JET_M, -1.0)


def test_jet_lowering_depth_limit():
    from solsurf.errors import DeformationOutOfDomain
    from solsurf.spectral import lowered_rungs_from_jets

    j = theta_of(LADDER3.rungs[2])
    assert len(lowered_rungs_from_jets(j, 2)) == 2
    with pytest.raises(DeformationOutOfDomain):
        lowered_rungs_from_jets(j, 3)


def test_jet_lowering_matches_stored_rungs():
    # the wave builder lowers from the active rung's jets; on an exact
    # solution these are the stored ladder rungs
    from solsurf.spectral import lowered_rungs_from_jets

    j = theta_of(LADDER3.rungs[2])
    r1, r2 = lowered_rungs_from_jets(j, 2)
    assert interior_max(fro(r1 - LADDER3.rungs[1].values), 0) < 1e-12
    assert interior_max(fro(r2 - LADDER3.rungs[0].values), 0) < 1e-12


@pytest.mark.parametrize("ladder", [LADDER2, LADDER3], ids=["n2", "n3"])
def test_value_only_lowering_is_bit_exact_and_skips_derivatives(ladder, monkeypatch):
    import solsurf.spectral as spectral
    from solsurf.matlie import mm, trace

    j = theta_of(ladder.rungs[1])
    p, d1p, d2p = projector(j), -1j * j.d1, -1j * j.d2
    full = spectral.lowered_rung_with_jets(p, d1p, d2p, j)[0]
    num = mm(mm(d2p, p), d1p)
    by_hand = num * (1.0 / trace(num))

    calls = []
    real = spectral.lowered_rung_with_jets
    monkeypatch.setattr(
        spectral, "lowered_rung_with_jets", lambda *a: calls.append(1) or real(*a)
    )
    (value,) = spectral.lowered_rungs_from_jets(j, 1)
    assert calls == []
    assert np.array_equal(value, full, equal_nan=True)
    assert np.array_equal(value, by_hand, equal_nan=True)
    if ladder is LADDER3:
        spectral.lowered_rungs_from_jets(theta_of(ladder.rungs[2]), 2)
        assert calls == [1]


def test_deep_ladder_stored_rung_wave():
    # N = 4, level 3: the builder falls back to the stored rungs
    g = Grid2(CHART_EUCLIDEAN, (0.0, 0.0), (0.0015, 0.0015), (101, 101))
    ladder = veronese_ladder(4, g)
    assert ladder.orthogonality_defect() < 1e-12
    j = theta_of(ladder.rungs[3])
    lam = 0.5
    w = wave_from_terms(g, euclidean_terms(j, 3, ladder), lam)
    c, beta = euclidean_wave_coefficients(lam)
    lowered = sum(r.values for r in ladder.rungs[:3])
    stored = identity(4) + beta * ladder.rungs[3].values + c * lowered
    assert interior_max(fro(w.values - stored), w.margin) < 1e-14
    u1, u2 = u_pair(j, lam)
    r1, r2, m = lsp_residual(w, u1, u2)
    assert max(interior_max(r1, m), interior_max(r2, m)) < 1e-7


def test_wave_linearity_reconstruction():
    # the builder's coefficients rebuild the wave field from the ladder rungs
    lam = -0.3
    w = euclidean_wave(theta_of(LADDER3.rungs[2]), 2, lam)
    c, beta = euclidean_wave_coefficients(lam)
    k = 2
    recon = np.broadcast_to(identity(3), w.values.shape).astype(complex).copy()
    recon = recon + beta * LADDER3.rungs[2].values
    for m in range(k):
        recon = recon + c * LADDER3.rungs[m].values
    assert interior_max(fro(w.values - recon), w.margin) < 1e-14


def test_wave_invertibility_diagnostics():
    lam = 0.5
    j = theta_of(LADDER2.rungs[0])
    w = euclidean_wave(j, 0, lam)
    diag = wave_diagnostics(w)
    assert diag["min_abs_det"] > 1e-10
    assert diag["max_condition"] < 1e4
    # at imaginary lambda the wave function is unitary
    wi = euclidean_wave(j, 0, 0.6j)
    assert wave_diagnostics(wi)["max_unitarity_defect"] < 1e-12


def test_closed_form_condition_number_matches_svd():
    rng = np.random.default_rng(7)
    shape = (40, 50, 2, 2)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rank1 = (rng.standard_normal((40, 50, 2, 1)) + 1j) @ (rng.standard_normal((40, 50, 1, 2)) - 1j)
    unitary, _ = np.linalg.qr(x)
    eps = np.finfo(float).eps

    def first(a):  # the node-major stacks in the kernels' matrix-first layout
        return np.moveaxis(a, (-2, -1), (0, 1))

    for phi in (x, rank1 + 1e-7 * x, unitary):
        ref = np.linalg.cond(phi)
        got = _cond2(first(phi), np.linalg.det(phi))
        # sigma_2 carries an absolute error of order eps * sigma_1
        assert np.all(np.abs(got / ref - 1) <= 8 * eps * ref)
    # NaN where the determinant is undefined, inf where it vanishes
    assert np.isnan(_cond2(np.full((2, 2), np.nan), np.nan))
    assert _cond2(np.ones((2, 2), dtype=complex), 0.0) == np.inf
    g = Grid2(CHART_MINKOWSKI, dims=(50, 40))
    diag = wave_diagnostics(WaveField(g, first(rank1 + 1e-7 * x), lam=0.5))
    ref = np.linalg.cond(rank1 + 1e-7 * x).max()
    assert abs(diag["max_condition"] / ref - 1) <= 8 * eps * ref


def test_traveling_wave_lsp_and_det():
    lam = 0.5
    w = phi_traveling(WAVE_M, JET_M, lam)
    u1, u2 = u_pair(JET_M, lam)
    r1, r2, m = lsp_residual(w, u1, u2)
    assert interior_max(r1, m) < 1e-8
    assert interior_max(r2, m) < 1e-8
    # numpy.linalg takes the matrix axes last
    det = np.linalg.det(np.moveaxis(w.values, (0, 1), (-2, -1)))
    assert np.max(np.abs(det - det[50, 50])) < 1e-10


def test_wave_inverse_computed_once():
    w = phi_traveling(WAVE_M, JET_M, 0.5)
    inv_phi = w.inverse()
    assert w.inverse() is inv_phi
    assert not inv_phi.flags.writeable
    assert interior_max(fro(mm(inv_phi, w.values) - identity(2)), w.margin) < 1e-12


def test_traveling_wave_chi_zero_axis():
    # chi vanishes on x1/(1+lam) = kappa x2/(1-lam); at the origin Phi = 2i theta
    lam = 0.5
    w = phi_traveling(WAVE_M, JET_M, lam)
    i2, i1 = GRID_M.n2 // 2, GRID_M.n1 // 2
    assert fro(w.values[..., i2, i1] - 2j * JET_M.values[..., i2, i1]) < 1e-14


def test_lsp_residual_trivial_phi():
    lam = 0.5
    u1, u2 = u_pair(JET_M, lam)
    from solsurf.spectral import WaveField

    ident = WaveField(
        GRID_M, np.broadcast_to(identity(2), JET_M.values.shape).astype(complex).copy(), lam=lam
    )
    r1, r2, m = lsp_residual(ident, u1, u2)
    assert interior_max(np.abs(r1 - fro(u1.values)), m) < 1e-12
    assert interior_max(np.abs(r2 - fro(u2.values)), m) < 1e-12


def test_traveling_lsp_fourth_order_refinement():
    lam = 0.5
    vals = []
    for h in (0.002, 0.001):
        grid = Grid2(CHART_MINKOWSKI, (0.0, 0.0), (h, h), (101, 101))
        wave, jets = traveling_solution(2.0, 1.0, grid)
        w = phi_traveling(wave, jets, lam)
        u1, u2 = u_pair(jets, lam)
        r1, r2, m = lsp_residual(w, u1, u2)
        vals.append(max(interior_max(r1, m), interior_max(r2, m)))
    assert vals[0] / vals[1] > 8


def test_dlambda_euclid_analytic_vs_fd():
    lam = 0.5
    for k, ladder in ((0, LADDER2), (2, LADDER3)):
        j = theta_of(ladder.rungs[k])
        analytic = euclidean_wave_dlambda(GRID, euclidean_terms(j, k), lam)
        fd = dlambda_fd(lambda l, j=j, k=k: euclidean_wave(j, k, l), lam)
        m = max(analytic.margin, fd.margin)
        assert interior_max(fro(analytic.values - fd.values), m) < 1e-7


def test_dlambda_deep_level_analytic_vs_fd():
    # level 3 sums the stored rungs, in Phi and in dPhi/dlambda alike
    g = Grid2(CHART_EUCLIDEAN, (0.0, 0.0), (0.0015, 0.0015), (41, 41))
    ladder = veronese_ladder(4, g)
    terms = euclidean_terms(theta_of(ladder.rungs[3]), 3, ladder)
    lam = 0.5
    analytic = euclidean_wave_dlambda(g, terms, lam)
    fd = dlambda_fd(lambda l: wave_from_terms(g, terms, l), lam)
    m = max(analytic.margin, fd.margin)
    assert interior_max(fro(analytic.values - fd.values), m) < 1e-7


def test_dlambda_base_level_value():
    # at the bottom of the ladder: dPhi/dlam = -2/(1-lam)^2 P
    lam = 0.5
    analytic = euclidean_wave_dlambda(GRID, euclidean_terms(theta_of(LADDER2.rungs[0]), 0), lam)
    expected = -2 / (1 - lam) ** 2 * LADDER2.rungs[0].values
    assert interior_max(fro(analytic.values - expected), analytic.margin) < 1e-14


def test_dlambda_traveling_analytic_vs_fd():
    lam = 0.5
    analytic = traveling_wave_dlambda(WAVE_M, JET_M, phi_traveling(WAVE_M, JET_M, lam))
    fd = dlambda_fd(lambda l: phi_traveling(WAVE_M, JET_M, l), lam)
    m = max(analytic.margin, fd.margin)
    assert interior_max(fro(analytic.values - fd.values), m) < 1e-7
    # at the origin both chi and its lambda derivative vanish
    i2, i1 = GRID_M.n2 // 2, GRID_M.n1 // 2
    assert fro(analytic.values[..., i2, i1]) < 1e-13
