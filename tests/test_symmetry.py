import numpy as np
import pytest

from oracles import el_symmetry_defect
from solsurf.errors import ChartMismatch
from solsurf.fields import (
    CHART_EUCLIDEAN,
    CHART_MINKOWSKI,
    Grid2,
    MatrixField,
    chart_first_derivatives,
    interior_max,
)
from solsurf.matlie import commutator, dagger, fro, trace
from solsurf.sigma import JetField, theta_of, traveling_solution, u_pair, veronese_ladder
from solsurf.spectral import euclidean_wave, phi_traveling
from solsurf.symmetry import (
    ConformalSpec,
    commutation_defect,
    compatibility_defect,
    conformal_characteristic,
    frechet_apply,
    lowering_derivatives_functional,
    lowering_functional,
    prolong_u,
    theta_derivatives_functional,
    theta_functional,
    traveling_R_fields,
    u_derivatives_functional,
    u_functional,
    wave_functional,
)

GRID = Grid2(CHART_EUCLIDEAN, (0.0, 0.0), (0.0015, 0.0015), (101, 101))
GRID_M = Grid2(CHART_MINKOWSKI, (0.0, 0.0), (0.001, 0.001), (101, 101))
LADDER2 = veronese_ladder(2, GRID)
WAVE_M, JET_M = traveling_solution(2.0, 1.0, GRID_M)
LAM_E = 0.6j
LAM_M = 0.5


from hypothesis import given, settings
from hypothesis import strategies as st

complex_coeff = st.tuples(
    st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False)
).map(lambda p: complex(*p))


@given(st.lists(complex_coeff, min_size=1, max_size=4))
@settings(max_examples=15, deadline=None)
def test_conformal_characteristic_stays_in_algebra(coeffs):
    j = theta_of(LADDER2.rungs[0])
    spec = ConformalSpec.euclidean(tuple(coeffs))
    q = conformal_characteristic(spec, j)
    assert interior_max(fro(q.values + dagger(q.values)), q.margin) < 1e-12
    tr = trace(q.values)
    assert interior_max(np.abs(tr), q.margin) < 1e-12


def test_conformal_spec_validation():
    with pytest.raises(ValueError):
        ConformalSpec((1j,), (0j,), CHART_MINKOWSKI)  # complex data on Minkowski
    with pytest.raises(ValueError):
        ConformalSpec((1j,), (1j,), CHART_EUCLIDEAN)  # g must be conjugated
    spec = ConformalSpec.euclidean((0.5j, 1.0))
    assert spec.g_coeffs == (-0.5j, 1.0)
    with pytest.raises(ChartMismatch):
        conformal_characteristic(spec, JET_M)


def test_characteristic_values():
    j = theta_of(LADDER2.rungs[0])
    zero = conformal_characteristic(ConformalSpec.euclidean((0.0,)), j)
    assert interior_max(fro(zero.values), zero.margin) == 0
    trans = conformal_characteristic(ConformalSpec.euclidean((1.0,)), j)
    assert interior_max(fro(trans.values - j.d1 - j.d2), trans.margin) < 1e-14
    # anti-Hermitian output on both charts
    spec = ConformalSpec.euclidean((0.3 + 0.2j, 0.0, 1.0))
    q = conformal_characteristic(spec, j)
    assert interior_max(fro(q.values + dagger(q.values)), q.margin) < 1e-13
    qm = conformal_characteristic(ConformalSpec.minkowski((0.0, 1.0), (0.0, 1.0)), JET_M)
    assert interior_max(fro(qm.values + dagger(qm.values)), qm.margin) < 1e-13


def test_frechet_identity_and_first_jet():
    j = theta_of(LADDER2.rungs[0])
    spec = ConformalSpec.euclidean((0.0, 0.0, 1.0))
    q = conformal_characteristic(spec, j)
    (ident,), (prw_d1, _) = frechet_apply([theta_functional(), theta_derivatives_functional()], j, q)
    assert interior_max(fro(ident.values - q.values), ident.margin) < 1e-10
    from solsurf.fields import chart_jets

    qj = chart_jets(q)
    assert interior_max(fro(prw_d1.values - qj.d1), max(prw_d1.margin, qj.margin1)) < 1e-8


def test_frechet_linearity_in_q():
    j = theta_of(LADDER2.rungs[0])
    q1 = conformal_characteristic(ConformalSpec.euclidean((1.0,)), j)
    q2 = conformal_characteristic(ConformalSpec.euclidean((0.0, 0.0, 1.0)), j)
    qsum = MatrixField(j.grid, q1.values + q2.values, max(q1.margin, q2.margin))
    g = u_functional(LAM_E)
    pairs = (frechet_apply([g], j, q)[0] for q in (q1, q2, qsum))
    for a, b, c in zip(*pairs):
        m = max(a.margin, b.margin, c.margin)
        assert interior_max(fro(c.values - a.values - b.values), m) < 1e-9


def test_prolong_u_closed_vs_deformation():
    j = theta_of(LADDER2.rungs[0])
    spec = ConformalSpec.euclidean((0.0, 0.0, 1.0))
    q = conformal_characteristic(spec, j)
    pw1, pw2 = prolong_u(spec, j, LAM_E)
    ((f1, f2),) = frechet_apply([u_functional(LAM_E)], j, q)
    assert interior_max(fro(pw1.values - f1.values), max(pw1.margin, f1.margin)) < 1e-6
    assert interior_max(fro(pw2.values - f2.values), max(pw2.margin, f2.margin)) < 1e-6
    # the pair is quadratic, so its one central difference matches the
    # closed form to rounding on both charts
    spec_m = ConformalSpec.minkowski((0.0, 1.0), (0.5, 1.0))
    for spec, j, lam in ((ConformalSpec.euclidean((0.3, 0.0, 1.0)), j, LAM_E), (spec_m, JET_M, LAM_M)):
        q = conformal_characteristic(spec, j)
        for got, want in zip(frechet_apply([u_functional(lam)], j, q)[0], prolong_u(spec, j, lam)):
            m = max(got.margin, want.margin)
            scale = interior_max(fro(want.values), m)
            assert interior_max(fro(got.values - want.values), m) < 1e-8 * scale


def test_prolong_u_translation():
    # constant coefficients: pr w u1 = c1 D1 u1 + c2 D2 u1
    j = theta_of(LADDER2.rungs[0])
    spec = ConformalSpec.euclidean((2.0,))
    pw1, _ = prolong_u(spec, j, LAM_E)
    du1_1, du1_2 = u_derivatives_functional(LAM_E, 1)(j)
    expected = 2.0 * du1_1.values + 2.0 * du1_2.values
    assert interior_max(fro(pw1.values - expected), pw1.margin) < 1e-13


def test_prolong_u_zero():
    j = theta_of(LADDER2.rungs[0])
    pw1, pw2 = prolong_u(ConformalSpec.euclidean((0.0,)), j, LAM_E)
    assert interior_max(fro(pw1.values), pw1.margin) == 0
    assert interior_max(fro(pw2.values), pw2.margin) == 0


@pytest.mark.parametrize("control", ["positive", "negative"])
def test_el_symmetry_defect_is_compatibility_of_prolonged_pair(control):
    j = theta_of(LADDER2.rungs[0])
    if control == "positive":
        q = conformal_characteristic(ConformalSpec.euclidean((0.0, 0.0, 1.0)), j)
    else:
        q = MatrixField(j.grid, j.values.copy(), j.margin)
    ((a, b),) = frechet_apply([u_functional(LAM_E)], j, q)
    u1, u2 = u_pair(j, LAM_E)
    assert el_symmetry_defect(q, j, LAM_E) == compatibility_defect(a, b, u1, u2)


def _count_deformations(monkeypatch) -> list[float]:
    steps = []
    deformed = JetField.deformed

    def counting(self, eps, *args):
        steps.append(eps)
        return deformed(self, eps, *args)

    monkeypatch.setattr(JetField, "deformed", counting)
    return steps


def test_pair_prolongation_is_bit_exact_and_costs_one_evaluation(monkeypatch):
    # the pair shares its two deformations, and each component is the
    # same difference quotient as when it is prolonged on its own
    j = theta_of(LADDER2.rungs[1])
    q = conformal_characteristic(ConformalSpec.euclidean((0.0, 0.0, 1.0)), j)
    g = lowering_derivatives_functional()
    steps = _count_deformations(monkeypatch)
    (pair,) = frechet_apply([g], j, q)
    assert len(pair) == 2
    assert len(steps) == 2
    for index, whole in enumerate(pair):
        ((alone,),) = frechet_apply([lambda jd, i=index: (g(jd)[i],)], j, q)
        assert np.array_equal(whole.values, alone.values, equal_nan=True)
        assert whole.margin == alone.margin


def test_quadratic_pair_costs_one_central_pair(monkeypatch):
    # the connection pair takes the +/- eps pair, and each component is
    # bit-exactly the central difference of that component alone
    j = theta_of(LADDER2.rungs[0])
    q = conformal_characteristic(ConformalSpec.euclidean((0.0, 0.0, 1.0)), j)
    steps = _count_deformations(monkeypatch)
    (pair,) = frechet_apply([u_functional(LAM_E)], j, q)
    assert len(pair) == 2
    assert len(steps) == 2
    for index, whole in enumerate(pair):
        ((alone,),) = frechet_apply([lambda jd, i=index: (u_pair(jd, LAM_E)[i],)], j, q)
        assert np.array_equal(whole.values, alone.values, equal_nan=True)
        assert whole.margin == alone.margin


def _counted(evaluations: list[int], i: int, g):
    def h(jd):
        evaluations[i] += 1
        return g(jd)

    return h


def test_shared_prolongation_is_bit_exact_and_costs_one_central_pair(monkeypatch):
    # one call prolongs several functionals: each result equals that of
    # the functional's own call bit for bit, and the two deformations are
    # built once, each functional evaluated on both
    j = theta_of(LADDER2.rungs[1])
    q = conformal_characteristic(ConformalSpec.euclidean((0.0, 0.0, 1.0)), j)
    gs = [
        theta_functional(),
        u_functional(LAM_E),
        lowering_functional(),
        wave_functional(lambda jd: euclidean_wave(jd, 1, LAM_E), LAM_E),
    ]
    separate = [frechet_apply([g], j, q)[0] for g in gs]
    evaluations = [0] * len(gs)
    steps = _count_deformations(monkeypatch)
    shared = frechet_apply([_counted(evaluations, i, g) for i, g in enumerate(gs)], j, q)
    assert len(steps) == 2
    assert evaluations == [2, 2, 2, 2]
    for alone, together in zip(separate, shared, strict=True):
        assert len(alone) == len(together)
        for a, b in zip(alone, together):
            assert np.array_equal(a.values, b.values, equal_nan=True)
            assert a.margin == b.margin


def test_frechet_apply_rejects_a_non_positive_step():
    j = theta_of(LADDER2.rungs[0])
    q = conformal_characteristic(ConformalSpec.euclidean((1.0,)), j)
    for eps_base in (0.0, -1e-5):
        with pytest.raises(ValueError, match="eps_base"):
            frechet_apply([theta_functional()], j, q, eps_base)


@pytest.mark.parametrize(
    "functional, axes",
    [(u_functional(LAM_E), []), (u_derivatives_functional(LAM_E, 1), [-2, -1])],
    ids=["u", "du1"],
)
def test_second_jets_are_built_only_when_read(monkeypatch, functional, axes):
    # the pair reads theta, D_1 theta and D_2 theta only, so no
    # second-order stencil of Q runs; D u reads them, one set for all four
    # deformations (d/dy^2 and d/dx^2, along grid axes -2 and -1)
    from solsurf import fields

    calls = []
    diff2 = fields.diff2

    def counting(*args, **kwargs):
        calls.append(kwargs.get("axis"))
        return diff2(*args, **kwargs)

    monkeypatch.setattr(fields, "diff2", counting)
    j = theta_of(LADDER2.rungs[0])
    q = conformal_characteristic(ConformalSpec.euclidean((0.0, 0.0, 1.0)), j)
    frechet_apply([functional], j, q)
    assert sorted(calls) == axes


FUNCTIONALS = {
    "theta_functional": theta_functional(),
    "theta_derivatives_functional": theta_derivatives_functional(),
    "u_functional": u_functional(LAM_E),
    "u_derivatives_functional": u_derivatives_functional(LAM_E, 2),
    "lowering_functional": lowering_functional(),
    "lowering_derivatives_functional": lowering_derivatives_functional(),
    # Phi on rung 1, where it is rational in the jets
    "wave_functional": wave_functional(lambda jd: euclidean_wave(jd, 1, LAM_E), LAM_E),
}


def test_functionals_cover_the_module():
    from solsurf import symmetry

    # a new functional must be added to FUNCTIONALS
    assert set(FUNCTIONALS) == {name for name in symmetry.__all__ if name.endswith("_functional")}


@pytest.mark.parametrize("name", sorted(FUNCTIONALS))
def test_every_functional_costs_one_central_pair(monkeypatch, name):
    # rational functionals too: the +/- eps pair is the only prolongation
    # rule, so each functional is evaluated once on each deformation
    j = theta_of(LADDER2.rungs[1])
    q = conformal_characteristic(ConformalSpec.euclidean((0.0, 0.0, 1.0)), j)
    evaluations = [0]
    steps = _count_deformations(monkeypatch)
    frechet_apply([_counted(evaluations, 0, FUNCTIONALS[name])], j, q)
    assert len(steps) == 2
    assert evaluations == [2]


@pytest.mark.parametrize("name", sorted(FUNCTIONALS))
def test_quadratic_functionals_have_exact_central_differences(name):
    # for a functional of degree <= 2 in the jets the eps and eps/2 central
    # differences agree to rounding even at a large step; a rational one
    # (the lowered rung, Phi on rung 1) differs at O(eps^2)
    quadratic = {
        "theta_functional",
        "theta_derivatives_functional",
        "u_functional",
        "u_derivatives_functional",
    }
    g = FUNCTIONALS[name]
    j = theta_of(LADDER2.rungs[1])
    q = conformal_characteristic(ConformalSpec.euclidean((0.3, 0.0, 1.0)), j)
    whole, half = (frechet_apply([g], j, q, eps)[0] for eps in (1e-2, 5e-3))
    gap = 0.0
    for a, b in zip(whole, half):
        m = max(a.margin, b.margin)
        gap = max(gap, interior_max(fro(a.values - b.values), m) / interior_max(fro(a.values), m))
    if name in quadratic:
        assert gap < 1e-11
    else:
        assert gap > 1e-6


def test_compatibility_defect_reexported_by_immersion():
    from solsurf import immersion

    assert immersion.compatibility_defect is compatibility_defect
    assert "compatibility_defect" in immersion.__all__


def test_el_symmetry_defect_positive_negative():
    j = theta_of(LADDER2.rungs[0])
    q = conformal_characteristic(ConformalSpec.euclidean((0.0, 0.0, 1.0)), j)
    assert el_symmetry_defect(q, j, LAM_E) < 1e-6
    qneg = MatrixField(j.grid, j.values.copy(), j.margin)
    assert el_symmetry_defect(qneg, j, LAM_E) > 1e-3
    zero = MatrixField(j.grid, np.zeros_like(j.values), 0)
    assert el_symmetry_defect(zero, j, LAM_E) < 1e-15


def test_lsp_symmetry_defect_euclid():
    j = theta_of(LADDER2.rungs[0])
    q = conformal_characteristic(ConformalSpec.euclidean((0.0, 0.0, 1.0)), j)
    g = wave_functional(lambda jd: euclidean_wave(jd, 0, LAM_E), LAM_E)
    ((_, r1, r2),) = frechet_apply([g], j, q)
    assert interior_max(fro(r1.values), r1.margin) < 1e-6
    assert interior_max(fro(r2.values), r2.margin) < 1e-6


def test_lsp_symmetry_defect_traveling_criteria():
    builder = lambda jd: phi_traveling(WAVE_M, jd, LAM_M)  # noqa: E731
    w = builder(JET_M)
    g = wave_functional(builder, LAM_M)
    # quadratic f: fails with the predicted defect field
    spec_q = ConformalSpec.minkowski((0.0, 0.0, 1.0), (0.0,))
    qq = conformal_characteristic(spec_q, JET_M)
    ((_, r1, r2),) = frechet_apply([g], JET_M, qq)
    d1phi, _, dm = chart_first_derivatives(w)
    pred = (-(spec_q.f11(GRID_M)) * WAVE_M.chi(LAM_M) * (1 + LAM_M)) * d1phi
    assert interior_max(fro(r1.values - pred), max(r1.margin, dm)) < 1e-6
    assert interior_max(fro(r1.values), r1.margin) > 0.1
    # affine with equal slopes: both vanish
    spec_l = ConformalSpec.minkowski((0.4, 0.7), (-0.3, 0.7))
    ql = conformal_characteristic(spec_l, JET_M)
    ((_, rl1, rl2),) = frechet_apply([g], JET_M, ql)
    assert interior_max(fro(rl1.values), rl1.margin) < 1e-6
    assert interior_max(fro(rl2.values), rl2.margin) < 1e-6
    # unequal slopes break the second equation only
    spec_n = ConformalSpec.minkowski((0.0, 1.0), (0.0, 2.0))
    qn = conformal_characteristic(spec_n, JET_M)
    ((_, rn1, rn2),) = frechet_apply([g], JET_M, qn)
    assert interior_max(fro(rn1.values), rn1.margin) < 1e-6
    assert interior_max(fro(rn2.values), rn2.margin) > 1e-2


def test_traveling_R_fields():
    kappa, lam = WAVE_M.kappa, LAM_M
    komm = commutator(JET_M.d1, JET_M.values)
    # constants: both vanish
    spec_c = ConformalSpec.minkowski((0.4,), (-0.2,))
    r1, r2 = traveling_R_fields(spec_c, WAVE_M, JET_M, lam)
    assert interior_max(fro(r1.values), r1.margin) == 0
    assert interior_max(fro(r2.values), r2.margin) == 0
    # dilation f = x1, g = x2
    spec_d = ConformalSpec.minkowski((0.0, 1.0), (0.0, 1.0))
    r1, r2 = traveling_R_fields(spec_d, WAVE_M, JET_M, lam)
    assert interior_max(fro(r1.values - (-2 / (1 + lam)) * komm), r1.margin) < 1e-13
    c2 = -2 * kappa - 2 * kappa * lam / (1 - lam)
    assert interior_max(fro(r2.values - c2 * komm), r2.margin) < 1e-13
    # for a symmetry of the wave equations the R pair is the prolonged pair
    q = conformal_characteristic(spec_d, JET_M)
    ((pw1, pw2),) = frechet_apply([u_functional(lam)], JET_M, q)
    assert interior_max(fro(r1.values - pw1.values), pw1.margin) < 1e-8
    assert interior_max(fro(r2.values - pw2.values), pw2.margin) < 1e-8


def test_commutation_defect_small():
    j = theta_of(LADDER2.rungs[0])
    q = conformal_characteristic(ConformalSpec.euclidean((0.0, 0.0, 1.0)), j)
    gs = [
        theta_functional(),
        theta_derivatives_functional(),
        u_functional(LAM_E),
        u_derivatives_functional(LAM_E, 1),
    ]
    (prw_theta,), prw_dtheta, (prw_u1, _), prw_du1 = frechet_apply(gs, j, q)
    assert commutation_defect(prw_theta, prw_dtheta) < 1e-8
    assert commutation_defect(prw_u1, prw_du1) < 1e-6


def test_commutation_orders():
    j1 = theta_of(LADDER2.rungs[1])
    trans = ConformalSpec.euclidean((1.0,))
    q1 = conformal_characteristic(trans, j1)
    g = lowering_functional()
    dl1, dl2 = lowering_derivatives_functional()(j1)
    ref = dl1.values + dl2.values  # f = g = 1
    ds = []
    for eps in (0.04, 0.02):
        ((pw,),) = frechet_apply([g], j1, q1, eps)
        ds.append(interior_max(fro(pw.values - ref), max(pw.margin, dl1.margin)))
    assert np.log2(ds[0] / ds[1]) > 1.9

    spec = ConformalSpec.euclidean((0.0, 0.0, 1.0))
    hs = []
    for h in (0.012, 0.006):
        gh = Grid2(CHART_EUCLIDEAN, (0.0, 0.0), (h, h), (101, 101))
        jh = theta_of(veronese_ladder(2, gh).rungs[1])
        qh = conformal_characteristic(spec, jh)
        (prw_g,), prw_dg = frechet_apply(
            [lowering_functional(), lowering_derivatives_functional()], jh, qh, 1e-3
        )
        hs.append(commutation_defect(prw_g, prw_dg))
    assert np.log2(hs[0] / hs[1]) > 3.0
