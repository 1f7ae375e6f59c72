import weakref

import numpy as np
import pytest

from oracles import central_pair, commutation_defect_whole, el_symmetry_defect, polyval_number
from solsurf.errors import ChartMismatch
from solsurf.fields import (
    CHART_EUCLIDEAN,
    CHART_MINKOWSKI,
    Grid2,
    JetField,
    MatrixField,
    chart_first_derivatives,
    chart_jets,
    interior_max,
    row_strips,
    tangent_defect,
)
from solsurf.immersion import psi_residual
from solsurf.matlie import commutator, dagger, fro, trace
from solsurf.sigma import traveling_solution, u_pair, veronese
from solsurf.spectral import euclidean_wave, phi_traveling
from solsurf.symmetry import (
    ConformalSpec,
    central_difference,
    compatibility_defect,
    conformal_characteristic,
    frechet_apply,
    lowering_functional,
    lowering_jets_functional,
    polyval,
    prolong_u,
    theta_functional,
    traveling_R_fields,
    u_functional,
    u_jets_functional,
    wave_functional,
)

GRID = Grid2(CHART_EUCLIDEAN, (0.0, 0.0), (0.0015, 0.0015), (101, 101))
GRID_M = Grid2(CHART_MINKOWSKI, (0.0, 0.0), (0.001, 0.001), (101, 101))
WAVE_M, JET_M = traveling_solution(2.0, 1.0, GRID_M)
LAM_E = 0.6j
LAM_M = 0.5


def jets(k: int) -> JetField:
    """theta of rung k of the CP^1 ladder on GRID, with exact jets."""
    return veronese(2, GRID, k)[1]


from hypothesis import given, settings
from hypothesis import strategies as st

complex_coeff = st.tuples(
    st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False)
).map(lambda p: complex(*p))


@given(st.lists(complex_coeff, min_size=1, max_size=4))
@settings(max_examples=15, deadline=None)
def test_conformal_characteristic_stays_in_algebra(coeffs):
    j = jets(0)
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


@pytest.mark.parametrize("coeffs", [(1.0,), (1.0, 0.5), (0.3, -1.7, 2.5e-3, 4.0), (1j, 0.5 - 2j)])
@pytest.mark.parametrize("x", [0.5, 0.6j, -3.25 + 0.125j, 1e50 + 1e-50j])
def test_polyval_of_a_number_keeps_the_bits_of_python_arithmetic(coeffs, x):
    got, want = polyval(coeffs, x), polyval_number(coeffs, x)
    assert np.isscalar(got)
    assert [float(p).hex() for p in (got.real, got.imag)] == [
        p.hex() for p in (want.real, want.imag)
    ]


def test_conformal_spec_without_coefficients_is_zero_on_both_charts():
    # an empty list is the zero polynomial, as `"g": []` is in a config
    cases = [(ConformalSpec.euclidean(()), GRID), (ConformalSpec.minkowski((), ()), GRID_M)]
    for spec, grid in cases:
        for values in (spec.f(grid), spec.f1(grid), spec.f11(grid), spec.g(grid), spec.g2(grid)):
            assert values.shape == (grid.n2, grid.n1) and not values.any()
    quadratic = ConformalSpec.minkowski((0.0, 0.0, 1.0), ())
    assert not quadratic.g(GRID_M).any() and not quadratic.g2(GRID_M).any()


def test_characteristic_values():
    j = jets(0)
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
    # the tangent of theta is Q, and those of its jets are the stencil jets of Q
    j = jets(0)
    spec = ConformalSpec.euclidean((0.0, 0.0, 1.0))
    q = conformal_characteristic(spec, j)
    ((ident, prw_d1, prw_d2),) = frechet_apply([theta_functional], j, q)
    qj = chart_jets(q)
    assert np.array_equal(ident.values, q.values) and ident.margin == q.margin
    for got, want in ((prw_d1, qj.d1), (prw_d2, qj.d2)):
        assert np.array_equal(got.values, want, equal_nan=True) and got.margin == qj.margin1


def test_frechet_linearity_in_q():
    j = jets(0)
    q1 = conformal_characteristic(ConformalSpec.euclidean((1.0,)), j)
    q2 = conformal_characteristic(ConformalSpec.euclidean((0.0, 0.0, 1.0)), j)
    qsum = MatrixField(j.grid, q1.values + q2.values, max(q1.margin, q2.margin))
    g = u_functional(LAM_E)
    pairs = (frechet_apply([g], j, q)[0] for q in (q1, q2, qsum))
    for a, b, c in zip(*pairs):
        m = max(a.margin, b.margin, c.margin)
        assert interior_max(fro(c.values - a.values - b.values), m) < 1e-9


def test_prolong_u_closed_vs_deformation():
    j = jets(0)
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
    j = jets(0)
    spec = ConformalSpec.euclidean((2.0,))
    pw1, _ = prolong_u(spec, j, LAM_E)
    _, du1_1, du1_2, *_ = u_jets_functional(LAM_E)(j)
    expected = 2.0 * du1_1.values + 2.0 * du1_2.values
    assert interior_max(fro(pw1.values - expected), pw1.margin) < 1e-13


def test_prolong_u_zero():
    j = jets(0)
    pw1, pw2 = prolong_u(ConformalSpec.euclidean((0.0,)), j, LAM_E)
    assert interior_max(fro(pw1.values), pw1.margin) == 0
    assert interior_max(fro(pw2.values), pw2.margin) == 0


@pytest.mark.parametrize("control", ["positive", "negative"])
def test_el_symmetry_defect_is_compatibility_of_prolonged_pair(control):
    j = jets(0)
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


def _probe(gs, j: JetField, q: MatrixField, eps_base: float = 1e-5):
    """The central difference probe along ``q``."""
    return central_difference(gs, j, chart_jets(q), eps_base)


def test_pair_prolongation_is_bit_exact_and_costs_one_evaluation(monkeypatch):
    # the jet set is evaluated once, on the pair, with no deformation, and
    # each component is the same tangent as when it is prolonged on its own
    j = jets(1)
    q = conformal_characteristic(ConformalSpec.euclidean((0.0, 0.0, 1.0)), j)
    evaluations = [0]
    steps = _count_deformations(monkeypatch)
    (pair,) = frechet_apply([_counted(evaluations, 0, lowering_jets_functional)], j, q)
    assert len(pair) == 3
    assert (evaluations, steps) == ([1], [])
    for index, whole in enumerate(pair):
        ((alone,),) = frechet_apply([lambda jt, i=index: (lowering_jets_functional(jt)[i],)], j, q)
        assert np.array_equal(whole.values, alone.values, equal_nan=True)
        assert whole.margin == alone.margin


def test_quadratic_pair_costs_one_central_pair(monkeypatch):
    # the probe takes the connection pair's +/- eps pair, and each
    # component is bit-exactly the central difference of that component alone
    j = jets(0)
    q = conformal_characteristic(ConformalSpec.euclidean((0.0, 0.0, 1.0)), j)
    steps = _count_deformations(monkeypatch)
    (pair,) = _probe([u_functional(LAM_E)], j, q)
    assert len(pair) == 2
    assert len(steps) == 2
    for index, whole in enumerate(pair):
        ((alone,),) = _probe([lambda jd, i=index: (u_pair(jd, LAM_E)[i],)], j, q)
        assert np.array_equal(whole.values, alone.values, equal_nan=True)
        assert whole.margin == alone.margin


def _counted(evaluations: list[int], i: int, g):
    def h(jd):
        evaluations[i] += 1
        return g(jd)

    return h


def _track_live_deformations(monkeypatch) -> list[int]:
    """Records, at each deformation built, how many deformations are alive."""
    refs: list[weakref.ref] = []
    live: list[int] = []
    deformed = JetField.deformed

    def tracking(self, eps, *args):
        jd = deformed(self, eps, *args)
        refs.append(weakref.ref(jd))
        live.append(sum(r() is not None for r in refs))
        return jd

    monkeypatch.setattr(JetField, "deformed", tracking)
    return live


SHARED = [
    theta_functional,
    u_functional(LAM_E),
    lowering_functional,
    wave_functional(lambda jd: euclidean_wave(jd, 1, LAM_E)),
]


def test_shared_prolongation_is_bit_exact_and_costs_one_central_pair(monkeypatch):
    # one probe call takes the central difference of several functionals:
    # each result equals that of the functional's own call bit for bit,
    # each functional is evaluated once on each side, and a deformation is
    # dropped before the next one is built
    j = jets(1)
    q = conformal_characteristic(ConformalSpec.euclidean((0.0, 0.0, 1.0)), j)
    separate = [_probe([g], j, q)[0] for g in SHARED]
    evaluations = [0] * len(SHARED)
    live = _track_live_deformations(monkeypatch)
    shared = _probe([_counted(evaluations, i, g) for i, g in enumerate(SHARED)], j, q)
    assert live == [1] * 8
    assert evaluations == [2, 2, 2, 2]
    for alone, together in zip(separate, shared, strict=True):
        assert len(alone) == len(together)
        for a, b in zip(alone, together):
            assert np.array_equal(a.values, b.values, equal_nan=True)
            assert a.margin == b.margin


def test_shared_prolongation_evaluates_each_functional_once(monkeypatch):
    # one prolongation of several functionals: each is evaluated once, on
    # the pair, no deformation is built, and each result equals that of
    # the functional's own call bit for bit
    j = jets(1)
    q = conformal_characteristic(ConformalSpec.euclidean((0.0, 0.0, 1.0)), j)
    separate = [frechet_apply([g], j, q)[0] for g in SHARED]
    evaluations = [0] * len(SHARED)
    steps = _count_deformations(monkeypatch)
    shared = frechet_apply([_counted(evaluations, i, g) for i, g in enumerate(SHARED)], j, q)
    assert (evaluations, steps) == ([1, 1, 1, 1], [])
    for alone, together in zip(separate, shared, strict=True):
        assert len(alone) == len(together)
        for a, b in zip(alone, together):
            assert np.array_equal(a.values, b.values, equal_nan=True)
            assert a.margin == b.margin


def _prolongation_case(case: str) -> tuple[JetField, MatrixField, complex]:
    """(jets, Q, lam) of rung (2, 1) under f = xi^2, or of the traveling
    wave under f = (x1)^2."""
    if case == "traveling":
        q = conformal_characteristic(ConformalSpec.minkowski((0.0, 0.0, 1.0), (0.0,)), JET_M)
        return JET_M, q, LAM_M
    j = jets(1)
    return j, conformal_characteristic(ConformalSpec.euclidean((0.0, 0.0, 1.0)), j), LAM_E


@pytest.mark.parametrize("case", ["rung-2-1", "traveling"])
def test_prolongation_matches_the_shared_deformation_route_bit_for_bit(monkeypatch, case):
    # the probe's one deformation per functional and side sees the same
    # deformed values as the oracle's two deformations shared by all
    # functionals; the commutation functionals, the jet sets of theta and
    # of the connection, read the second jets as well and take one central
    # pair each
    from solsurf.verify import _commutation_functionals

    j, q, lam = _prolongation_case(case)
    gs = _commutation_functionals(lam)
    steps = _count_deformations(monkeypatch)
    got = _probe(gs, j, q)
    assert len(steps) == 4
    want = central_pair(gs, j, q)
    assert [len(c) for c in got] == [len(c) for c in want] == [3, 6]
    for a, b in zip((f for c in got for f in c), (f for c in want for f in c)):
        assert np.array_equal(a.values, b.values, equal_nan=True)
        assert a.margin == b.margin


@pytest.mark.parametrize("case", ["rung-2-1", "traveling"])
def test_jet_sets_prolong_their_values_as_the_value_functionals_do(case):
    # u1 and u2 of the u jets, and L of the lowering jets, are the
    # prolongations of `u_functional` and `lowering_functional` bit for bit
    j, q, lam = _prolongation_case(case)
    gs = [u_jets_functional(lam), lowering_jets_functional, u_functional(lam), lowering_functional]
    u_jets, lowering_jets, pair, (value,) = frechet_apply(gs, j, q)
    for a, b in zip((u_jets[0], u_jets[3], lowering_jets[0]), (*pair, value), strict=True):
        assert np.array_equal(a.values, b.values, equal_nan=True) and a.margin == b.margin


def test_central_difference_rejects_a_non_positive_step():
    # the step belongs to the probe; the prolongation takes none
    import inspect

    j = jets(0)
    q = conformal_characteristic(ConformalSpec.euclidean((1.0,)), j)
    for eps_base in (0.0, -1e-5):
        with pytest.raises(ValueError, match="eps_base"):
            _probe([theta_functional], j, q, eps_base)
    assert list(inspect.signature(frechet_apply).parameters) == ["gs", "j", "q"]


@pytest.mark.parametrize(
    "functional, axes",
    [(u_functional(LAM_E), []), (u_jets_functional(LAM_E), [-2, -1])],
    ids=["u", "du1"],
)
def test_second_jets_are_built_only_when_read(monkeypatch, functional, axes):
    # the pair reads theta, D_1 theta and D_2 theta only, so no
    # second-order stencil of Q runs; D u1 and D u2 of its jets read them,
    # formed once per strip of grid rows for the strip alone (d/dy^2 and
    # d/dx^2, along grid axes -2 and -1)
    from solsurf import fields

    calls = []
    diff2 = fields.diff2

    def counting(*args, **kwargs):
        calls.append((kwargs.get("axis"), args[0].shape[-2]))
        return diff2(*args, **kwargs)

    monkeypatch.setattr(fields, "diff2", counting)
    j = jets(0)
    q = conformal_characteristic(ConformalSpec.euclidean((0.0, 0.0, 1.0)), j)
    frechet_apply([functional], j, q)
    # each strip's rows and the 2 rows on each side that its stencils read,
    # clipped to the grid
    slabs = [min(r.stop + 2, GRID.n2) - max(r.start - 2, 0) for r in row_strips(GRID.n2)]
    assert sorted(calls) == sorted((axis, rows) for axis in axes for rows in slabs)


FUNCTIONALS = {
    "theta_functional": theta_functional,
    "u_functional": u_functional(LAM_E),
    "u_jets_functional": u_jets_functional(LAM_E),
    "lowering_functional": lowering_functional,
    "lowering_jets_functional": lowering_jets_functional,
    # Phi on rung 1, where it is rational in the jets
    "wave_functional": wave_functional(lambda jd: euclidean_wave(jd, 1, LAM_E)),
}
# the module's functionals, and the first jets of theta prolonged on
# their own, linear in the jets as theta's whole jet set is
CASES = FUNCTIONALS | {"theta_derivatives_functional": lambda j: theta_functional(j)[1:]}


def test_functionals_cover_the_module():
    from solsurf import symmetry

    # a new functional must be added to FUNCTIONALS
    assert set(FUNCTIONALS) == {name for name in symmetry.__all__ if name.endswith("_functional")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_functional_costs_one_central_pair(monkeypatch, name):
    # rational functionals too: the probe's +/- eps pair is its only rule,
    # so each functional is evaluated once on each deformation
    j = jets(1)
    q = conformal_characteristic(ConformalSpec.euclidean((0.0, 0.0, 1.0)), j)
    evaluations = [0]
    steps = _count_deformations(monkeypatch)
    _probe([_counted(evaluations, 0, CASES[name])], j, q)
    assert len(steps) == 2
    assert evaluations == [2]


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_functional_costs_one_tangent_evaluation(monkeypatch, name):
    # rational functionals too: each is evaluated once, on the pair, and
    # every component comes out as a plain field
    j = jets(1)
    q = conformal_characteristic(ConformalSpec.euclidean((0.0, 0.0, 1.0)), j)
    evaluations = [0]
    steps = _count_deformations(monkeypatch)
    (out,) = frechet_apply([_counted(evaluations, 0, CASES[name])], j, q)
    assert (evaluations, steps) == ([1], [])
    assert all(type(f.values) is np.ndarray for f in out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_quadratic_functionals_have_exact_central_differences(name):
    # for a functional of degree <= 2 in the jets the probe's eps and eps/2
    # central differences agree to rounding even at a large step; a
    # rational one (the lowered rung, Phi on rung 1) differs at O(eps^2)
    quadratic = {
        "theta_functional",
        "theta_derivatives_functional",
        "u_functional",
        "u_jets_functional",
    }
    g = CASES[name]
    j = jets(1)
    q = conformal_characteristic(ConformalSpec.euclidean((0.3, 0.0, 1.0)), j)
    whole, half = (_probe([g], j, q, eps)[0] for eps in (1e-2, 5e-3))
    gap = 0.0
    for a, b in zip(whole, half):
        m = max(a.margin, b.margin)
        gap = max(gap, interior_max(fro(a.values - b.values), m) / interior_max(fro(a.values), m))
    if name in quadratic:
        assert gap < 1e-11
    else:
        assert gap > 1e-6


def test_el_symmetry_defect_positive_negative():
    j = jets(0)
    q = conformal_characteristic(ConformalSpec.euclidean((0.0, 0.0, 1.0)), j)
    assert el_symmetry_defect(q, j, LAM_E) < 1e-6
    qneg = MatrixField(j.grid, j.values.copy(), j.margin)
    assert el_symmetry_defect(qneg, j, LAM_E) > 1e-3
    zero = MatrixField(j.grid, np.zeros_like(j.values), 0)
    assert el_symmetry_defect(zero, j, LAM_E) < 1e-15


def _prolonged_lsp_residual(builder, j: JetField, q: MatrixField, lam: complex):
    """pr w_Q of the linear-problem residuals D_alpha Phi - u^alpha Phi:
    `psi_residual` at Psi = pr w Phi and (A, B) = pr w (u1, u2)."""
    gs = [wave_functional(builder), u_functional(lam)]
    (prw_phi,), prw_u = frechet_apply(gs, j, q)
    return psi_residual(prw_phi, builder(j), *u_pair(j, lam), *prw_u)


def test_lsp_symmetry_defect_euclid():
    j = jets(0)
    q = conformal_characteristic(ConformalSpec.euclidean((0.0, 0.0, 1.0)), j)
    r1, r2 = _prolonged_lsp_residual(lambda jd: euclidean_wave(jd, 0, LAM_E), j, q, LAM_E)
    assert interior_max(fro(r1.values), r1.margin) < 1e-6
    assert interior_max(fro(r2.values), r2.margin) < 1e-6


def test_lsp_symmetry_defect_traveling_criteria():
    builder = lambda jd: phi_traveling(WAVE_M, jd, LAM_M)  # noqa: E731
    w = builder(JET_M)

    def residuals(spec):
        return _prolonged_lsp_residual(builder, JET_M, conformal_characteristic(spec, JET_M), LAM_M)

    # quadratic f: fails with the predicted defect field
    spec_q = ConformalSpec.minkowski((0.0, 0.0, 1.0), (0.0,))
    r1, r2 = residuals(spec_q)
    d1phi, _, dm = chart_first_derivatives(w)
    pred = (-(spec_q.f11(GRID_M)) * WAVE_M.chi(LAM_M) * (1 + LAM_M)) * d1phi
    assert interior_max(fro(r1.values - pred), max(r1.margin, dm)) < 1e-6
    assert interior_max(fro(r1.values), r1.margin) > 0.1
    # affine with equal slopes: both vanish
    rl1, rl2 = residuals(ConformalSpec.minkowski((0.4, 0.7), (-0.3, 0.7)))
    assert interior_max(fro(rl1.values), rl1.margin) < 1e-6
    assert interior_max(fro(rl2.values), rl2.margin) < 1e-6
    # unequal slopes break the second equation only
    rn1, rn2 = residuals(ConformalSpec.minkowski((0.0, 1.0), (0.0, 2.0)))
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
    # the strip-wise tangent check of a prolonged jet set has the bits of
    # the whole-field commutation route
    j = jets(0)
    q = conformal_characteristic(ConformalSpec.euclidean((0.0, 0.0, 1.0)), j)
    prw_theta, prw_u = frechet_apply([theta_functional, u_jets_functional(LAM_E)], j, q)
    for prw in (prw_theta, prw_u[:3], prw_u[3:]):
        assert tangent_defect(*prw) == commutation_defect_whole(prw)
    assert tangent_defect(*prw_theta) < 1e-8
    assert tangent_defect(*prw_u[:3]) < 1e-6


def test_commutation_orders():
    j1 = jets(1)
    trans = ConformalSpec.euclidean((1.0,))
    q1 = conformal_characteristic(trans, j1)
    g = lowering_functional
    _, dl1, dl2 = lowering_jets_functional(j1)
    ref = dl1.values + dl2.values  # f = g = 1
    ds = []
    for eps in (0.04, 0.02):
        ((pw,),) = _probe([g], j1, q1, eps)
        ds.append(interior_max(fro(pw.values - ref), max(pw.margin, dl1.margin)))
    assert np.log2(ds[0] / ds[1]) > 1.9

    spec = ConformalSpec.euclidean((0.0, 0.0, 1.0))
    hs = []
    for h in (0.012, 0.006):
        gh = Grid2(CHART_EUCLIDEAN, (0.0, 0.0), (h, h), (101, 101))
        jh = veronese(2, gh, 1)[1]
        qh = conformal_characteristic(spec, jh)
        (prw,) = _probe([lowering_jets_functional], jh, qh, 1e-3)
        hs.append(tangent_defect(*prw))
    assert np.log2(hs[0] / hs[1]) > 3.0
