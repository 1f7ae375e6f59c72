"""The pointwise jet kernels and the immersion diagnostics, evaluated one
strip of grid rows at a time, against the same formulas on the whole grid
(`oracles`), bit for bit.  The total derivatives of the connection and
of the lowered rung are compared bit for bit with the same kernels run on
the whole grid as one strip (`oracles.whole_strip`), and with the
hand-written rules to ``HAND_RULE_REL``.

101^2 fields are above numpy's 256 KiB temporary-elision threshold and
37^2 fields below it; 37 rows is not a multiple of `STRIP_ROWS`.
"""

import numpy as np
import pytest

from oracles import (
    assemble_tangents_whole,
    commutation_defect_whole,
    compatibility_defect_whole,
    conjugate_whole,
    euclidean_wave_dlambda_whole,
    euclidean_wave_whole,
    gathered,
    integrate_surface_two_buffers,
    linear_independence_whole,
    lowered_rung_with_jets_whole,
    lowered_rungs_whole,
    phi_traveling_whole,
    spectral_tangents_whole,
    su_projected_whole,
    sym_tafel_traveling_whole,
    tangent_check_whole,
    traveling_jets_whole,
    u_derivatives_whole,
    u_pair_whole,
    wave_diagnostics_whole,
    whole_strip,
)
from pinned import heap_peak
from solsurf.errors import DeformationOutOfDomain
from solsurf.fields import (
    CHART_EUCLIDEAN,
    CHART_MINKOWSKI,
    STRIP_ROWS,
    Grid2,
    JetField,
    MatrixField,
    StripSource,
    chart_jets,
    interior_max,
    row_strips,
    tangent_defect,
)
from solsurf.immersion import (
    assemble_tangents,
    integrate_surface,
    linear_independence_report,
    pulled_back,
    su_measured,
    sym_tafel,
)
from solsurf.matlie import constant, fro, identity, inv, mm
from solsurf.sigma import traveling_solution, u_pair, u_pair_rows, veronese
from solsurf.spectral import (
    WaveField,
    euclidean_wave,
    euclidean_wave_dlambda,
    lowered_rung,
    lowered_rung_jets,
    phi_traveling,
    traveling_wave_dlambda,
    wave_diagnostics,
)
from solsurf.symmetry import compatibility_defect
from solsurf.symmetry import (
    ConformalSpec,
    conformal_characteristic,
    lowering_functional,
    lowering_jets_functional,
    u_jets_functional,
)

LAM_E = 0.6j
LAM_M = 0.5
A_COEFFS = (0.5, -1.25)
NODES = [101, 37]
# forward-mode D_a against the hand-written rules, relative to the largest
# node; both round, and the widest gap measured is 2.3e-16
HAND_RULE_REL = 1e-14


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _close(a, b, margin):
    return interior_max(fro(a - b), margin) <= HAND_RULE_REL * interior_max(fro(b), margin)


def _deformed(j: JetField, spec: ConformalSpec) -> JetField:
    # Q's stencil jets are NaN on the outer rows, and so are the deformation's
    jd = j.deformed(1e-3, chart_jets(conformal_characteristic(spec, j)))
    assert np.isnan(jd.d2[..., :2, :]).all() and np.isnan(jd.rows(slice(None)).d22[..., :2, :]).all()
    return jd


def _euclid_jets(nodes: int, deformed: bool) -> JetField:
    grid = Grid2(CHART_EUCLIDEAN, (0.0, 0.0), (0.0015, 0.0015), (nodes, nodes))
    j = veronese(3, grid, 2)[1]
    return _deformed(j, ConformalSpec.euclidean((0.0, 0.0, 1.0))) if deformed else j


def _mink_jets(nodes: int, deformed: bool):
    grid = Grid2(CHART_MINKOWSKI, (0.0, 0.0), (0.001, 0.001), (nodes, nodes))
    wave, j = traveling_solution(2.0, 1.0, grid)
    if deformed:
        j = _deformed(j, ConformalSpec.minkowski((0.0, 0.0, 1.0), (0.0, 1.0)))
    return wave, j


both = pytest.mark.parametrize("deformed", [False, True], ids=["exact", "deformed"])
sizes = pytest.mark.parametrize("nodes", NODES)


@sizes
@both
@pytest.mark.parametrize("k", [0, 1, 2])
def test_euclidean_terms_and_wave_match_the_whole_grid(nodes, deformed, k):
    # the first lowered rung, Phi, and Phi with d(Phi)/d(lambda) match one
    # whole-grid strip bit for bit; the hand-written formulas give the same
    # bits below level 2, and at level 2, whose second rung reads D_a of
    # the first, agree to HAND_RULE_REL
    j = _euclid_jets(nodes, deformed)
    one = whole_strip(j)
    w = euclidean_wave(j, k, LAM_E)
    wd, dphi = euclidean_wave_dlambda(j, k, LAM_E)
    assert _same_bits(wd.values, w.values) and wd.margin == w.margin == dphi.margin
    got = (*([lowered_rung(j)] if k else []), w.values, dphi.values)
    strip = (*([lowered_rung(one)] if k else []), euclidean_wave(one, k, LAM_E).values,
             euclidean_wave_dlambda(one, k, LAM_E)[1].values)
    hand = (*lowered_rungs_whole(j, k)[:1], euclidean_wave_whole(j, k, LAM_E),
            euclidean_wave_dlambda_whole(j, k, LAM_E))
    for g, o, h in zip(got, strip, hand, strict=True):
        assert _same_bits(g, o)
        assert _same_bits(g, h) if k < 2 else _close(g, h, w.margin)


def test_stored_rung_wave_and_dlambda_match_the_whole_grid():
    # level 3 sums the stored rungs of the ladder, strip by strip
    grid = Grid2(CHART_EUCLIDEAN, (0.0, 0.0), (0.0015, 0.0015), (37, 37))
    ladder, j = veronese(4, grid, 3)
    w = euclidean_wave(j, 3, LAM_E, ladder)
    assert _same_bits(w.values, euclidean_wave_whole(j, 3, LAM_E, ladder))
    wd, dphi = euclidean_wave_dlambda(j, 3, LAM_E, ladder)
    assert _same_bits(wd.values, w.values)
    assert _same_bits(dphi.values, euclidean_wave_dlambda_whole(j, 3, LAM_E, ladder))
    margin = max(r.margin for r in ladder)
    assert w.margin == wd.margin == dphi.margin == margin


@sizes
@both
def test_lowering_functionals_match_the_whole_grid(nodes, deformed):
    # L, D_1 L and D_2 L match one whole-grid strip bit for bit; L keeps
    # the bits of the hand-written formula, and D_a L agrees with the
    # quotient rule to HAND_RULE_REL
    j = _euclid_jets(nodes, deformed)
    (value,), jets = lowering_functional(j), lowering_jets_functional(j)
    for got, one in zip(jets, lowering_jets_functional(whole_strip(j)), strict=True):
        assert _same_bits(got.values, one.values) and got.margin == one.margin
    r, d1r, d2r = lowered_rung_with_jets_whole(j)
    assert _same_bits(value.values, lowered_rungs_whole(j, 1)[0])
    assert _same_bits(value.values, r) and _same_bits(jets[0].values, r)
    for got, want in zip(jets[1:], (d1r, d2r), strict=True):
        assert _close(got.values, want, got.margin)
    assert (value.margin, *(f.margin for f in jets)) == (j.margin1, j.margin1,
                                                          j.margin2, j.margin2)


@sizes
@both
@pytest.mark.parametrize("chart", ["euclidean", "minkowski"])
def test_u_pair_matches_the_whole_grid(nodes, deformed, chart):
    if chart == "euclidean":
        j, lam = _euclid_jets(nodes, deformed), LAM_E
    else:
        j, lam = _mink_jets(nodes, deformed)[1], LAM_M
    # the pair as fields and as rows, and the spectral tangent term, whose
    # lambda-derivative of the pair runs through the same strip kernel
    got = (*u_pair(j, lam), *map(gathered, u_pair_rows(j, lam)),
           *assemble_tangents(j, lam, a_coeffs=A_COEFFS))
    want = (*u_pair_whole(j, lam),) * 2 + spectral_tangents_whole(j, lam, A_COEFFS)
    for g, w in zip(got, want, strict=True):
        assert _same_bits(g.values, w) and g.margin == j.margin1


@sizes
@both
@pytest.mark.parametrize("chart", ["euclidean", "minkowski"])
def test_tangent_pair_matches_the_whole_grid_gauge_route(nodes, deformed, chart):
    # the spectral, gauge and symmetry terms, added strip by strip, have the
    # bits of the whole-field route; both sizes end in a short strip.  D_2 S
    # reads two rows across each strip boundary, so a NaN node of S on the
    # last row of a strip reaches two rows into the next
    if chart == "euclidean":
        j, lam = _euclid_jets(nodes, deformed), LAM_E
    else:
        j, lam = _mink_jets(nodes, deformed)[1], LAM_M
    rng = np.random.default_rng(nodes)
    shape = j.values.shape
    s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    s[..., STRIP_ROWS - 1, 3] = s[..., 2 * STRIP_ROWS, -3] = np.nan
    gauge = MatrixField(j.grid, s, 2)
    prw_u = tuple(MatrixField(j.grid, rng.standard_normal(shape) + 0j, m) for m in (1, 6))
    got = assemble_tangents(j, lam, a_coeffs=A_COEFFS, gauge=gauge, prw_u=prw_u)
    want = assemble_tangents_whole(j, lam, A_COEFFS, gauge, prw_u)
    for g, w in zip(got, want, strict=True):
        assert _same_bits(g.values, w.values) and g.margin == w.margin == max(j.margin1, 6)
    assert np.isnan(got[1].values[..., STRIP_ROWS + 1, 3]).all()


@sizes
@both
@pytest.mark.parametrize("index", [1, 2])
def test_u_derivatives_match_the_whole_grid(nodes, deformed, index):
    # (u_index, D_1 u_index, D_2 u_index) of the u jets match one whole-grid
    # strip bit for bit; u keeps the bits of the pair, and D_a u agrees with
    # the commutators of the jets to HAND_RULE_REL
    j = _euclid_jets(nodes, deformed)
    part = slice(3 * index - 3, 3 * index)
    u, *got = u_jets_functional(LAM_E)(j)[part]
    for g, one in zip((u, *got), u_jets_functional(LAM_E)(whole_strip(j))[part], strict=True):
        assert _same_bits(g.values, one.values)
    assert _same_bits(u.values, u_pair_whole(j, LAM_E)[index - 1]) and u.margin == j.margin1
    for g, want in zip(got, u_derivatives_whole(j, LAM_E, index), strict=True):
        assert _close(g.values, want, g.margin) and g.margin == j.margin2


@sizes
@both
def test_phi_traveling_matches_the_whole_grid(nodes, deformed):
    wave, j = _mink_jets(nodes, deformed)
    assert _same_bits(phi_traveling(wave, j, LAM_M).values, phi_traveling_whole(wave, j, LAM_M))


# --- the lowering guard is kept over the whole field ------------------------------


def _with_rows(j: JetField, rows: slice, **jets) -> JetField:
    """``j`` with the given jets (values, d1 or d2) replaced on ``rows``."""
    arrays = {name: getattr(j, name).copy() for name in ("values", "d1", "d2")}
    for name, value in jets.items():
        arrays[name][..., rows, :] = value
    return JetField.stored(j.grid, **arrays, second=j.second, margin=j.margin,
                           margin1=j.margin1, margin2=j.margin2)


@pytest.mark.parametrize("kill", ["zero", "nan"])
def test_a_strip_where_the_lowering_vanishes_is_nan_not_an_error(kill):
    j = _euclid_jets(101, False)
    rows = slice(STRIP_ROWS, 2 * STRIP_ROWS)
    # d1 = 0 makes both denominators vanish on the strip; NaN values poison it
    jk = _with_rows(j, rows, d1=0.0) if kill == "zero" else _with_rows(j, rows, values=np.nan)
    rest = np.ones(j.grid.n2, dtype=bool)
    rest[rows] = False
    for got, want in zip((lowered_rung(jk), *lowered_rung_jets(jk)),
                         (lowered_rung(j), *lowered_rung_jets(j))):
        assert np.isnan(got[..., rows, :]).all()
        assert _same_bits(got[..., rest, :], want[..., rest, :])
    phi = euclidean_wave(jk, 2, LAM_E).values
    assert np.isnan(phi[..., rows, :]).all()
    assert _same_bits(phi[..., rest, :], euclidean_wave(j, 2, LAM_E).values[..., rest, :])


def test_a_lowering_that_vanishes_everywhere_raises_its_own_message():
    j = _euclid_jets(37, False)
    # both lowerings vanish on every node: the first one's message wins
    flat = _with_rows(j, slice(None), d1=0.0)
    first = "^lowering denominator vanished everywhere"
    for build in (
        lambda: lowered_rung(flat),
        lambda: lowered_rung_jets(flat),
        lambda: euclidean_wave(flat, 1, LAM_E),
        lambda: euclidean_wave(flat, 2, LAM_E),
        lambda: euclidean_wave_dlambda(flat, 2, LAM_E),
    ):
        with pytest.raises(DeformationOutOfDomain, match=first):
            build()
    # P = E_12, D1 P = E_21 and D2 P = E_11 with flat second jets: the
    # first lowering is E_11 on every node, its derivatives vanish, and so
    # does the second lowering's denominator
    grid = j.grid
    p, d1p, d2p = (np.array(m, dtype=complex) for m in ([[0, 1], [0, 0]], [[0, 0], [1, 0]],
                                                        [[1, 0], [0, 0]]))
    full = lambda m: np.broadcast_to(constant(m), (2, 2, grid.n2, grid.n1)).copy()  # noqa: E731
    zero = full(np.zeros((2, 2)))
    theta = JetField.stored(grid, values=full(1j * (p - np.eye(2) / 2)), d1=full(1j * d1p),
                            d2=full(1j * d2p), second=lambda rows: (zero[..., rows, :],) * 3,
                            margin1=0, margin2=0)
    assert _same_bits(lowered_rung(theta), full(np.diag([1.0 + 0j, 0.0])))
    for build in (lambda: euclidean_wave(theta, 2, LAM_E),
                  lambda: euclidean_wave_dlambda(theta, 2, LAM_E)):
        with pytest.raises(DeformationOutOfDomain, match="^second lowering denominator"):
            build()


# --- the immersion diagnostics ----------------------------------------------------


def _surface(nodes: int, deformed: bool, chart: str):
    """(w, a, b, f, j, lam): the wave function, the spectral tangent pair,
    its Sym-Tafel surface gathered into a field, and the jets; NaN on the
    outer rows and columns of the deformed jets."""
    if chart == "euclidean":
        j, lam = _euclid_jets(nodes, deformed), LAM_E
        w, dphi = euclidean_wave_dlambda(j, 2, lam)
    else:
        (wave, j), lam = _mink_jets(nodes, deformed), LAM_M
        w = phi_traveling(wave, j, lam)
        dphi = traveling_wave_dlambda(wave, j, w)
    a, b = assemble_tangents(j, lam, a_coeffs=A_COEFFS)
    return w, a, b, gathered(sym_tafel(w, dphi, 1.5)), j, lam


charts = pytest.mark.parametrize("chart", ["euclidean", "minkowski"])


@sizes
@both
@charts
def test_conjugation_and_tangent_check_match_the_whole_grid(nodes, deformed, chart):
    # the surface tangents are the whole-field conjugation, NaN nodes of the
    # deformed jets included; the tangent check's stencils read two rows
    # across each strip boundary, and it has the bits of both whole-field
    # routes: the conjugating tangent check and the commutation check
    w, a, b, f, _, _ = _surface(nodes, deformed, chart)
    da, db = pulled_back(w, (a, b))
    assert np.isnan(da.values).any() == deformed
    assert _same_bits(da.values, conjugate_whole(w, a.values))
    assert _same_bits(db.values, conjugate_whole(w, b.values))
    assert da.margin == db.margin == max(a.margin, b.margin, w.margin)
    got = tangent_defect(f, da, db)
    assert got == tangent_check_whole(f, w, a, b) == commutation_defect_whole((f, da, db))
    assert np.isfinite(got)


@pytest.mark.parametrize(
    "chart", [CHART_EUCLIDEAN, CHART_MINKOWSKI], ids=["euclidean", "minkowski"]
)
@pytest.mark.parametrize("n", [2, 3])
def test_pull_back_matches_the_whole_field(chart, n):
    # fields and strip sources, conjugated and multiplied from the left in
    # one pass, have the bits of the whole-field inverse; the wave's NaN
    # margin rows and an input's NaN margin node stay NaN, each output
    # carries the larger of its input's margin and the wave's, and the
    # last strip is short
    grid = Grid2(chart, (0.1, -0.2), (0.1, 0.05), (13, 3 * STRIP_ROWS + 5))
    rng = np.random.default_rng(n)

    def field(margin):
        shape = (n, n, grid.n2, grid.n1)
        return MatrixField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                           margin)

    w = WaveField(grid, constant(identity(n)) + 0.2 * field(0).values, 2, lam=LAM_M)
    w.values[..., :2, :] = np.nan
    x, y, z = field(1), field(3), field(0)
    x.values[0, 1, grid.n2 - 1, 4] = np.nan
    source = StripSource(grid, n, 4, lambda rows: z.values[..., rows, :])
    got = pulled_back(w, (x, source), (y, source))
    want = (conjugate_whole(w, x.values), conjugate_whole(w, z.values),
            mm(inv(w.values), y.values), mm(inv(w.values), z.values))
    for g, v in zip(got, want, strict=True):
        assert _same_bits(g.values, v)
    assert [g.margin for g in got] == [2, 4, 3, 4]
    assert np.isnan(got[0].values[..., :2, :]).all() and np.isnan(got[0].values[..., -1, 4]).all()
    assert np.isfinite(got[1].values[..., 2:, :]).all()


@charts
def test_pull_back_over_its_own_inputs_keeps_the_bits(chart):
    # the tangent pair pulled back over its own buffers, in the pass that
    # also pulls back a strip source and a field from the left, has the bits
    # and margins of the outputs of a fresh pass
    w, a, b, f, _, _ = _surface(101, True, chart)
    source = StripSource(a.grid, a.n, 5, a.strip)
    want = pulled_back(w, (a, b, source), (f,))
    buffers = (a.values, b.values)
    got = pulled_back(w, (a, b), (f,), out=buffers)
    assert got[0].values is buffers[0] and got[1].values is buffers[1]
    for g, v in zip(got, (*want[:2], want[3]), strict=True):
        assert _same_bits(g.values, v.values) and g.margin == v.margin


@sizes
@both
@charts
def test_integrate_surface_matches_the_two_buffer_route(nodes, deformed, chart):
    # the x2 integral formed in the output, with only its basepoint column
    # kept for the reversed order, gives the raw surface and the path defect
    # of the route that held both integrals whole, NaN nodes included
    w, a, b, _, _, _ = _surface(nodes, deformed, chart)
    da, db = pulled_back(w, (a, b))
    raw, path_defect = integrate_surface(da, db)
    want, want_defect = integrate_surface_two_buffers(da, db)
    assert _same_bits(raw.values, want) and raw.margin == max(da.margin, db.margin)
    assert path_defect == want_defect and np.isfinite(path_defect)
    assert np.isnan(raw.values).any() == (deformed or raw.margin > 0)


@pytest.mark.parametrize("origin", [(0.0, 0.0), (8.9e307, 0.0)], ids=["near", "overflowing"])
@pytest.mark.parametrize("nodes", NODES)
def test_traveling_jets_formed_on_rows_match_the_closed_forms(origin, nodes):
    # theta's jets, formed from cos and sin of the phase on the rows asked,
    # have the bits of the closed forms on the whole grid: on every strip,
    # as whole fields and as whole second jets; far out, where the phase
    # overflows, the same nodes are NaN
    far = origin[0] > 0
    grid = Grid2(CHART_MINKOWSKI, origin, (1e306,) * 2 if far else (0.001,) * 2, (nodes, nodes))
    want = traveling_jets_whole(2.0, 1.0, grid)
    _, j = traveling_solution(2.0, 1.0, grid)
    for rows in row_strips(grid.n2):
        jr = j.rows(rows)
        for got, w in zip((jr.values, jr.d1, jr.d2, jr.d11, jr.d12, jr.d22), want, strict=True):
            assert _same_bits(got, w[..., rows, :])
    whole = j.rows(slice(None))
    for got, w in zip((j.values, j.d1, j.d2, whole.d11, whole.d12, whole.d22), want, strict=True):
        assert _same_bits(got, w)
    nan = np.isnan(want[0]).any(axis=(0, 1))
    assert nan.any() == far and not nan.all()


@sizes
@both
@charts
def test_wave_diagnostics_and_gram_report_match_the_whole_grid(nodes, deformed, chart):
    # n = 3 on the Euclidean chart takes numpy's condition number per node
    w, a, b, _, _, _ = _surface(nodes, deformed, chart)
    got, want = wave_diagnostics(w), wave_diagnostics_whole(w)
    assert got == want and all(np.isfinite(v) for v in got.values())
    got = linear_independence_report(*pulled_back(w, (a, b)))
    want = linear_independence_whole(a, b, w)
    assert got == want and all(np.isfinite(v) for v in got.values())


@sizes
@both
@charts
def test_compatibility_defect_from_rows_matches_the_whole_grid(nodes, deformed, chart):
    _, a, b, _, j, lam = _surface(nodes, deformed, chart)
    u1, u2 = (MatrixField(j.grid, u, j.margin1) for u in u_pair_whole(j, lam))
    got = compatibility_defect(a, b, *u_pair_rows(j, lam))
    assert got == compatibility_defect_whole(a, b, u1, u2) and np.isfinite(got)


@sizes
@both
def test_streamed_traveling_sym_tafel_matches_the_whole_grid(nodes, deformed):
    # each strip is formed from the rows of Phi^{-1} and of d(Phi)/d(lambda);
    # the su(N) distance is measured as the strips are read
    wave, j = _mink_jets(nodes, deformed)
    w = phi_traveling(wave, j, LAM_M)
    source, su_distance = su_measured(sym_tafel(w, traveling_wave_dlambda(wave, j, w), 1.5))
    f = gathered(source)
    assert _same_bits(f.values, sym_tafel_traveling_whole(wave, j, w, 1.5))
    assert f.margin == j.margin1
    distance = su_distance()
    assert distance == su_projected_whole(f)[1] and np.isfinite(distance)


# --- heap ---------------------------------------------------------------------------

# one field of 3x3 complex entries at 101^2
FIELD_3X3 = 9 * 101**2 * 16


def test_level_two_wave_heap_peak_stays_within_5_fields():
    # the terms of one strip are formed and summed before the next strip's,
    # so the heap holds the output and one strip's temporaries
    j = _euclid_jets(101, False)
    j.second(slice(None))  # the exact second jets, formed on first read
    assert heap_peak(lambda: euclidean_wave(j, 2, LAM_E)) <= 5 * FIELD_3X3


def test_level_two_wave_dlambda_heap_peak_stays_within_5_fields():
    # Phi and d(Phi)/d(lambda) come from one strip pass: the heap holds the
    # two outputs and one strip's temporaries, never P or a whole rung
    j = _euclid_jets(101, False)
    j.second(slice(None))  # the exact second jets, formed on first read
    assert heap_peak(lambda: euclidean_wave_dlambda(j, 2, LAM_E)) <= 5 * FIELD_3X3
