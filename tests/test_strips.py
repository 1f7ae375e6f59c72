"""The pointwise jet kernels, evaluated one strip of grid rows at a time,
against the same formulas on the whole grid (`oracles`), bit for bit.

101^2 fields are above numpy's 256 KiB temporary-elision threshold and
37^2 fields below it; 37 rows is not a multiple of `STRIP_ROWS`.
"""

import tracemalloc

import numpy as np
import pytest

from oracles import (
    euclidean_wave_dlambda_whole,
    euclidean_wave_whole,
    lowered_rung_with_jets_whole,
    lowered_rungs_whole,
    phi_traveling_whole,
    u_derivatives_whole,
    u_dlambda_whole,
    u_pair_whole,
)
from solsurf.errors import DeformationOutOfDomain
from solsurf.fields import (
    CHART_EUCLIDEAN,
    CHART_MINKOWSKI,
    STRIP_ROWS,
    Grid2,
    JetField,
    chart_jets,
)
from solsurf.matlie import constant
from solsurf.sigma import traveling_solution, u_dlambda, u_pair, veronese
from solsurf.spectral import (
    euclidean_wave,
    euclidean_wave_dlambda,
    lowered_rung_jets,
    lowered_rungs_from_jets,
    phi_traveling,
)
from solsurf.symmetry import (
    ConformalSpec,
    conformal_characteristic,
    lowering_functional,
    lowering_jets_functional,
    u_jets_functional,
)

LAM_E = 0.6j
LAM_M = 0.5
NODES = [101, 37]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
    # the wave's terms (the lowered rungs), Phi, and Phi with d(Phi)/d(lambda)
    j = _euclid_jets(nodes, deformed)
    rungs = lowered_rungs_from_jets(j, k)
    assert len(rungs) == k
    assert all(_same_bits(a, b) for a, b in zip(rungs, lowered_rungs_whole(j, k)))
    w = euclidean_wave(j, k, LAM_E)
    assert _same_bits(w.values, euclidean_wave_whole(j, k, LAM_E))
    wd, dphi = euclidean_wave_dlambda(j, k, LAM_E)
    assert _same_bits(wd.values, w.values) and wd.margin == w.margin == dphi.margin
    assert _same_bits(dphi.values, euclidean_wave_dlambda_whole(j, k, LAM_E))


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
    j = _euclid_jets(nodes, deformed)
    r, d1r, d2r = lowered_rung_with_jets_whole(j)
    (value,), (jets_value, d1, d2) = lowering_functional(j), lowering_jets_functional(j)
    assert _same_bits(value.values, lowered_rungs_whole(j, 1)[0])
    assert _same_bits(value.values, r) and _same_bits(jets_value.values, r)
    assert _same_bits(d1.values, d1r) and _same_bits(d2.values, d2r)
    assert (value.margin, jets_value.margin, d1.margin, d2.margin) == (j.margin1, j.margin1,
                                                                      j.margin2, j.margin2)


@sizes
@both
@pytest.mark.parametrize("chart", ["euclidean", "minkowski"])
def test_u_pair_matches_the_whole_grid(nodes, deformed, chart):
    if chart == "euclidean":
        j, lam = _euclid_jets(nodes, deformed), LAM_E
    else:
        j, lam = _mink_jets(nodes, deformed)[1], LAM_M
    # the pair's lambda-derivative runs through the same strip kernel
    got = (*u_pair(j, lam), *u_dlambda(j, lam))
    for g, want in zip(got, (*u_pair_whole(j, lam), *u_dlambda_whole(j, lam))):
        assert _same_bits(g.values, want) and g.margin == j.margin1


@sizes
@both
@pytest.mark.parametrize("index", [1, 2])
def test_u_derivatives_match_the_whole_grid(nodes, deformed, index):
    # (u_index, D_1 u_index, D_2 u_index) of the u jets
    j = _euclid_jets(nodes, deformed)
    u, *got = u_jets_functional(LAM_E)(j)[3 * index - 3: 3 * index]
    assert _same_bits(u.values, u_pair_whole(j, LAM_E)[index - 1]) and u.margin == j.margin1
    for g, want in zip(got, u_derivatives_whole(j, LAM_E, index), strict=True):
        assert _same_bits(g.values, want) and g.margin == j.margin2


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
    return JetField(grid=j.grid, margin=j.margin, second=j.second,
                    margin1=j.margin1, margin2=j.margin2, **arrays)


@pytest.mark.parametrize("kill", ["zero", "nan"])
def test_a_strip_where_the_lowering_vanishes_is_nan_not_an_error(kill):
    j = _euclid_jets(101, False)
    rows = slice(STRIP_ROWS, 2 * STRIP_ROWS)
    # d1 = 0 makes both denominators vanish on the strip; NaN values poison it
    jk = _with_rows(j, rows, d1=0.0) if kill == "zero" else _with_rows(j, rows, values=np.nan)
    rest = np.ones(j.grid.n2, dtype=bool)
    rest[rows] = False
    for got, want in zip(lowered_rungs_from_jets(jk, 2), lowered_rungs_from_jets(j, 2)):
        assert np.isnan(got[..., rows, :]).all()
        assert _same_bits(got[..., rest, :], want[..., rest, :])
    for got, want in zip(lowered_rung_jets(jk), lowered_rung_jets(j)):
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
        lambda: lowered_rungs_from_jets(flat, 1),
        lambda: lowered_rungs_from_jets(flat, 2),
        lambda: lowered_rung_jets(flat),
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
    theta = JetField(grid=grid, values=full(1j * (p - np.eye(2) / 2)), d1=full(1j * d1p),
                     d2=full(1j * d2p), second=lambda rows: (zero[..., rows, :],) * 3,
                     margin1=0, margin2=0)
    (r1,) = lowered_rungs_from_jets(theta, 1)
    assert _same_bits(r1, full(np.diag([1.0 + 0j, 0.0])))
    for build in (lambda: lowered_rungs_from_jets(theta, 2),
                  lambda: euclidean_wave(theta, 2, LAM_E)):
        with pytest.raises(DeformationOutOfDomain, match="^second lowering denominator"):
            build()


# --- heap ---------------------------------------------------------------------------


def _heap_peak_fields(build) -> float:
    """tracemalloc's peak while ``build()`` runs, in fields of 3x3 at 101^2."""
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (9 * 101**2 * 16)


def test_level_two_wave_heap_peak_stays_within_5_fields():
    # the terms of one strip are formed and summed before the next strip's,
    # so the heap holds the output and one strip's temporaries
    j = _euclid_jets(101, False)
    j.second(slice(None))  # the exact second jets, formed on first read
    assert _heap_peak_fields(lambda: euclidean_wave(j, 2, LAM_E)) <= 5


def test_level_two_wave_dlambda_heap_peak_stays_within_5_fields():
    # Phi and d(Phi)/d(lambda) come from one strip pass: the heap holds the
    # two outputs and one strip's temporaries, never P or a whole rung
    j = _euclid_jets(101, False)
    j.second(slice(None))  # the exact second jets, formed on first read
    assert _heap_peak_fields(lambda: euclidean_wave_dlambda(j, 2, LAM_E)) <= 5
