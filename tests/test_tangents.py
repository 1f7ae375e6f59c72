"""The forward tangents of `frechet_apply` against the central-pair oracle,
the prolonged linear-problem residual that `immersion.psi_residual` forms
from them, the pair arithmetic of `matlie.Dual` that carries them, nested
pairs, and the total derivatives of `fields.JetRows.along` against
stencils."""

import numpy as np
import pytest

from oracles import central_pair
from solsurf.fields import (
    CHART_EUCLIDEAN,
    CHART_MINKOWSKI,
    Grid2,
    MatrixField,
    chart_derivatives,
    chart_jets,
    interior_max,
)
from solsurf.immersion import psi_residual
from solsurf.matlie import _SINHC_SERIES, Dual, _expm2, commutator, expm, fro, mm, trace
from solsurf.sigma import (
    commutator_pair_rows,
    theta_of,
    traveling_solution,
    u_coefficients,
    u_pair,
    veronese,
)
from solsurf.spectral import (
    _guarded_reciprocal,
    euclidean_wave,
    lowered_rung_with_jets,
    lsp_residual,
    phi_traveling,
)
from solsurf.symmetry import (
    ConformalSpec,
    conformal_characteristic,
    frechet_apply,
    lowering_functional,
    theta_functional,
    u_functional,
    u_jets_functional,
    wave_functional,
)

GRID_E = Grid2(CHART_EUCLIDEAN, (0.0, 0.0), (0.0015, 0.0015), (41, 41))
GRID_M = Grid2(CHART_MINKOWSKI, (0.1, -0.2), (0.02, 0.02), (41, 41))
GRID_T = Grid2(CHART_MINKOWSKI, (0.0, 0.0), (0.001, 0.001), (41, 41))
LAM_E, LAM_M = 0.6j, 0.5
SPEC_E = ConformalSpec.euclidean((0.3, 0.0, 1.0))
SPEC_M = ConformalSpec.minkowski((0.2, 0.0, 1.0), (0.5, 0.3))


def _smooth_jets(n: int):
    """Stencil jets of theta of a smooth rank-one projector field on the
    Minkowski grid, not a solution; its lowering denominator stays away
    from zero."""
    x1, x2 = GRID_M.mesh()
    rng = np.random.default_rng(n)
    c = (rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n)))[:, :, None, None]
    v = c[0] + np.sin(x1) * c[1] + (1 + x1) * x2 * c[2]
    p = v[:, None] * v.conj()[None, :] / np.sum(np.abs(v) ** 2, axis=0)
    return theta_of(MatrixField(GRID_M, p, 0))


def _case(name: str):
    """(jets, spec, functional, exact): ``exact`` where the functional has
    degree at most 2 in the jets, so the central pair is exact too.  A
    ``wave-*-lsp`` functional gives the inputs (Phi, u1, u2) of the
    linear-problem residual, which `lsp_residual` takes as they stand."""
    chart, n, g = name.split("-", 2)
    if chart == "wave":
        if n == "traveling":
            tw, jt = traveling_solution(2.0, 1.0, GRID_T)
            j, spec, lam = jt, SPEC_M, LAM_M
            builder = lambda jd: phi_traveling(tw, jd, LAM_M)  # noqa: E731
        else:
            k = int(n[1:])
            j, spec, lam = veronese(3, GRID_E, k)[1], SPEC_E, LAM_E
            builder = lambda jd: euclidean_wave(jd, k, LAM_E)  # noqa: E731
        if g == "lsp":
            return j, spec, lambda jd: (builder(jd), *u_pair(jd, lam)), False
        # Phi of level 0 is linear in theta
        return j, spec, wave_functional(builder), n == "k0"
    n = int(n[1:])
    if chart == "euclid":
        j, spec, lam = veronese(n, GRID_E, 1)[1], SPEC_E, LAM_E
    else:
        j, spec, lam = _smooth_jets(n), SPEC_M, LAM_M
    gs = {
        "theta": theta_functional,
        "u": u_functional(lam),
        "u_jets": u_jets_functional(lam),
        "lowering": lowering_functional,
    }
    return j, spec, gs[g], g != "lowering"


CASES = [
    f"{chart}-n{n}-{g}"
    for chart in ("euclid", "mink")
    for n in (2, 3)
    for g in ("theta", "u", "u_jets", "lowering")
] + [f"wave-{level}-{kind}" for level in ("k0", "k1", "k2", "traveling") for kind in ("phi", "lsp")]


def _with_residual(inputs):
    """Phi and its plain linear-problem residuals D_alpha Phi - u^alpha Phi,
    from the functional ``inputs`` of (Phi, u1, u2).  Phi's tangent sets the
    scale of the gap: the residuals vanish where Q is a symmetry of the
    linear problem."""

    def g(jd):
        phi, u1, u2 = inputs(jd)
        return (phi, *lsp_residual(phi, u1, u2))

    return g


def _gap(tangent, central) -> float:
    """Largest deviation of the central pair from the tangent over the
    components, relative to the largest tangent."""
    scale = max(interior_max(fro(t.values), t.margin) for t in tangent)
    gaps = (fro(t.values - c.values) for t, c in zip(tangent, central))
    return max(interior_max(gap, t.margin) for gap, t in zip(gaps, tangent)) / scale


@pytest.mark.parametrize("name", CASES)
def test_tangent_agrees_with_the_central_pair_to_second_order(name):
    # a functional of degree <= 2 has an exact central difference, which
    # the tangent matches to rounding; for the others the central pair's
    # error falls 4x when its step halves
    j, spec, g, exact = _case(name)
    q = conformal_characteristic(spec, j)
    (tangent,) = frechet_apply([g], j, q)
    if name.endswith("lsp"):
        # pr w of the linear-problem residual is `psi_residual` at
        # Psi = pr w Phi and (A, B) = pr w (u1, u2); the central pair is
        # that of the plain residual
        tangent = (tangent[0], *psi_residual(tangent[0], *g(j), *tangent[1:]))
        g = _with_residual(g)
    gaps = [_gap(tangent, central_pair([g], j, q, eps)[0]) for eps in (1e-2, 5e-3)]
    for t, c in zip(tangent, central_pair([g], j, q, 1e-2)[0]):
        assert t.margin == c.margin
    if exact:
        assert max(gaps) < 1e-11, gaps
    else:
        assert 1e-9 < gaps[1] < 1e-2 and 3.5 < gaps[0] / gaps[1] < 4.5, gaps


@pytest.mark.parametrize("name", CASES)
def test_value_half_keeps_the_bits_of_the_plain_evaluation(name):
    # on the pair each component's value is formed as the plain evaluation
    # forms it
    j, spec, g, _ = _case(name)
    paired = g(j.paired(chart_jets(conformal_characteristic(spec, j))))
    plain = g(j)
    assert len(paired) == len(plain)
    for a, b in zip(paired, plain):
        assert isinstance(a.values, Dual)
        assert np.array_equal(a.values.value, b.values, equal_nan=True)


def _expm_tangent_reference(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The Frechet derivative of exp at each node, by scipy."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    out = np.empty_like(x)
    for k in range(x.shape[-1]):
        out[..., k] = scipy_linalg.expm_frechet(x[..., k], t[..., k], compute_expm=False)
    return out


@pytest.mark.parametrize("side", ["series", "closed"])
def test_expm_tangent_on_both_sides_of_the_series_cutoff(side):
    # X = m I + B with B^2 = s^2 I, |s| below or above the cutoff; the value
    # keeps the bits of the plain exponential
    rng = np.random.default_rng(7)
    nodes = 40
    low, high = (0.01, 0.9) if side == "series" else (1.1, 300)
    s = _SINHC_SERIES * rng.uniform(low, high, nodes)
    angle = rng.uniform(0, 2 * np.pi, nodes)
    b = np.array([[np.cos(angle), np.sin(angle)], [np.sin(angle), -np.cos(angle)]]) * s
    m = 0.3 * rng.normal(size=nodes) * np.eye(2)[..., None]
    x = b * np.exp(1j * rng.uniform(0, 2 * np.pi, nodes)) + m
    t = rng.normal(size=(2, 2, nodes)) + 1j * rng.normal(size=(2, 2, nodes))
    got = expm(Dual(x, t))
    small = np.abs(np.sqrt(0.25 * (x[0, 0] - x[1, 1]) ** 2 + x[0, 1] * x[1, 0])) < _SINHC_SERIES
    assert small.all() if side == "series" else not small.any()
    assert np.array_equal(got.value, _expm2(x))
    want = _expm_tangent_reference(x, t)
    assert np.max(fro(got.tangent - want) / fro(want)) < 1e-13


def test_expm_tangent_is_nan_where_the_value_is_not_finite():
    rng = np.random.default_rng(3)
    x = 0.5 * (rng.normal(size=(2, 2, 3, 4)) + 1j * rng.normal(size=(2, 2, 3, 4)))
    t = rng.normal(size=x.shape) + 0j
    x[0, 1, 1, 2] = np.nan
    t[1, 1, 0, 0] = np.nan
    got = expm(Dual(x, t))
    assert np.array_equal(got.value, expm(x), equal_nan=True)
    dead = np.isnan(got.tangent).any(axis=(0, 1))
    assert dead.sum() == 2 and dead[1, 2] and dead[0, 0]
    assert np.isnan(got.value[..., 1, 2]).all() and np.isfinite(got.value[..., 0, 0]).all()
    live = ~dead
    want = _expm_tangent_reference(x[..., live], t[..., live])
    assert np.max(fro(got.tangent[..., live] - want) / fro(want)) < 1e-13


# --- nested pairs --------------------------------------------------------------


def _rational(x, m: np.ndarray):
    """-[x, m] x / tr(x x): through mm, commutator, trace, negation and the
    guarded reciprocal."""
    r, bad = _guarded_reciprocal(trace(mm(x, x)))
    assert not bad.any()
    return -(mm(commutator(x, m), x) * r)


def _same(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_nested_pairs_carry_the_mixed_second_derivative():
    # x(s, t) = x0 + s a + t b + s t c: the outer pair differentiates in s,
    # the inner one in t, so the inner tangent of the outer tangent is
    # d^2/ds dt; each half of the nested pair is the first-order pair's
    rng = np.random.default_rng(11)
    x0, a, b, c, m = (rng.normal(size=(3, 3, 50)) + 1j * rng.normal(size=(3, 3, 50))
                      for _ in range(5))
    x0 += 3 * np.eye(3)[..., None]
    got = _rational(Dual(Dual(x0, b), Dual(a, c)), m)
    along_t, along_s = _rational(Dual(x0, b), m), _rational(Dual(x0, a), m)
    assert _same(got.value.value, _rational(x0, m))
    assert _same(got.value.tangent, along_t.tangent)
    assert _same(got.tangent.value, along_s.tangent)
    mixed = got.tangent.tangent

    def gap(eps: float) -> float:
        # d/dt of the first-order s-tangent, by a central difference in t
        plus, minus = (_rational(Dual(x0 + t * b, a + t * c), m).tangent for t in (eps, -eps))
        return float(np.max(fro((plus - minus) / (2 * eps) - mixed)) / np.max(fro(mixed)))

    gaps = [gap(eps) for eps in (1e-2, 5e-3)]
    assert 1e-9 < gaps[1] < 1e-4 and 3.5 < gaps[0] / gaps[1] < 4.5, gaps


# --- total derivatives along D_a ----------------------------------------------


def _along_gaps(h: float, a: int) -> list[float]:
    """The tangents of the u pair and of L(P) along D_a on rung 1 of CP^2 at
    101^2 nodes of spacing ``h``, against the 4th-order stencil D_a of their
    values, relative to the largest tangent."""
    grid = Grid2(CHART_EUCLIDEAN, (0.0, 0.0), (h, h), (101, 101))
    jr = veronese(3, grid, 1)[1].rows(slice(None))
    u1, u2 = commutator_pair_rows(jr.along(a), *u_coefficients(LAM_E))
    # D_a L(P) is the lowering's tangent along D_a
    lowered = lowered_rung_with_jets(jr)
    gaps = []
    for value, tangent in ((u1.value, u1.tangent), (u2.value, u2.tangent),
                           (lowered[0], lowered[a])):
        stencil = chart_derivatives(value, grid)[a - 1]
        gaps.append(interior_max(fro(tangent - stencil), 2) / interior_max(fro(tangent), 2))
    return gaps


@pytest.mark.parametrize("a", [1, 2])
def test_along_tangents_match_the_stencil_total_derivative(a):
    # truncation level: below 1e-9 at h = 0.0015, and falling at 4th order
    coarse, fine = _along_gaps(0.0015, a), _along_gaps(0.00075, a)
    assert max(coarse) < 1e-9, coarse
    assert all(c / f > 8 for c, f in zip(coarse, fine)), (coarse, fine)


def test_along_strip_reads_no_second_jets():
    jr = veronese(3, GRID_E, 1)[1].rows(slice(None))
    along = jr.along(2)
    assert _same(along.values.tangent, jr.d2) and _same(along.d1.tangent, jr.d12)
    for name in ("d11", "d12", "d22"):
        with pytest.raises(ValueError, match="carries no second jets"):
            getattr(along, name)
