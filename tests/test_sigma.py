import numpy as np
import pytest

from oracles import (
    ContractedToZero,
    build_ladder,
    chart_first_derivatives,
    chart_jets,
    chart_second_derivatives,
    lower_projector,
    raise_projector,
)
from pinned import heap_peak
from solsurf.cli import _completeness_residual, _orthogonality_defect
from solsurf.errors import ChartMismatch, LambdaSingular
from solsurf.fields import (
    CHART_EUCLIDEAN,
    CHART_MINKOWSKI,
    Grid2,
    MatrixField,
    interior_max,
    row_strips,
    strip_jets,
)
from solsurf.matlie import commutator, constant, dagger, fro, identity, mm, trace
from solsurf.sigma import (
    el_residual,
    theta_comm_identity_residual,
    theta_of,
    theta_square_residual,
    theta_triple_residual,
    traveling_solution,
    u_pair,
    veronese,
)

H_FINE = 0.0015
GRID = Grid2(CHART_EUCLIDEAN, (0.0, 0.0), (H_FINE, H_FINE), (101, 101))
GRID_M = Grid2(CHART_MINKOWSKI, (0.0, 0.0), (0.001, 0.001), (101, 101))


def projector_defects(values):
    """Pointwise defects of Hermiticity, idempotency and unit trace."""
    return {
        "hermiticity": fro(values - dagger(values)),
        "idempotency": fro(mm(values, values) - values),
        "trace": np.abs(trace(values) - 1.0),
    }


def test_veronese_values():
    p0 = veronese(2, GRID)[0][0]
    i2, i1 = GRID.n2 // 2, GRID.n1 // 2  # xi = 0
    assert np.allclose(p0.values[..., i2, i1], np.diag([1.0, 0.0]))
    # off-center value against the rank-one formula
    xi = GRID.xi()[10, 20]
    v = np.array([1.0, xi])
    expected = np.outer(v, v.conj()) / (np.vdot(v, v).real)
    assert np.allclose(p0.values[..., 10, 20], expected, atol=1e-14)
    # grid containing xi = 1 at its center node
    g1 = Grid2(CHART_EUCLIDEAN, (1.0, 0.0), (0.01, 0.01), (11, 11))
    p1 = veronese(2, g1)[0][0]
    assert np.allclose(p1.values[..., 5, 5], 0.5 * np.ones((2, 2)), atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_veronese_ladder_rungs_match_single_fields(n):
    # one frame build gives every rung bit for bit, whichever rung carries
    # the jets, and the jets are those of that rung's projector
    g = Grid2(CHART_EUCLIDEAN, (0.1, -0.2), (0.01, 0.01), (21, 21))
    ladder, _ = veronese(n, g)
    for k in range(n):
        rungs, single = veronese(n, g, k)
        assert len(rungs) == n
        for rung, again in zip(ladder, rungs):
            assert type(again) is MatrixField and again.margin == 0
            assert np.array_equal(rung.values, again.values)
        assert np.array_equal(single.values, 1j * (ladder[k].values - identity(n) / n))
        assert (single.margin, single.margin1, single.margin2) == (0, 0, 0)


def test_veronese_builds_no_jets_of_another_rung():
    # the ladder of CP^3 with rung 0 active: every projector is built, but
    # only rung 0's jets; this peaks at 11.9 fields of 4 x 4, and building
    # every rung's jets peaked at 30.7
    assert heap_peak(lambda: veronese(4, GRID, 0)) <= 12 * (16 * 101**2 * 16)


def test_veronese_invariants_and_chart():
    for n in (2, 3):
        p0 = veronese(n, GRID)[0][0]
        inv = projector_defects(p0.values)
        assert inv["hermiticity"].max() < 1e-13
        assert inv["idempotency"].max() < 1e-13
        assert inv["trace"].max() < 1e-13
    with pytest.raises(ChartMismatch):
        veronese(2, GRID_M)


@pytest.mark.parametrize("n", [2, 3])
def test_veronese_el_residual(n):
    jn = theta_of(veronese(n, GRID)[0][0])
    el, m = el_residual(jn)
    assert interior_max(el, m) < 1e-8


def test_zero_curvature_tracks_el_residual():
    # the zero-curvature residual of the connection pair is controlled by
    # the equation-of-motion residual, on and off the solution manifold
    lam = 0.5

    def zc_and_el(j):
        u1, u2 = u_pair(j, lam)
        d2u1 = chart_first_derivatives(u1)
        d1u2 = chart_first_derivatives(u2)
        zc = d2u1[1] - d1u2[0] + commutator(u1.values, u2.values)
        m = max(d2u1[2], d1u2[2])
        el, em = el_residual(j)
        return interior_max(fro(zc), m), interior_max(el, em)

    j = theta_of(veronese(2, GRID)[0][0])
    zc0, el0 = zc_and_el(j)
    assert zc0 < 1e-7 and el0 < 1e-8

    x, y = GRID.mesh()
    scale = (GRID.n1 - 1) * GRID.h1 / 2
    bump = 0.01 * np.exp(-((x / scale) ** 2 + (y / scale) ** 2) * 8)
    direction = 1j * np.array([[0.0, 1.0], [1.0, 0.0]])
    perturbed = MatrixField(
        GRID,
        identity(2) / 2 - 1j * (j.values + bump * constant(direction)),
        0,
    )
    jp = theta_of(perturbed)
    zc1, el1 = zc_and_el(jp)
    assert el1 > 1e-4
    assert zc1 < 50 * el1  # grid-dependent constant, order one here


def test_el_residual_sensitivity():
    # a smooth non-solution bump must be detected
    j = theta_of(veronese(2, GRID)[0][0])
    x, y = GRID.mesh()
    scale = (GRID.n1 - 1) * GRID.h1 / 2
    bump = 0.01 * np.exp(-((x / scale) ** 2 + (y / scale) ** 2) * 8)
    direction = 1j * np.array([[0.0, 1.0], [1.0, 0.0]])
    perturbed = MatrixField(GRID, j.values + bump * constant(direction), 0)
    jp = theta_of(MatrixField(GRID, identity(2) / 2 - 1j * perturbed.values, 0))
    el, m = el_residual(jp)
    assert interior_max(el, m) > 1e-4


def test_theta_identities():
    # the stencil route from the projector, and the exact jets
    rungs, exact = veronese(2, GRID)
    for j in (theta_of(rungs[0]), exact):
        i2, i1 = GRID.n2 // 2, GRID.n1 // 2
        assert np.allclose(j.values[..., i2, i1], np.diag([0.5j, -0.5j]))
        # N=2 forces theta^2 = -I/4
        sq = mm(j.values, j.values)
        assert interior_max(fro(sq + identity(2) / 4), j.margin) < 1e-13
        res, m = theta_square_residual(j)
        assert interior_max(res, m) < 1e-10
        res, m = theta_comm_identity_residual(j)
        assert interior_max(res, m) < 1e-10
        res, m = theta_triple_residual(j)
        assert interior_max(res, m) < 1e-10


def test_veronese_jets_are_exact_and_theta_of_takes_stencils():
    rungs, exact = veronese(2, GRID)
    # rung 0 of CP^1 in closed form: P = [[1, xb], [xi, xi xb]] / t with
    # xb = conj(xi) and t = 1 + xi xb, so D1 P = M / t^2 with
    # M = [[-xb, -xb^2], [1, xb]], D1 D1 P = -2 xb M / t^3 and
    # D2 D1 P = [[-1, -2 xb], [0, 1]] / t^2 - 2 xi M / t^3
    xi = GRID.xi()
    xb, t = xi.conj(), 1 + np.abs(xi) ** 2
    one, nil = np.ones_like(xi), np.zeros_like(xi)
    d1p = np.array([[-xb, -xb**2], [one, xb]]) / t**2
    d11p = -2 * xb / t * d1p
    d12p = np.array([[-one, -2 * xb], [nil, one]]) / t**2 - 2 * xi / t * d1p
    exact_whole = exact.rows(slice(None))
    closed = {"d1": d1p, "d2": dagger(d1p), "d11": d11p, "d12": d12p, "d22": dagger(d11p)}
    for name, p_jet in closed.items():
        assert np.max(fro(getattr(exact_whole, name) - 1j * p_jet)) < 1e-14, name
    assert (exact.margin, exact.margin1, exact.margin2) == (0, 0, 0)
    stencil = theta_of(rungs[0])
    ref = chart_jets(MatrixField(GRID, exact.values, 0))
    stencil_whole, ref_whole = stencil.rows(slice(None)), ref.rows(slice(None))
    for name in ("d1", "d2", "d11", "d12", "d22"):
        assert np.array_equal(getattr(stencil_whole, name), getattr(ref_whole, name), equal_nan=True)
    assert (stencil.margin, stencil.margin1, stencil.margin2) == (0, 2, 4)
    assert np.array_equal(stencil.values, exact.values)
    assert interior_max(fro(stencil_whole.d12 - exact_whole.d12), stencil.margin2) < 1e-6


def test_raise_lower_ladder_cp1():
    p0 = veronese(2, GRID)[0][0]  # stencil route
    p1 = raise_projector(p0)
    # complement structure for N = 2
    assert interior_max(fro(p1.values + p0.values - identity(2)), p1.margin) < 1e-9
    with pytest.raises(ContractedToZero):
        raise_projector(p1)
    back = lower_projector(p1)
    assert interior_max(fro(back.values - p0.values), back.margin) < 1e-10


def test_build_ladder_cp2():
    p0 = veronese(3, GRID)[0][0]
    ladder = build_ladder(p0)
    assert len(ladder) == 3
    assert _orthogonality_defect(ladder) < 1e-9
    assert _completeness_residual(ladder) < 1e-9
    # rung invariants hold after every re-projected step
    for rung in ladder:
        inv = projector_defects(rung.values)
        m = max(rung.margin, 2)
        assert interior_max(inv["hermiticity"], m) < 1e-10
        assert interior_max(inv["idempotency"], m) < 1e-10
        assert interior_max(inv["trace"], m) < 1e-10


def test_numeric_ladder_matches_analytic():
    analytic, _ = veronese(3, GRID)
    numeric = build_ladder(analytic[0])
    for k in range(3):
        m = max(numeric[k].margin, 4)
        diff = fro(numeric[k].values - analytic[k].values)
        assert interior_max(diff, m) < 1e-7


def test_analytic_ladder_exactness():
    ladder, _ = veronese(3, GRID)
    assert _orthogonality_defect(ladder) < 1e-13
    assert _completeness_residual(ladder) < 1e-13
    # exact jets satisfy the equation of motion identically
    for k in range(3):
        j = veronese(3, GRID, k)[1]
        el, m = el_residual(j)
        assert interior_max(el, m) < 1e-14


def test_u_pair_values_and_errors():
    j = veronese(2, GRID)[1]
    u1, u2 = u_pair(j, 0.0)
    assert interior_max(fro(u1.values + 2 * commutator(j.d1, j.values)), u1.margin) < 1e-14
    assert interior_max(fro(u2.values + 2 * commutator(j.d2, j.values)), u2.margin) < 1e-14
    for lam in (1.0, -1.0, 1.0 + 1e-9j):
        with pytest.raises(LambdaSingular):
            u_pair(j, lam)


def test_traveling_wave_structure():
    wave, j = traveling_solution(2.0, 1.0, GRID_M)
    # frozen oracle from the 2x2 multiplication: [theta_1, theta] = omega [[0,1],[-1,0]]
    komm = commutator(j.d1, j.values)
    expected = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    assert np.max(fro(komm - constant(expected))) < 1e-12
    # traveling constraint is exact
    assert interior_max(fro(2.0 * j.d1 - j.d2), j.margin1) < 1e-14
    # differential consequences: D_alpha [theta_beta, theta] = 0
    for beta_jet in (j.d1, j.d2):
        cf = MatrixField(GRID_M, commutator(beta_jet, j.values), 0)
        d1c, d2c, m = chart_first_derivatives(cf)
        assert interior_max(fro(d1c), m) < 1e-12
        assert interior_max(fro(d2c), m) < 1e-12
    # equation of motion holds exactly on the analytic jets
    el, m = el_residual(j)
    assert interior_max(el, m) < 1e-12


def test_traveling_u_antihermitian_for_real_lambda():
    wave, j = traveling_solution(2.0, 1.0, GRID_M)
    u1, u2 = u_pair(j, 0.7)
    assert interior_max(fro(u1.values + dagger(u1.values)), u1.margin) < 1e-13
    assert interior_max(fro(u2.values + dagger(u2.values)), u2.margin) < 1e-13
    assert interior_max(np.abs(trace(u1.values)), u1.margin) < 1e-13


def test_traveling_requires_minkowski():
    with pytest.raises(ChartMismatch):
        traveling_solution(2.0, 1.0, GRID)


@pytest.mark.parametrize("chart", [CHART_EUCLIDEAN, CHART_MINKOWSKI])
@pytest.mark.parametrize("n", [2, 3])
def test_second_jets_on_first_read_match_eager_stencils(chart, n):
    grid = Grid2(chart, (0.1, -0.2), (0.02, 0.03), (23, 19))
    x1, x2 = grid.mesh()
    rng = np.random.default_rng(n)
    coeffs = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    c = coeffs[:, :, None, None]  # each row a vector with trailing grid axes
    v = c[0] + np.sin(x1) * c[1] + x1 * x2 * c[2]
    p = v[:, None] * v.conj()[None, :] / np.sum(np.abs(v) ** 2, axis=0)
    j = theta_of(MatrixField(grid, p, 1))
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q = np.cos(x2 - x1) * constant(a - dagger(a))
    q_jets = strip_jets(MatrixField(grid, q, 1))
    eps = 1e-3
    jd = j.deformed(eps, q_jets)
    theta_ref = chart_second_derivatives(j.values, grid)
    q_ref = chart_second_derivatives(q, grid)
    deformed_ref = tuple(t + eps * s for t, s in zip(theta_ref, q_ref))
    for lazy, ref in ((j, theta_ref), (q_jets, q_ref), (jd, deformed_ref)):
        whole = lazy.rows(slice(None))
        for got, want in zip((whole.d11, whole.d12, whole.d22), ref):
            assert np.array_equal(got, want, equal_nan=True)
    assert (jd.margin, jd.margin1, jd.margin2) == (1, 3, 5)

    # every constructor serves the second jets of a strip of rows as the
    # rows of the whole set, bit for bit, directly and through the strip
    if chart == CHART_EUCLIDEAN:
        exact = {"veronese": veronese(n, grid, n - 1)[1]}
    else:
        exact = {"traveling": traveling_solution(2.0, 1.5, grid)[1]}
    built = {"strip_jets": q_jets, "theta_of(stencil)": j, "deformed": jd, **exact}
    first = next(iter(exact.values()))
    m = first.n  # the traveling wave is 2x2
    built["deformed(exact)"] = first.deformed(-eps, strip_jets(MatrixField(grid, q[:m, :m], 1)))
    for name, field in built.items():
        whole = field.second(slice(None))
        for rows in row_strips(grid.n2):
            strip = field.rows(rows)
            for got, via_strip, want in zip(field.second(rows), (strip.d11, strip.d12, strip.d22),
                                            whole):
                want = want[..., rows, :]
                assert got.tobytes() == want.tobytes() and got.shape == want.shape, name
                assert via_strip.tobytes() == want.tobytes(), name
