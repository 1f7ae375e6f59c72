import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solsurf.matlie import (
    MM_MAX_N,
    SMALL_N,
    DimensionMismatch,
    NonFiniteMatrix,
    commutator,
    constant,
    dagger,
    det,
    expm,
    fro,
    identity,
    inner,
    inv,
    mm,
    project_su,
    su_basis,
    trace,
)

SIGMA = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def first(a):
    """A node-major (..., n, n) stack, as numpy.linalg and scipy take it,
    in the kernels' matrix-first (n, n, ...) layout."""
    return np.moveaxis(a, (-2, -1), (0, 1))


def last(a):
    """A matrix-first stack back in node-major order."""
    return np.moveaxis(a, (0, 1), (-2, -1))


def test_dagger_identity_and_nilpotent():
    assert np.array_equal(dagger(np.eye(2)), np.eye(2))
    m = np.array([[0, 1], [0, 0]], dtype=complex)
    assert np.array_equal(dagger(m), np.array([[0, 0], [1, 0]]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_dagger_involution(seed):
    rng = np.random.default_rng(seed)
    m = random_complex(rng, 3)
    assert np.allclose(dagger(dagger(m)), m)


def test_commutator_self_and_trace():
    rng = np.random.default_rng(0)
    x = random_complex(rng, 3)
    y = random_complex(rng, 3)
    assert fro(commutator(x, x)) == 0
    assert abs(np.trace(commutator(x, y))) < 1e-12 * fro(x) * fro(y)


def test_commutator_pauli_structure():
    # e_k = i sigma_k; direct 2x2 multiplication gives [e1, e2] = -2 e3
    e = [1j * s for s in SIGMA]
    assert np.allclose(commutator(e[0], e[1]), -2 * e[2])
    assert np.allclose(commutator(e[1], e[2]), -2 * e[0])


def test_commutator_dim_mismatch():
    # `mm` checks the inner dimensions, for itself and both of its callers
    for op in (commutator, mm, inner):
        with pytest.raises(DimensionMismatch):
            op(np.eye(2), np.eye(3))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_commutator_antisymmetry_jacobi(seed):
    rng = np.random.default_rng(seed)
    x, y, z = (random_complex(rng, 3) for _ in range(3))
    assert np.max(np.abs(commutator(x, y) + commutator(y, x))) < 1e-12
    jac = (
        commutator(x, commutator(y, z))
        + commutator(y, commutator(z, x))
        + commutator(z, commutator(x, y))
    )
    scale = fro(x) * fro(y) * fro(z)
    assert fro(jac) < 1e-12 * max(1.0, scale)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_su_basis_properties(n):
    basis = su_basis(n)
    assert basis.elements.shape == (n, n, n * n - 1)
    elements = np.moveaxis(basis.elements, -1, 0)
    for e in elements:
        assert fro(e + dagger(e)) < 1e-14
        assert abs(np.trace(e)) < 1e-14
    gram = np.array([[inner(a, b) for b in elements] for a in elements])
    assert np.max(np.abs(gram - np.eye(n * n - 1))) < 1e-13
    assert basis.closure_residual() < 1e-12


def test_su_basis_requires_n2():
    with pytest.raises(ValueError):
        su_basis(1)


def test_project_su_cases():
    rng = np.random.default_rng(1)
    # anti-Hermitian traceless passes through
    x, _ = project_su(random_complex(rng, 3))
    again, defect = project_su(x)
    assert fro(again - x) < 1e-14
    assert defect < 1e-14
    # Hermitian maps to zero with defect equal to its size
    h = random_complex(rng, 3)
    h = 0.5 * (h + dagger(h))
    z, defect = project_su(h)
    assert fro(z) < 1e-14
    assert abs(defect - fro(h)) < 1e-12
    # trace shifts are removed
    shifted, _ = project_su(x + 2.7 * np.eye(3))
    assert fro(shifted - x) < 1e-13


def test_inner_su2_dot_product():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(3)
    b = rng.standard_normal(3)
    x = 1j * sum(ai * si for ai, si in zip(a, SIGMA))
    y = 1j * sum(bi * si for bi, si in zip(b, SIGMA))
    assert abs(inner(x, y) - a @ b) < 1e-13
    assert abs(inner(x, y) - inner(y, x)) < 1e-14
    assert inner(x, x) > 0
    assert inner(0 * x, 0 * x) == 0


def test_expm_trivial():
    assert np.allclose(expm(np.zeros((2, 2))), np.eye(2))
    for shape in ((1, 1), (3, 3), (4, 4, 5), (2, 3, 5)):
        with pytest.raises(ValueError, match="2x2"):
            expm(np.zeros(shape))
    d = np.diag([0.3 + 0.1j, -1.2])
    assert np.allclose(expm(d), np.diag(np.exp(np.diag(d))), atol=1e-14)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_expm_inverse_identity(seed):
    rng = np.random.default_rng(seed)
    m = random_complex(rng, 2)
    m *= 5.0 / max(1.0, fro(m))
    prod = expm(m) @ expm(-m)
    assert fro(prod - np.eye(2)) < 1e-12


def test_expm_against_scipy():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    from solsurf.matlie import _SINHC_SERIES

    rng = np.random.default_rng(3)
    eps = np.finfo(complex).eps
    ident = np.eye(2, dtype=complex)

    def batch(shape=(3, 4)):
        return rng.standard_normal((*shape, 2, 2)) + 1j * rng.standard_normal((*shape, 2, 2))

    def scaled(m, norm):
        return m * (norm / np.max(fro(first(m))))

    def assert_matches_scipy(x, ours):
        # the forward error of a backward-stable exponential grows with the norm
        ref = scipy_linalg.expm(x)
        assert fro(ours - ref) / fro(ref) < 16 * eps * (1.0 + fro(x))

    cases = []
    # dense complex input up to norm 40
    for norm in (0.5, 5.0, 20.0, 40.0):
        cases.append(scaled(batch(), norm))
    # anti-Hermitian traceless 2x2 (traveling-wave regime, s imaginary)
    for norm in (1e-6, 0.5, 5.0, 20.0):
        m = batch()
        m = m - last(dagger(first(m)))
        m = m - 0.5 * np.trace(m, axis1=-2, axis2=-1)[..., None, None] * ident
        cases.append(scaled(m, norm))
    # nonzero trace, with either sign of the real part
    for shift in (2.0 + 1.0j, -3.0, 0.5j):
        cases.append(scaled(batch(), 3.0) + shift * ident)
    # nilpotent part, s = 0 exactly, with and without trace
    nil = np.array([[[0.0, 3.0], [0.0, 0.0]], [[1.0, 1.0], [-1.0, -1.0]]], dtype=complex)
    cases.append(nil)
    cases.append(nil + (0.7 - 0.2j) * ident)
    # |s| on both sides of the sinh(s)/s series cutoff, in three directions
    for factor in (1e-3, 0.5, 0.999, 1.001, 2.0):
        for phase in (1.0, 1.0j, np.exp(0.25j * np.pi)):
            s = factor * _SINHC_SERIES * phase
            cases.append(np.array([[s, 0.3], [0.0, -s]]) + 0.1 * ident)

    for m in cases:
        ours = last(expm(first(m)))
        for idx in np.ndindex(m.shape[:-2]):
            assert_matches_scipy(m[idx], ours[idx])

    # a batched field with NaN nodes: those stay NaN, the rest match scipy
    m = scaled(batch((5, 6)), 20.0)
    m[0, :] = np.nan
    m[3, 2, 1, 0] = np.nan
    ours = last(expm(first(m)))
    bad = ~np.isfinite(m).all(axis=(-1, -2))
    assert np.isnan(ours[bad]).all()
    for idx in zip(*np.nonzero(~bad)):
        assert_matches_scipy(m[idx], ours[idx])
    # a lone non-finite matrix, or a field without a finite node, is refused
    for bad_input in (m[0, 0], m[0]):
        with pytest.raises(NonFiniteMatrix):
            expm(first(bad_input))


def test_expm_additivity_only_when_commuting():
    rng = np.random.default_rng(4)
    a = np.diag([0.3, -0.7]).astype(complex)
    b = np.diag([1.1, 0.2]).astype(complex)
    assert fro(expm(a + b) - expm(a) @ expm(b)) < 1e-13
    c = random_complex(rng, 2)
    if fro(commutator(a, c)) > 1e-3:
        assert fro(expm(a + c) - expm(a) @ expm(c)) > 1e-6


def test_expm_batched_matches_loop():
    rng = np.random.default_rng(5)
    batch = rng.standard_normal((2, 2, 4, 3)) + 1j * rng.standard_normal((2, 2, 4, 3))
    out = expm(batch)
    assert out.shape == batch.shape
    for i in range(4):
        for j in range(3):
            assert fro(out[:, :, i, j] - expm(batch[:, :, i, j])) < 1e-12


# --- small-matrix kernels against numpy ---------------------------------------
#
# Stacks are drawn node-major, as numpy.linalg takes them, and handed to the
# kernels matrix-first.  Every kernel runs for n = 2 .. 6, so both sides of
# the closed-form cutoff SMALL_N and of mm's unrolled cutoff MM_MAX_N are
# covered.  Tolerances follow from the dtype alone: a product entry sums n
# terms, each rounded once, so |mm(x, y) - x @ y| <= 8 n eps max|x| max|y|.
# Inverses carry the conditioning of the matrix: per node,
# |ours - ref| <= 8 n eps cond(A) max|ref|.

EPS = np.finfo(np.complex128).eps
FIELD = (5, 4)
SIZES = [2, 3, 4, 5, 6]


def test_cutoffs_lie_inside_the_tested_sizes():
    assert SIZES[0] <= SMALL_N < MM_MAX_N < SIZES[-1]


def random_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def product_tol(n, x, y):
    return 8 * n * EPS * np.max(np.abs(x)) * np.max(np.abs(y))


def operand_shapes(n):
    """Single matrices, fields, and a constant matrix against a field (both
    sides), node-major."""
    m, f = (n, n), FIELD + (n, n)
    return [(m, m), (f, f), (m, f), (f, m)]


def assert_close_per_node(ours, ref, a, n):
    """Matrix-first ``ours`` against the node-major ``ref`` computed from
    the node-major ``a``."""
    ours = last(ours)
    a = np.broadcast_to(a, ref.shape[:-2] + a.shape[-2:])
    scale = 8 * n * EPS * np.linalg.cond(a) * np.max(np.abs(ref), axis=(-1, -2))
    assert ours.shape == ref.shape
    assert np.all(np.max(np.abs(ours - ref), axis=(-1, -2)) <= scale)


@pytest.mark.parametrize("n", SIZES)
def test_mm_matches_matmul(n):
    rng = np.random.default_rng(10 + n)
    for sx, sy in operand_shapes(n):
        x, y = random_stack(rng, sx), random_stack(rng, sy)
        ours, ref = mm(first(x), first(y)), x @ y
        assert ours.shape == first(ref).shape
        assert np.max(np.abs(last(ours) - ref)) <= product_tol(n, x, y)
    # real operands and mixed dtypes
    xr = rng.standard_normal(FIELD + (n, n))
    y = random_stack(rng, (n, n))
    assert np.max(np.abs(last(mm(first(xr), y)) - xr @ y)) <= product_tol(n, xr, y)
    assert np.max(np.abs(last(mm(first(xr), first(xr))) - xr @ xr)) <= product_tol(n, xr, xr)
    with pytest.raises(ValueError):
        mm(first(x), random_stack(rng, (n + 1, n + 1)))


@pytest.mark.parametrize("n", SIZES)
def test_commutator_matches_matmul(n):
    rng = np.random.default_rng(70 + n)
    for sx, sy in operand_shapes(n):
        x, y = random_stack(rng, sx), random_stack(rng, sy)
        ours = last(commutator(first(x), first(y)))
        assert np.max(np.abs(ours - (x @ y - y @ x))) <= 2 * product_tol(n, x, y)


@pytest.mark.parametrize("n", SIZES)
def test_constant_matrix_broadcasts_against_a_field(n):
    rng = np.random.default_rng(80 + n)
    c = random_stack(rng, (n, n))
    f = random_stack(rng, FIELD + (n, n))
    field = first(f)
    assert constant(c).shape == (n, n, 1, 1)
    assert np.array_equal(last(field - constant(c)), f - c)
    assert np.array_equal(last(field + identity(n)), f + np.eye(n))
    # products take the bare matrix and its constant alike, on either side
    assert np.array_equal(mm(constant(c), field), mm(c, field))
    assert np.array_equal(mm(field, constant(c)), mm(field, c))
    assert np.max(np.abs(last(mm(c, field)) - c @ f)) <= product_tol(n, c, f)
    # a scalar field broadcasts against a matrix field as it stands
    g = rng.standard_normal(FIELD)
    assert np.array_equal(last(g * field), g[..., None, None] * f)


@pytest.mark.parametrize("n", SIZES)
def test_trace_and_fro_match_numpy(n):
    rng = np.random.default_rng(90 + n)
    for shape in ((n, n), FIELD + (n, n)):
        a = random_stack(rng, shape)
        tol = 8 * n * EPS * np.max(np.abs(a))
        assert np.max(np.abs(trace(first(a)) - np.trace(a, axis1=-2, axis2=-1))) <= tol
        ref = np.linalg.norm(a, axis=(-2, -1))
        assert np.max(np.abs(fro(first(a)) - ref)) <= 8 * n * EPS * np.max(ref)


@pytest.mark.parametrize("n", SIZES)
def test_project_su_matches_per_node(n):
    rng = np.random.default_rng(100 + n)
    a = random_stack(rng, FIELD + (n, n))
    s, defect = project_su(first(a))
    assert s.shape == (n, n) + FIELD and defect.shape == FIELD
    for idx in np.ndindex(FIELD):
        anti = 0.5 * (a[idx] - a[idx].conj().T)
        ref = anti - np.trace(anti) / n * np.eye(n)
        tol = 8 * n * EPS * np.max(np.abs(a[idx]))
        assert np.max(np.abs(s[(..., *idx)] - ref)) <= tol
        assert abs(defect[idx] - np.linalg.norm(a[idx] - ref)) <= tol


@pytest.mark.parametrize("n", SIZES)
def test_det_matches_numpy(n):
    rng = np.random.default_rng(20 + n)
    for shape in ((n, n), FIELD + (n, n)):
        a = random_stack(rng, shape)
        tol = 8 * n * EPS * np.max(np.abs(a)) ** n * np.prod(np.arange(1, n + 1))
        assert np.max(np.abs(det(first(a)) - np.linalg.det(a))) <= tol


@pytest.mark.parametrize("n", SIZES)
def test_inv_matches_numpy(n):
    rng = np.random.default_rng(30 + n)
    for shape in ((n, n), FIELD + (n, n)):
        a = random_stack(rng, shape)
        assert_close_per_node(inv(first(a)), np.linalg.inv(a), a, n)


@pytest.mark.parametrize("n", SIZES)
def test_kernels_keep_nan_nodes(n):
    rng = np.random.default_rng(50 + n)
    a = random_stack(rng, FIELD + (n, n))
    b = random_stack(rng, FIELD + (n, n))
    a[1, 2, 0, 0] = np.nan
    ok = np.ones(FIELD, dtype=bool)
    ok[1, 2] = False
    fa, fb = first(a), first(b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p, c, i, d = mm(fa, fb), commutator(fa, fb), inv(fa), det(fa)
        t, norm, (s, defect) = trace(fa), fro(fa), project_su(fa)
    for out in (p, c, s):
        assert np.isnan(out[:, :, 1, 2]).any() and np.isfinite(out[:, :, ok]).all()
    assert np.isnan(i[:, :, 1, 2]).all() and np.isnan(d[1, 2])
    assert_close_per_node(i[:, :, ok], np.linalg.inv(a[ok]), a[ok], n)
    assert np.isfinite(d[ok]).all()
    for scalar in (t, norm, defect):
        assert np.isnan(scalar[1, 2]) and np.isfinite(scalar[ok]).all()


@pytest.mark.parametrize("n", SIZES)
def test_exactly_singular_node_raises(n):
    rng = np.random.default_rng(60 + n)
    a = random_stack(rng, FIELD + (n, n))
    # a zero row, and an integer rank-one matrix: in both the determinant
    # and the LU pivot vanish exactly
    a[3, 1, -1, :] = 0
    a[0, 2] = np.outer(np.arange(1, n + 1), np.arange(2, n + 2))
    fa = first(a)
    assert det(fa)[3, 1] == 0 and det(fa)[0, 2] == 0
    for bad in (fa, fa[:, :, 3, 1], fa[:, :, 0, 2]):
        with pytest.raises(np.linalg.LinAlgError):
            inv(bad)
