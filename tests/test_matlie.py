import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solsurf.matlie import (
    DimensionMismatch,
    NonFiniteMatrix,
    commutator,
    dagger,
    det,
    expm,
    fro,
    inner,
    inv,
    mm,
    project_su,
    su_basis,
)

SIGMA = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


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
    with pytest.raises(DimensionMismatch):
        commutator(np.eye(2), np.eye(3))


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
    assert basis.elements.shape == (n * n - 1, n, n)
    for e in basis.elements:
        assert fro(e + dagger(e)) < 1e-14
        assert abs(np.trace(e)) < 1e-14
    gram = np.array([[inner(a, b) for b in basis.elements] for a in basis.elements])
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
    for shape in ((1, 1), (3, 3), (5, 4, 4)):
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
        return m * (norm / np.max(fro(m)))

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
        m = m - dagger(m)
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
        ours = expm(m)
        for idx in np.ndindex(m.shape[:-2]):
            assert_matches_scipy(m[idx], ours[idx])

    # a batched field with NaN nodes: those stay NaN, the rest match scipy
    m = scaled(batch((5, 6)), 20.0)
    m[0, :] = np.nan
    m[3, 2, 1, 0] = np.nan
    ours = expm(m)
    bad = ~np.isfinite(m).all(axis=(-1, -2))
    assert np.isnan(ours[bad]).all()
    for idx in zip(*np.nonzero(~bad)):
        assert_matches_scipy(m[idx], ours[idx])
    # a lone non-finite matrix, or a field without a finite node, is refused
    for bad_input in (m[0, 0], m[0]):
        with pytest.raises(NonFiniteMatrix):
            expm(bad_input)


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
    batch = rng.standard_normal((4, 3, 2, 2)) + 1j * rng.standard_normal((4, 3, 2, 2))
    out = expm(batch)
    for i in range(4):
        for j in range(3):
            assert fro(out[i, j] - expm(batch[i, j])) < 1e-12


# --- small-matrix kernels against numpy ---------------------------------------
#
# Tolerances follow from the dtype alone: a product entry sums n terms, each
# rounded once, so |mm(x, y) - x @ y| <= 8 n eps max|x| max|y|.  Inverses
# carry the conditioning of the matrix: per node,
# |ours - ref| <= 8 n eps cond(A) max|ref|.

EPS = np.finfo(np.complex128).eps
FIELD = (5, 4)


def random_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def product_tol(n, x, y):
    return 8 * n * EPS * np.max(np.abs(x)) * np.max(np.abs(y))


def operand_shapes(n):
    """Single matrices, fields, and a constant matrix against a field (both sides)."""
    m, f = (n, n), FIELD + (n, n)
    return [(m, m), (f, f), (m, f), (f, m)]


def assert_close_per_node(ours, ref, a, n):
    a = np.broadcast_to(a, ref.shape[:-2] + a.shape[-2:])
    scale = 8 * n * EPS * np.linalg.cond(a) * np.max(np.abs(ref), axis=(-1, -2))
    assert ours.shape == ref.shape
    assert np.all(np.max(np.abs(ours - ref), axis=(-1, -2)) <= scale)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mm_matches_matmul(n):
    rng = np.random.default_rng(10 + n)
    for sx, sy in operand_shapes(n):
        x, y = random_stack(rng, sx), random_stack(rng, sy)
        ours, ref = mm(x, y), x @ y
        assert ours.shape == ref.shape
        assert np.max(np.abs(ours - ref)) <= product_tol(n, x, y)
    # real operands and mixed dtypes
    xr = rng.standard_normal(FIELD + (n, n))
    y = random_stack(rng, (n, n))
    assert np.max(np.abs(mm(xr, y) - xr @ y)) <= product_tol(n, xr, y)
    assert np.max(np.abs(mm(xr, xr) - xr @ xr)) <= product_tol(n, xr, xr)
    with pytest.raises(ValueError):
        mm(x, random_stack(rng, (n + 1, n + 1)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_det_matches_numpy(n):
    rng = np.random.default_rng(20 + n)
    for shape in ((n, n), FIELD + (n, n)):
        a = random_stack(rng, shape)
        tol = 8 * n * EPS * np.max(np.abs(a)) ** n * np.prod(np.arange(1, n + 1))
        assert np.max(np.abs(det(a) - np.linalg.det(a))) <= tol


@pytest.mark.parametrize("n", [2, 3, 4])
def test_inv_matches_numpy(n):
    rng = np.random.default_rng(30 + n)
    for shape in ((n, n), FIELD + (n, n)):
        a = random_stack(rng, shape)
        assert_close_per_node(inv(a), np.linalg.inv(a), a, n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernels_keep_nan_nodes(n):
    rng = np.random.default_rng(50 + n)
    a = random_stack(rng, FIELD + (n, n))
    b = random_stack(rng, FIELD + (n, n))
    a[1, 2, 0, 1] = np.nan
    ok = np.ones(FIELD, dtype=bool)
    ok[1, 2] = False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p, i, d = mm(a, b), inv(a), det(a)
    assert np.isnan(p[1, 2]).any() and np.isfinite(p[ok]).all()
    assert np.isnan(i[1, 2]).all() and np.isnan(d[1, 2])
    assert_close_per_node(i[ok], np.linalg.inv(a[ok]), a[ok], n)
    assert np.isfinite(d[ok]).all()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exactly_singular_node_raises(n):
    rng = np.random.default_rng(60 + n)
    a = random_stack(rng, FIELD + (n, n))
    # a zero row, and an integer rank-one matrix: in both the determinant
    # and the LU pivot vanish exactly
    a[3, 1, -1, :] = 0
    a[0, 2] = np.outer(np.arange(1, n + 1), np.arange(2, n + 2))
    assert det(a)[3, 1] == 0 and det(a)[0, 2] == 0
    for bad in (a, a[3, 1], a[0, 2]):
        with pytest.raises(np.linalg.LinAlgError):
            inv(bad)
