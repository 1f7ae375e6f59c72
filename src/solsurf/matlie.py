"""Dense complex matrices and the su(N) layer.

Matrices are numpy complex arrays with the matrix axes first, (n, n, ...),
and every operation broadcasts over the trailing axes: a "matrix field" is
a (n, n, n2, n1) array, each entry [i, j] one contiguous (n2, n1) plane.
A scalar field of shape (n2, n1) broadcasts against it as it stands; a
constant matrix takes trailing unit axes from `constant`.  su(N) elements
are anti-Hermitian traceless matrices; the pairing -1/2 Re tr(XY) is
positive definite on them and is the metric used for all geometry downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionMismatch",
    "NonFiniteMatrix",
    "SuBasis",
    "commutator",
    "constant",
    "dagger",
    "det",
    "expm",
    "fro",
    "identity",
    "inner",
    "inv",
    "mm",
    "project_su",
    "su_basis",
    "trace",
]

class DimensionMismatch(ValueError):
    """Operands act on different matrix dimensions."""


class NonFiniteMatrix(ValueError):
    """Matrix contains NaN or Inf entries where finite values are required."""


def constant(m: np.ndarray, ndim: int = 4) -> np.ndarray:
    """The (n, n) matrix ``m`` with trailing unit axes up to ``ndim``, so it
    broadcasts against a matrix field on any grid."""
    m = np.asarray(m)
    return m.reshape(m.shape + (1,) * (ndim - m.ndim))


def identity(n: int, ndim: int = 4) -> np.ndarray:
    """The n x n identity as a `constant`."""
    return constant(np.eye(n), ndim)


# `@` and numpy.linalg take the matrix axes last; only their fallbacks move them
def _matrix_last(a: np.ndarray) -> np.ndarray:
    return np.moveaxis(a, (0, 1), (-2, -1))


def _matrix_first(a: np.ndarray) -> np.ndarray:
    return np.moveaxis(a, (-2, -1), (0, 1))


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, broadcasting over trailing axes."""
    return np.conj(np.swapaxes(np.asarray(m), 0, 1))


def trace(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    return sum(m[i, i] for i in range(m.shape[0]))


def fro(m: np.ndarray) -> np.ndarray:
    """Frobenius norm over the leading matrix axes."""
    a = np.asarray(m)
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=(0, 1)))


# --- small-matrix kernels --------------------------------------------------------

# Largest matrix dimension the closed-form determinant and inverse handle.
SMALL_N = 3
# Largest matrix dimension `mm` sums unrolled.
MM_MAX_N = 5


def mm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix product, broadcast over the trailing axes.

    For dimensions up to ``MM_MAX_N`` every output entry is written as the
    sum over the inner index, ``x[i, j] * y[j, l]`` for j = 0, 1, ...,
    each term one operation on contiguous whole-field planes; numpy's
    ``@`` spends nearly all its time dispatching one tiny product per node.
    Medians of 21 runs on complex128 fields (2-vCPU Xeon, numpy 2.4, one
    BLAS thread): on 101^2 nodes the sum takes 0.17, 0.79, 1.9, 4.2 and
    8.0 ms for n = 2 .. 6, against 7.3, 7.2 and 17 ms for ``@`` (matrix
    axes moved last) at n = 4, 5 and 6, and 0.57 and 3.6 ms for the same
    sum over the node-major (n2, n1, n, n) layout at n = 2 and 3.  On
    201^2 nodes it still beats ``@`` at n = 5, 34 against 58 ms, but at
    n = 6 the best runs of ``@`` win on 301^2 nodes, 121 against 139 ms,
    hence the cutoff.  The summation order differs from BLAS, so results
    agree with ``@`` to rounding only.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    n, k = x.shape[:2]
    if y.shape[0] != k:
        raise DimensionMismatch(f"inner dimensions differ: {x.shape[:2]} times {y.shape[:2]}")
    m = y.shape[1]
    if max(n, k, m) > MM_MAX_N:
        return _matrix_first(_matrix_last(x) @ _matrix_last(y))
    lead = np.broadcast_shapes(x.shape[2:], y.shape[2:])
    out = np.empty((n, m) + lead, dtype=np.result_type(x, y))
    for i in range(n):
        for l in range(m):
            acc = out[i, l, ...]
            np.multiply(x[i, 0], y[0, l], out=acc)
            for j in range(1, k):
                acc += x[i, j] * y[j, l]
    return out


def _cofactor(a: np.ndarray, i: int, j: int) -> np.ndarray:
    """Signed cofactor C_ij of a 2x2 or 3x3 matrix."""
    if a.shape[0] == 2:
        c = a[1 - i, 1 - j]
        return c if i == j else -c
    # cyclic index order carries the sign (-1)^(i+j)
    i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
    return a[i1, j1] * a[i2, j2] - a[i1, j2] * a[i2, j1]


# a determinant beyond the float range comes out non-finite, as `_inv_small` expects
@np.errstate(over="ignore", invalid="ignore")
def _det_small(a: np.ndarray) -> np.ndarray:
    d = a[0, 0] * _cofactor(a, 0, 0)
    for j in range(1, a.shape[0]):
        d = d + a[0, j] * _cofactor(a, 0, j)
    return d


def _inv_small(a: np.ndarray) -> np.ndarray:
    """adj(A) / det(A) for 2x2 and 3x3 stacks.

    Nodes with a non-finite determinant (NaN margin nodes) come out NaN;
    an exactly singular finite node raises, as the LAPACK inverse does.
    """
    d = _det_small(a)
    if np.any(d == 0):
        raise np.linalg.LinAlgError("Singular matrix")
    with np.errstate(invalid="ignore"):
        r = np.where(np.isfinite(d), 1.0 / d, np.nan)
    n = a.shape[0]
    out = np.empty(a.shape, dtype=np.result_type(a, 1.0))
    for i in range(n):
        for j in range(n):
            out[j, i] = _cofactor(a, i, j) * r
    return out


def _on_finite_nodes(fn, a: np.ndarray) -> np.ndarray:
    """``fn``, which maps a (n, n, k) stack to (..., k), on the finite nodes
    of ``a``; the rest come out NaN."""
    ok = np.isfinite(a).all(axis=(0, 1))
    if ok.all():
        return fn(a)
    res = fn(a[..., ok])
    out = np.full(res.shape[:-1] + ok.shape, np.nan, dtype=res.dtype)
    out[..., ok] = res
    return out


def det(a: np.ndarray) -> np.ndarray:
    """Determinant per node: cofactor expansion for n <= SMALL_N."""
    a = np.asarray(a)
    if not 2 <= a.shape[0] <= SMALL_N:
        return _on_finite_nodes(lambda b: np.linalg.det(_matrix_last(b)), a)
    return _det_small(a)


def inv(a: np.ndarray) -> np.ndarray:
    """Inverse per node: adjugate over determinant for n <= SMALL_N.

    NaN nodes come out NaN; an exactly singular finite node raises
    ``np.linalg.LinAlgError``.
    """
    a = np.asarray(a)
    if not 2 <= a.shape[0] <= SMALL_N:
        return _on_finite_nodes(lambda b: _matrix_first(np.linalg.inv(_matrix_last(b))), a)
    return _inv_small(a)


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[X, Y] = XY - YX."""
    return mm(x, y) - mm(y, x)


def inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairing -1/2 Re tr(XY); positive definite on anti-Hermitian matrices."""
    return -0.5 * np.real(trace(mm(x, y)))


def project_su(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projection onto su(N).

    Returns ``(s, defect)`` where ``s = (M - M†)/2 - tr((M - M†)/2)/N * I``
    and ``defect`` is the Frobenius norm of the discarded part.  Broadcasts;
    ``defect`` has the trailing shape.
    """
    a = np.asarray(m, dtype=complex)
    n = a.shape[0]
    anti = 0.5 * (a - dagger(a))
    s = anti - trace(anti) / n * identity(n, a.ndim)
    return s, fro(a - s)


# below this |s|, sinh(s)/s is summed as 1 + s^2/6 + s^4/120 (next term < 2e-22)
_SINHC_SERIES = 1e-3


@np.errstate(over="ignore", invalid="ignore")
def _expm2(a: np.ndarray) -> np.ndarray:
    """Closed-form exponential of finite 2x2 matrices, batched; non-finite on overflow.

    With m = tr X / 2 and B = X - m I, Cayley-Hamilton gives B^2 = s^2 I
    for s^2 = -det B, so exp X = e^m (cosh s I + sinh(s)/s B) (Bernstein &
    So, IEEE TAC 38 (1993) 1228).  Both coefficients are even in s, so the
    branch of the square root does not matter.
    """
    a00, a01 = a[0, 0], a[0, 1]
    a10, a11 = a[1, 0], a[1, 1]
    h = 0.5 * (a00 - a11)
    s2 = h * h + a01 * a10
    s = np.sqrt(s2)
    small = np.abs(s) < _SINHC_SERIES
    safe = np.where(small, 1.0, s)
    sinhc = np.where(small, 1.0 + s2 / 6.0 * (1.0 + s2 / 20.0), np.sinh(safe) / safe)
    em = np.exp(0.5 * (a00 + a11))
    c = em * np.cosh(s)
    f = em * sinhc
    out = np.empty_like(a)
    out[0, 0] = c + f * h
    out[0, 1] = f * a01
    out[1, 0] = f * a10
    out[1, 1] = c - f * h
    return out


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of 2x2 matrices, batched over (2, 2, ...).

    Takes the closed form of `_expm2`.  Its one caller, the traveling-wave
    wave function, is N = 2; other sizes raise ``ValueError``.  Nodes with
    a non-finite entry stay NaN.
    """
    a = np.asarray(m, dtype=complex)
    if a.shape[:2] != (2, 2):
        raise ValueError(f"expm takes 2x2 matrices, got shape {a.shape}")
    # a lone matrix must be finite, a field needs one finite node
    if not np.isfinite(a).all(axis=(0, 1)).any():
        raise NonFiniteMatrix("expm requires finite entries")
    return _on_finite_nodes(_expm2, a)


@dataclass(frozen=True)
class SuBasis:
    """Orthonormal anti-Hermitian traceless basis with structure constants.

    ``elements`` has shape (n, n, s) with s = n^2 - 1, element a being
    ``elements[..., a]``; the basis is orthonormal for :func:`inner`.
    ``structure`` holds real c[k, l, j] with [e_k, e_l] = sum_j c[k,l,j] e_j.
    """

    elements: np.ndarray
    structure: np.ndarray

    def closure_residual(self) -> float:
        """max_{k,l} || [e_k, e_l] - c[k,l,j] e_j ||_F."""
        e = self.elements
        comm = np.einsum("abk,bcl->ackl", e, e) - np.einsum("abl,bck->ackl", e, e)
        recon = np.einsum("klj,abj->abkl", self.structure, e)
        return float(np.max(fro(comm - recon)))


def su_basis(n: int) -> SuBasis:
    """Generalized anti-Hermitian Gell-Mann-type basis of su(N).

    Ordered as: for each pair j < k a real-antisymmetric element
    E_jk - E_kj and an imaginary-symmetric element i(E_jk + E_kj), then the
    n-1 imaginary diagonal elements.  Normalized so inner(e_a, e_b) = δ_ab.
    """
    if n < 2:
        raise ValueError("su(N) requires N >= 2")
    elems: list[np.ndarray] = []
    for j in range(n):
        for k in range(j + 1, n):
            a = np.zeros((n, n), dtype=complex)
            a[j, k] = 1.0
            a[k, j] = -1.0
            elems.append(a)
            b = np.zeros((n, n), dtype=complex)
            b[j, k] = 1j
            b[k, j] = 1j
            elems.append(b)
    for l in range(1, n):
        d = np.zeros((n, n), dtype=complex)
        d[:l, :l] = np.eye(l)
        d[l, l] = -l
        elems.append(1j * math.sqrt(2.0 / (l * (l + 1))) * d)
    e = np.stack(elems, axis=-1)
    comm = np.einsum("abk,bcl->ackl", e, e) - np.einsum("abl,bck->ackl", e, e)
    structure = np.real(np.einsum("abj,bakl->klj", e, comm)) * (-0.5)
    return SuBasis(elements=e, structure=structure)

