"""Dense complex matrices and the su(N) layer.

Matrices are numpy complex arrays with the matrix axes first, (n, n, ...),
and every operation broadcasts over the trailing axes: a "matrix field" is
a (n, n, n2, n1) array, each entry [i, j] one contiguous (n2, n1) plane.
A scalar field of shape (n2, n1) broadcasts against it as it stands; a
constant matrix takes trailing unit axes from `constant`.  su(N) elements
are anti-Hermitian traceless matrices; the pairing -1/2 Re tr(XY) is
positive definite on them and is the metric used for all geometry downstream.

A `Dual` carries a value with its tangent along one direction, and
`mm`, `commutator`, `trace` and `expm` take it in place of a matrix:
forward-mode differentiation (Griewank and Walther, *Evaluating
Derivatives*, 2nd ed., ch. 3), which `symmetry.frechet_apply` runs
through the pointwise kernels of the jets.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DimensionMismatch",
    "Dual",
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
    "lift",
    "mm",
    "primal",
    "project_su",
    "su_basis",
    "trace",
]

class DimensionMismatch(ValueError):
    """Operands act on different matrix dimensions."""


class NonFiniteMatrix(ValueError):
    """Matrix contains NaN or Inf entries where finite values are required."""


class Dual:
    """An array ``value`` with its ``tangent``, the derivative along one
    direction; an array met in arithmetic is a constant (no tangent).

    Each operation forms the value as the plain operation does, so the
    value keeps its bits, and the tangent by the rules of the product;
    scaling and the in-place forms act on both halves.
    """

    __slots__ = ("value", "tangent")
    # numpy hands its binary operators on to the reflected ones of a pair
    __array_ufunc__ = None

    def __init__(self, value: np.ndarray, tangent: np.ndarray):
        self.value, self.tangent = value, tangent

    shape = property(lambda self: self.tangent.shape)
    ndim = property(lambda self: self.tangent.ndim)
    dtype = property(lambda self: self.tangent.dtype)

    def __getitem__(self, index) -> "Dual":
        return lift(lambda x: x[index], self)

    def __setitem__(self, index, other) -> None:
        value, tangent = _halves(other)
        self.value[index] = value
        self.tangent[index] = 0 if tangent is None else tangent

    def __add__(self, other):
        return _linear(operator.add, self, other)

    def __radd__(self, other):
        return _linear(operator.add, other, self)

    def __sub__(self, other):
        return _linear(operator.sub, self, other)

    def __rsub__(self, other):
        return _linear(operator.sub, other, self)

    def __mul__(self, other):
        return _product(operator.mul, self, other)

    def __rmul__(self, other):
        return _product(operator.mul, other, self)

    def __neg__(self) -> "Dual":
        return lift(operator.neg, self)

    def __iadd__(self, other):
        return self._inplace(operator.iadd, other)

    def __isub__(self, other):
        return self._inplace(operator.isub, other)

    def __imul__(self, other):
        value, tangent = _halves(other)
        if tangent is not None:
            self.tangent *= value
            self.tangent += self.value * tangent
            self.value *= value
            return self
        self.value *= other
        self.tangent *= other
        return self

    def _inplace(self, op: Callable, other) -> "Dual":
        value, tangent = _halves(other)
        op(self.value, value)
        if tangent is not None:
            op(self.tangent, tangent)
        return self


def _halves(x) -> tuple:
    """(value, tangent) of a pair; (x, None) of a constant."""
    return (x.value, x.tangent) if isinstance(x, Dual) else (x, None)


def lift(fn: Callable[[np.ndarray], np.ndarray], x):
    """``fn`` of an array, or of each half of a pair."""
    if not isinstance(x, Dual):
        return fn(x)
    return Dual(fn(x.value), fn(x.tangent))


def primal(x):
    """The value of a pair, or ``x`` itself."""
    return x.value if isinstance(x, Dual) else x


def _linear(op: Callable, x, y) -> Dual:
    (xv, xt), (yv, yt) = _halves(x), _halves(y)
    return Dual(op(xv, yv), op(0 if xt is None else xt, 0 if yt is None else yt))


def _product(op: Callable, x, y) -> Dual:
    """``op`` bilinear, of two pairs or of a pair and a constant."""
    (xv, xt), (yv, yt) = _halves(x), _halves(y)
    value = op(xv, yv)
    if xt is None or yt is None:
        return Dual(value, op(xv, yt) if xt is None else op(xt, yv))
    tangent = op(xt, yv)
    tangent += op(xv, yt)
    return Dual(value, tangent)


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
    m = m if isinstance(m, Dual) else np.asarray(m)
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
    agree with ``@`` to rounding only.  Of a pair, the tangent is
    x' y + x y'.
    """
    if isinstance(x, Dual) or isinstance(y, Dual):
        return _product(mm, x, y)
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
    """``fn``, which maps a (n, n, k) stack, or a pair of them, to (..., k),
    on the nodes where the value of ``a`` is finite; the rest come out NaN."""
    ok = np.isfinite(primal(a)).all(axis=(0, 1))
    if ok.all():
        return fn(a)
    res = fn(a[..., ok])
    out = lift(lambda r: np.full(r.shape[:-1] + ok.shape, np.nan, dtype=r.dtype), res)
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

    Of a pair, the tangent differentiates that form in m, B and z = s^2:
    d cosh s = sinhc(s) dz / 2 and d sinhc(s) = (cosh s - sinhc s) dz / (2z),
    the latter summed as 1/6 + z/60 + z^2/1680 below the same cutoff.
    """
    x = primal(a)
    a00, a01 = x[0, 0], x[0, 1]
    a10, a11 = x[1, 0], x[1, 1]
    h = 0.5 * (a00 - a11)
    s2 = h * h + a01 * a10
    s = np.sqrt(s2)
    small = np.abs(s) < _SINHC_SERIES
    safe = np.where(small, 1.0, s)
    sinhc = np.where(small, 1.0 + s2 / 6.0 * (1.0 + s2 / 20.0), np.sinh(safe) / safe)
    em = np.exp(0.5 * (a00 + a11))
    cosh = np.cosh(s)
    c = em * cosh
    f = em * sinhc
    if isinstance(a, Dual):
        t = a.tangent
        dm, dh = 0.5 * (t[0, 0] + t[1, 1]), 0.5 * (t[0, 0] - t[1, 1])
        dz = 2 * h * dh + t[0, 1] * a10 + a01 * t[1, 0]
        dsinhc = np.where(
            small, 1 / 6 + s2 * (1 / 60 + s2 / 1680), (cosh - sinhc) / np.where(small, 1.0, 2 * s2)
        )
        c, f = Dual(c, c * dm + 0.5 * f * dz), Dual(f, f * dm + em * dsinhc * dz)
        h, a01, a10 = Dual(h, dh), a[0, 1], a[1, 0]
    out = lift(np.empty_like, a)
    out[0, 0] = c + f * h
    out[0, 1] = f * a01
    out[1, 0] = f * a10
    out[1, 1] = c - f * h
    return out


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of 2x2 matrices, batched over (2, 2, ...), or of
    a pair of them.

    Takes the closed form of `_expm2`.  Its one caller, the traveling-wave
    wave function, is N = 2; other sizes raise ``ValueError``.  Nodes with
    a non-finite entry in the value stay NaN.
    """
    a = m if isinstance(m, Dual) else np.asarray(m, dtype=complex)
    if a.shape[:2] != (2, 2):
        raise ValueError(f"expm takes 2x2 matrices, got shape {a.shape}")
    # a lone matrix must be finite, a field needs one finite node
    if not np.isfinite(primal(a)).all(axis=(0, 1)).any():
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

