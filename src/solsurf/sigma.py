"""CP^{N-1} solutions in projector form on 2D grids.

The model lives in rank-one Hermitian projector fields P; the equivalent
algebra-valued variable is theta = i(P - I/N).  Solution generators:

* Veronese-type holomorphic fields on the Euclidean chart, together with
  the full raising ladder, built from the orthogonalized frame of the
  holomorphic curve, which gives exact values and exact jets.
* A rotating traveling wave on the Minkowski chart with exact jets.

Exact jets travel as a `JetField` of theta (see :mod:`solsurf.fields`).
`veronese` returns the projector of every rung of the ladder as a bare
`MatrixField` and theta of the one rung asked for with exact jets: its
values and first jets stored, its second jets formed from the held frame
on the grid rows asked; `traveling_solution` returns theta of the wave
with exact jets, formed from the held cos and sin of its phase on the
grid rows asked.
`theta_of` turns a bare projector field into the jets of theta by
4th-order stencils, each order formed on the grid rows asked, like
every stencil of the package.  Derivative conventions follow
:mod:`solsurf.fields`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartMismatch, LambdaSingular
from .fields import (
    CHART_EUCLIDEAN,
    CHART_MINKOWSKI,
    Grid2,
    JetField,
    JetRows,
    MatrixField,
    StripSource,
    strip_jets,
)
from .matlie import commutator, dagger, fro, identity, mm

__all__ = [
    "TravelingWave",
    "check_lambda",
    "commutator_pair_rows",
    "el_residual",
    "projector",
    "theta_comm_identity_residual",
    "theta_of",
    "theta_square_residual",
    "theta_triple_residual",
    "traveling_solution",
    "u_coefficients",
    "u_dlambda_coefficients",
    "u_pair",
    "u_pair_rows",
    "veronese",
]

TOL_LAMBDA = 1e-6


def check_lambda(lam: complex) -> complex:
    lam = complex(lam)
    if abs(1 + lam) < TOL_LAMBDA or abs(1 - lam) < TOL_LAMBDA:
        raise LambdaSingular(f"lambda={lam} is within {TOL_LAMBDA} of a pole at -1 or +1")
    return lam


def projector(j: JetField | JetRows) -> np.ndarray:
    """P = I/N - i theta from the jets ``j`` of theta, or from a strip of them."""
    return identity(j.n) / j.n - 1j * j.values


def theta_of(p: MatrixField) -> JetField:
    """Jets of the algebra-valued variable theta = i(P - I/N) of the
    projector field ``p``, by 4th-order stencils of its values formed on
    the grid rows asked (`fields.strip_jets`)."""
    theta = 1j * (p.values - identity(p.n) / p.n)
    return strip_jets(MatrixField(p.grid, theta, p.margin))


# --- model operators and residuals -------------------------------------------


def _scaled_commutator(d: np.ndarray, values: np.ndarray, c: complex) -> np.ndarray:
    """c [d, values], with the scale applied in place."""
    v = commutator(d, values)
    v *= c
    return v


def commutator_pair_rows(jr: JetRows, c1: complex, c2: complex) -> tuple[np.ndarray, np.ndarray]:
    """(c1 [theta_1, theta], c2 [theta_2, theta]) on the strip ``jr`` of
    grid rows, with the scales applied in place."""
    return _scaled_commutator(jr.d1, jr.values, c1), _scaled_commutator(jr.d2, jr.values, c2)


def u_coefficients(lam: complex) -> tuple[complex, complex]:
    """(-2/(1+lam), -2/(1-lam)), the scales of the connection pair."""
    lam = check_lambda(lam)
    return -2.0 / (1.0 + lam), -2.0 / (1.0 - lam)


def u_dlambda_coefficients(lam: complex) -> tuple[complex, complex]:
    """(2/(1+lam)^2, -2/(1-lam)^2), the scales of the spectral-parameter
    derivative of the connection pair (closed form)."""
    lam = check_lambda(lam)
    return 2.0 / (1 + lam) ** 2, -2.0 / (1 - lam) ** 2


def u_pair(j: JetField, lam: complex) -> tuple[MatrixField, MatrixField]:
    """Connection pair u1 = -2/(1+lam) [theta_1, theta], u2 = -2/(1-lam) [theta_2, theta],
    one strip of grid rows at a time."""
    c1, c2 = u_coefficients(lam)
    v1, v2 = j.map_rows(lambda jr: commutator_pair_rows(jr, c1, c2))
    return MatrixField(j.grid, v1, j.margin1), MatrixField(j.grid, v2, j.margin1)


def u_pair_rows(j: JetField, lam: complex) -> tuple[StripSource, StripSource]:
    """`u_pair` as two strip sources: each strip of u1 or u2 is formed from
    the jets of its rows when it is read, with the same bits."""
    scales = u_coefficients(lam)

    def component(a: int, c: complex) -> StripSource:
        def strip(rows: slice) -> np.ndarray:
            jets = j.first(rows)
            return _scaled_commutator(jets[a], jets[0], c)

        return StripSource(j.grid, j.n, j.margin1, strip)

    return component(1, scales[0]), component(2, scales[1])


def el_residual(j: JetField) -> tuple[np.ndarray, int]:
    """Pointwise ||[theta_12, theta]||_F: the equation-of-motion residual,
    one strip of grid rows at a time."""
    (el,) = j.map_rows(lambda jr: (fro(commutator(jr.d12, jr.values)),))
    return el, j.margin2


def theta_square_residual(j: JetField) -> tuple[np.ndarray, int]:
    """Defect of theta^2 = -i(2-N)/N theta + (1-N)/N I/N (rank-one algebra),
    one strip of grid rows at a time."""
    n, shift = j.n, (1 - j.n) / j.n * (identity(j.n) / j.n)
    (sq,) = j.map_rows(lambda jr: (
        fro(mm(jr.values, jr.values) + 1j * (2 - n) / n * jr.values - shift),))
    return sq, j.margin


def theta_comm_identity_residual(j: JetField) -> tuple[np.ndarray, int]:
    """Defect of [theta_1, theta](2i theta - (2-N) I/N) = -i theta_1, one
    strip of grid rows at a time."""
    shift = (2 - j.n) * (identity(j.n) / j.n)
    (ci,) = j.map_rows(lambda jr: (
        fro(mm(commutator(jr.d1, jr.values), 2j * jr.values - shift) + 1j * jr.d1),))
    return ci, j.margin1


def theta_triple_residual(j: JetField) -> tuple[np.ndarray, int]:
    """Defect of theta theta_1 theta = (N-1)/N^2 theta_1, one strip of grid
    rows at a time."""
    c = (j.n - 1) / j.n**2
    (tr,) = j.map_rows(lambda jr: (fro(mm(mm(jr.values, jr.d1), jr.values) - c * jr.d1),))
    return tr, j.margin1


# --- Veronese ladder: analytic route -----------------------------------------


# far out the frame overflows to non-finite nodes; `_build_solution` rejects it if all are
@np.errstate(over="ignore", invalid="ignore")
def veronese(n: int, grid: Grid2, k: int = 0) -> tuple[list[MatrixField], JetField]:
    """The Veronese ladder of CP^{N-1} from one frame build: the projector
    P_0 .. P_{N-1} of every rung as values, and theta = i(P_k - I/N) of
    rung ``k`` with exact jets.

    Orthogonalizes the holomorphic curve v, v', v'' ... at each point; rung
    m's projector is the outer product of frame vector m with itself.  The
    first and second jets of rung ``k`` come out of hop matrices between
    consecutive frame vectors, with no grid stencils involved.  The values
    and first jets are stored; the second jets (d11, d12, d22) are formed
    for each strip of grid rows asked, from the frame and its norms that
    theta holds, with the bits of the whole-grid set, so no whole second
    jet is held.
    """
    if grid.chart != CHART_EUCLIDEAN:
        raise ChartMismatch("Veronese fields live on the euclidean-complex chart")
    if n < 2:
        raise ValueError("need N >= 2")
    if not 0 <= k <= n - 1:
        raise ValueError(f"rung index {k} outside 0..{n - 1}")
    xi = grid.xi()
    weights = [math.sqrt(math.comb(n - 1, m)) for m in range(n)]
    frame: list[np.ndarray] = []
    for d in range(n):
        # the d-th derivative of the curve, orthogonalized against the lower ones
        v = np.zeros((n,) + xi.shape, dtype=complex)
        for m in range(d, n):
            v[m] = weights[m] * math.prod(range(m - d + 1, m + 1)) * xi ** (m - d)
        u = v
        for q in frame:
            qq = np.einsum("k...,k...->...", q.conj(), q)
            u = u - np.einsum("k...,k...->...", q.conj(), v) / qq * q
        frame.append(u)
    w = [np.einsum("k...,k...->...", u.conj(), u).real for u in frame]

    # the zero matrix of the rungs beyond either end, as a view that holds no memory
    zero = np.broadcast_to(np.zeros((1, 1, 1, 1), dtype=complex), (n, n) + xi.shape)
    t = 1.0 + np.abs(xi) ** 2
    whole = slice(None)

    def outer(a: int, b: int, wj: int, rows: slice) -> np.ndarray:
        # frame vector a times the conjugate of b, over the norm of wj, on the rows
        out = frame[a][:, None, rows] * frame[b][:, rows].conj()[None, :]
        out /= w[wj][rows]
        return out

    def proj(m: int, rows: slice) -> np.ndarray:
        return outer(m, m, m, rows) if 0 <= m < n else zero[..., rows, :]

    def hop(m: int, rows: slice) -> np.ndarray:
        # from frame vector m up to m + 1
        return outer(m + 1, m, m, rows) if 0 <= m < n - 1 else zero[..., rows, :]

    def ratio(m: int, rows: slice) -> np.ndarray:
        return w[m + 1][rows] / w[m][rows] if 0 <= m < n - 1 else np.zeros(t[rows].shape)

    def log_slope(m: int, rows: slice) -> np.ndarray:
        return (n - 1 - 2 * m) * xi[rows].conj() / t[rows]

    def dhop(m: int, rows: slice) -> np.ndarray:
        # holomorphic derivative of the up-hop matrix
        if m < 0 or m >= n - 1:
            return zero[..., rows, :]
        two_up = outer(m + 2, m, m, rows) if m + 2 < n else zero[..., rows, :]
        skip = outer(m + 1, m - 1, m - 1, rows) if m >= 1 else zero[..., rows, :]
        return two_up + (log_slope(m + 1, rows) - log_slope(m, rows)) * hop(m, rows) - skip

    def second(rows: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # theta's second jets on the rows, from the frame: those of P_k times
        # i, scaled in place (exactly: i swaps and negates the parts)
        d11 = dhop(k, rows) - dhop(k - 1, rows)
        pk = proj(k, rows)
        d12 = ratio(k, rows) * (proj(k + 1, rows) - pk) - ratio(k - 1, rows) * (
            pk - proj(k - 1, rows))
        jets = (d11, d12, dagger(d11))
        for x in jets:
            x *= 1j
        return jets

    d1 = hop(k, whole) - hop(k - 1, whole)
    d2 = dagger(d1)
    for x in (d1, d2):
        x *= 1j
    rungs = [MatrixField(grid, proj(m, whole)) for m in range(n)]
    theta = JetField.stored(grid, 1j * (rungs[k].values - identity(n) / n), d1, d2, second,
                            margin1=0, margin2=0)
    return rungs, theta


# --- traveling wave ------------------------------------------------------------


@dataclass(frozen=True)
class TravelingWave:
    """Rotating rank-one solution depending only on s = x1 + kappa*x2 (N = 2)."""

    kappa: float
    omega: float
    grid: Grid2

    def __post_init__(self) -> None:
        if self.grid.chart != CHART_MINKOWSKI:
            raise ChartMismatch("traveling waves live on the minkowski-lightcone chart")

    def s_field(self) -> np.ndarray:
        x1, x2 = self.grid.mesh()
        return x1 + self.kappa * x2

    # a phase beyond the float range comes out non-finite; `expm` reports it
    @np.errstate(over="ignore", invalid="ignore")
    def chi(self, lam: complex) -> np.ndarray:
        lam = check_lambda(lam)
        x1, x2 = self.grid.mesh()
        return lam * x1 / (1 + lam) - self.kappa * lam * x2 / (1 - lam)

    def dlambda_chi(self, lam: complex) -> np.ndarray:
        lam = check_lambda(lam)
        x1, x2 = self.grid.mesh()
        return x1 / (1 + lam) ** 2 - self.kappa * x2 / (1 - lam) ** 2


@np.errstate(over="ignore", invalid="ignore")
def traveling_solution(
    kappa: float, omega: float, grid: Grid2
) -> tuple[TravelingWave, JetField]:
    """Rotating traveling wave with exact jets, non-finite where the phase overflows.

    theta(s) = i(R(omega s) diag(1,0) R(omega s)^T - I/2) along
    s = x1 + kappa*x2; all derivative fields follow by the chain rule, and
    [theta_1, theta] is the same constant matrix at every node.  Only
    cos and sin of the phase 2 omega s are held, a quarter of a field:
    theta, D_1 theta and D_2 theta, and the second jets, are formed from
    them on the grid rows asked, and on the whole grid only for a
    whole-field reader (`fields.JetField`).
    """
    wave = TravelingWave(kappa=kappa, omega=omega, grid=grid)
    phase = 2 * omega * wave.s_field()
    c, sn = np.cos(phase), np.sin(phase)
    k = kappa

    def theta(rows: slice) -> np.ndarray:
        cr, sr = c[rows], sn[rows]
        return 0.5j * np.array([[cr, sr], [sr, -cr]])

    @np.errstate(over="ignore", invalid="ignore")
    def first(rows: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cr, sr = c[rows], sn[rows]
        dtheta = 1j * omega * np.array([[-sr, cr], [cr, sr]])
        return theta(rows), dtheta, k * dtheta

    @np.errstate(over="ignore", invalid="ignore")
    def second(rows: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # -4 omega^2 theta on the rows: a float power would raise on overflow;
        # theta is named, as no scalar multiplies a bare temporary (see
        # :mod:`solsurf.fields`)
        t = theta(rows)
        ddtheta = -4.0 * omega * omega * t
        return ddtheta, k * ddtheta, k * k * ddtheta

    jets = JetField(grid=grid, n=2, first=first, second=second, margin1=0, margin2=0)
    return wave, jets
