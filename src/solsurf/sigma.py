"""CP^{N-1} solutions in projector form on 2D grids.

The model lives in rank-one Hermitian projector fields P; the equivalent
algebra-valued variable is theta = i(P - I/N).  Solution generators:

* Veronese-type holomorphic fields on the Euclidean chart, together with
  the full raising ladder, built from the orthogonalized frame of the
  holomorphic curve, which gives exact values and exact jets.
* A rotating traveling wave on the Minkowski chart with exact jets.

Exact jets travel as a `JetField` (see :mod:`solsurf.fields`): each
Veronese rung is a `JetField` of P, and the traveling wave one of theta.
`theta_of` turns a projector into the jets of theta and picks the route
from its input: a `JetField` passes its exact jets on, a bare
`MatrixField` is differentiated with 4th-order stencils.  Derivative
conventions follow :mod:`solsurf.fields`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ChartMismatch, LambdaSingular
from .fields import (
    CHART_EUCLIDEAN,
    CHART_MINKOWSKI,
    Grid2,
    JetField,
    MatrixField,
    chart_jets,
    interior_max,
)
from .matlie import commutator, dagger, fro, identity, mm

__all__ = [
    "JetField",
    "SolutionLadder",
    "TravelingWave",
    "check_lambda",
    "el_residual",
    "projector",
    "theta_comm_identity_residual",
    "theta_of",
    "theta_square_residual",
    "theta_triple_residual",
    "traveling_solution",
    "u_pair",
    "veronese_field",
    "veronese_ladder",
]

TOL_LAMBDA = 1e-6


def check_lambda(lam: complex) -> complex:
    lam = complex(lam)
    if abs(1 + lam) < TOL_LAMBDA or abs(1 - lam) < TOL_LAMBDA:
        raise LambdaSingular(f"lambda={lam} is within {TOL_LAMBDA} of a pole at -1 or +1")
    return lam


def projector(j: JetField) -> np.ndarray:
    """P = I/N - i theta from the jets ``j`` of theta."""
    return identity(j.n) / j.n - 1j * j.values


def theta_of(p: MatrixField) -> JetField:
    """Jets of the algebra-valued variable theta = i(P - I/N).

    A projector that is a `JetField` passes its jets on, scaled by i; a
    bare field is differentiated with 4th-order stencils.
    """
    n = p.n
    theta = 1j * (p.values - identity(n) / n)
    if not isinstance(p, JetField):
        return chart_jets(MatrixField(p.grid, theta, p.margin))
    # the second jets are at hand: scaling them now keeps the projector's
    # jets from being held alive by the returned field
    second = (1j * p.d11, 1j * p.d12, 1j * p.d22)
    return JetField(
        grid=p.grid,
        values=theta,
        margin=p.margin,
        d1=1j * p.d1,
        d2=1j * p.d2,
        second=lambda: second,
        margin1=p.margin1,
        margin2=p.margin2,
    )


# --- model operators and residuals -------------------------------------------


def u_pair(j: JetField, lam: complex) -> tuple[MatrixField, MatrixField]:
    """Connection pair u1 = -2/(1+lam) [theta_1, theta], u2 = -2/(1-lam) [theta_2, theta]."""
    lam = check_lambda(lam)
    u1 = (-2.0 / (1.0 + lam)) * commutator(j.d1, j.values)
    u2 = (-2.0 / (1.0 - lam)) * commutator(j.d2, j.values)
    return (
        MatrixField(j.grid, u1, j.margin1),
        MatrixField(j.grid, u2, j.margin1),
    )


def el_residual(j: JetField) -> tuple[np.ndarray, int]:
    """Pointwise ||[theta_12, theta]||_F: the equation-of-motion residual."""
    return fro(commutator(j.d12, j.values)), j.margin2


def theta_square_residual(j: JetField) -> tuple[np.ndarray, int]:
    """Defect of theta^2 = -i(2-N)/N theta + (1-N)/N I/N (rank-one algebra)."""
    n = j.n
    res = mm(j.values, j.values) + 1j * (2 - n) / n * j.values - (1 - n) / n * (identity(n) / n)
    return fro(res), j.margin


def theta_comm_identity_residual(j: JetField) -> tuple[np.ndarray, int]:
    """Defect of [theta_1, theta](2i theta - (2-N) I/N) = -i theta_1."""
    n = j.n
    m = 2j * j.values - (2 - n) * (identity(n) / n)
    res = mm(commutator(j.d1, j.values), m) + 1j * j.d1
    return fro(res), j.margin1


def theta_triple_residual(j: JetField) -> tuple[np.ndarray, int]:
    """Defect of theta theta_1 theta = (N-1)/N^2 theta_1."""
    n = j.n
    res = mm(mm(j.values, j.d1), j.values) - (n - 1) / n**2 * j.d1
    return fro(res), j.margin1


# --- Veronese ladder: analytic route -----------------------------------------


# far out the frame overflows to non-finite nodes; `_build_solution` rejects it if all are
@np.errstate(over="ignore", invalid="ignore")
def _veronese_jets(n: int, xi: np.ndarray, ks: Sequence[int]) -> list[dict[str, np.ndarray]]:
    """Exact fields of the Veronese rungs ``ks`` at every grid point.

    Orthogonalizes the holomorphic curve v, v', v'' ... at each point, up
    to the last vector a requested rung reads; the rung projectors and all
    their first and second derivatives come out of hop matrices between
    consecutive frame vectors, with no grid stencils involved.  Each
    projector and hop is built once, and only if a requested rung reads it.
    """
    shape = xi.shape
    weights = [math.sqrt(math.comb(n - 1, k)) for k in range(n)]
    derivs: list[np.ndarray] = []
    for d in range(min(max(ks) + 2, n - 1) + 1):
        v = np.zeros((n,) + shape, dtype=complex)
        for k in range(d, n):
            v[k] = weights[k] * math.prod(range(k - d + 1, k + 1)) * xi ** (k - d)
        derivs.append(v)

    frame: list[np.ndarray] = []
    for v in derivs:
        u = v.copy()
        for q in frame:
            qq = np.einsum("k...,k...->...", q.conj(), q)
            u = u - np.einsum("k...,k...->...", q.conj(), v) / qq * q
        frame.append(u)

    w = [np.einsum("k...,k...->...", u.conj(), u).real for u in frame]
    zero = np.zeros((n, n) + shape, dtype=complex)
    t = 1.0 + np.abs(xi) ** 2
    log_slope = [(n - 1 - 2 * k) * xi.conj() / t for k in range(n + 1)]

    def outer(a: np.ndarray, b: np.ndarray, wj: np.ndarray) -> np.ndarray:
        return a[:, None] * b.conj()[None, :] / wj

    @functools.cache
    def proj_at(k: int) -> np.ndarray:
        return outer(frame[k], frame[k], w[k]) if 0 <= k < n else zero

    @functools.cache
    def hop_at(k: int) -> np.ndarray:
        return outer(frame[k + 1], frame[k], w[k]) if 0 <= k < n - 1 else zero

    def ratio_at(k: int) -> np.ndarray:
        return w[k + 1] / w[k] if 0 <= k < n - 1 else np.zeros(shape)

    def dhop(k: int) -> np.ndarray:
        # holomorphic derivative of the up-hop matrix
        if k < 0 or k >= n - 1:
            return zero
        two_up = outer(frame[k + 2], frame[k], w[k]) if k + 2 < n else zero
        skip = outer(frame[k + 1], frame[k - 1], w[k - 1]) if k >= 1 else zero
        return two_up + (log_slope[k + 1] - log_slope[k]) * hop_at(k) - skip

    rungs = []
    for k in ks:
        d1p = hop_at(k) - hop_at(k - 1)
        d12p = (
            ratio_at(k) * (proj_at(k + 1) - proj_at(k))
            - ratio_at(k - 1) * (proj_at(k) - proj_at(k - 1))
        )
        d11p = dhop(k) - dhop(k - 1)
        rungs.append(
            {
                "p": proj_at(k),
                "d1": d1p,
                "d2": dagger(d1p),
                "d11": d11p,
                "d12": d12p,
                "d22": dagger(d11p),
            }
        )
    return rungs


@dataclass
class SolutionLadder:
    """Mutually orthogonal projector rungs reached by repeated raising.

    A rung is a `JetField` when its jets are exact, a bare `MatrixField`
    otherwise."""

    n: int
    rungs: list[MatrixField]

    def __len__(self) -> int:
        return len(self.rungs)

    def completeness_residual(self) -> float:
        total = sum(r.values for r in self.rungs)
        m = max(r.margin for r in self.rungs)
        return interior_max(fro(total - identity(self.n)), m)

    def orthogonality_defect(self) -> float:
        m = max(r.margin for r in self.rungs)
        worst = 0.0
        for a in range(len(self.rungs)):
            for b in range(a + 1, len(self.rungs)):
                worst = max(
                    worst,
                    interior_max(fro(mm(self.rungs[a].values, self.rungs[b].values)), m),
                )
        return worst


def _veronese_rungs(n: int, grid: Grid2, ks: Sequence[int]) -> list[JetField]:
    """Rungs ``ks`` of the Veronese ladder from one frame build."""
    if grid.chart != CHART_EUCLIDEAN:
        raise ChartMismatch("Veronese fields live on the euclidean-complex chart")
    if n < 2:
        raise ValueError("need N >= 2")
    return [
        JetField(
            grid=grid, values=r["p"], d1=r["d1"], d2=r["d2"],
            second=lambda r=r: (r["d11"], r["d12"], r["d22"]),
            margin1=0, margin2=0,
        )
        for r in _veronese_jets(n, grid.xi(), ks)
    ]


def veronese_field(n: int, grid: Grid2, k: int = 0) -> JetField:
    """Rung ``k`` of the Veronese ladder with exact values and exact jets."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"rung index {k} outside 0..{n - 1}")
    return _veronese_rungs(n, grid, (k,))[0]


def veronese_ladder(n: int, grid: Grid2) -> SolutionLadder:
    """The full analytic ladder of the Veronese field (length N)."""
    return SolutionLadder(n=n, rungs=_veronese_rungs(n, grid, range(n)))


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
    [theta_1, theta] is the same constant matrix at every node.
    """
    wave = TravelingWave(kappa=kappa, omega=omega, grid=grid)
    phase = 2 * omega * wave.s_field()
    c, sn = np.cos(phase), np.sin(phase)
    theta = 0.5j * np.array([[c, sn], [sn, -c]])
    dtheta = 1j * omega * np.array([[-sn, c], [c, sn]])
    k = kappa

    @np.errstate(over="ignore", invalid="ignore")
    def second() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ddtheta = -4.0 * omega * omega * theta  # a float power would raise on overflow
        return ddtheta, k * ddtheta, k * k * ddtheta

    jets = JetField(
        grid=grid,
        values=theta,
        d1=dtheta,
        d2=k * dtheta,
        second=second,
        margin1=0,
        margin2=0,
    )
    return wave, jets
