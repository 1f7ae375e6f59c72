"""Generalized symmetries in evolutionary form, realized numerically.

A symmetry characteristic is a matrix field Q built from the jets of a
solution.  Its prolongation pr w_Q is one derivation acting on every
functional G of the solution: the Frechet derivative G'(theta)[Q], linear
in the jets of Q.  `frechet_apply` evaluates it exactly, in one pass, in
forward mode: theta is paired with the jets of Q (`JetField.paired`), each
jet a `matlie.Dual`, and each functional runs once on the pair, carrying
the tangent through every product, commutator, trace, reciprocal and
exponential; its tangent is pr w_Q G.  No stencil runs on a pair.

One prolongation feeds many functionals: `frechet_apply` takes a
sequence of them and computes the jets of Q once.  A caller asks once
per (jets, Q) for all it reads: pr w u for the symmetry criterion, pr w
Phi for explicit integration, both for the linear-problem criterion
(`immersion.psi_residual` at Psi = pr w Phi, A = pr w u), and pr w G
beside pr w (D_alpha G) for the commutation checks.  A functional
maps jets to a tuple of matrix fields, so each jet set is one
functional, whose prolongation the surfaces' stencil residual checks,
`fields.tangent_defect(*prw)`: `theta_functional` (theta, D_1 theta,
D_2 theta), `u_jets_functional(lam)` (u1, D_1 u1, D_2 u1, u2, D_1 u2,
D_2 u2) and `lowering_jets_functional` (L, D_1 L, D_2 L of the lowered
rung).  Their total derivatives D_alpha are forward-mode tangents
as well, by one rule: `JetRows.along(a)` pairs a strip's values and first
jets with their D_a, so the kernel of u1 and u2, or of L, run on it
returns D_a of its outputs as tangents; on paired jets the pairs nest,
and pr w_Q D_a G is the inner tangent of the outer one.
`u_functional(lam)` (u1, u2), `lowering_functional` (L) and
`wave_functional(builder)` (Phi) serve callers that read no derivatives.
The connection, its jets and the lowering functionals evaluate
their pointwise kernels one strip of grid rows at a time
(`JetField.map_rows`), with scalar factors applied in place so a strip
rounds as the whole field does (see :mod:`solsurf.fields`); a strip's
second jets of Q are formed for its rows, so a functional that reads
only theta, D_1 theta and D_2 theta runs no second-order stencil.

`central_difference` takes

    [G(theta + eps Q) - G(theta - eps Q)] / (2 eps)

on deformed jets (`JetField.deformed`): it is the probe whose own step
and grid convergence `verify`'s ``appendix.step-order`` and
``appendix.grid-order`` measure, and no prolongation uses it.
`polyval` evaluates the polynomials: f(x1), g(x2) of `ConformalSpec`
and the spectral coefficient a(lam) of :mod:`solsurf.immersion`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ChartMismatch
from .fields import (
    CHART_EUCLIDEAN,
    CHART_MINKOWSKI,
    Grid2,
    JetField,
    JetRows,
    MatrixField,
    StripSource,
    chart_jets,
    interior_max,
    row_strips,
    same_grid,
    strip_derivatives,
)
from .matlie import commutator, fro
from .sigma import TravelingWave, check_lambda, commutator_pair_rows, u_coefficients, u_pair
from .spectral import lowered_rung, lowered_rung_jets

__all__ = [
    "ConformalSpec",
    "central_difference",
    "compatibility_defect",
    "conformal_characteristic",
    "frechet_apply",
    "lowering_functional",
    "lowering_jets_functional",
    "polyval",
    "prolong_u",
    "theta_functional",
    "traveling_R_fields",
    "u_functional",
    "u_jets_functional",
    "wave_functional",
]

Functional = Callable[[JetField], tuple[MatrixField, ...]]


# --- conformal data -----------------------------------------------------------


def polyval(coeffs: Sequence[complex], x: np.ndarray | complex) -> np.ndarray | complex:
    """Horner's rule for ascending ``coeffs`` at ``x``, a field or a number."""
    out = np.zeros_like(x, dtype=complex)
    for c in coeffs[::-1]:
        out = out * x + c
    return out


def _polyder(coeffs: Sequence[complex]) -> np.ndarray:
    c = np.asarray(coeffs, dtype=complex)
    if len(c) <= 1:
        return np.zeros(1, dtype=complex)
    return c[1:] * np.arange(1, len(c))


@dataclass(frozen=True)
class ConformalSpec:
    """Polynomial pair (f(x1), g(x2)) defining a conformal characteristic.

    Coefficients are ascending.  Minkowski chart: both polynomials real.
    Euclidean chart: g is the conjugate mirror of f (conjugated
    coefficients), so that f theta_1 + g theta_2 stays anti-Hermitian.
    """

    f_coeffs: tuple[complex, ...]
    g_coeffs: tuple[complex, ...]
    chart: str

    def __post_init__(self) -> None:
        f = np.asarray(self.f_coeffs, dtype=complex)
        g = np.asarray(self.g_coeffs, dtype=complex)
        if self.chart == CHART_MINKOWSKI:
            if np.abs(f.imag).max(initial=0) > 1e-14 or np.abs(g.imag).max(initial=0) > 1e-14:
                raise ValueError("Minkowski conformal coefficients must be real")
        elif self.chart == CHART_EUCLIDEAN:
            size = max(len(f), len(g))
            fpad, gpad = (np.pad(c, (0, size - len(c))) for c in (f, g))
            if np.abs(gpad - np.conj(fpad)).max(initial=0) > 1e-14:
                raise ValueError(
                    "Euclidean conformal data requires g to carry the conjugated "
                    "coefficients of f"
                )
        else:
            raise ValueError(f"unknown chart {self.chart!r}")

    @staticmethod
    def euclidean(f_coeffs: tuple[complex, ...]) -> "ConformalSpec":
        f = np.asarray(f_coeffs, dtype=complex)
        return ConformalSpec(tuple(f), tuple(np.conj(f)), CHART_EUCLIDEAN)

    @staticmethod
    def minkowski(f_coeffs: tuple[float, ...], g_coeffs: tuple[float, ...]) -> "ConformalSpec":
        return ConformalSpec(
            tuple(complex(c) for c in f_coeffs),
            tuple(complex(c) for c in g_coeffs),
            CHART_MINKOWSKI,
        )

    def f(self, grid: Grid2) -> np.ndarray:
        return polyval(self.f_coeffs, grid.coord1())

    def f1(self, grid: Grid2) -> np.ndarray:
        return polyval(_polyder(self.f_coeffs), grid.coord1())

    def f11(self, grid: Grid2) -> np.ndarray:
        return polyval(_polyder(_polyder(self.f_coeffs)), grid.coord1())

    def g(self, grid: Grid2) -> np.ndarray:
        return polyval(self.g_coeffs, grid.coord2())

    def g2(self, grid: Grid2) -> np.ndarray:
        return polyval(_polyder(self.g_coeffs), grid.coord2())

    def along(self, grid: Grid2, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """f(x1) X1 + g(x2) X2: a pair of matrix fields combined along the
        symmetry's vector field."""
        return self.f(grid) * x1 + self.g(grid) * x2


def conformal_characteristic(spec: ConformalSpec, j: JetField) -> MatrixField:
    """Q = f(x1) theta_1 + g(x2) theta_2."""
    if spec.chart != j.grid.chart:
        raise ChartMismatch(
            f"conformal data is for {spec.chart}, jet field lives on {j.grid.chart}"
        )
    return MatrixField(j.grid, spec.along(j.grid, j.d1, j.d2), j.margin1)


# --- prolongation -----------------------------------------------------------------


def frechet_apply(
    gs: Sequence[Functional], j: JetField, q: MatrixField
) -> tuple[tuple[MatrixField, ...], ...]:
    """Directional derivatives along ``q`` at ``j`` of every functional in ``gs``.

    Returns one tuple per functional, one field per component: the
    tangent of the functional evaluated once on ``j`` paired with the
    jets of ``q``, which are computed once.  Each component keeps the
    margin of its evaluation: the larger of the margins of the jets of
    theta and of Q that it reads.
    """
    jt = j.paired(chart_jets(q))
    return tuple(tuple(MatrixField(f.grid, f.values.tangent, f.margin) for f in g(jt)) for g in gs)


def central_difference(
    gs: Sequence[Functional], j: JetField, q_jets: JetField, eps_base: float
) -> tuple[tuple[MatrixField, ...], ...]:
    """The central difference of every functional in ``gs`` along the jets
    ``q_jets`` of Q at ``j``: [g(theta + eps Q) - g(theta - eps Q)] / (2 eps),
    with eps = ``eps_base`` times (1 + the interior max of ||theta||_F).

    The probe of the verification's step and grid orders: each
    functional is evaluated on theta + eps Q, which is dropped before
    theta - eps Q is built, and both sides of a component are dropped
    once it is differenced.  Each component keeps the larger
    margin of its two evaluations.
    """
    if eps_base <= 0:
        raise ValueError("eps_base must be positive")
    eps = eps_base * (1.0 + interior_max(fro(j.values), j.margin))
    return tuple(_central_pair(g, j, q_jets, eps) for g in gs)


def _central_pair(g: Functional, j: JetField, q_jets: JetField, eps: float) -> tuple:
    plus = list(g(j.deformed(+eps, q_jets)))
    minus = list(g(j.deformed(-eps, q_jets)))
    return tuple(_quotient(plus.pop(0), minus.pop(0), eps) for _ in range(len(plus)))


def _quotient(a: MatrixField, b: MatrixField, eps: float) -> MatrixField:
    # a fresh array: a functional may hand both sides the same one
    d = a.values - b.values
    d /= 2 * eps
    return MatrixField(a.grid, d, max(a.margin, b.margin))


# --- functionals used throughout -----------------------------------------------


def _fields(j: JetField, values: Sequence[np.ndarray], margins: Sequence[int]) -> tuple:
    """Each of ``values`` as a field on the grid of ``j``, with its margin."""
    return tuple(MatrixField(j.grid, v, m) for v, m in zip(values, margins, strict=True))


def theta_functional(j: JetField) -> tuple[MatrixField, MatrixField, MatrixField]:
    """(theta, D_1 theta, D_2 theta)."""
    return _fields(j, (j.values, j.d1, j.d2), (j.margin, j.margin1, j.margin1))


def u_functional(lam: complex) -> Functional:
    """The connection pair (u1, u2), quadratic in (theta, D theta)."""
    return lambda j: u_pair(j, lam)


def u_jets_functional(lam: complex) -> Functional:
    """(u1, D_1 u1, D_2 u1, u2, D_1 u2, D_2 u2), the connection pair and
    its jet-expressed derivatives, quadratic in (theta, jets), from one
    strip kernel: D_a u1 and D_a u2 are the tangents of `u_pair`'s kernel
    along D_a (`JetRows.along`), and u1 and u2 round as `u_pair` does."""
    c1, c2 = u_coefficients(lam)

    def rows(jr: JetRows) -> tuple[np.ndarray, ...]:
        u1, u2 = commutator_pair_rows(jr.along(1), c1, c2)
        v1, v2 = commutator_pair_rows(jr.along(2), c1, c2)
        return u1.value, u1.tangent, v1.tangent, u2.value, u2.tangent, v2.tangent

    return lambda j: _fields(j, j.map_rows(rows), (j.margin1, j.margin2, j.margin2) * 2)


def lowering_functional(j: JetField) -> tuple[MatrixField]:
    """Value of the lowering operator applied once; rational in the jets."""
    return (MatrixField(j.grid, lowered_rung(j), j.margin1),)


def lowering_jets_functional(j: JetField) -> tuple[MatrixField, MatrixField, MatrixField]:
    """(L, D_1 L, D_2 L) of the once-lowered rung, from one lowering pass."""
    return _fields(j, lowered_rung_jets(j), (j.margin1, j.margin2, j.margin2))


def wave_functional(phi_builder: Callable[[JetField], MatrixField]) -> Functional:
    """The wave function Phi that ``phi_builder`` builds on the jets."""
    return lambda jd: (phi_builder(jd),)


# --- closed-form prolongations and defects --------------------------------------


def prolong_u(
    spec: ConformalSpec, j: JetField, lam: complex
) -> tuple[MatrixField, MatrixField]:
    """Closed forms of the prolongation acting on the connection pair.

    pr w u1 = D_1(f u1) + g D_2(u1),  pr w u2 = f D_1(u2) + D_2(g u2).
    """
    u1, du1_1, du1_2, u2, du2_1, du2_2 = u_jets_functional(lam)(j)
    grid = j.grid
    f, f1, g, g2 = spec.f(grid), spec.f1(grid), spec.g(grid), spec.g2(grid)
    pw1 = f1 * u1.values + f * du1_1.values + g * du1_2.values
    pw2 = f * du2_1.values + g2 * u2.values + g * du2_2.values
    return _fields(j, (pw1, pw2), (j.margin2, j.margin2))


def compatibility_defect(
    a: MatrixField, b: MatrixField, u1: MatrixField | StripSource, u2: MatrixField | StripSource
) -> float:
    """Interior max of || D_2 A - D_1 B + [A, u2] + [u1, B] ||_F.

    The residual is formed one strip of grid rows at a time, with the two
    rows on each side that the stencils read, so no full-size matrix
    temporary is built.  The connection pair is read as rows: fields, or
    strip sources (`sigma.u_pair_rows`) that form each strip from the jets.
    """
    grid = same_grid(a, b, u1, u2)
    res = np.empty((grid.n2, grid.n1))
    for rows in row_strips(grid.n2):
        d2a = strip_derivatives(a.values, grid, rows)[1]
        d1b = strip_derivatives(b.values, grid, rows)[0]
        at, bt, v1, v2 = (f.strip(rows) for f in (a, b, u1, u2))
        res[rows] = fro(d2a - d1b + commutator(at, v2) + commutator(v1, bt))
    return interior_max(res, max(a.margin + 2, b.margin + 2, u1.margin, u2.margin))


# --- traveling-wave tangent fields ----------------------------------------------


def traveling_R_fields(
    spec: ConformalSpec, wave: TravelingWave, j: JetField, lam: complex
) -> tuple[MatrixField, MatrixField]:
    """Closed-form tangent coefficients of the prolonged traveling wave.

    With K = [theta_1, theta] (constant for a traveling wave) and
    chi the exponential phase of the wave function:

        R1 = (-2 f_1/(1+lam) + 2 f_11 chi) K
        R2 = (-2 kappa g_2  - 2 kappa lam f_1/(1-lam)) K

    These are the coefficients in D_alpha(F) = Phi^{-1} R_alpha Phi for the
    explicitly integrated immersion of the conformal symmetry.
    """
    lam = check_lambda(lam)
    if wave.grid.chart != CHART_MINKOWSKI or spec.chart != CHART_MINKOWSKI:
        raise ChartMismatch("traveling-wave tangents live on the Minkowski chart")
    grid = wave.grid
    chi = wave.chi(lam)
    k = wave.kappa
    komm = commutator(j.d1, j.values)
    f1 = spec.f1(grid)
    f11 = spec.f11(grid)
    g2 = spec.g2(grid)
    c1 = -2.0 * f1 / (1 + lam) + 2.0 * f11 * chi
    c2 = -2.0 * k * g2 - 2.0 * k * lam * f1 / (1 - lam)
    return _fields(j, (c1 * komm, c2 * komm), (j.margin1, j.margin1))
