"""Generalized symmetries in evolutionary form, realized numerically.

A symmetry characteristic is a matrix field Q built from the jets of a
solution.  Its prolongation pr w_Q is one derivation acting on every
functional G of the solution: the Frechet derivative G'(theta)[Q].  It
is realized by deforming the whole solution, theta -> theta +/- eps*Q,
recomputing the jet fields (linearity: jets of the deformation are eps
times the jets of Q), and taking one central difference:

    pr w_Q G = [G(theta + eps Q) - G(theta - eps Q)] / (2 eps)

Because the deformed jets are exact linear shifts, the difference
quotient is free of the cancellation noise a naive re-evaluation would
produce.  It is exact for functionals of degree at most 2 in (theta,
jets); for the others its O(eps^2) truncation error is at the level of
the rounding error at the default step, so no extrapolation is taken.

One prolongation feeds many functionals: `frechet_apply` takes a
sequence of them, computes the jets of Q once, builds the two
deformations once and evaluates every functional on each.  A caller asks
once per (jets, Q, step) for all it reads: pr w u for the symmetry
criterion, pr w Phi for explicit integration, pr w of the linear-problem
residual, and pr w G beside pr w (D_alpha G) for the commutation checks.
A functional returns a tuple of matrix fields, all differenced from the
same deformations, so the connection pair (u1, u2) is one functional.
The deformed jet fields build their second-order jets on first read, so
functionals that read only theta, D_1 theta and D_2 theta run no
second-order stencil.
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
    MatrixField,
    chart_first_derivatives,
    chart_jets,
    interior_max,
    same_grid,
)
from .matlie import commutator, fro, mm
from .sigma import JetField, TravelingWave, check_lambda, projector, u_pair

__all__ = [
    "ConformalSpec",
    "commutation_defect",
    "compatibility_defect",
    "conformal_characteristic",
    "frechet_apply",
    "lowering_functional",
    "lowering_derivatives_functional",
    "prolong_u",
    "theta_functional",
    "theta_derivatives_functional",
    "traveling_R_fields",
    "u_functional",
    "u_derivatives_functional",
    "wave_functional",
]

Functional = Callable[[JetField], tuple[MatrixField, ...]]


# --- conformal data -----------------------------------------------------------


def _polyval(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x, dtype=complex)
    for c in coeffs[::-1]:
        out = out * x + c
    return out


def _polyder(coeffs: np.ndarray) -> np.ndarray:
    if len(coeffs) <= 1:
        return np.zeros(1, dtype=complex)
    k = np.arange(1, len(coeffs))
    return coeffs[1:] * k


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
            fpad = np.zeros(max(len(f), len(g)), dtype=complex)
            gpad = fpad.copy()
            fpad[: len(f)] = f
            gpad[: len(g)] = g
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
        return _polyval(np.asarray(self.f_coeffs, dtype=complex), grid.coord1())

    def f1(self, grid: Grid2) -> np.ndarray:
        return _polyval(_polyder(np.asarray(self.f_coeffs, dtype=complex)), grid.coord1())

    def f11(self, grid: Grid2) -> np.ndarray:
        return _polyval(
            _polyder(_polyder(np.asarray(self.f_coeffs, dtype=complex))), grid.coord1()
        )

    def g(self, grid: Grid2) -> np.ndarray:
        return _polyval(np.asarray(self.g_coeffs, dtype=complex), grid.coord2())

    def g2(self, grid: Grid2) -> np.ndarray:
        return _polyval(_polyder(np.asarray(self.g_coeffs, dtype=complex)), grid.coord2())

    def along(self, grid: Grid2, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """f(x1) X1 + g(x2) X2: a pair of matrix fields combined along the
        symmetry's vector field."""
        return self.f(grid) * x1 + self.g(grid) * x2

    @staticmethod
    def from_json(obj: dict, chart: str) -> "ConformalSpec":
        """Coefficients from ``{"f": [[re, im], ...], "g": [[re, im], ...]}``.

        A missing list or an entry that is not a pair of finite numbers
        raises `ConfigError` naming it, e.g. ``symmetry.f[0]``.
        """
        from .config import ConfigError, finite_number

        def coeffs(key: str) -> tuple[complex, ...]:
            raw = obj.get(key)
            if not isinstance(raw, list):
                raise ConfigError(f"key 'symmetry.{key}' must be a list of [re, im] pairs")
            out = []
            for i, c in enumerate(raw):
                where = f"symmetry.{key}[{i}]"
                if not (isinstance(c, list) and len(c) == 2):
                    raise ConfigError(f"key {where!r} must be a [re, im] pair, got {c!r}")
                out.append(complex(finite_number(c[0], where), finite_number(c[1], where)))
            return tuple(out)

        return ConformalSpec(coeffs("f"), coeffs("g"), chart)


def conformal_characteristic(spec: ConformalSpec, j: JetField) -> MatrixField:
    """Q = f(x1) theta_1 + g(x2) theta_2."""
    if spec.chart != j.grid.chart:
        raise ChartMismatch(
            f"conformal data is for {spec.chart}, jet field lives on {j.grid.chart}"
        )
    return MatrixField(j.grid, spec.along(j.grid, j.d1, j.d2), j.margin1)


# --- prolongation by whole-field deformation -----------------------------------


def frechet_apply(
    gs: Sequence[Functional], j: JetField, q: MatrixField, eps_base: float = 1e-5
) -> tuple[tuple[MatrixField, ...], ...]:
    """Directional derivatives along ``q`` at ``j`` of every functional in ``gs``.

    Returns one tuple per functional, one field per component: the
    central difference over theta +/- eps Q, with eps = ``eps_base``
    times (1 + the interior max of ||theta||_F).  The jets of ``q`` are
    computed once; each of the two deformations of ``j`` is built once
    and every functional is evaluated on it in turn.  Second-order jets
    are built only if a functional reads them.  Each component keeps the
    larger margin of its two evaluations.
    """
    if eps_base <= 0:
        raise ValueError("eps_base must be positive")
    q_jets = chart_jets(q)
    eps = eps_base * (1.0 + interior_max(fro(j.values), j.margin))
    jd = j.deformed(+eps, q_jets)
    plus = [g(jd) for g in gs]
    jd = j.deformed(-eps, q_jets)
    return tuple(
        tuple(
            MatrixField(j.grid, (a.values - b.values) / (2 * eps), max(a.margin, b.margin))
            for a, b in zip(p, g(jd))
        )
        for p, g in zip(plus, gs)
    )


# --- functionals used throughout -----------------------------------------------


def theta_functional() -> Functional:
    return lambda j: (MatrixField(j.grid, j.values, j.margin),)


def theta_derivatives_functional() -> Functional:
    """(D_1 theta, D_2 theta)."""

    def g(j: JetField) -> tuple[MatrixField, MatrixField]:
        return MatrixField(j.grid, j.d1, j.margin1), MatrixField(j.grid, j.d2, j.margin1)

    return g


def u_functional(lam: complex) -> Functional:
    """The connection pair (u1, u2), quadratic in (theta, D theta)."""
    return lambda j: u_pair(j, lam)


def u_derivatives_functional(lam: complex, index: int) -> Functional:
    """Jet-expressed (D_1 u_index, D_2 u_index) of one connection component,
    quadratic in (theta, jets)."""
    lam = check_lambda(lam)

    def g(j: JetField) -> tuple[MatrixField, MatrixField]:
        if index == 1:
            c = -2 / (1 + lam)
            v1 = c * commutator(j.d11, j.values)
            v2 = c * (commutator(j.d12, j.values) + commutator(j.d1, j.d2))
        else:
            c = -2 / (1 - lam)
            v1 = c * (commutator(j.d12, j.values) + commutator(j.d2, j.d1))
            v2 = c * commutator(j.d22, j.values)
        return MatrixField(j.grid, v1, j.margin2), MatrixField(j.grid, v2, j.margin2)

    return g


def lowering_functional() -> Functional:
    """Value of the lowering operator applied once; rational in the jets."""
    from .spectral import lowered_rungs_from_jets

    return lambda j: (MatrixField(j.grid, lowered_rungs_from_jets(j, 1)[0], j.margin1),)


def lowering_derivatives_functional() -> Functional:
    """(D_1, D_2) of the once-lowered rung, from one lowering pass."""
    from .spectral import lowered_rung_with_jets

    def g(j: JetField) -> tuple[MatrixField, MatrixField]:
        _, d1r, d2r = lowered_rung_with_jets(projector(j), -1j * j.d1, -1j * j.d2, j)
        return MatrixField(j.grid, d1r, j.margin2), MatrixField(j.grid, d2r, j.margin2)

    return g


def wave_functional(
    phi_builder: Callable[[JetField], MatrixField], lam: complex | None = None
) -> Functional:
    """The wave function Phi that ``phi_builder`` builds on the jets.

    Given ``lam``, the linear-problem residuals D_alpha Phi - u^alpha Phi
    follow Phi as two more components, so one build of Phi per
    deformation serves both.  Their prolongations vanish exactly when the
    characteristic is also a symmetry of the linear problem.
    """

    def g(jd: JetField) -> tuple[MatrixField, ...]:
        phi = phi_builder(jd)
        if lam is None:
            return (phi,)
        d1phi, d2phi, dmargin = chart_first_derivatives(phi)
        u1, u2 = u_pair(jd, lam)
        margin = max(dmargin, u1.margin)
        return (
            phi,
            MatrixField(jd.grid, d1phi - mm(u1.values, phi.values), margin),
            MatrixField(jd.grid, d2phi - mm(u2.values, phi.values), margin),
        )

    return g


# --- closed-form prolongations and defects --------------------------------------


def prolong_u(
    spec: ConformalSpec, j: JetField, lam: complex
) -> tuple[MatrixField, MatrixField]:
    """Closed forms of the prolongation acting on the connection pair.

    pr w u1 = D_1(f u1) + g D_2(u1),  pr w u2 = f D_1(u2) + D_2(g u2).
    """
    lam = check_lambda(lam)
    u1, u2 = u_pair(j, lam)
    du1_1, du1_2 = u_derivatives_functional(lam, 1)(j)
    du2_1, du2_2 = u_derivatives_functional(lam, 2)(j)
    grid = j.grid
    f, f1, g, g2 = spec.f(grid), spec.f1(grid), spec.g(grid), spec.g2(grid)
    pw1 = f1 * u1.values + f * du1_1.values + g * du1_2.values
    pw2 = f * du2_1.values + g2 * u2.values + g * du2_2.values
    return (
        MatrixField(grid, pw1, j.margin2),
        MatrixField(grid, pw2, j.margin2),
    )


def compatibility_defect(
    a: MatrixField, b: MatrixField, u1: MatrixField, u2: MatrixField
) -> float:
    """Interior max of || D_2 A - D_1 B + [A, u2] + [u1, B] ||_F."""
    same_grid(a, b, u1, u2)
    da = chart_first_derivatives(a)
    db = chart_first_derivatives(b)
    res = da[1] - db[0] + commutator(a.values, u2.values) + commutator(u1.values, b.values)
    margin = max(da[2], db[2], u1.margin, u2.margin)
    return interior_max(fro(res), margin)


def commutation_defect(
    prw_g: MatrixField, prw_dg: tuple[MatrixField, MatrixField]
) -> float:
    """Max over both directions of || D_alpha(pr w_Q G) - pr w_Q(D_alpha G) ||.

    ``prw_g`` is the prolongation pr w_Q G, differentiated here with
    stencils; ``prw_dg`` is the prolongation of the jet-expressed pair
    (D_1 G, D_2 G) along the same Q.
    """
    d1_prw, d2_prw, dmargin = chart_first_derivatives(prw_g)
    return max(
        interior_max(fro(side1 - side2.values), max(dmargin, side2.margin))
        for side1, side2 in zip((d1_prw, d2_prw), prw_dg)
    )


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
    return (
        MatrixField(grid, c1 * komm, j.margin1),
        MatrixField(grid, c2 * komm, j.margin1),
    )
