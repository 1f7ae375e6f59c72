"""Immersion functions built from spectral, gauge and symmetry tangents.

The tangent pair (A, B) is assembled as

    A = a(lam) d(u1)/d(lam) + D_1 S + [S, u1] + pr w_Q u1
    B = a(lam) d(u2)/d(lam) + D_2 S + [S, u2] + pr w_Q u2

and the surface F is recovered from D_alpha F = Phi^{-1} A_alpha Phi by
line integration along grid lines, using both integration orders; their
mismatch is the path-independence certificate.  Closed forms are provided
for the spectral-parameter term (Sym-Tafel), the conformal symmetry term,
and the explicitly integrated prolongation of the wave function; each
closed form is paired with a finite-difference tangent check in the
verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    CHART_EUCLIDEAN,
    Grid2,
    MatrixField,
    chart_first_derivatives,
    cumulative_line_integral,
    interior,
    interior_max,
    row_strips,
    same_grid,
)
from .matlie import commutator, constant, fro, inner, mm, project_su
from .sigma import JetField, check_lambda, u_pair
from .spectral import WaveField
from .symmetry import ConformalSpec, compatibility_defect

__all__ = [
    "ImmersionResult",
    "a_value",
    "assemble_tangents",
    "compatibility_defect",
    "conformal_immersion_closed",
    "constant_difference_check",
    "explicit_immersion",
    "integrate_surface",
    "linear_independence_report",
    "psi_of",
    "psi_residual",
    "su_distance",
    "sym_tafel",
    "tangent_check",
    "u_dlambda",
]

# `integrate_surface` warns above this compatibility defect of the tangent pair
COMPAT_WARN = 1e-6


def a_value(coeffs: tuple[float, ...], lam: complex) -> complex:
    """The spectral coefficient a(lam) from its ascending coefficients."""
    out = 0.0 + 0.0j
    for c in coeffs[::-1]:
        out = out * lam + c
    return out


@dataclass(frozen=True)
class ImmersionResult:
    """Integrated surface plus its certification data.

    ``field`` is the su(N)-projected surface (the deliverable); ``raw``
    keeps the unprojected line integral, on which the tangent and
    closed-form identities hold for every spectral parameter, admissible
    or not.
    """

    field: MatrixField
    raw: MatrixField
    basepoint: tuple[int, int]
    compat_defect: float
    path_defect: float
    su_correction: float


def u_dlambda(j: JetField, lam: complex) -> tuple[MatrixField, MatrixField]:
    """Spectral-parameter derivative of the connection pair (closed form)."""
    lam = check_lambda(lam)
    v1 = (2.0 / (1 + lam) ** 2) * commutator(j.d1, j.values)
    v2 = (-2.0 / (1 - lam) ** 2) * commutator(j.d2, j.values)
    return MatrixField(j.grid, v1, j.margin1), MatrixField(j.grid, v2, j.margin1)


def assemble_tangents(
    j: JetField,
    lam: complex,
    *,
    a_coeffs: tuple[float, ...] = (),
    gauge: MatrixField | None = None,
    prw_u: tuple[MatrixField, MatrixField] | None = None,
) -> tuple[MatrixField, MatrixField]:
    """Tangent pair (A, B) from the three symmetry ingredients; any subset
    may be active.

    ``prw_u`` is the prolonged connection (pr w_Q u1, pr w_Q u2) of the
    conformal symmetry: `frechet_apply` with `u_functional` along its
    characteristic, on the jets the pair is assembled from.
    """
    if not a_coeffs and gauge is None and prw_u is None:
        raise ValueError("at least one immersion ingredient must be provided")
    lam = check_lambda(lam)
    grid = j.grid
    shape = j.values.shape
    # each term is added in place to the zero pair, term by term
    a_vals = np.zeros(shape, dtype=complex)
    b_vals = np.zeros(shape, dtype=complex)
    margin = j.margin1
    if a_coeffs:
        a = a_value(a_coeffs, lam)
        du1, du2 = u_dlambda(j, lam)
        a_vals += a * du1.values
        b_vals += a * du2.values
        del du1, du2
    if gauge is not None:
        if gauge.grid != grid:
            raise ValueError("gauge field grid mismatch")
        d1s, d2s, smargin = chart_first_derivatives(gauge)
        u1, u2 = u_pair(j, lam)
        a_vals += d1s
        a_vals += commutator(gauge.values, u1.values)
        b_vals += d2s
        b_vals += commutator(gauge.values, u2.values)
        margin = max(margin, smargin)
    if prw_u is not None:
        pw1, pw2 = prw_u
        if pw1.grid != grid or pw2.grid != grid:
            raise ValueError("prolonged connection grid mismatch")
        a_vals += pw1.values
        b_vals += pw2.values
        margin = max(margin, pw1.margin, pw2.margin)
    return MatrixField(grid, a_vals, margin), MatrixField(grid, b_vals, margin)


def _axis_integrands(
    grid: Grid2, at: np.ndarray, bt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Grid-axis tangents from the abstract pair (D_1 F, D_2 F).

    On the Euclidean chart the abstract derivatives are the complex pair
    (d/dx - i d/dy)/2 and (d/dx + i d/dy)/2, so the axis tangents are
    their sum and i times their difference; the Minkowski axes carry the
    abstract coordinates directly.
    """
    if grid.chart == CHART_EUCLIDEAN:
        return at + bt, 1j * (at - bt)
    return at, bt


def integrate_surface(
    a: MatrixField,
    b: MatrixField,
    w: WaveField,
    u1: MatrixField | None = None,
    u2: MatrixField | None = None,
) -> ImmersionResult:
    """Integrate D_1 F = Phi^{-1} A Phi, D_2 F = Phi^{-1} B Phi from the
    basepoint (m, m), the first node inside the margin m of the inputs.

    Composite-Simpson line integration along x1 then x2; the reversed
    order is always computed as well and the worst node-wise discrepancy
    is reported as ``path_defect``.  The integration constant is fixed by
    F(m, m) = 0, then F is projected onto su(N) with the correction
    norm logged.  When the connection pair is supplied, the compatibility
    defect is measured first and a warning is emitted if it is finite and
    exceeds ``COMPAT_WARN`` (integration proceeds regardless).
    """
    grid = same_grid(a, b)
    if w.grid != grid:
        raise ValueError("wave field grid mismatch")
    compat = float("nan")
    if u1 is not None and u2 is not None:
        compat = compatibility_defect(a, b, u1, u2)
        if COMPAT_WARN < compat < np.inf:
            import warnings

            warnings.warn(
                f"tangent pair is not compatible (defect {compat:.3e}); "
                "the integrated surface will be path dependent",
                stacklevel=2,
            )
    m = max(a.margin, b.margin, w.margin)

    # each conjugated tangent is freed once its line integral is taken; the
    # integrals start at zero on the basepoint, the first interior node
    gx, gy = _axis_integrands(grid, w.conjugate(a.values), w.conjugate(b.values))
    ia = cumulative_line_integral(interior(gx, m), grid.h1, axis=-1)
    del gx
    ib = cumulative_line_integral(interior(gy, m), grid.h2, axis=-2)
    del gy

    # x1 first: run along the basepoint row, then up each column.
    f_full = np.full(a.values.shape, np.nan + 0j)
    f_12 = interior(f_full, m)
    np.add(ia[..., 0:1, :], ib, out=f_12)
    # x2 first: run along the basepoint column, then across each row.
    gap = np.empty(f_12.shape[2:])
    for rows, _ in row_strips(gap.shape[0]):
        gap[rows] = fro(f_12[..., rows, :] - (ib[..., rows, 0:1] + ia[..., rows, :]))
    path_defect = float(np.fmax.reduce(gap, axis=None))
    del ia, ib

    raw = MatrixField(grid, f_full, m)
    field, su_correction = su_projected(raw)

    return ImmersionResult(
        field=field,
        raw=raw,
        basepoint=(m, m),
        compat_defect=compat,
        path_defect=path_defect,
        su_correction=su_correction,
    )


def tangent_check(
    f: MatrixField, w: WaveField, a: MatrixField, b: MatrixField
) -> tuple[float, float]:
    """Stencil derivatives of F against the conjugated tangents."""
    d1f, d2f, dmargin = chart_first_derivatives(f)
    margin = max(dmargin, a.margin, b.margin, w.margin)
    d1f -= w.conjugate(a.values)
    d2f -= w.conjugate(b.values)
    return interior_max(fro(d1f), margin), interior_max(fro(d2f), margin)


def su_projected(f: MatrixField) -> tuple[MatrixField, float]:
    """Pointwise su(N) projection of a field, with the correction logged.

    NaN nodes stay NaN; the correction is the worst interior distance of
    the field from anti-Hermitian traceless.
    """
    vals = np.empty(f.values.shape, dtype=complex)
    defect = np.empty(f.values.shape[2:])
    for rows, _ in row_strips(f.grid.n2):
        x = f.values[..., rows, :]
        finite = np.isfinite(x)
        su_part, d = project_su(np.where(finite, x, 0.0))
        vals[..., rows, :] = np.where(finite, su_part, np.nan + 0j)
        defect[rows] = np.where(np.isfinite(fro(x)), d, np.nan)
    return MatrixField(f.grid, vals, f.margin), interior_max(defect, f.margin)


def su_distance(f: MatrixField) -> float:
    """Worst interior distance of a field from anti-Hermitian traceless."""
    return su_projected(f)[1]


def sym_tafel(w: WaveField, dphi: MatrixField, a_value: complex) -> MatrixField:
    """Spectral-parameter immersion F = a(lam) Phi^{-1} dPhi/dlam.

    Returned raw; it lies in su(N) exactly on the unitarity domain of the
    wave function, which `su_distance` measures.
    """
    raw = a_value * mm(w.inverse(), dphi.values)
    return MatrixField(w.grid, raw, max(w.margin, dphi.margin))


def conformal_immersion_closed(
    spec: ConformalSpec, j: JetField, w: WaveField, lam: complex
) -> MatrixField:
    """Closed-form conformal immersion F = Phi^{-1} (f u1 + g u2) Phi."""
    lam = check_lambda(lam)
    u1, u2 = u_pair(j, lam)
    core = spec.along(j.grid, u1.values, u2.values)
    return MatrixField(j.grid, w.conjugate(core), max(w.margin, u1.margin))


def explicit_immersion(w: WaveField, prw_phi: MatrixField) -> MatrixField:
    """Explicitly integrated immersion F = Phi^{-1} (pr w_Q Phi)."""
    raw = mm(w.inverse(), prw_phi.values)
    return MatrixField(w.grid, raw, max(w.margin, prw_phi.margin))


def constant_difference_check(
    f: MatrixField, calf: MatrixField
) -> tuple[np.ndarray, float]:
    """Grid mean of F - calF and the worst deviation from that mean.  The mean
    leaves NaN nodes out and sums the rest in row-major order, one by one."""
    same_grid(f, calf)
    m = max(f.margin, calf.margin)
    diff = interior(f.values - calf.values, m)
    nodes = diff.reshape(diff.shape[:2] + (-1,))
    finite = ~np.isnan(nodes)
    mean = np.cumsum(np.where(finite, nodes, 0), axis=-1)[..., -1] / finite.sum(axis=-1)
    variation = float(np.fmax.reduce(fro(diff - constant(mean)), axis=None))
    return mean, variation


def psi_of(f: MatrixField, w: WaveField) -> MatrixField:
    """Deformation direction of the wave function: Psi = Phi F."""
    vals = mm(w.values, f.values)
    return MatrixField(f.grid, vals, max(f.margin, w.margin))


def psi_residual(
    psi: MatrixField,
    w: WaveField,
    u1: MatrixField,
    u2: MatrixField,
    a: MatrixField,
    b: MatrixField,
) -> float:
    """Interior max of || D_alpha Psi - u^alpha Psi - A_alpha Phi ||_F."""
    d1psi, d2psi, dmargin = chart_first_derivatives(psi)
    r1 = d1psi - mm(u1.values, psi.values) - mm(a.values, w.values)
    r2 = d2psi - mm(u2.values, psi.values) - mm(b.values, w.values)
    margin = max(dmargin, u1.margin, a.margin, b.margin, w.margin)
    return max(interior_max(fro(r1), margin), interior_max(fro(r2), margin))


def linear_independence_report(
    t1: MatrixField, t2: MatrixField
) -> dict[str, float]:
    """Eigenvalue range of the 2x2 Gram matrix of the tangents under inner().

    The smallest eigenvalue measures linear independence pointwise; a
    surface degenerates to a curve exactly where it vanishes.  NaN nodes
    are left out, and a value is NaN, quietly, where every node is.
    """
    same_grid(t1, t2)
    m = max(t1.margin, t2.margin)
    g11 = inner(t1.values, t1.values)
    g12 = inner(t1.values, t2.values)
    g22 = inner(t2.values, t2.values)
    tr_half = 0.5 * (g11 + g22)
    disc = np.sqrt(np.maximum(0.25 * (g11 - g22) ** 2 + g12**2, 0.0))
    lo, hi = tr_half - disc, tr_half + disc
    lo, hi = interior(lo, m), interior(hi, m)
    return {
        "min_eigenvalue": float(np.fmin.reduce(lo, axis=None)),
        "max_min_eigenvalue": float(np.fmax.reduce(lo, axis=None)),
        "max_eigenvalue": float(np.fmax.reduce(hi, axis=None)),
    }
