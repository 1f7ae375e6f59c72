"""Immersion functions built from spectral, gauge and symmetry tangents.

The tangent pair (A, B) is assembled as

    A = a(lam) d(u1)/d(lam) + D_1 S + [S, u1] + pr w_Q u1
    B = a(lam) d(u2)/d(lam) + D_2 S + [S, u2] + pr w_Q u2

with u1, u2 and d(u)/d(lam) from :mod:`solsurf.sigma`; every term is
pointwise, and `assemble_tangents` adds them one strip at a time.  The
surface's tangents D_alpha F = Phi^{-1} A_alpha Phi are formed once, by
`surface_tangents`, and every surface reader takes them: the line
integration along grid lines in both orders, whose mismatch is the
path-independence certificate, the tangent check `fields.tangent_defect`
and the Gram report.  The pair's own integrability,
`symmetry.compatibility_defect`, is measured by the caller before the
pair is conjugated, and the surface's su(N) part is formed by
`su_measured` strip by strip as it is written.  Closed forms are provided
for the spectral-parameter term (Sym-Tafel), the conformal symmetry term,
which reads the caller's connection pair per strip, and the explicitly
integrated prolongation of the wave function; each closed form is paired
with a finite-difference tangent check in the verification suite.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .fields import (
    CHART_EUCLIDEAN,
    Grid2,
    JetField,
    MatrixField,
    StripSource,
    cumulative_line_integral,
    interior,
    interior_max,
    row_strips,
    rows_filled,
    same_grid,
    strip_derivatives,
)
from .matlie import commutator, constant, fro, inner, mm, project_su
from .sigma import check_lambda, commutator_pair_rows, u_coefficients, u_dlambda_coefficients
from .spectral import WaveField, lsp_residual
from .symmetry import ConformalSpec, polyval

__all__ = [
    "assemble_tangents",
    "conformal_immersion_closed",
    "constant_difference_check",
    "explicit_immersion",
    "integrate_surface",
    "linear_independence_report",
    "psi_of",
    "psi_residual",
    "su_measured",
    "surface_tangents",
    "sym_tafel",
]


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

    Each term is added in place to a strip of the zero pair, strip by
    strip, in the order of the formula; d(u)/d(lam) and u come from the
    strip's jets, and D S from the stencils on the strip's slab of S.
    ``prw_u`` is the prolonged connection (pr w_Q u1, pr w_Q u2) of the
    conformal symmetry: `frechet_apply` with `u_functional` along its
    characteristic, on the jets the pair is assembled from.
    """
    if not a_coeffs and gauge is None and prw_u is None:
        raise ValueError("at least one immersion ingredient must be provided")
    lam = check_lambda(lam)
    grid = j.grid
    margin = j.margin1
    if gauge is not None:
        same_grid(j, gauge)
        margin = max(margin, gauge.margin + 2)
    if prw_u is not None:
        same_grid(j, *prw_u)
        margin = max(margin, prw_u[0].margin, prw_u[1].margin)
    a = polyval(a_coeffs, lam)
    dlam, scales = u_dlambda_coefficients(lam), u_coefficients(lam)
    a_vals, b_vals = (np.zeros(j.values.shape, dtype=complex) for _ in range(2))
    for rows in row_strips(grid.n2):
        at, bt, jr = a_vals[..., rows, :], b_vals[..., rows, :], j.rows(rows)
        if a_coeffs:
            du1, du2 = commutator_pair_rows(jr, *dlam)
            at += a * du1
            bt += a * du2
        if gauge is not None:
            d1s, d2s = strip_derivatives(gauge.values, grid, rows)
            u1, u2 = commutator_pair_rows(jr, *scales)
            s = gauge.strip(rows)
            at += d1s
            at += commutator(s, u1)
            bt += d2s
            bt += commutator(s, u2)
        if prw_u is not None:
            at += prw_u[0].strip(rows)
            bt += prw_u[1].strip(rows)
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


def surface_tangents(
    a: MatrixField, b: MatrixField, w: WaveField
) -> tuple[MatrixField, MatrixField]:
    """The surface's tangents (D_1 F, D_2 F) = (Phi^{-1} A Phi, Phi^{-1} B Phi),
    formed one strip of grid rows at a time, each strip's inverse once."""
    grid = same_grid(a, b, w)
    m = max(a.margin, b.margin, w.margin)
    da, db = rows_filled(grid, lambda rows: w.conjugate_rows(rows, a.strip(rows), b.strip(rows)))
    return MatrixField(grid, da, m), MatrixField(grid, db, m)


def integrate_surface(da: MatrixField, db: MatrixField) -> tuple[MatrixField, float]:
    """Integrate the surface tangents D_1 F, D_2 F (`surface_tangents`) from
    the basepoint (m, m), the first node inside the margin m of the inputs.

    Composite-Simpson line integration along x1 then x2; the reversed
    order is always computed as well.  Returns the raw surface F, on which
    the tangent and closed-form identities hold for every spectral
    parameter, with margin m and F(m, m) = 0, and its path defect: the
    worst node-wise discrepancy of the two orders.
    """
    grid = same_grid(da, db)
    m = max(da.margin, db.margin)

    # the integrals start at zero on the basepoint, the first interior node
    gx, gy = _axis_integrands(grid, da.values, db.values)
    ia = cumulative_line_integral(interior(gx, m), grid.h1, axis=-1)
    del gx
    ib = cumulative_line_integral(interior(gy, m), grid.h2, axis=-2)
    del gy

    # x1 first: run along the basepoint row, then up each column.
    f_full = np.full(da.values.shape, np.nan + 0j)
    f_12 = interior(f_full, m)
    np.add(ia[..., 0:1, :], ib, out=f_12)
    # x2 first: run along the basepoint column, then across each row.
    gap = np.empty(f_12.shape[2:])
    for rows in row_strips(gap.shape[0]):
        gap[rows] = fro(f_12[..., rows, :] - (ib[..., rows, 0:1] + ia[..., rows, :]))
    return MatrixField(grid, f_full, m), float(np.fmax.reduce(gap, axis=None))


def su_measured(
    f: MatrixField | StripSource, project: bool = False
) -> tuple[StripSource, Callable[[], float]]:
    """A strip source that hands out the strips of ``f``, measuring each
    one's distance from anti-Hermitian traceless as it goes, and a callable
    that returns the worst interior distance once every strip has been read
    (by `write_field`, say): a field is measured in the pass that writes it.
    With ``project``, each strip handed out is its su(N) part instead, NaN
    at the entries of ``f`` that are not finite: the distance is then the
    correction that the projection made."""
    defect, margin = np.full((f.grid.n2, f.grid.n1), np.nan), f.margin

    def strip(rows: slice) -> np.ndarray:
        x = f.strip(rows)
        finite = np.isfinite(x)
        su_part, d = project_su(np.where(finite, x, 0.0))
        defect[rows] = np.where(np.isfinite(fro(x)), d, np.nan)
        return np.where(finite, su_part, np.nan + 0j) if project else x

    # the reduction holds the defects alone, not ``f``
    return StripSource(f.grid, f.n, margin, strip), lambda: interior_max(defect, margin)


def sym_tafel(w: WaveField, dphi: MatrixField | StripSource, a_value: complex) -> StripSource:
    """Spectral-parameter immersion F = a(lam) Phi^{-1} dPhi/dlam, as a
    strip source: each strip is formed from the rows of dPhi/dlam and of
    Phi^{-1}.

    Raw; it lies in su(N) exactly on the unitarity domain of the wave
    function, which `su_measured` measures.
    """

    def strip(rows: slice) -> np.ndarray:
        raw = mm(w.inverse(rows), dphi.strip(rows))
        raw *= a_value
        return raw

    return StripSource(w.grid, w.n, max(w.margin, dphi.margin), strip)


def conformal_immersion_closed(
    spec: ConformalSpec, u1: MatrixField | StripSource, u2: MatrixField | StripSource, w: WaveField
) -> MatrixField:
    """Closed-form conformal immersion F = Phi^{-1} (f u1 + g u2) Phi of the
    connection pair (u1, u2), fields or strip sources, one strip of grid
    rows at a time; f and g are formed once on the whole grid and sliced."""
    grid = same_grid(u1, u2, w)
    f, g = spec.f(grid), spec.g(grid)
    (vals,) = rows_filled(grid, lambda rows: w.conjugate_rows(
        rows, f[rows] * u1.strip(rows) + g[rows] * u2.strip(rows)))
    return MatrixField(grid, vals, max(w.margin, u1.margin))


def explicit_immersion(w: WaveField, prw_phi: MatrixField) -> MatrixField:
    """Explicitly integrated immersion F = Phi^{-1} (pr w_Q Phi), one strip
    of grid rows at a time."""
    (raw,) = rows_filled(w.grid, lambda rows: (mm(w.inverse(rows), prw_phi.strip(rows)),))
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
) -> tuple[MatrixField, MatrixField]:
    """The residuals D_alpha Psi - u^alpha Psi - A_alpha Phi, with one margin.

    Read at Psi = Phi F with the tangents (A, B) of F, and at Psi = pr w Phi
    with (A, B) = pr w (u1, u2), where they are pr w of D_alpha Phi -
    u^alpha Phi: zero iff Q is also a symmetry of the linear problem.
    """
    r1, r2 = lsp_residual(psi, u1, u2)
    margin = max(r1.margin, a.margin, b.margin, w.margin)
    for r, t in ((r1, a), (r2, b)):
        np.subtract(r.values, mm(t.values, w.values), out=r.values)
    return MatrixField(r1.grid, r1.values, margin), MatrixField(r2.grid, r2.values, margin)


def linear_independence_report(da: MatrixField, db: MatrixField) -> dict[str, float]:
    """Eigenvalue range of the 2x2 Gram matrix under inner() of the
    surface tangents D_1 F and D_2 F (`surface_tangents`).

    The smallest eigenvalue measures linear independence pointwise; a
    surface degenerates to a curve exactly where it vanishes.  The
    eigenvalues are formed one strip of grid rows at a time.  NaN nodes are
    left out, and a value is NaN, quietly, where every node is.
    """
    grid = same_grid(da, db)
    m = max(da.margin, db.margin)
    lo, hi = np.empty((grid.n2, grid.n1)), np.empty((grid.n2, grid.n1))
    for rows in row_strips(grid.n2):
        t1, t2 = da.strip(rows), db.strip(rows)
        g11, g12, g22 = inner(t1, t1), inner(t1, t2), inner(t2, t2)
        tr_half = 0.5 * (g11 + g22)
        disc = np.sqrt(np.maximum(0.25 * (g11 - g22) ** 2 + g12**2, 0.0))
        lo[rows], hi[rows] = tr_half - disc, tr_half + disc
    lo, hi = interior(lo, m), interior(hi, m)
    return {
        "min_eigenvalue": float(np.fmin.reduce(lo, axis=None)),
        "max_min_eigenvalue": float(np.fmax.reduce(lo, axis=None)),
        "max_eigenvalue": float(np.fmax.reduce(hi, axis=None)),
    }
