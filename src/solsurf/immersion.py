"""Immersion functions built from spectral, gauge and symmetry tangents.

The tangent pair (A, B) is assembled as

    A = a(lam) d(u1)/d(lam) + D_1 S + [S, u1] + pr w_Q u1
    B = a(lam) d(u2)/d(lam) + D_2 S + [S, u2] + pr w_Q u2

with u1, u2 and d(u)/d(lam) from :mod:`solsurf.sigma`; every term is
pointwise, and `assemble_tangents` adds them one strip at a time.
`pulled_back` is the one route through Phi^{-1}: one pass pulls back all
a caller reads of one wave function.  That is the surface's tangents
D_alpha F = Phi^{-1} A_alpha Phi, which every surface reader takes (the
line integration in both orders, whose mismatch is the path-independence
certificate, the tangent check `fields.tangent_defect` and the Gram
report), and the closed forms Phi^{-1} (f u1 + g u2) Phi of the conformal
symmetry (`conformal_integrand`) and Phi^{-1} (pr w_Q Phi) of the
explicit integration; `sym_tafel` streams a(lam) Phi^{-1} dPhi/dlam
through the same row kernel.  The caller measures the pair's own
integrability, `symmetry.compatibility_defect`, before the pull-back, and
`su_measured` forms the surface's su(N) part as it is written.  Each
closed form is paired with a tangent check in the verification suite.
"""

from __future__ import annotations

from typing import Callable, Sequence

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
from .sigma import check_lambda, u_coefficients, u_dlambda_coefficients
from .spectral import WaveField, lsp_residual
from .symmetry import ConformalSpec, polyval

__all__ = [
    "assemble_tangents",
    "conformal_integrand",
    "constant_difference_check",
    "integrate_surface",
    "linear_independence_report",
    "psi_of",
    "psi_residual",
    "pulled_back",
    "su_measured",
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
    strip, in the order of the formula; d(u)/d(lam) and u scale the
    strip's [theta_alpha, theta], formed once from its jets, and D S comes
    from the stencils on the strip's slab of S.
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
    a_vals, b_vals = (np.zeros((j.n, j.n, grid.n2, grid.n1), dtype=complex) for _ in range(2))
    for rows in row_strips(grid.n2):
        at, bt, jr = a_vals[..., rows, :], b_vals[..., rows, :], j.rows(rows)
        if a_coeffs or gauge is not None:
            k1, k2 = commutator(jr.d1, jr.values), commutator(jr.d2, jr.values)
        if a_coeffs:
            at += a * (k1 * dlam[0])
            bt += a * (k2 * dlam[1])
        if gauge is not None:
            d1s, d2s = strip_derivatives(gauge.values, grid, rows)
            s = gauge.strip(rows)
            at += d1s
            at += commutator(s, k1 * scales[0])
            bt += d2s
            bt += commutator(s, k2 * scales[1])
        if prw_u is not None:
            at += prw_u[0].strip(rows)
            bt += prw_u[1].strip(rows)
    return MatrixField(grid, a_vals, margin), MatrixField(grid, b_vals, margin)


def _axis_integrand(grid: Grid2, at: np.ndarray, bt: np.ndarray, axis: int) -> np.ndarray:
    """The surface's tangent along grid axis ``axis`` (1 or 2) from the
    abstract pair (D_1 F, D_2 F).

    On the Euclidean chart the abstract derivatives are the complex pair
    (d/dx - i d/dy)/2 and (d/dx + i d/dy)/2, so the axis tangents are
    their sum and i times their difference; the Minkowski axes carry the
    abstract coordinates directly.
    """
    if grid.chart == CHART_EUCLIDEAN:
        return at + bt if axis == 1 else 1j * (at - bt)
    return at if axis == 1 else bt


def _pull_back_rows(
    w: WaveField, rows: slice, conj: Sequence[np.ndarray], left: Sequence[np.ndarray] = ()
) -> list[np.ndarray]:
    """Phi^{-1} X Phi for each X of ``conj`` and Phi^{-1} Y for each Y of
    ``left``, given on the grid rows ``rows``; the rows' inverse is formed
    once."""
    phi_inv, phi = w.inverse(rows), w.values[..., rows, :]
    return [*(mm(mm(phi_inv, x), phi) for x in conj), *(mm(phi_inv, y) for y in left)]


def pulled_back(
    w: WaveField,
    conj: Sequence[MatrixField | StripSource],
    left: Sequence[MatrixField | StripSource] = (),
    out: Sequence[np.ndarray] = (),
) -> list[MatrixField]:
    """Phi^{-1} X Phi for each X of ``conj``, then Phi^{-1} Y for each Y of
    ``left``, fields or strip sources, each with the margin max(w.margin,
    X.margin), from one pass over the strips of grid rows that forms each
    strip's inverse once for every output.  The first outputs are written
    into the arrays ``out``, which may be the values of the fields they
    pull back: a strip is overwritten once all its outputs are formed, so a
    caller that no longer reads a field can pull it back over itself."""
    grid = same_grid(w, *conj, *left)
    vals = rows_filled(grid, lambda rows: _pull_back_rows(
        w, rows, [x.strip(rows) for x in conj], [y.strip(rows) for y in left]), out)
    return [MatrixField(grid, v, max(w.margin, x.margin)) for v, x in zip(vals, (*conj, *left))]


def integrate_surface(da: MatrixField, db: MatrixField) -> tuple[MatrixField, float]:
    """Integrate the surface tangents D_1 F, D_2 F (`pulled_back`) from
    the basepoint (m, m), the first node inside the margin m of the inputs.

    Composite-Simpson line integration along x1 then x2; the reversed
    order is always computed as well.  Returns the raw surface F, on which
    the tangent and closed-form identities hold for every spectral
    parameter, with margin m and F(m, m) = 0, and its path defect: the
    worst node-wise discrepancy of the two orders.  The x2 integral is
    formed in the output itself, and only its basepoint column is kept for
    the reversed order, so the x1 integral is the one field held beside it.
    """
    grid = same_grid(da, db)
    m = max(da.margin, db.margin)

    # the integrals start at zero on the basepoint, the first interior node
    f_full = np.full(da.values.shape, np.nan + 0j)
    f_12 = interior(f_full, m)
    cumulative_line_integral(
        interior(_axis_integrand(grid, da.values, db.values, 2), m), grid.h2, axis=-2, out=f_12)
    ib_base = f_12[..., 0:1].copy()
    ia = cumulative_line_integral(
        interior(_axis_integrand(grid, da.values, db.values, 1), m), grid.h1, axis=-1)
    # x1 first: run along the basepoint row, then up each column.
    f_12 += ia[..., 0:1, :]
    # x2 first: run along the basepoint column, then across each row.
    gap = np.empty(f_12.shape[2:])
    for rows in row_strips(gap.shape[0]):
        gap[rows] = fro(f_12[..., rows, :] - (ib_base[..., rows, :] + ia[..., rows, :]))
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
        (raw,) = _pull_back_rows(w, rows, (), (dphi.strip(rows),))
        raw *= a_value
        return raw

    return StripSource(w.grid, w.n, max(w.margin, dphi.margin), strip)


def conformal_integrand(
    spec: ConformalSpec, u1: MatrixField | StripSource, u2: MatrixField | StripSource
) -> StripSource:
    """f u1 + g u2 of the connection pair (u1, u2), fields or strip sources,
    as a strip source: its pull-back is the closed conformal immersion; f
    and g are formed once on the whole grid and sliced."""
    grid = same_grid(u1, u2)
    f, g = spec.f(grid), spec.g(grid)
    return StripSource(grid, u1.n, u1.margin,
                       lambda rows: f[rows] * u1.strip(rows) + g[rows] * u2.strip(rows))


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
    surface tangents D_1 F and D_2 F (`pulled_back`).

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
