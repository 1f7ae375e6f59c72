"""Independent routes that the tests compare the package against.

None of these is reached by a command or a verification check; each one
rebuilds by another method something the package computes, so a test can
cross-check the two:

* the numeric ladder: raising and lowering by the stencil derivatives of
  the projector, re-projected onto rank one per node, against the
  analytic Veronese frame;
* a central difference in the spectral parameter, against the analytic
  lambda-derivatives of the wave functions;
* the inverse of the su(2) -> R^3 embedding, and constant fields, to build
  surfaces and tangents with known values;
* the symmetry criterion in one call, prolonging the connection itself
  (`verify` reads it from a prolonged pair that other checks share);
* the central difference of many functionals from two shared
  deformations, each functional evaluated on both, against the forward
  tangents of `frechet_apply` (to O(eps^2)), and against
  `symmetry.central_difference`, which deforms once per functional and
  side (bit for bit);
* the su(N) projection, the integrated surface with its path defect, the
  compatibility defect, the tangent check, the tangent Gram report, the
  wave diagnostics and the conjugation by Phi, each formed on the whole
  grid at once with the whole inverse of Phi, against the row strips that
  :mod:`solsurf.immersion`, :mod:`solsurf.symmetry`,
  :mod:`solsurf.spectral` and :mod:`solsurf.fields` reduce;
* the appendix's commutation check by whole-field stencils, against the
  strip-wise `solsurf.fields.tangent_defect` that `verify` reads it with;
* a polynomial in a number summed by Python's own complex arithmetic,
  against `symmetry.polyval`, which sums fields and numbers alike;
* the JSON, CSV and OBJ exports, each formatted as one string of the
  whole field, and the native ``.npz`` as ``np.savez`` writes it, against
  the writers that stream them one strip of grid rows at a time;
* the pointwise jet kernels (the connection, its lambda-derivative and
  its derivatives, the tangent pair with the stencil derivatives of its
  gauge, the
  lowering operator and its derivatives, the Euclidean wave function and
  its lambda-derivative, the traveling wave function and the Sym-Tafel
  surface of the traveling wave), each evaluated on the whole grid at
  once, against the kernels that evaluate them one strip of grid rows at
  a time; the derivatives of the connection and of the lowered rung by
  the hand-written rules (the commutators of the jets, the quotient
  rule), against the total derivatives that the package carries in
  forward mode (`solsurf.fields.JetRows.along`), to rounding;
* theta's jets of the traveling wave in closed form on the whole grid,
  against the strips that `solsurf.sigma.traveling_solution` forms from
  cos and sin of its phase, and the integrated surface with both line
  integrals held whole, against the one that forms its x2 integral in the
  output;
* the package's own kernels run once on the whole grid as one strip
  (`whole_strip`), against the same kernels one strip at a time, bit for
  bit.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Callable, Sequence

import numpy as np

from solsurf.errors import ChartMismatch, DeformationOutOfDomain
from solsurf.fields import (
    CHART_EUCLIDEAN,
    FIELD_FORMAT,
    Grid2,
    JetField,
    MatrixField,
    StripSource,
    chart_first_derivatives,
    chart_jets,
    cumulative_line_integral,
    interior,
    interior_max,
    rows_filled,
)
from solsurf.matlie import (
    commutator,
    constant,
    dagger,
    det,
    expm,
    fro,
    identity,
    inner,
    inv,
    mm,
    project_su,
    trace,
)
from solsurf.sigma import (
    TravelingWave,
    check_lambda,
    projector,
    u_pair,
)
from solsurf.spectral import WaveField, _cond2, euclidean_wave_coefficients
from solsurf.symmetry import polyval
from solsurf.symmetry import compatibility_defect, frechet_apply, u_functional

TOL_CONTRACT_REL = 1e-10


class ContractedToZero(RuntimeError):
    """Raising/lowering denominator vanished everywhere: the ladder ends here."""


# --- numeric ladder ----------------------------------------------------------------


def reproject_rank1(values: np.ndarray) -> np.ndarray:
    """Nearest rank-one Hermitian projector, per node (NaN nodes stay NaN)."""
    h = 0.5 * (values + dagger(values))
    out = np.full_like(values, np.nan, dtype=complex)
    ok = np.isfinite(h).all(axis=(0, 1))
    if np.any(ok):
        # numpy.linalg takes the matrix axes last
        _, vecs = np.linalg.eigh(np.moveaxis(h[:, :, ok], -1, 0))
        top = vecs[:, :, -1].T
        out[:, :, ok] = top[:, None] * top.conj()[None, :]
    return out


def _ladder_step(p: MatrixField, up: bool, tol_contract_rel: float) -> MatrixField:
    if p.grid.chart != CHART_EUCLIDEAN:
        raise ChartMismatch("raising/lowering is defined on the euclidean-complex chart")
    d1p, d2p, margin = chart_first_derivatives(p)
    if up:
        num = mm(mm(d1p, p.values), d2p)
    else:
        num = mm(mm(d2p, p.values), d1p)
    den = trace(num)
    scale = interior_max(fro(d1p) * fro(d2p), margin)
    tol = tol_contract_rel * max(scale, 1e-300)
    if interior_max(np.abs(den), margin) < tol:
        raise ContractedToZero("ladder denominator below the contraction tolerance everywhere")
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = num / den
    raw = np.where(np.abs(den) < tol, np.nan + 0j, raw)
    return MatrixField(p.grid, reproject_rank1(raw), margin)


def raise_projector(p: MatrixField, tol_contract_rel: float = TOL_CONTRACT_REL) -> MatrixField:
    """One raising step, re-projected to the nearest rank-one projector."""
    return _ladder_step(p, up=True, tol_contract_rel=tol_contract_rel)


def lower_projector(p: MatrixField, tol_contract_rel: float = TOL_CONTRACT_REL) -> MatrixField:
    """One lowering step, re-projected to the nearest rank-one projector."""
    return _ladder_step(p, up=False, tol_contract_rel=tol_contract_rel)


def build_ladder(
    p0: MatrixField, tol_contract_rel: float = TOL_CONTRACT_REL, max_rungs: int = 8
) -> list[MatrixField]:
    """The rungs from ``p0`` up, raised until contraction."""
    rungs = [p0]
    while len(rungs) < max_rungs:
        try:
            rungs.append(raise_projector(rungs[-1], tol_contract_rel))
        except ContractedToZero:
            break
    return rungs


# --- spectral parameter ------------------------------------------------------------


def dlambda_fd(
    builder: Callable[[complex], WaveField], lam: complex, step: float = 1e-5
) -> MatrixField:
    """Central difference of a wave-function builder along real lambda."""
    plus = builder(lam + step)
    minus = builder(lam - step)
    vals = (plus.values - minus.values) / (2 * step)
    return MatrixField(plus.grid, vals, max(plus.margin, minus.margin))


# --- fields with known values ------------------------------------------------------


def unembed_su2(grid: Grid2, points: np.ndarray, margin: int = 0) -> MatrixField:
    """Inverse of `solsurf.geometry.embed_su2`."""
    a, b, c = points[..., 0], points[..., 1], points[..., 2]
    vals = np.empty((2, 2) + points.shape[:-1], dtype=complex)
    vals[0, 0] = 1j * c
    vals[0, 1] = 1j * a + b
    vals[1, 0] = 1j * a - b
    vals[1, 1] = -1j * c
    return MatrixField(grid, vals, margin)


def constant_field(grid: Grid2, mat: np.ndarray, margin: int = 0) -> MatrixField:
    mat = np.asarray(mat, dtype=complex)
    values = np.broadcast_to(constant(mat), mat.shape + (grid.n2, grid.n1)).copy()
    return MatrixField(grid, values, margin)


# --- the symmetry criterion ----------------------------------------------------------


def polyval_number(coeffs: tuple[complex, ...], x: complex) -> complex:
    """Horner's rule on Python numbers, the spectral coefficient a(lam)'s
    own loop before it became `symmetry.polyval`."""
    out = 0.0 + 0.0j
    for c in coeffs[::-1]:
        out = out * x + c
    return out


def el_symmetry_defect(q: MatrixField, j: JetField, lam: complex) -> float:
    """Zero-curvature defect of the connection pair prolonged along ``q``.

    With Q_alpha = pr w_Q u_alpha this is the compatibility defect of
    (Q_1, Q_2); it vanishes exactly when ``q`` generates a symmetry of the
    equations of motion.
    """
    ((pw1, pw2),) = frechet_apply([u_functional(lam)], j, q)
    return compatibility_defect(pw1, pw2, *u_pair(j, lam))


def central_pair(
    gs, j: JetField, q: MatrixField, eps_base: float = 1e-5
) -> tuple[tuple[MatrixField, ...], ...]:
    """[g(theta + eps Q) - g(theta - eps Q)] / (2 eps) of each g of ``gs``,
    with eps as `symmetry.central_difference` takes it, from two
    deformations built once, every plus-side output held while the minus
    side is evaluated."""
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


# --- whole-grid immersion reductions ---------------------------------------------------


def gathered(f: StripSource) -> MatrixField:
    """The strips of ``f`` gathered into one field."""
    (values,) = rows_filled(f.grid, lambda rows: (f.strip(rows),))
    return MatrixField(f.grid, values, f.margin)


def conjugate_whole(w: WaveField, x: np.ndarray) -> np.ndarray:
    """Phi^{-1} X Phi with the inverse of the whole field."""
    return mm(mm(inv(w.values), x), w.values)


def tangent_check_whole(f: MatrixField, w: WaveField, a: MatrixField, b: MatrixField) -> float:
    """`solsurf.fields.tangent_defect` of ``f`` against the surface tangents
    of (a, b), `solsurf.immersion.pulled_back`, with every temporary
    at full size and the whole field's inverse."""
    d1f, d2f, dmargin = chart_first_derivatives(f)
    margin = max(dmargin, a.margin, b.margin, w.margin)
    d1f -= conjugate_whole(w, a.values)
    d2f -= conjugate_whole(w, b.values)
    return max(interior_max(fro(d1f), margin), interior_max(fro(d2f), margin))


def commutation_defect_whole(prw: Sequence[MatrixField]) -> float:
    """Max over both directions of || D_alpha(pr w_Q G) - pr w_Q(D_alpha G) ||
    of one prolonged jet set (pr w_Q G, pr w_Q(D_1 G), pr w_Q(D_2 G)), by
    stencils on the whole field, each direction over its own margin: the
    appendix's check as `solsurf.fields.tangent_defect` forms it by strips."""
    prw_g, *prw_dg = prw
    d1_prw, d2_prw, dmargin = chart_first_derivatives(prw_g)
    return max(
        interior_max(fro(side1 - side2.values), max(dmargin, side2.margin))
        for side1, side2 in zip((d1_prw, d2_prw), prw_dg)
    )


def linear_independence_whole(a: MatrixField, b: MatrixField, w: WaveField) -> dict[str, float]:
    """`solsurf.immersion.linear_independence_report` with every temporary at full size."""
    m = max(a.margin, b.margin, w.margin)
    t1, t2 = conjugate_whole(w, a.values), conjugate_whole(w, b.values)
    g11, g12, g22 = inner(t1, t1), inner(t1, t2), inner(t2, t2)
    tr_half = 0.5 * (g11 + g22)
    disc = np.sqrt(np.maximum(0.25 * (g11 - g22) ** 2 + g12**2, 0.0))
    lo, hi = interior(tr_half - disc, m), interior(tr_half + disc, m)
    return {
        "min_eigenvalue": float(np.fmin.reduce(lo, axis=None)),
        "max_min_eigenvalue": float(np.fmax.reduce(lo, axis=None)),
        "max_eigenvalue": float(np.fmax.reduce(hi, axis=None)),
    }


def wave_diagnostics_whole(w: WaveField) -> dict[str, float]:
    """`solsurf.spectral.wave_diagnostics` with every temporary at full size."""
    phi = w.values
    det_phi = det(phi)
    unit = fro(mm(dagger(phi), phi) - identity(w.n))
    if w.n == 2:
        cond = _cond2(phi, det_phi)
    else:
        ok = np.isfinite(phi).all(axis=(0, 1))
        cond = np.full(ok.shape, np.nan)
        if np.any(ok):
            cond[ok] = np.linalg.cond(np.moveaxis(phi[:, :, ok], -1, 0))
    m = w.margin
    return {
        "min_abs_det": float(np.fmin.reduce(np.abs(interior(det_phi, m)), axis=None)),
        "max_condition": float(np.fmax.reduce(interior(cond, m), axis=None)),
        "max_unitarity_defect": interior_max(unit, m),
    }


def spectral_tangents_whole(
    j: JetField, lam: complex, a_coeffs: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """The spectral term a(lam) d(u)/d(lam) of `solsurf.immersion.assemble_tangents`,
    added to the zero pair on the whole grid."""
    a = polyval(a_coeffs, lam)
    du1, du2 = u_dlambda_whole(j, lam)
    a_vals, b_vals = np.zeros(j.values.shape, dtype=complex), np.zeros(j.values.shape, dtype=complex)
    a_vals += a * du1
    b_vals += a * du2
    return a_vals, b_vals


def assemble_tangents_whole(
    j: JetField,
    lam: complex,
    a_coeffs: tuple[float, ...],
    gauge: MatrixField,
    prw_u: tuple[MatrixField, MatrixField],
) -> tuple[MatrixField, MatrixField]:
    """`solsurf.immersion.assemble_tangents` with all three terms, each
    added to the whole pair in turn: the spectral term, then D S by the
    whole-field stencils and [S, u] of the whole connection pair, then
    ``prw_u``."""
    a_vals, b_vals = spectral_tangents_whole(j, lam, a_coeffs)
    d1s, d2s, smargin = chart_first_derivatives(gauge)
    u1, u2 = u_pair_whole(j, lam)
    a_vals += d1s
    a_vals += commutator(gauge.values, u1)
    b_vals += d2s
    b_vals += commutator(gauge.values, u2)
    a_vals += prw_u[0].values
    b_vals += prw_u[1].values
    margin = max(j.margin1, smargin, prw_u[0].margin, prw_u[1].margin)
    return MatrixField(j.grid, a_vals, margin), MatrixField(j.grid, b_vals, margin)


def sym_tafel_traveling_whole(
    wave: TravelingWave, j: JetField, w: WaveField, a_value: complex
) -> np.ndarray:
    """F = a Phi^{-1} dPhi/dlam of the traveling wave, with
    dPhi/dlam = 2 (d chi/d lambda) [theta_1, theta] Phi, on the whole grid."""
    dphi = 2.0 * wave.dlambda_chi(w.lam) * mm(commutator(j.d1, j.values), w.values)
    raw = mm(inv(w.values), dphi)
    raw *= a_value
    return raw


def su_projected_whole(f: MatrixField) -> tuple[MatrixField, float]:
    """The strips of `solsurf.immersion.su_measured` with ``project`` and its
    correction, with every temporary at full size."""
    finite = np.isfinite(f.values)
    su_part, defect = project_su(np.where(finite, f.values, 0.0))
    vals = np.where(finite, su_part, np.nan + 0j)
    corr = interior_max(np.where(np.isfinite(fro(f.values)), defect, np.nan), f.margin)
    return MatrixField(f.grid, vals, f.margin), corr


def integrated_surface_whole(
    a: MatrixField, b: MatrixField, w: WaveField
) -> tuple[np.ndarray, float]:
    """The raw surface and the path defect that
    `solsurf.immersion.integrate_surface` returns, from its basepoint
    (m, m), with both integration orders formed on the whole grid at once."""
    m = max(a.margin, b.margin, w.margin)
    at, bt = conjugate_whole(w, a.values), conjugate_whole(w, b.values)
    gx, gy = (at + bt, 1j * (at - bt)) if a.grid.chart == CHART_EUCLIDEAN else (at, bt)
    ia = cumulative_line_integral(interior(gx, m), a.grid.h1, axis=-1)
    ia = ia - ia[..., :1]
    ib = cumulative_line_integral(interior(gy, m), a.grid.h2, axis=-2)
    ib = ib - ib[..., :1, :]
    f_12 = ia[..., :1, :] + ib
    f_21 = ib[..., :1] + ia
    f_full = np.full_like(at, np.nan)
    interior(f_full, m)[...] = f_12
    return f_full, float(np.nanmax(fro(f_12 - f_21)))


def integrate_surface_two_buffers(da: MatrixField, db: MatrixField) -> tuple[np.ndarray, float]:
    """`solsurf.immersion.integrate_surface` as it held both line integrals
    whole beside the output: the x1 and the x2 integral each in its own
    array, the surface their sum."""
    grid = da.grid
    m = max(da.margin, db.margin)
    at, bt = da.values, db.values
    gx, gy = (at + bt, 1j * (at - bt)) if grid.chart == CHART_EUCLIDEAN else (at, bt)
    ia = cumulative_line_integral(interior(gx, m), grid.h1, axis=-1)
    ib = cumulative_line_integral(interior(gy, m), grid.h2, axis=-2)
    f_full = np.full(at.shape, np.nan + 0j)
    f_12 = interior(f_full, m)
    np.add(ia[..., 0:1, :], ib, out=f_12)
    gap = fro(f_12 - (ib[..., 0:1] + ia))
    return f_full, float(np.fmax.reduce(gap, axis=None))


def compatibility_defect_whole(
    a: MatrixField, b: MatrixField, u1: MatrixField, u2: MatrixField
) -> float:
    """`solsurf.symmetry.compatibility_defect` with every temporary at full size."""
    da = chart_first_derivatives(a)
    db = chart_first_derivatives(b)
    res = da[1] - db[0] + commutator(a.values, u2.values) + commutator(u1.values, b.values)
    return interior_max(fro(res), max(da[2], db[2], u1.margin, u2.margin))


# --- one-shot text exports ---------------------------------------------------------


def _finite_or_none(a: np.ndarray) -> list:
    return [x if math.isfinite(x) else None for x in a.reshape(-1).tolist()]


def write_field_json_whole(path: str, f: MatrixField, lam: complex | None = None) -> None:
    """`solsurf.fields.write_field_json` as one ``json.dumps`` of the whole field."""
    values = f.values.transpose(2, 3, 0, 1)
    obj: dict = {
        "format": FIELD_FORMAT,
        "grid": f.grid.to_json(),
        "n": f.n,
        "margin": f.margin,
        "re": _finite_or_none(values.real),
        "im": _finite_or_none(values.imag),
    }
    if lam is not None:
        obj["lambda"] = [float(np.real(lam)), float(np.imag(lam))]
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def write_scalar_csv_whole(path: str, grid: Grid2, scalar: np.ndarray, margin: int = 0) -> None:
    """`solsurf.fields.write_scalar_csv` as one ``%`` pass over every node."""
    x1, x2 = grid.mesh()
    inner = (slice(margin, grid.n2 - margin), slice(margin, grid.n1 - margin))
    rows = np.stack([x1[inner], x2[inner], np.real(scalar[inner])], axis=-1)
    body = ("%.17g,%.17g,%.17g\n" * (rows.size // 3)) % tuple(rows.reshape(-1).tolist())
    with open(path, "w") as fh:
        fh.write("x1,x2,value\n" + body)


def export_obj_whole(path: str, points: np.ndarray) -> None:
    """`solsurf.geometry.export_obj` as one ``%`` pass over every vertex and face."""
    n2, n1 = points.shape[:2]
    verts = ("v %.17g %.17g %.17g\n" * (n2 * n1)) % tuple(points.reshape(-1).tolist())
    a = (np.arange(n2 - 1)[:, None] * n1 + np.arange(n1 - 1)[None, :] + 1).reshape(-1)
    quads = np.stack([a, a + 1, a + n1 + 1, a, a + n1 + 1, a + n1], axis=-1)
    faces = ("f %d %d %d\nf %d %d %d\n" * a.size) % tuple(quads.reshape(-1).tolist())
    with open(path, "w") as fh:
        fh.write(verts + faces)


def write_field_savez(path: str, f: MatrixField, lam: complex | None = None) -> None:
    """`solsurf.fields.write_field` as one ``np.savez`` of the node-major values."""
    arrays = {
        "format": np.array(FIELD_FORMAT),
        "grid": np.array(json.dumps(f.grid.to_json(), sort_keys=True)),
        "margin": np.array(f.margin),
        "values": np.asarray(f.values, dtype=complex).transpose(2, 3, 0, 1),
    }
    if lam is not None:
        arrays["lambda"] = np.array(complex(lam))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


# --- whole-grid jet kernels ------------------------------------------------------------
#
# Scalar factors are applied in place, as in the package: numpy evaluates
# ``c * tmp`` as ``tmp *= c`` for temporaries of 256 KiB or more, and
# complex products round c*a and a*c differently.


def u_pair_whole(j: JetField, lam: complex) -> tuple[np.ndarray, np.ndarray]:
    """`solsurf.sigma.u_pair` on the whole grid."""
    lam = check_lambda(lam)
    u1 = commutator(j.d1, j.values)
    u1 *= -2.0 / (1.0 + lam)
    u2 = commutator(j.d2, j.values)
    u2 *= -2.0 / (1.0 - lam)
    return u1, u2


def u_dlambda_whole(j: JetField, lam: complex) -> tuple[np.ndarray, np.ndarray]:
    """The spectral-parameter derivative of the connection pair, which
    `solsurf.immersion.assemble_tangents` forms one strip at a time, on the
    whole grid."""
    lam = check_lambda(lam)
    v1 = commutator(j.d1, j.values)
    v1 *= 2.0 / (1 + lam) ** 2
    v2 = commutator(j.d2, j.values)
    v2 *= -2.0 / (1 - lam) ** 2
    return v1, v2


class _WholeStrip(JetField):
    def map_rows(self, kernel):
        return list(kernel(self.rows(slice(None))))


def whole_strip(j: JetField) -> JetField:
    """The jets ``j`` with a `JetField.map_rows` that runs its kernel once,
    on the whole grid as one strip (``j.rows(slice(None))``), and returns
    the kernel's outputs: the package's own route with no strip boundary."""
    return _WholeStrip(**{f.name: getattr(j, f.name) for f in dataclasses.fields(j)})


def u_derivatives_whole(j: JetField, lam: complex, index: int) -> tuple[np.ndarray, np.ndarray]:
    """(D_1 u_index, D_2 u_index) of `solsurf.symmetry.u_jets_functional`
    on the whole grid, written out as commutators of the jets."""
    lam = check_lambda(lam)
    c = -2 / (1 + lam) if index == 1 else -2 / (1 - lam)
    jr = j.rows(slice(None))  # forms the whole second jets once
    if index == 1:
        v1 = commutator(jr.d11, j.values)
        v2 = commutator(jr.d12, j.values) + commutator(j.d1, j.d2)
    else:
        v1 = commutator(jr.d12, j.values) + commutator(j.d2, j.d1)
        v2 = commutator(jr.d22, j.values)
    v1 *= c
    v2 *= c
    return v1, v2


def _lowered_whole(p, d1p, d2p, message):
    d2p_p = mm(d2p, p)
    num = mm(d2p_p, d1p)
    den = trace(num)
    with np.errstate(invalid="ignore"):
        bad = ~(np.abs(den) > 1e-300)
    if bad.all():
        raise DeformationOutOfDomain(message)
    with np.errstate(invalid="ignore", divide="ignore"):
        deninv = np.where(bad, np.nan, 1.0 / np.where(bad, 1.0, den))
    return num * deninv, d2p_p, num, deninv


def lowered_rung_with_jets_whole(j: JetField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """L(P) and (D_1 L(P), D_2 L(P)) by the quotient rule, on the whole grid."""
    p, d1p, d2p = projector(j), -1j * j.d1, -1j * j.d2
    r, d2p_p, num, deninv = _lowered_whole(p, d1p, d2p, "lowering denominator vanished everywhere")

    def derivative(dp, theta_a2, theta_a1):
        inner = -1j * mm(theta_a2, p) + mm(d2p, dp)
        dnum = mm(inner, d1p) + -1j * mm(d2p_p, theta_a1)
        dden = trace(dnum) * deninv**2
        return dnum * deninv - num * dden

    jr = j.rows(slice(None))
    return r, derivative(d1p, jr.d12, jr.d11), derivative(d2p, jr.d22, jr.d12)


def lowered_rungs_whole(j: JetField, k: int) -> list[np.ndarray]:
    """L(P) .. L^k(P) (k <= 2) on the whole grid."""
    if k == 0:
        return []
    if k == 1:
        first = "lowering denominator vanished everywhere"
        return [_lowered_whole(projector(j), -1j * j.d1, -1j * j.d2, first)[0]]
    r1, d1r1, d2r1 = lowered_rung_with_jets_whole(j)
    r2 = _lowered_whole(r1, d1r1, d2r1, "second lowering denominator vanished everywhere")[0]
    return [r1, r2]


def _wave_terms_whole(
    j: JetField, k: int, ladder: list[MatrixField] | None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """P and L(P) .. L^k(P): lowered from the jets up to k = 2, the
    ``ladder`` rung projectors above."""
    if k > 2 and ladder is not None:
        return ladder[k].values, [r.values for r in ladder[:k]]
    return projector(j), lowered_rungs_whole(j, k)


def euclidean_wave_whole(
    j: JetField, k: int, lam: complex, ladder: list[MatrixField] | None = None
) -> np.ndarray:
    """Phi = I + beta P + c (L(P) + ... + L^k(P)) on the whole grid."""
    c, beta = euclidean_wave_coefficients(lam)
    p, rungs = _wave_terms_whole(j, k, ladder)
    phi = identity(j.n) + beta * p
    for rung in rungs:
        phi = phi + c * rung
    return phi


def euclidean_wave_dlambda_whole(
    j: JetField, k: int, lam: complex, ladder: list[MatrixField] | None = None
) -> np.ndarray:
    """d(Phi)/d(lambda) = beta' P + c' (L(P) + ... + L^k(P)) on the whole grid."""
    lam = check_lambda(lam)
    cprime, bprime = 4 * (1 + lam) / (1 - lam) ** 3, -2 / (1 - lam) ** 2
    p, rungs = _wave_terms_whole(j, k, ladder)
    out = bprime * p
    for rung in rungs:
        out = out + cprime * rung
    return out


def phi_traveling_whole(wave: TravelingWave, j: JetField, lam: complex) -> np.ndarray:
    """`solsurf.spectral.phi_traveling` on the whole grid."""
    komm = commutator(j.d1, j.values)
    tail = 2j * j.values - (2 - j.n) * (identity(j.n) / j.n)
    return mm(expm(2.0 * wave.chi(check_lambda(lam)) * komm), tail)


@np.errstate(over="ignore", invalid="ignore")
def traveling_jets_whole(kappa: float, omega: float, grid: Grid2) -> tuple[np.ndarray, ...]:
    """theta, D_1 theta, D_2 theta, D_11 theta, D_12 theta and D_22 theta of
    `solsurf.sigma.traveling_solution`, each formed in closed form on the
    whole grid at once."""
    x1, x2 = grid.mesh()
    phase = 2 * omega * (x1 + kappa * x2)
    c, sn = np.cos(phase), np.sin(phase)
    theta = 0.5j * np.array([[c, sn], [sn, -c]])
    dtheta = 1j * omega * np.array([[-sn, c], [c, sn]])
    ddtheta = -4.0 * omega * omega * theta
    return theta, dtheta, kappa * dtheta, ddtheta, kappa * ddtheta, kappa * kappa * ddtheta
