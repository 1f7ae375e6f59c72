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
* the prolongation of many functionals from two shared deformations,
  each functional evaluated on both, against `frechet_apply`, which
  deforms once per functional and side;
* the su(N) projection, the integrated surface with its path defect and
  the compatibility defect, each formed on the whole grid at once, against
  the row strips that :mod:`solsurf.immersion` and
  :mod:`solsurf.symmetry` reduce;
* the JSON, CSV and OBJ exports, each formatted as one string of the
  whole field, against the writers that stream them one strip of grid
  rows at a time.
"""

from __future__ import annotations

import json
import math
from typing import Callable

import numpy as np

from solsurf.errors import ChartMismatch
from solsurf.fields import (
    CHART_EUCLIDEAN,
    FIELD_FORMAT,
    Grid2,
    MatrixField,
    chart_first_derivatives,
    chart_jets,
    cumulative_line_integral,
    interior,
    interior_max,
)
from solsurf.matlie import commutator, constant, dagger, fro, mm, project_su, trace
from solsurf.sigma import JetField, SolutionLadder, u_pair
from solsurf.spectral import WaveField
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


def bare(f: MatrixField) -> MatrixField:
    """``f`` without the jets it may carry, so `theta_of` differentiates it
    with stencils."""
    return MatrixField(f.grid, f.values, f.margin)


def _ladder_step(p: MatrixField, up: bool, tol_contract_rel: float) -> MatrixField:
    if p.grid.chart != CHART_EUCLIDEAN:
        raise ChartMismatch("raising/lowering is defined on the euclidean-complex chart")
    if isinstance(p, JetField):
        d1p, d2p, margin = p.d1, p.d2, max(p.margin, p.margin1)
    else:
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
) -> SolutionLadder:
    """Raise until contraction."""
    rungs = [p0]
    while len(rungs) < max_rungs:
        try:
            rungs.append(raise_projector(rungs[-1], tol_contract_rel))
        except ContractedToZero:
            break
    return SolutionLadder(n=p0.n, rungs=rungs)


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


def el_symmetry_defect(
    q: MatrixField,
    j: JetField,
    lam: complex,
    eps_base: float = 1e-5,
) -> float:
    """Zero-curvature defect of the connection pair prolonged along ``q``.

    With Q_alpha = pr w_Q u_alpha this is the compatibility defect of
    (Q_1, Q_2); it vanishes exactly when ``q`` generates a symmetry of the
    equations of motion.
    """
    ((pw1, pw2),) = frechet_apply([u_functional(lam)], j, q, eps_base)
    return compatibility_defect(pw1, pw2, *u_pair(j, lam))


def frechet_apply_shared(
    gs, j: JetField, q: MatrixField, eps_base: float = 1e-5
) -> tuple[tuple[MatrixField, ...], ...]:
    """`solsurf.symmetry.frechet_apply` with the two deformations built once
    and every plus-side output held while the minus side is evaluated."""
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


def su_projected_whole(f: MatrixField) -> tuple[MatrixField, float]:
    """`solsurf.immersion.su_projected` with every temporary at full size."""
    finite = np.isfinite(f.values)
    su_part, defect = project_su(np.where(finite, f.values, 0.0))
    vals = np.where(finite, su_part, np.nan + 0j)
    corr = interior_max(np.where(np.isfinite(fro(f.values)), defect, np.nan), f.margin)
    return MatrixField(f.grid, vals, f.margin), corr


def integrated_surface_whole(
    a: MatrixField, b: MatrixField, w: WaveField
) -> tuple[np.ndarray, float]:
    """The unprojected surface and the path defect of
    `solsurf.immersion.integrate_surface` from its basepoint (m, m), with
    both integration orders formed on the whole grid at once."""
    m = max(a.margin, b.margin, w.margin)
    at, bt = w.conjugate(a.values), w.conjugate(b.values)
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
