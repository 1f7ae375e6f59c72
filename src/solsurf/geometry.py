"""Inspectable geometry from su(N)-valued surfaces.

su(2) surfaces embed isometrically into R^3 through the orthonormal basis
(i sigma_1, i sigma_2, i sigma_3) of su(2); for larger N only intrinsic
quantities (first fundamental form, Gaussian curvature via the Brioschi
formula) are produced, which avoids choosing a normal frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Grid2, MatrixField, diff1, diff2
from .matlie import det, inner

__all__ = [
    "EmbeddedSurface",
    "embed_su2",
    "export_obj",
    "first_fundamental_form",
    "gauss_curvature",
    "unembed_su2",
]

TOL_METRIC = 1e-8


@dataclass(frozen=True)
class EmbeddedSurface:
    """R^3 point field over the grid, with unit normals where defined."""

    grid: Grid2
    points: np.ndarray
    normals: np.ndarray
    margin: int = 0


def embed_su2(f: MatrixField) -> EmbeddedSurface:
    """Coordinates of F = i(a s1 + b s2 + c s3) in the Pauli-type basis.

    The map is a linear isometry: inner(X, Y) equals the Euclidean dot
    product of the embedded coordinates.
    """
    if f.n != 2:
        raise ValueError("embedding into R^3 requires su(2) fields")
    v = f.values
    a = 0.5 * np.imag(v[..., 0, 1] + v[..., 1, 0])
    b = 0.5 * np.real(v[..., 0, 1] - v[..., 1, 0])
    c = np.imag(v[..., 0, 0])
    points = np.stack([a, b, c], axis=-1)

    t1 = diff1(points, f.grid.h1, axis=1)
    t2 = diff1(points, f.grid.h2, axis=0)
    nrm = np.cross(t1, t2)
    size = np.linalg.norm(nrm, axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        normals = np.where(size > 1e-14, nrm / size, np.nan)
    return EmbeddedSurface(grid=f.grid, points=points, normals=normals, margin=f.margin)


def unembed_su2(grid: Grid2, points: np.ndarray, margin: int = 0) -> MatrixField:
    """Inverse of :func:`embed_su2`."""
    a, b, c = points[..., 0], points[..., 1], points[..., 2]
    vals = np.empty(points.shape[:-1] + (2, 2), dtype=complex)
    vals[..., 0, 0] = 1j * c
    vals[..., 0, 1] = 1j * a + b
    vals[..., 1, 0] = 1j * a - b
    vals[..., 1, 1] = -1j * c
    return MatrixField(grid, vals, margin)


def first_fundamental_form(f: MatrixField) -> tuple[np.ndarray, int]:
    """Metric g[alpha, beta] = inner(D_alpha F, D_beta F) along the grid axes.

    Returns a real (n2, n1, 2, 2) array and its trust margin.  Axis 1 of
    the grid is the first surface coordinate.
    """
    t1 = diff1(f.values, f.grid.h1, axis=1)
    t2 = diff1(f.values, f.grid.h2, axis=0)
    g = np.empty(f.values.shape[:2] + (2, 2), dtype=float)
    g[..., 0, 0] = inner(t1, t1)
    g[..., 0, 1] = inner(t1, t2)
    g[..., 1, 0] = g[..., 0, 1]
    g[..., 1, 1] = inner(t2, t2)
    return g, f.margin + 2


def gauss_curvature(
    grid: Grid2, g: np.ndarray, margin: int, tol_metric: float = TOL_METRIC
) -> tuple[np.ndarray, int]:
    """Gaussian curvature via the Brioschi formula (intrinsic, metric only).

    Nodes where det g falls below ``tol_metric`` are masked with NaN.
    """
    e = g[..., 0, 0]
    fm = g[..., 0, 1]
    gg = g[..., 1, 1]
    h1, h2 = grid.h1, grid.h2

    def du(x: np.ndarray) -> np.ndarray:
        return np.real(diff1(x, h1, axis=1))

    def dv(x: np.ndarray) -> np.ndarray:
        return np.real(diff1(x, h2, axis=0))

    e_u, e_v = du(e), dv(e)
    g_u, g_v = du(gg), dv(gg)
    f_u, f_v = du(fm), dv(fm)
    e_vv = np.real(diff2(e, h2, axis=0))
    g_uu = np.real(diff2(gg, h1, axis=1))
    f_uv = np.real(diff1(du(fm), h2, axis=0))

    m1 = np.empty(e.shape + (3, 3))
    m1[..., 0, 0] = -0.5 * e_vv + f_uv - 0.5 * g_uu
    m1[..., 0, 1] = 0.5 * e_u
    m1[..., 0, 2] = f_u - 0.5 * e_v
    m1[..., 1, 0] = f_v - 0.5 * g_u
    m1[..., 1, 1] = e
    m1[..., 1, 2] = fm
    m1[..., 2, 0] = 0.5 * g_v
    m1[..., 2, 1] = fm
    m1[..., 2, 2] = gg

    m2 = np.empty_like(m1)
    m2[..., 0, 0] = 0.0
    m2[..., 0, 1] = 0.5 * e_v
    m2[..., 0, 2] = 0.5 * g_u
    m2[..., 1, 0] = 0.5 * e_v
    m2[..., 1, 1] = e
    m2[..., 1, 2] = fm
    m2[..., 2, 0] = 0.5 * g_u
    m2[..., 2, 1] = fm
    m2[..., 2, 2] = gg

    det_g = e * gg - fm * fm
    ok = np.isfinite(m1).all(axis=(-1, -2)) & np.isfinite(m2).all(axis=(-1, -2))
    num = np.full(e.shape, np.nan)
    num[ok] = det(m1[ok]) - det(m2[ok])
    with np.errstate(invalid="ignore", divide="ignore"):
        k = np.where(det_g > tol_metric, num / det_g**2, np.nan)
    # the mixed derivative of the metric costs two stencil layers
    return k, margin + 4


def export_obj(path: str, surface: EmbeddedSurface) -> None:
    """Triangulated grid as ASCII OBJ: row-major vertices, 1-based indices."""
    pts = surface.points
    n2, n1 = pts.shape[:2]
    verts = ("v %.17g %.17g %.17g\n" * (n2 * n1)) % tuple(pts.reshape(-1).tolist())
    # quad (a, b, c, d) with a its lower-left vertex splits into (a, b, c), (a, c, d)
    a = (np.arange(n2 - 1)[:, None] * n1 + np.arange(n1 - 1)[None, :] + 1).reshape(-1)
    quads = np.stack([a, a + 1, a + n1 + 1, a, a + n1 + 1, a + n1], axis=-1)
    faces = ("f %d %d %d\nf %d %d %d\n" * a.size) % tuple(quads.reshape(-1).tolist())
    with open(path, "w") as fh:
        fh.write(verts + faces)
