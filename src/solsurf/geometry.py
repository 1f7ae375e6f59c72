"""Inspectable geometry from su(2)-valued surfaces.

su(2) surfaces embed isometrically into R^3 through the orthonormal basis
(i sigma_1, i sigma_2, i sigma_3) of su(2), and the embedded point grid is
written as a triangulated OBJ mesh.
"""

from __future__ import annotations

import numpy as np

from .fields import MatrixField, row_strips

__all__ = [
    "embed_su2",
    "export_obj",
]


def embed_su2(f: MatrixField) -> np.ndarray:
    """Coordinates of F = i(a s1 + b s2 + c s3) in the Pauli-type basis,
    as an (n2, n1, 3) point array over the grid.

    The map is a linear isometry: inner(X, Y) equals the Euclidean dot
    product of the embedded coordinates.
    """
    if f.n != 2:
        raise ValueError("embedding into R^3 requires su(2) fields")
    v = f.values
    a = 0.5 * np.imag(v[0, 1] + v[1, 0])
    b = 0.5 * np.real(v[0, 1] - v[1, 0])
    c = np.imag(v[0, 0])
    return np.stack([a, b, c], axis=-1)


def export_obj(path: str, points: np.ndarray) -> None:
    """Triangulated (n2, n1, 3) point grid as ASCII OBJ: row-major
    vertices, 1-based indices, written one strip of grid rows at a time."""
    n2, n1 = points.shape[:2]
    with open(path, "w") as fh:
        for rows in row_strips(n2):
            block = points[rows].reshape(-1).tolist()
            fh.write(("v %.17g %.17g %.17g\n" * (len(block) // 3)) % tuple(block))
        # quad (a, b, c, d) with a its lower-left vertex splits into (a, b, c), (a, c, d)
        for rows in row_strips(n2 - 1):
            a = (np.arange(n2 - 1)[rows, None] * n1 + np.arange(n1 - 1)[None, :] + 1).reshape(-1)
            quads = np.stack([a, a + 1, a + n1 + 1, a, a + n1 + 1, a + n1], axis=-1)
            fh.write(("f %d %d %d\nf %d %d %d\n" * a.size) % tuple(quads.reshape(-1).tolist()))
