"""Grids, matrix-valued fields, stencil calculus and line integration.

A field stores its values on the full grid together with a ``margin``: the
number of boundary layers whose values are not trusted (stencils that do
not fit are never evaluated one-sidedly; those nodes hold NaN).  Every
derivative widens the margin, every residual is reduced over the interior
that its margin defines.

A field together with its chart derivatives is a `JetField`: a
`MatrixField` that also carries D_1, D_2 and, built on first read, the
three second derivatives, each order with its own margin.  theta, a
symmetry characteristic Q, a Veronese projector rung, the traveling wave
and every deformation theta + eps Q are all `JetField`s; `chart_jets`
makes one from any field by stencils.

Axis convention: a matrix field is a (n, n, n2, n1) array, matrix axes
first (see :mod:`solsurf.matlie`), and a scalar field a (n2, n1) array, so
axis -1 runs along the first grid coordinate and axis -2 along the second.
Field files keep the node-major (n2, n1, n, n) order.  On the Euclidean
chart the grid axes are the real and imaginary parts of a complex
coordinate xi, and the abstract derivative pair is D1 = (d/dx - i d/dy)/2,
D2 = (d/dx + i d/dy)/2.  On the Minkowski chart the axes are the two
lightcone coordinates themselves and D1, D2 are the plain axis derivatives.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import FieldFileError, MarginExhausted

__all__ = [
    "CHART_EUCLIDEAN",
    "CHART_MINKOWSKI",
    "FIELD_FORMAT",
    "Grid2",
    "GridMismatch",
    "JetField",
    "MatrixField",
    "cumulative_line_integral",
    "diff1",
    "diff2",
    "interior",
    "interior_max",
    "read_field",
    "write_field",
    "write_field_json",
    "write_scalar_csv",
]

CHART_EUCLIDEAN = "euclidean-complex"
CHART_MINKOWSKI = "minkowski-lightcone"


class GridMismatch(ValueError):
    """Fields live on different grids."""


@dataclass(frozen=True)
class Grid2:
    """Uniform 2D grid for one of the two charts."""

    chart: str
    origin: tuple[float, float] = (0.0, 0.0)
    spacing: tuple[float, float] = (0.05, 0.05)
    dims: tuple[int, int] = (101, 101)

    def __post_init__(self) -> None:
        if self.chart not in (CHART_EUCLIDEAN, CHART_MINKOWSKI):
            raise ValueError(f"unknown chart {self.chart!r}")
        if self.dims[0] < 9 or self.dims[1] < 9:
            raise ValueError("grid needs at least 9 nodes per axis")
        if self.spacing[0] <= 0 or self.spacing[1] <= 0:
            raise ValueError("grid spacing must be positive")
        # the second-derivative stencils divide by 12 h^2
        if not all(12 * h * h > 0 and math.isfinite(1 / (12 * h * h)) for h in self.spacing):
            raise ValueError(f"grid.spacing {list(self.spacing)} leaves 1/(12 h^2) non-finite")
        half = ((self.n1 - 1) / 2 * self.h1, (self.n2 - 1) / 2 * self.h2)
        if not all(math.isfinite(abs(c) + w) for c, w in zip(self.origin, half)):
            raise ValueError("grid extends beyond the float range")

    @property
    def n1(self) -> int:
        return self.dims[0]

    @property
    def n2(self) -> int:
        return self.dims[1]

    @property
    def h1(self) -> float:
        return self.spacing[0]

    @property
    def h2(self) -> float:
        return self.spacing[1]

    def axis1(self) -> np.ndarray:
        c, half = self.origin[0], (self.n1 - 1) / 2 * self.h1
        return np.linspace(c - half, c + half, self.n1)

    def axis2(self) -> np.ndarray:
        c, half = self.origin[1], (self.n2 - 1) / 2 * self.h2
        return np.linspace(c - half, c + half, self.n2)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(X1, X2) arrays of shape (n2, n1)."""
        return np.meshgrid(self.axis1(), self.axis2())

    def xi(self) -> np.ndarray:
        """Complex coordinate x + i y (Euclidean chart only)."""
        if self.chart != CHART_EUCLIDEAN:
            raise ValueError("xi() is defined on the euclidean-complex chart")
        x, y = self.mesh()
        return x + 1j * y

    def coord1(self) -> np.ndarray:
        """First abstract coordinate as a field: xi on Euclidean, x1 on Minkowski."""
        if self.chart == CHART_EUCLIDEAN:
            return self.xi()
        return self.mesh()[0].astype(complex)

    def coord2(self) -> np.ndarray:
        """Second abstract coordinate: conj(xi) on Euclidean, x2 on Minkowski."""
        if self.chart == CHART_EUCLIDEAN:
            return np.conj(self.xi())
        return self.mesh()[1].astype(complex)

    def to_json(self) -> dict:
        return {
            "chart": self.chart,
            "origin": [self.origin[0], self.origin[1]],
            "spacing": [self.h1, self.h2],
            "dims": [self.n1, self.n2],
        }

    @staticmethod
    def from_json(obj: dict) -> "Grid2":
        return Grid2(
            chart=obj["chart"],
            origin=(float(obj["origin"][0]), float(obj["origin"][1])),
            spacing=(float(obj["spacing"][0]), float(obj["spacing"][1])),
            dims=(int(obj["dims"][0]), int(obj["dims"][1])),
        )


@dataclass(frozen=True)
class MatrixField:
    """Matrix-valued field: values (n, n, n2, n1) plus a trust margin."""

    grid: Grid2
    values: np.ndarray
    margin: int = 0

    def __post_init__(self) -> None:
        v = self.values
        if v.ndim != 4 or v.shape[2:] != (self.grid.n2, self.grid.n1):
            raise ValueError(f"field shape {v.shape} does not match grid {self.grid.dims}")

    @property
    def n(self) -> int:
        return self.values.shape[0]


def trim_margin(f: MatrixField) -> MatrixField:
    """Drop the untrusted boundary layers, shrinking the grid symmetrically."""
    m = f.margin
    if m == 0:
        return f
    if 2 * m >= min(f.grid.n1, f.grid.n2) - 8:
        raise ValueError("margin too large to trim")
    grid = Grid2(
        chart=f.grid.chart,
        origin=f.grid.origin,
        spacing=f.grid.spacing,
        dims=(f.grid.n1 - 2 * m, f.grid.n2 - 2 * m),
    )
    return MatrixField(grid, interior(f.values, m), 0)


def same_grid(*fields: MatrixField) -> Grid2:
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridMismatch("fields on different grids")
    return g


def interior(x: np.ndarray, margin: int) -> np.ndarray:
    """The nodes of ``x`` inside ``margin`` boundary layers on both grid
    axes (its last two), as a view; raises `MarginExhausted` if none is left."""
    inner = x[..., margin:-margin, margin:-margin] if margin else x
    if inner.size == 0:
        raise MarginExhausted("the stencil margins leave no interior node")
    return inner


def interior_max(scalar: np.ndarray, margin: int) -> float:
    """Max of |scalar| over the interior; NaN-nodes are ignored."""
    return float(np.nanmax(np.abs(interior(np.asarray(scalar), margin))))


def _shift_slices(ndim: int, axis: int, k: int) -> tuple[slice, ...]:
    sl = [slice(None)] * ndim
    hi = None if k == 2 else k - 2
    sl[axis] = slice(2 + k, hi)
    return tuple(sl)


@np.errstate(over="ignore", invalid="ignore")
def diff1(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Fourth-order central first derivative; NaN on the outer 2 layers, non-finite on overflow."""
    out = np.full_like(values, np.nan, dtype=complex)
    core = [slice(None)] * values.ndim
    core[axis] = slice(2, -2)
    s = lambda k: _shift_slices(values.ndim, axis, k)  # noqa: E731
    out[tuple(core)] = (
        -values[s(2)] + 8 * values[s(1)] - 8 * values[s(-1)] + values[s(-2)]
    ) / (12 * h)
    return out


def diff2(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Fourth-order central second derivative; outermost 2 layers become NaN."""
    out = np.full_like(values, np.nan, dtype=complex)
    core = [slice(None)] * values.ndim
    core[axis] = slice(2, -2)
    s = lambda k: _shift_slices(values.ndim, axis, k)  # noqa: E731
    out[tuple(core)] = (
        -values[s(2)]
        + 16 * values[s(1)]
        - 30 * values[s(0)]
        + 16 * values[s(-1)]
        - values[s(-2)]
    ) / (12 * h * h)
    return out


@dataclass(frozen=True, kw_only=True)
class JetField(MatrixField):
    """A field with its chart derivatives up to second order.

    The values and ``margin`` are those of the field itself; ``margin1``
    bounds the trusted region of d1/d2, ``margin2`` that of the
    second-order set (the mixed real-axis stencil is a composition, hence
    the doubled margin).  d1 and d2 are stored; d11, d12 and d22 come from
    ``second``, a zero-argument callable that runs at most once, on first
    read, so a consumer that reads only the first-order jets never pays
    for the second-order stencils.
    """

    d1: np.ndarray
    d2: np.ndarray
    second: Callable[[], tuple[np.ndarray, np.ndarray, np.ndarray]]
    margin1: int
    margin2: int

    @cached_property
    def _second_jets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.second()

    @property
    def d11(self) -> np.ndarray:
        return self._second_jets[0]

    @property
    def d12(self) -> np.ndarray:
        return self._second_jets[1]

    @property
    def d22(self) -> np.ndarray:
        return self._second_jets[2]

    def deformed(self, eps: float, q_jets: "JetField") -> "JetField":
        """The field + eps*q with its jets shifted by eps times the jets of q.

        Derivatives are linear, so the jets of the deformed field are the
        jets of this field plus eps times those of q; sharing one jet set
        of q across all evaluations keeps difference quotients
        cancellation free.  The second-order shifts are formed only if the
        deformed field's second jets are read.
        """
        return JetField(
            grid=self.grid,
            values=self.values + eps * q_jets.values,
            margin=max(self.margin, q_jets.margin),
            d1=self.d1 + eps * q_jets.d1,
            d2=self.d2 + eps * q_jets.d2,
            second=lambda: (
                self.d11 + eps * q_jets.d11,
                self.d12 + eps * q_jets.d12,
                self.d22 + eps * q_jets.d22,
            ),
            margin1=max(self.margin1, q_jets.margin1),
            margin2=max(self.margin2, q_jets.margin2),
        )


def chart_first_derivatives(f: MatrixField) -> tuple[np.ndarray, np.ndarray, int]:
    g = f.grid
    dx = diff1(f.values, g.h1, axis=-1)
    dy = diff1(f.values, g.h2, axis=-2)
    if g.chart == CHART_EUCLIDEAN:
        return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy), f.margin + 2
    return dx, dy, f.margin + 2


def chart_jets(f: MatrixField) -> JetField:
    """``f`` with all its derivatives up to second order by 4th-order stencils.

    The first-order pair is computed here; the second-order set runs its
    stencils when first read.
    """
    d1, d2, margin1 = chart_first_derivatives(f)
    return JetField(
        grid=f.grid,
        values=f.values,
        margin=f.margin,
        d1=d1,
        d2=d2,
        second=lambda: _chart_second_derivatives(f),
        margin1=margin1,
        margin2=f.margin + 4,
    )


def _chart_second_derivatives(f: MatrixField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    g = f.grid
    dxx = diff2(f.values, g.h1, axis=-1)
    dyy = diff2(f.values, g.h2, axis=-2)
    # the x-derivative is recomputed rather than kept from the first-order
    # pass, so no stencil temporary outlives the call that made it
    dxy = diff1(diff1(f.values, g.h1, axis=-1), g.h2, axis=-2)
    if g.chart == CHART_EUCLIDEAN:
        return (
            0.25 * (dxx - dyy - 2j * dxy),
            0.25 * (dxx + dyy),
            0.25 * (dxx - dyy + 2j * dxy),
        )
    return dxx, dxy, dyy


# --- cumulative line integration -------------------------------------------
#
# Composite Simpson with a 3/8 closure for odd prefixes and a one-sided
# cubic panel for the first interval: every prefix integral is 4th-order
# accurate, which lets surfaces be integrated to every grid node.


def _cum_1d(f: np.ndarray, h: float) -> np.ndarray:
    n = f.shape[0]
    if n < 4:
        raise ValueError("cumulative integration needs at least 4 nodes")
    out = np.zeros_like(f)
    out[1] = h / 24.0 * (9 * f[0] + 19 * f[1] - 5 * f[2] + f[3])
    if n > 2:
        out[2] = h / 3.0 * (f[0] + 4 * f[1] + f[2])
    for j in range(3, n):
        if j % 2 == 0:
            out[j] = out[j - 2] + h / 3.0 * (f[j - 2] + 4 * f[j - 1] + f[j])
        else:
            out[j] = out[j - 3] + 3 * h / 8.0 * (
                f[j - 3] + 3 * f[j - 2] + 3 * f[j - 1] + f[j]
            )
    return out


def cumulative_line_integral(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Antiderivative along one grid axis, zero at index 0 of that axis."""
    moved = np.moveaxis(values, axis, 0)
    res = _cum_1d(moved, h)
    return np.moveaxis(res, 0, axis)


# --- field files ---------------------------------------------------------------
#
# The native format is an uncompressed ``.npz`` holding the values, the
# margin, the grid and (when set) the spectral parameter, so a field reads
# back bit-exactly with the margin it was written with.  JSON is an export
# format of the same content, with the values as flat row-major re/im lists.

FIELD_FORMAT = "solsurf-field/1"


def write_field(path: str, f: MatrixField, lam: complex | None = None) -> None:
    """Native field file: ``values``, ``margin``, ``grid`` (JSON text),
    ``format`` and, when given, ``lambda``."""
    arrays = {
        "format": np.array(FIELD_FORMAT),
        "grid": np.array(json.dumps(f.grid.to_json(), sort_keys=True)),
        "margin": np.array(f.margin),
        # np.savez streams the transposed view without a full copy
        "values": _file_order(np.asarray(f.values, dtype=complex)),
    }
    if lam is not None:
        arrays["lambda"] = np.array(complex(lam))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def read_field(path: str) -> tuple[MatrixField, complex | None]:
    """Read a native ``.npz`` field or a ``.json`` export of one.

    Raises `FieldFileError` for content that is not such a file (including
    the old one-object-per-node JSON layout) and `OSError` when the file
    cannot be opened.
    """
    import zipfile

    if path.endswith(".json"):
        return _read_field_export(path)
    if not path.endswith(".npz"):
        raise FieldFileError(f"{path!r}: field files end in .npz (native) or .json (export)")
    try:
        with np.load(path, allow_pickle=False) as z:
            stored = {key: z[key] for key in z.files}
    except (EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise FieldFileError(f"{path!r}: not an .npz file: {exc}") from exc
    if str(stored.get("format")) != FIELD_FORMAT:
        raise FieldFileError(f"{path!r}: not a {FIELD_FORMAT} file")
    try:
        grid = Grid2.from_json(json.loads(str(stored["grid"])))
        values = np.ascontiguousarray(_file_order(stored.pop("values")))
        field = MatrixField(grid, values, int(stored["margin"]))
        lam = complex(stored["lambda"]) if "lambda" in stored else None
    except (KeyError, TypeError, ValueError) as exc:
        raise FieldFileError(f"{path!r}: malformed field file: {exc}") from exc
    return field, lam


def write_field_json(path: str, f: MatrixField, lam: complex | None = None) -> None:
    """JSON export: the grid, ``n``, ``margin`` and the values as flat
    row-major ``re``/``im`` lists, non-finite entries as null."""
    values = _file_order(np.asarray(f.values, dtype=complex))
    obj: dict = {
        "format": FIELD_FORMAT,
        "grid": f.grid.to_json(),
        "n": f.n,
        "margin": f.margin,
        "re": _finite_list(values.real),
        "im": _finite_list(values.imag),
    }
    if lam is not None:
        obj["lambda"] = [float(np.real(lam)), float(np.imag(lam))]
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _file_order(values: np.ndarray) -> np.ndarray:
    """In-memory (n, n, n2, n1) values as the files' node-major (n2, n1, n, n)
    view, and back: the only place the matrix axes change places."""
    return values.transpose(2, 3, 0, 1)


def _finite_list(a: np.ndarray) -> list:
    out = a.reshape(-1).tolist()
    for i in np.flatnonzero(~np.isfinite(a)).tolist():
        out[i] = None
    return out


def _read_field_export(path: str) -> tuple[MatrixField, complex | None]:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise FieldFileError(f"{path!r}: not JSON: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("format") != FIELD_FORMAT:
        raise FieldFileError(
            f"{path!r}: not a {FIELD_FORMAT} JSON export "
            "(the old one-object-per-node layout is not read)"
        )
    try:
        grid = Grid2.from_json(obj["grid"])
        n = int(obj["n"])
        values = np.empty((n, n, grid.n2, grid.n1), dtype=complex)
        stored = _file_order(values)
        # null entries become NaN
        stored.real = np.array(obj["re"], dtype=float).reshape(stored.shape)
        stored.imag = np.array(obj["im"], dtype=float).reshape(stored.shape)
        field = MatrixField(grid, values, int(obj["margin"]))
        lam = complex(*obj["lambda"]) if "lambda" in obj else None
    except (KeyError, TypeError, ValueError) as exc:
        raise FieldFileError(f"{path!r}: malformed field export: {exc}") from exc
    return field, lam


def write_scalar_csv(path: str, grid: Grid2, scalar: np.ndarray, margin: int = 0) -> None:
    """Interior nodes as rows ``x1,x2,value`` (17 significant digits)."""
    x1, x2 = grid.mesh()
    inner = (slice(margin, grid.n2 - margin), slice(margin, grid.n1 - margin))
    rows = np.stack([x1[inner], x2[inner], np.real(scalar[inner])], axis=-1)
    body = ("%.17g,%.17g,%.17g\n" * (rows.size // 3)) % tuple(rows.reshape(-1).tolist())
    with open(path, "w") as fh:
        fh.write("x1,x2,value\n" + body)
