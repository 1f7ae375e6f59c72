"""Grids, matrix-valued fields, stencil calculus and line integration.

A field stores its values on the full grid together with a ``margin``: the
number of boundary layers whose values are not trusted (stencils that do
not fit are never evaluated one-sidedly; those nodes hold NaN).  Every
derivative widens the margin, every residual is reduced over the interior
that its margin defines.  `tangent_defect` checks every D_alpha X = Y_alpha
by strips: a surface against its tangents, pr w G against pr w D_alpha G.

A field together with its chart derivatives is a `JetField`: it forms
its values, D_1 and D_2 (``first(rows)``) and its three second
derivatives (``second(rows)``) on the grid rows asked, each order with
its own margin.  theta of the active Veronese rung or of the traveling
wave and a symmetry characteristic Q are `JetField`s, and so is theta
paired with the jets of Q (`JetField.paired`), whose jets are
`matlie.Dual`s; `chart_jets` makes one from any field by stencils.
Stored jets hand out views of their rows, and the traveling wave forms
its rows from closed forms, so a strip reader never holds its whole jets.

Pointwise kernels of the jets (the connection, the lowering operator,
the wave functions) run one strip of ``STRIP_ROWS`` grid rows at a time:
`JetField.map_rows` hands each strip's `JetRows` to the kernel and writes
its outputs into full-size arrays, so no full-size temporary of the
kernel is built.  A paired field pairs a strip's second jets of theta
with Q's, formed for those rows.  `JetRows.along` pairs a strip's values
and first jets with their total derivative D_1 or D_2, so a kernel of
first jets gives D_alpha of its outputs as tangents.  A scalar factor is
applied in place (``t = commutator(...); t *= c``), never as
``c * commutator(...)``: numpy turns ``c * tmp`` into ``tmp *= c`` for
temporaries of 256 KiB or more, and its fused complex loops round c*a
and a*c differently, so only the in-place form gives the same bits on a
strip as on the whole field.
A field that is only written or reduced need not be held whole: a
`StripSource` forms it one strip at a time, and `write_field` and the
strip-wise reductions read a `MatrixField` through the same ``strip``.

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
import zipfile
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import FieldFileError, MarginExhausted
from .matlie import Dual, fro, lift

__all__ = [
    "CHART_EUCLIDEAN",
    "CHART_MINKOWSKI",
    "FIELD_FORMAT",
    "Grid2",
    "GridMismatch",
    "JetField",
    "JetRows",
    "MatrixField",
    "STRIP_ROWS",
    "StripSource",
    "chart_derivatives",
    "cumulative_line_integral",
    "diff1",
    "diff2",
    "interior",
    "interior_max",
    "read_field",
    "row_strips",
    "rows_filled",
    "strip_derivatives",
    "tangent_defect",
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

    def strip(self, rows: slice) -> np.ndarray:
        """The values on the grid rows ``rows``, as a view: a field is the
        trivial `StripSource`."""
        return self.values[..., rows, :]


@dataclass(frozen=True)
class StripSource:
    """A matrix field that is formed one strip of grid rows at a time and
    never held whole: ``strip(rows)`` forms its (n, n, rows, n1) values on
    the grid rows ``rows``.  A `MatrixField` reads the same way."""

    grid: Grid2
    n: int
    margin: int
    strip: Callable[[slice], np.ndarray]


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


def same_grid(*fields: MatrixField | StripSource) -> Grid2:
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
    """Max of |scalar| over the interior; NaN-nodes are ignored, and the max
    is NaN, quietly, where every node is."""
    return float(np.fmax.reduce(np.abs(interior(np.asarray(scalar), margin)), axis=None))


# Grid rows per strip of the reductions and writers that would otherwise
# build full-size temporaries; they fill a scalar field, or write a file,
# strip by strip
STRIP_ROWS = 16


def row_strips(n_rows: int) -> Iterator[slice]:
    """The rows 0..n_rows in consecutive strips of at most ``STRIP_ROWS``."""
    for start in range(0, n_rows, STRIP_ROWS):
        yield slice(start, min(start + STRIP_ROWS, n_rows))


def rows_filled(
    grid: Grid2, kernel: Callable[[slice], Sequence[np.ndarray]], out: Sequence[np.ndarray] = ()
) -> list[np.ndarray]:
    """``kernel(rows)`` for one strip of grid rows at a time, each array it
    returns (the strip's rows and all columns as its last two axes) written
    into a full-size array of the same leading shape, allocated on the
    first strip; a `Dual` output fills a pair of them.  The first outputs
    go into the arrays ``out`` instead: a kernel may overwrite a field that
    it reads, since a strip's outputs are written once it has returned."""
    outs: list[np.ndarray] = []
    for rows in row_strips(grid.n2):
        parts = kernel(rows)
        if not outs:
            outs = [*out, *(lift(lambda x: np.empty(x.shape[:-2] + (grid.n2, grid.n1), x.dtype), a)
                            for a in parts[len(out):])]
        for dest, part in zip(outs, parts):
            dest[..., rows, :] = part
    return outs


def _stencil_slab(values: np.ndarray, rows: slice) -> tuple[np.ndarray, slice]:
    """The grid rows ``rows`` of ``values`` and the 2 on each side that the
    stencils read for them, clipped to the grid, and where ``rows`` lie in it."""
    start, stop, _ = rows.indices(values.shape[-2])
    lo, hi = max(start - 2, 0), min(stop + 2, values.shape[-2])
    return values[..., lo:hi, :], slice(start - lo, stop - lo)


def strip_derivatives(
    values: np.ndarray, grid: Grid2, rows: slice
) -> tuple[np.ndarray, np.ndarray]:
    """(D_1, D_2) of the field ``values`` on the grid rows ``rows``: the bits
    of the whole-field stencils there, every stencil being local."""
    slab, core = _stencil_slab(values, rows)
    d1, d2 = chart_derivatives(slab, grid)
    return d1[..., core, :], d2[..., core, :]


def tangent_defect(f: MatrixField, d1: MatrixField, d2: MatrixField) -> float:
    """Max over alpha of || D_alpha F - Y_alpha ||, the stencil derivatives of
    ``f`` against (Y_1, Y_2) = (``d1``, ``d2``), one strip of grid rows at a
    time: the stencils read the two rows on each side of the strip."""
    grid = same_grid(f, d1, d2)
    margin = max(f.margin + 2, d1.margin, d2.margin)
    res1, res2 = np.empty((grid.n2, grid.n1)), np.empty((grid.n2, grid.n1))
    for rows in row_strips(grid.n2):
        e1, e2 = strip_derivatives(f.values, grid, rows)
        e1 -= d1.strip(rows)
        e2 -= d2.strip(rows)
        res1[rows], res2[rows] = fro(e1), fro(e2)
    return max(interior_max(res1, margin), interior_max(res2, margin))


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


# The second jets of a field on a strip of grid rows: (d11, d12, d22) on ``rows``
SecondJets = Callable[[slice], tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True, eq=False)
class JetRows:
    """The strip ``rows`` of grid rows of a `JetField`: the values and first
    jets of those rows as views, and their second jets, formed by
    ``second(rows)`` on first read and kept for the strip."""

    rows: slice
    values: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    second: SecondJets

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @cached_property
    def _second_jets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.second(self.rows)

    d11 = property(lambda self: self._second_jets[0])
    d12 = property(lambda self: self._second_jets[1])
    d22 = property(lambda self: self._second_jets[2])

    def along(self, a: int) -> "JetRows":
        """The strip with its values and first jets each paired, as a
        `Dual`, with its total derivative D_a (a = 1, 2), read from the
        first and second jets: a kernel that reads jets up to order 1
        returns D_a of its outputs as their tangents.  Of a paired strip
        the pairs nest.  It carries no second jets."""
        d11, d12, d22 = self._second_jets
        da, da1, da2 = (self.d1, d11, d12) if a == 1 else (self.d2, d12, d22)
        return JetRows(self.rows, Dual(self.values, da), Dual(self.d1, da1),
                       Dual(self.d2, da2), _no_second_jets)


def _no_second_jets(rows: slice):
    raise ValueError("a strip along D_a carries no second jets: their D_a would need third jets")


# The values and first jets of a field on a strip of grid rows: (values, d1, d2) on ``rows``
FirstJets = Callable[[slice], tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True, kw_only=True, eq=False)
class JetField:
    """A matrix field with its chart derivatives up to second order, formed
    on the grid rows asked.

    ``first(rows)`` returns the values, D_1 and D_2 on the rows asked, and
    ``second(rows)`` the second jets (d11, d12, d22).  ``margin`` bounds
    the trusted region of the values, ``margin1`` that of d1/d2,
    ``margin2`` that of the second-order set (the mixed real-axis stencil
    is a composition, hence the doubled margin).  Stored jets
    (`JetField.stored`) hand out views of their rows; the traveling wave
    forms its rows from closed forms.  A strip reader (`rows`, `map_rows`,
    `strip`) forms no whole field; a whole-field reader takes ``values``,
    ``d1`` and ``d2``, formed by ``first(slice(None))`` on the first read
    and kept, and the whole-field second jets from ``rows(slice(None))``,
    which forms all three once.
    """

    grid: Grid2
    n: int
    first: FirstJets
    second: SecondJets
    margin: int = 0
    margin1: int
    margin2: int

    @staticmethod
    def stored(grid: Grid2, values: np.ndarray, d1: np.ndarray, d2: np.ndarray,
               second: SecondJets, *, margin: int = 0, margin1: int, margin2: int) -> "JetField":
        """Jets whose values and first jets are the arrays ``values``, ``d1``
        and ``d2``, each strip a view of their rows."""
        return JetField(
            grid=grid,
            n=values.shape[0],
            first=lambda rows: (values[..., rows, :], d1[..., rows, :], d2[..., rows, :]),
            second=second,
            margin=margin,
            margin1=margin1,
            margin2=margin2,
        )

    @cached_property
    def _whole(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.first(slice(None))

    values = property(lambda self: self._whole[0])
    d1 = property(lambda self: self._whole[1])
    d2 = property(lambda self: self._whole[2])

    def strip(self, rows: slice) -> np.ndarray:
        """The values on the grid rows ``rows``: jets read as the
        `StripSource` of their values."""
        return self.first(rows)[0]

    def rows(self, rows: slice) -> JetRows:
        """The strip ``rows`` of grid rows; its second jets are formed for
        these rows alone, on first read."""
        return JetRows(rows, *self.first(rows), self.second)

    def map_rows(self, kernel: Callable[[JetRows], Sequence[np.ndarray]]) -> list[np.ndarray]:
        """``kernel`` evaluated on one strip of grid rows at a time, its
        outputs filled into full-size arrays (`rows_filled`)."""
        return rows_filled(self.grid, lambda rows: kernel(self.rows(rows)))

    def deformed(self, eps: float, q_jets: "JetField") -> "JetField":
        """The field + eps*q with its jets shifted by eps times the jets of q.

        Derivatives are linear, so the jets of the deformed field are the
        jets of this field plus eps times those of q.  Only the central
        difference probe (`symmetry.central_difference`) deforms: it forms
        the values, D_1 and D_2 of the deformation in full, and its second
        jets on the rows asked, from the rows of both.
        """

        def second(rows: slice) -> tuple[np.ndarray, ...]:
            return tuple(b + eps * d for b, d in zip(self.second(rows), q_jets.second(rows)))

        return self._joined(q_jets, lambda a, b: a + eps * b, second)

    def paired(self, q_jets: "JetField") -> "JetField":
        """This field with the jets of q as the tangent of each jet: every
        value, D_1, D_2 and second jet is a `Dual`, so a kernel of the jets
        evaluates a functional and its derivative along q in one pass.
        Neither field is copied."""

        def second(rows: slice) -> tuple[Dual, ...]:
            return tuple(map(Dual, self.second(rows), q_jets.second(rows)))

        return self._joined(q_jets, Dual, second)

    def _joined(self, q_jets: "JetField", join: Callable, second: SecondJets) -> "JetField":
        """The jets ``join(mine, q's)``, each margin the larger of the two."""
        return JetField.stored(
            self.grid,
            join(self.values, q_jets.values),
            join(self.d1, q_jets.d1),
            join(self.d2, q_jets.d2),
            second,
            margin=max(self.margin, q_jets.margin),
            margin1=max(self.margin1, q_jets.margin1),
            margin2=max(self.margin2, q_jets.margin2),
        )


def chart_derivatives(values: np.ndarray, grid: Grid2) -> tuple[np.ndarray, np.ndarray]:
    """(D_1, D_2) of ``values`` on the chart of ``grid`` by 4th-order stencils.

    The last two axes of ``values`` are grid rows and columns, and may be
    a strip of the grid's rows: the 2 outer rows of the strip come out NaN.
    """
    dx = diff1(values, grid.h1, axis=-1)
    dy = diff1(values, grid.h2, axis=-2)
    if grid.chart == CHART_EUCLIDEAN:
        return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)
    return dx, dy


def chart_first_derivatives(f: MatrixField) -> tuple[np.ndarray, np.ndarray, int]:
    return (*chart_derivatives(f.values, f.grid), f.margin + 2)


def chart_jets(f: MatrixField) -> JetField:
    """``f`` with all its derivatives up to second order by 4th-order stencils.

    The first-order pair is computed here.  ``second(rows)`` runs the
    second-order stencils on the rows asked and the 2 rows on each side
    that they read, and trims those: every stencil is local, so the rows
    have the bits of the whole-field set, and no whole set is built.
    """
    d1, d2, margin1 = chart_first_derivatives(f)

    def second(rows: slice) -> tuple[np.ndarray, ...]:
        slab, core = _stencil_slab(f.values, rows)
        return tuple(x[..., core, :] for x in _chart_second_derivatives(slab, f.grid))

    return JetField.stored(f.grid, f.values, d1, d2, second, margin=f.margin, margin1=margin1,
                           margin2=f.margin + 4)


def _chart_second_derivatives(
    values: np.ndarray, g: Grid2
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    dxx = diff2(values, g.h1, axis=-1)
    dyy = diff2(values, g.h2, axis=-2)
    # the x-derivative is recomputed rather than kept from the first-order
    # pass, so no stencil temporary outlives the call that made it
    dxy = diff1(diff1(values, g.h1, axis=-1), g.h2, axis=-2)
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


def _cum_1d(f: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    n = f.shape[0]
    if n < 4:
        raise ValueError("cumulative integration needs at least 4 nodes")
    out[0] = 0
    out[1] = h / 24.0 * (9 * f[0] + 19 * f[1] - 5 * f[2] + f[3])
    out[2] = h / 3.0 * (f[0] + 4 * f[1] + f[2])
    for j in range(3, n):
        if j % 2 == 0:
            out[j] = out[j - 2] + h / 3.0 * (f[j - 2] + 4 * f[j - 1] + f[j])
        else:
            out[j] = out[j - 3] + 3 * h / 8.0 * (
                f[j - 3] + 3 * f[j - 2] + 3 * f[j - 1] + f[j]
            )
    return out


def cumulative_line_integral(
    values: np.ndarray, h: float, axis: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Antiderivative along one grid axis, zero at index 0 of that axis,
    written into ``out`` (an array of the shape of ``values``, not
    overlapping it) when given, or else into a new array."""
    out = np.empty_like(values) if out is None else out
    _cum_1d(np.moveaxis(values, axis, 0), h, np.moveaxis(out, axis, 0))
    return out


# --- field files ---------------------------------------------------------------
#
# The native format is an uncompressed ``.npz`` holding the values, the
# margin, the grid and (when set) the spectral parameter, so a field reads
# back bit-exactly with the margin it was written with.  JSON is an export
# format of the same content, with the values as flat row-major re/im lists.

FIELD_FORMAT = "solsurf-field/1"


def write_field(
    path: str, f: MatrixField | StripSource, lam: complex | None = None
) -> None:
    """Native field file: ``values``, ``margin``, ``grid`` (JSON text),
    ``format`` and, when given, ``lambda``.

    The archive is the one ``np.savez`` writes, member for member, but the
    values go out one strip of grid rows at a time, as ``f.strip`` forms
    them: their ``.npy`` header, then each strip's rows in node-major
    order, so the only copy made is that of one strip, and a `StripSource`
    is never held whole.
    """
    arrays = {
        "format": np.array(FIELD_FORMAT),
        "grid": np.array(json.dumps(f.grid.to_json(), sort_keys=True)),
        "margin": np.array(f.margin),
        "values": None,
    }
    if lam is not None:
        arrays["lambda"] = np.array(complex(lam))
    # the header np.save gives the node-major view of a whole complex field
    header = {
        "descr": np.lib.format.dtype_to_descr(np.dtype(complex)),
        "fortran_order": False,
        "shape": (f.grid.n2, f.grid.n1, f.n, f.n),
    }
    with open(path, "wb") as fh, zipfile.ZipFile(
        fh, mode="w", compression=zipfile.ZIP_STORED, allowZip64=True
    ) as zf:
        for key, array in arrays.items():
            with zf.open(key + ".npy", "w", force_zip64=True) as member:
                if array is not None:
                    np.lib.format.write_array(member, array, allow_pickle=False)
                    continue
                np.lib.format.write_array_header_1_0(member, header)
                for rows in row_strips(f.grid.n2):
                    strip = np.asarray(f.strip(rows), dtype=complex)
                    member.write(np.ascontiguousarray(_file_order(strip)))


def read_field(path: str) -> tuple[MatrixField, complex | None]:
    """Read a native ``.npz`` field or a ``.json`` export of one.

    Raises `FieldFileError` for content that is not such a file (including
    the old one-object-per-node JSON layout, and values that are not square
    numeric matrices) and `OSError` when the file cannot be opened.
    """
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
        if values.shape[0] != values.shape[1] or not np.issubdtype(values.dtype, np.number):
            raise ValueError(f"values {values.shape[:2]}: not square numeric matrices")
        field = MatrixField(grid, values, int(stored["margin"]))
        lam = complex(stored["lambda"]) if "lambda" in stored else None
    except (KeyError, TypeError, ValueError) as exc:
        raise FieldFileError(f"{path!r}: malformed field file: {exc}") from exc
    return field, lam


def write_field_json(path: str, f: MatrixField, lam: complex | None = None) -> None:
    """JSON export: the grid, ``n``, ``margin`` and the values as flat
    row-major ``re``/``im`` lists, non-finite entries as null.

    The keys are written in sorted order, and each list one strip of grid
    rows at a time, so no list of the whole field is built.
    """
    values = _file_order(np.asarray(f.values, dtype=complex))
    head: dict = {"format": FIELD_FORMAT, "grid": f.grid.to_json(), "n": f.n, "margin": f.margin}
    if lam is not None:
        head["lambda"] = [float(np.real(lam)), float(np.imag(lam))]
    parts = {"re": np.real, "im": np.imag}
    with open(path, "w") as fh:
        for i, key in enumerate(sorted([*head, *parts])):
            fh.write(("{" if i == 0 else ",") + json.dumps(key) + ":")
            if key in head:
                fh.write(json.dumps(head[key], sort_keys=True, separators=(",", ":")))
                continue
            for rows in row_strips(values.shape[0]):
                block = json.dumps(_finite_list(parts[key](values[rows])), separators=(",", ":"))
                fh.write(("[" if rows.start == 0 else ",") + block[1:-1])
            fh.write("]")
        fh.write("}")


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
    """Interior nodes as rows ``x1,x2,value`` (17 significant digits),
    written one strip of grid rows at a time.  Each coordinate value is
    formatted once, and every row of nodes fills one line template."""
    inner = slice(margin, grid.n2 - margin), slice(margin, grid.n1 - margin)
    x1s = ["%.17g" % x for x in grid.axis1()[inner[1]].tolist()]
    x2s = ["%.17g" % x for x in grid.axis2()[inner[0]].tolist()]
    # the lines of one row of nodes; "{}" takes the row's x2
    template = "".join(f"{x1},{{}},%.17g\n" for x1 in x1s)
    values = np.real(scalar[inner])
    with open(path, "w") as fh:
        fh.write("x1,x2,value\n")
        for rows in row_strips(values.shape[0]):
            fh.write("".join(
                template.replace("{}", x2) % tuple(row)
                for x2, row in zip(x2s[rows], values[rows].tolist())
            ))
