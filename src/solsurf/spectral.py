"""Wave functions of the linear problem D_alpha(Phi) = u^alpha Phi.

Two closed-form builders are provided:

* Euclidean chart: Phi = I + c(lam) * sum_{m=1..k} L^m(P) + beta(lam) * P
  for a ladder solution at level k, where L is the lowering operator and
  c = 4 lam / (1 - lam)^2, beta = -2/(1 - lam).  `euclidean_wave` builds
  Phi, and `euclidean_wave_dlambda` builds Phi with d(Phi)/d(lam) in the
  same strip pass.  Up to k = 2 the rungs are lowered from the jets of the
  solution, so Phi is a smooth function of the jets and can be prolonged;
  deeper levels sum the stored rungs of the ladder.
* Minkowski chart: Phi = exp(2 chi [theta_1, theta]) (2i theta - (2-N) I/N)
  for traveling waves, with chi = lam x1/(1+lam) - kappa lam x2/(1-lam).

Every builder that reads the jets (the projector, the once-lowered rung
`lowered_rung` and its jets `lowered_rung_jets`, Phi of both charts, whose
Euclidean strips lower their own rungs) is pointwise, and runs one strip of
grid rows at a time through `JetField.map_rows` into one preallocated
output, with scalar factors applied in place (see :mod:`solsurf.fields`).
The lowering's guard stays global: where its denominator vanishes the
rung is NaN, even on a whole strip, and `DeformationOutOfDomain` is raised
only when it vanishes on every node of the field, naming the first
lowering step that did.  D_1 and D_2 of a lowered rung, which the second
lowering reads, are the tangents of the lowering run along D_1 and D_2
(`fields.JetRows.along`), one direction at a time.

A wave function is a `WaveField`: a `MatrixField` of Phi that also
carries its spectral parameter.  It stores no inverse: `WaveField.inverse`
forms the closed-form inverse of the grid rows asked for, with the same
bits as on the whole field, and its one reader is the pull-back
`immersion.pulled_back` (with `immersion.sym_tafel`, which streams its
strips through the same row kernel): one pass over the strips of grid
rows pulls back everything a caller reads of one wave function.  Both
builders are certified against 4th-order stencil derivatives by
:func:`lsp_residual`, which forms the residual fields D_alpha Phi -
u^alpha Phi for every caller; unitarity is reported as a diagnostic only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DeformationOutOfDomain
from .fields import (
    JetField,
    JetRows,
    MatrixField,
    StripSource,
    interior,
    interior_max,
    row_strips,
    same_grid,
    strip_derivatives,
)
from .matlie import (Dual, NonFiniteMatrix, commutator, dagger, det, expm, fro, identity, inv,
                     mm, primal, trace)
from .sigma import TravelingWave, check_lambda, projector

__all__ = [
    "WaveField",
    "euclidean_wave",
    "euclidean_wave_coefficients",
    "euclidean_wave_dlambda",
    "lowered_rung",
    "lowered_rung_jets",
    "lowered_rung_with_jets",
    "lsp_residual",
    "phi_traveling",
    "traveling_wave_dlambda",
    "wave_diagnostics",
]

@dataclass(frozen=True, kw_only=True)
class WaveField(MatrixField):
    """Invertible matrix solution Phi of the linear problem at fixed ``lam``."""

    lam: complex

    def inverse(self, rows: slice) -> np.ndarray:
        """Per-node inverse of the grid rows ``rows``, formed on each call;
        NaN nodes stay NaN."""
        return inv(self.values[..., rows, :])


def _cond2(phi: np.ndarray, det_phi: np.ndarray) -> np.ndarray:
    """2-norm condition number of 2x2 matrices, sigma_1 / sigma_2, in closed form.

    With Phi^H Phi = [[p, r], [conj(r), s]], sigma_1^2 + sigma_2^2 = p + s,
    sigma_1^2 - sigma_2^2 = sqrt((p - s)^2 + 4|r|^2) and sigma_1 sigma_2 =
    |det Phi|, so sigma_1 / sigma_2 = (p + s + sqrt(...)) / (2 |det Phi|).
    Unlike sqrt((p + s)^2 - 4|det|^2), the root has no cancellation near
    cond = 1.  NaN where ``det_phi`` is NaN, inf where it vanishes.
    """
    a, b = phi[0, 0], phi[0, 1]
    c, d = phi[1, 0], phi[1, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        p = a.real**2 + a.imag**2 + c.real**2 + c.imag**2
        s = b.real**2 + b.imag**2 + d.real**2 + d.imag**2
        r = np.conj(a) * b + np.conj(c) * d
        root = np.sqrt((p - s) ** 2 + 4 * (r.real**2 + r.imag**2))
        return (p + s + root) / (2 * np.abs(det_phi))


def wave_diagnostics(w: WaveField) -> dict[str, float]:
    """Invertibility and unitarity report over the trusted interior; NaN
    nodes are left out, and a value is NaN, quietly, where every node is.
    Each node's |det|, condition number and unitarity defect are formed
    one strip of grid rows at a time."""
    abs_det, cond, unit = (np.empty(w.values.shape[2:]) for _ in range(3))
    for rows in row_strips(w.grid.n2):
        phi = w.values[..., rows, :]
        det_phi = det(phi)
        abs_det[rows] = np.abs(det_phi)
        unit[rows] = fro(mm(dagger(phi), phi) - identity(w.n))
        if w.n == 2:
            cond[rows] = _cond2(phi, det_phi)
            continue
        ok = np.isfinite(phi).all(axis=(0, 1))
        strip = np.full(ok.shape, np.nan)
        if np.any(ok):
            # numpy.linalg takes the matrix axes last
            strip[ok] = np.linalg.cond(np.moveaxis(phi[:, :, ok], -1, 0))
        cond[rows] = strip
    m = w.margin
    return {
        "min_abs_det": float(np.fmin.reduce(interior(abs_det, m), axis=None)),
        "max_condition": float(np.fmax.reduce(interior(cond, m), axis=None)),
        "max_unitarity_defect": interior_max(unit, m),
    }


# --- Euclidean builder ---------------------------------------------------------


def euclidean_wave_coefficients(lam: complex) -> tuple[complex, complex]:
    """(c, beta) with Phi = I + c * sum of lowered rungs + beta * P."""
    lam = check_lambda(lam)
    return 4 * lam / (1 - lam) ** 2, -2 / (1 - lam)


# what the lowering raises when its denominator vanishes on every node, per step
_VANISHED = (
    "lowering denominator vanished everywhere",
    "second lowering denominator vanished everywhere",
)


def _guarded_reciprocal(den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1/den, NaN where den vanishes, and the mask of those nodes; of a
    pair, its tangent is -den'/den^2, and the mask is the value's."""
    if isinstance(den, Dual):
        r, bad = _guarded_reciprocal(den.value)
        return Dual(r, -(r * r) * den.tangent), bad
    with np.errstate(invalid="ignore"):
        bad = ~(np.abs(den) > 1e-300)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(bad, np.nan, 1.0 / np.where(bad, 1.0, den)), bad


def _check_denominators(bad: Sequence[np.ndarray]) -> None:
    """Raise for the first lowering step whose denominator vanished on every
    node of the whole field; where it vanished on some nodes only, even on
    every node of a strip, those nodes are NaN and nothing is raised."""
    for mask, message in zip(bad, _VANISHED):
        if mask.all():
            raise DeformationOutOfDomain(message)


def _lowered_value(
    p: np.ndarray, d1p: np.ndarray, d2p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """L(P) = D2P P D1P / tr(...) and the mask of nodes where the
    denominator vanished (NaN there)."""
    # each jet is dropped once read, so jets formed for this call alone go
    num = mm(d2p, p)
    del d2p, p
    num = mm(num, d1p)
    del d1p
    deninv, bad = _guarded_reciprocal(trace(num))
    return num * deninv, bad


def _lowered(jr: JetRows) -> tuple[np.ndarray, np.ndarray]:
    """`_lowered_value` of the projector P = I/N - i theta of the strip
    ``jr``, whose first jets are those of theta times -i."""
    return _lowered_value(projector(jr), -1j * jr.d1, -1j * jr.d2)


def lowered_rung_with_jets(jr: JetRows) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lowered projector L(P) = D2P P D1P / tr(...) of the strip ``jr`` of
    theta's jets, its first derivatives, and the mask of nodes where the
    denominator vanished (NaN there).

    D_a L(P) is the tangent of the lowering run on ``jr.along(a)``: one
    rule, the total derivative carried through every product, trace and
    reciprocal, and one extra jet order of the input consumed.  The two
    directions run one after the other, and the value is the first one's.
    """
    r, bad = _lowered(jr.along(1))
    d2r = _lowered(jr.along(2))[0].tangent
    return r.value, r.tangent, d2r, bad


def lowered_rung_jets(j: JetField) -> list[np.ndarray]:
    """[L(P), D_1 L(P), D_2 L(P)] of the once-lowered rung of the solution
    carried by ``j``, one strip of grid rows at a time: D_a L(P) is the
    tangent of the lowering along D_a (`lowered_rung_with_jets`)."""
    *jets, bad = j.map_rows(lowered_rung_with_jets)
    _check_denominators([bad])
    return jets


def lowered_rung(j: JetField) -> np.ndarray:
    """L(P) of the solution carried by ``j``, one strip of grid rows at a
    time, from theta's first jets alone."""
    value, bad = j.map_rows(_lowered)
    _check_denominators([bad])
    return value


def _wave_strips(
    j: JetField, k: int, lam: complex, ladder: Sequence[MatrixField] | None, dlambda: bool
) -> tuple[list[np.ndarray], int]:
    """[Phi] of the level-k wave function, or [Phi, d(Phi)/d(lambda)] with
    ``dlambda``, one strip of grid rows at a time, and their margin.

    Up to k = 2 a strip's rungs are lowered from the jets ``j``, so Phi
    carries the tangent of paired jets; deeper levels sum the strips of the
    stored ``ladder`` rungs (the same projectors, but no tangent reaches
    them), and without one the lowering raises.  A strip's
    terms are summed before the next strip's are formed.
    """
    lam = check_lambda(lam)
    c, beta = euclidean_wave_coefficients(lam)
    cprime, bprime = 4 * (1 + lam) / (1 - lam) ** 3, -2 / (1 - lam) ** 2

    def kernel(p: np.ndarray, rungs: Sequence[np.ndarray]) -> list[np.ndarray]:
        # Phi = I + beta P + c (L(P) + ... + L^k(P)) and its lambda-derivative
        phi = identity(p.shape[0]) + beta * p
        for rung in rungs:
            phi += c * rung
        if not dlambda:
            return [phi]
        dphi = bprime * p
        for rung in rungs:
            dphi += cprime * rung
        return [phi, dphi]

    if k > 2 and ladder is not None:
        stored = [r.values for r in ladder]
        margin = max(r.margin for r in ladder)
        return j.map_rows(
            lambda jr: kernel(stored[k][..., jr.rows, :], [r[..., jr.rows, :] for r in stored[:k]])
        ), margin
    if k > 2:
        raise DeformationOutOfDomain(
            "jet-based lowering supports at most two steps (jets are cached to order 2)"
        )

    def rows(jr: JetRows) -> list[np.ndarray]:
        # the second lowering reads the first one's tangents along D_1 and
        # D_2, so k = 2 consumes the second jets
        p = projector(jr)
        if k == 0:
            return kernel(p, [])
        if k == 1:
            r1, bad1 = _lowered(jr)
            return [*kernel(p, [r1]), bad1]
        r1, d1r1, d2r1, bad1 = lowered_rung_with_jets(jr)
        r2, bad2 = _lowered_value(r1, d1r1, d2r1)
        return [*kernel(p, [r1, r2]), bad1, bad2]

    out = j.map_rows(rows)
    _check_denominators(out[len(out) - k:])
    margin = j.margin1 if k == 1 else (j.margin2 if k == 2 else j.margin)
    return out[: len(out) - k], margin


def euclidean_wave(
    j: JetField, k: int, lam: complex, ladder: Sequence[MatrixField] | None = None
) -> WaveField:
    """Wave function of the level-k ladder solution carried by ``j``; above
    k = 2 it sums the rung projectors ``ladder``."""
    (phi,), margin = _wave_strips(j, k, lam, ladder, dlambda=False)
    return WaveField(j.grid, phi, margin, lam=complex(lam))


def euclidean_wave_dlambda(
    j: JetField, k: int, lam: complex, ladder: Sequence[MatrixField] | None = None
) -> tuple[WaveField, MatrixField]:
    """`euclidean_wave` and its analytic d(Phi)/d(lambda), from one strip pass."""
    (phi, dphi), margin = _wave_strips(j, k, lam, ladder, dlambda=True)
    return WaveField(j.grid, phi, margin, lam=complex(lam)), MatrixField(j.grid, dphi, margin)


# --- Minkowski builder ---------------------------------------------------------


def phi_traveling(wave: TravelingWave, j: JetField, lam: complex) -> WaveField:
    """Traveling-wave wave function exp(2 chi [theta_1, theta]) (2i theta - (2-N)I/N).

    It carries the margin of the D_1 theta it reads: none on exact jets.
    It is formed one strip of grid rows at a time; chi is formed once on
    the whole grid and sliced, so each strip reads the grid's own
    coordinates.  Nodes where the exponent is not finite are NaN, and if
    no node's is, `NonFiniteMatrix` is raised.
    """
    if j.n != 2:
        raise ValueError("traveling-wave wave functions are implemented for N = 2")
    lam = check_lambda(lam)
    chi = wave.chi(lam)
    shift = (2 - j.n) * (identity(j.n) / j.n)

    def rows(jr: JetRows) -> tuple[np.ndarray, np.ndarray]:
        komm = commutator(jr.d1, jr.values)
        x = 2.0 * chi[jr.rows] * komm
        live = np.isfinite(primal(x)).all(axis=(0, 1))
        e = expm(x) if live.any() else np.full(x.shape, np.nan, dtype=complex)
        return mm(e, 2j * jr.values - shift), live

    phi, live = j.map_rows(rows)
    if not live.any():
        raise NonFiniteMatrix("expm requires finite entries")
    return WaveField(wave.grid, phi, j.margin1, lam=complex(lam))


def traveling_wave_dlambda(wave: TravelingWave, j: JetField, w: WaveField) -> StripSource:
    """d(Phi)/d(lambda) = 2 (d chi/d lambda) [theta_1, theta] Phi, for the
    built Phi ``w``, as a strip source: each strip is formed from the jets
    and Phi of its rows; the scalar 2 d chi/d lambda is formed once on the
    whole grid and sliced."""
    coeff = 2.0 * wave.dlambda_chi(w.lam)

    def strip(rows: slice) -> np.ndarray:
        jr = j.rows(rows)
        return coeff[rows] * mm(commutator(jr.d1, jr.values), w.values[..., rows, :])

    return StripSource(wave.grid, j.n, j.margin1, strip)


# --- residual --------------------------------------------------------------------


def lsp_residual(
    w: MatrixField, u1: MatrixField, u2: MatrixField
) -> tuple[MatrixField, MatrixField]:
    """The linear-problem residuals D_alpha(Phi) - u^alpha Phi of the field
    ``w``, with stencil derivatives of Phi; both carry the same margin."""
    grid = same_grid(w, u1, u2)
    d1phi, d2phi = strip_derivatives(w.values, grid, slice(None))
    margin = max(w.margin + 2, u1.margin, u2.margin)
    d1phi -= mm(u1.values, w.values)
    d2phi -= mm(u2.values, w.values)
    return MatrixField(grid, d1phi, margin), MatrixField(grid, d2phi, margin)
