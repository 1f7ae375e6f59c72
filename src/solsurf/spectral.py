"""Wave functions of the linear problem D_alpha(Phi) = u^alpha Phi.

Two closed-form builders are provided:

* Euclidean chart: Phi = I + c(lam) * sum_{m=1..k} L^m(P) + beta(lam) * P
  for a ladder solution at level k, where L is the lowering operator and
  c = 4 lam / (1 - lam)^2, beta = -2/(1 - lam).  Up to k = 2 the lowered
  rungs are evaluated directly from the jet fields of the active
  solution, so the builder is a smooth function of the jets and can be
  deformed; deeper levels sum the stored rungs of the ladder.
* Minkowski chart: Phi = exp(2 chi [theta_1, theta]) (2i theta - (2-N) I/N)
  for traveling waves, with chi = lam x1/(1+lam) - kappa lam x2/(1-lam).

A wave function is a `WaveField`: a `MatrixField` of Phi that also
carries its spectral parameter and computes its per-node inverse once.
Both builders are certified against 4th-order stencil derivatives by
:func:`lsp_residual`; unitarity is reported as a diagnostic only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DeformationOutOfDomain
from .fields import Grid2, MatrixField, chart_first_derivatives, interior, interior_max
from .matlie import commutator, dagger, det, expm, fro, identity, inv, mm, trace
from .sigma import JetField, SolutionLadder, TravelingWave, check_lambda, projector, theta_of

__all__ = [
    "WaveField",
    "euclidean_wave",
    "euclidean_wave_coefficients",
    "euclidean_wave_dlambda",
    "lowered_rungs_from_jets",
    "lowered_rung_with_jets",
    "lsp_residual",
    "phi_euclidean",
    "phi_traveling",
    "traveling_wave_dlambda",
    "wave_diagnostics",
]

@dataclass(frozen=True, kw_only=True)
class WaveField(MatrixField):
    """Invertible matrix solution Phi of the linear problem at fixed ``lam``."""

    lam: complex

    @cached_property
    def _phi_inv(self) -> np.ndarray:
        phi_inv = inv(self.values)
        phi_inv.flags.writeable = False
        return phi_inv

    def inverse(self) -> np.ndarray:
        """Per-node inverse, computed once and read-only; NaN nodes stay NaN."""
        return self._phi_inv

    def conjugate(self, x: np.ndarray) -> np.ndarray:
        """Phi^{-1} X Phi per node."""
        return mm(mm(self.inverse(), x), self.values)


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
    nodes are left out, and a value is NaN, quietly, where every node is."""
    phi = w.values
    det_phi = det(phi)
    unit = fro(mm(dagger(phi), phi) - identity(w.n))
    if w.n == 2:
        cond = _cond2(phi, det_phi)
    else:
        ok = np.isfinite(phi).all(axis=(0, 1))
        cond = np.full(ok.shape, np.nan)
        if np.any(ok):
            # numpy.linalg takes the matrix axes last
            cond[ok] = np.linalg.cond(np.moveaxis(phi[:, :, ok], -1, 0))
    m = w.margin
    return {
        "min_abs_det": float(np.fmin.reduce(np.abs(interior(det_phi, m)), axis=None)),
        "max_condition": float(np.fmax.reduce(interior(cond, m), axis=None)),
        "max_unitarity_defect": interior_max(unit, m),
    }


# --- Euclidean builder ---------------------------------------------------------


def euclidean_wave_coefficients(lam: complex) -> tuple[complex, complex]:
    """(c, beta) with Phi = I + c * sum of lowered rungs + beta * P."""
    lam = check_lambda(lam)
    return 4 * lam / (1 - lam) ** 2, -2 / (1 - lam)


def _guarded_reciprocal(den: np.ndarray, message: str) -> np.ndarray:
    """1/den, NaN where den vanishes; raises when it vanishes everywhere."""
    with np.errstate(invalid="ignore"):
        bad = ~(np.abs(den) > 1e-300)
    if bad.all():
        raise DeformationOutOfDomain(message)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(bad, np.nan, 1.0 / np.where(bad, 1.0, den))


def _lowered_value(
    p: np.ndarray,
    d1p: np.ndarray,
    d2p: np.ndarray,
    message: str = "lowering denominator vanished everywhere",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """L(P) = D2P P D1P / tr(...) with its parts (D2P P, numerator, 1/denominator)."""
    d2p_p = mm(d2p, p)
    num = mm(d2p_p, d1p)
    deninv = _guarded_reciprocal(trace(num), message)
    return num * deninv, d2p_p, num, deninv


def lowered_rung_with_jets(
    p: np.ndarray, d1p: np.ndarray, d2p: np.ndarray, j: JetField
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lowered projector L(P) = D2P P D1P / tr(...) and its first derivatives.

    The derivatives come from the quotient rule through the jets of the
    input, so the output is again differentiable data; one extra jet order
    of the input is consumed per application.
    """
    r, d2p_p, num, deninv = _lowered_value(p, d1p, d2p)

    def derivative(dp: np.ndarray, theta_a2: np.ndarray, theta_a1: np.ndarray) -> np.ndarray:
        # D_a num = (D_a D2P P + D2P D_a P) D1P + D2P P D_a D1P; the input is
        # P = I/N - i theta, so the -i of its second jets goes on the products
        inner = mm(theta_a2, p)
        inner *= -1j
        inner += mm(d2p, dp)
        dnum = mm(inner, d1p)
        del inner
        dnum += -1j * mm(d2p_p, theta_a1)
        dden = trace(dnum) * deninv**2
        dnum *= deninv
        dnum -= num * dden
        return dnum

    return r, derivative(d1p, j.d12, j.d11), derivative(d2p, j.d22, j.d12)


def lowered_rungs_from_jets(j: JetField, k: int) -> list[np.ndarray]:
    """Values of L(P), L^2(P), ... L^k(P) for the solution carried by ``j``.

    Supports k <= 2: the first lowering consumes the cached second jets,
    the second consumes the first derivatives produced alongside rung one.
    For k = 1 only the value of rung one is formed; its derivatives are
    built only when a second rung reads them.
    """
    if k == 0:
        return []
    if k > 2:
        raise DeformationOutOfDomain(
            "jet-based lowering supports at most two steps (jets are cached to order 2)"
        )
    p = projector(j)
    d1p, d2p = -1j * j.d1, -1j * j.d2
    if k == 1:
        return [_lowered_value(p, d1p, d2p)[0]]
    r1, d1r1, d2r1 = lowered_rung_with_jets(p, d1p, d2p, j)
    r2 = _lowered_value(
        r1, d1r1, d2r1, "second lowering denominator vanished everywhere"
    )[0]
    return [r1, r2]


def _jet_terms(j: JetField, k: int) -> tuple[np.ndarray, list[np.ndarray], int]:
    """P, its lowered rungs L(P) .. L^k(P) from the jets (k <= 2), and their margin."""
    margin = j.margin1 if k == 1 else (j.margin2 if k >= 2 else j.margin)
    return projector(j), lowered_rungs_from_jets(j, k), margin


def _ladder_terms(ladder: SolutionLadder) -> tuple[np.ndarray, list[np.ndarray], int]:
    """The terms of `_jet_terms` at the ladder's active level k.

    Up to k = 2 the rungs are lowered from the active rung's jets, as
    `euclidean_wave` lowers them; deeper levels take the stored rungs
    below the active one instead (the same projectors, but they carry no
    deformation support).
    """
    k = ladder.active
    rung = ladder.active_rung
    if k <= 2:
        return _jet_terms(theta_of(rung), k)
    return rung.values, [r.values for r in ladder.rungs[:k]], max(r.margin for r in ladder.rungs)


def _wave(grid: Grid2, lam: complex, terms: tuple[np.ndarray, list[np.ndarray], int]) -> WaveField:
    """Phi = I + beta P + c (L(P) + ... + L^k(P)) from the terms P, L^m(P) and their margin."""
    c, beta = euclidean_wave_coefficients(lam)
    p, rungs, margin = terms
    phi = identity(p.shape[0]) + beta * p
    for rung in rungs:
        phi = phi + c * rung
    return WaveField(grid, phi, margin, lam=complex(lam))


def euclidean_wave(j: JetField, k: int, lam: complex) -> WaveField:
    """Wave function for a level-k ladder solution (k <= 2), from its jet field."""
    return _wave(j.grid, lam, _jet_terms(j, k))


def phi_euclidean(ladder: SolutionLadder, lam: complex) -> WaveField:
    """Wave function at the ladder's active level k.

    Up to k = 2 it equals `euclidean_wave` on the active rung's jets;
    deeper levels sum the stored rungs below the active one.
    """
    return _wave(ladder.active_rung.grid, lam, _ladder_terms(ladder))


def euclidean_wave_dlambda(ladder: SolutionLadder, lam: complex) -> MatrixField:
    """Analytic d(Phi)/d(lambda) of `phi_euclidean`."""
    lam = check_lambda(lam)
    cprime = 4 * (1 + lam) / (1 - lam) ** 3
    bprime = -2 / (1 - lam) ** 2
    p, rungs, margin = _ladder_terms(ladder)
    out = bprime * p
    for rung in rungs:
        out = out + cprime * rung
    return MatrixField(ladder.active_rung.grid, out, margin)


# --- Minkowski builder ---------------------------------------------------------


def phi_traveling(wave: TravelingWave, j: JetField, lam: complex) -> WaveField:
    """Traveling-wave wave function exp(2 chi [theta_1, theta]) (2i theta - (2-N)I/N).

    Exact jets make it margin-free.
    """
    if j.n != 2:
        raise ValueError("traveling-wave wave functions are implemented for N = 2")
    lam = check_lambda(lam)
    komm = commutator(j.d1, j.values)
    tail = 2j * j.values - (2 - j.n) * (identity(j.n) / j.n)
    phi = mm(expm(2.0 * wave.chi(lam) * komm), tail)
    return WaveField(wave.grid, phi, j.margin, lam=complex(lam))


def traveling_wave_dlambda(wave: TravelingWave, j: JetField, w: WaveField) -> MatrixField:
    """d(Phi)/d(lambda) = 2 (d chi/d lambda) [theta_1, theta] Phi, for the built Phi ``w``."""
    komm = commutator(j.d1, j.values)
    out = 2.0 * wave.dlambda_chi(w.lam) * mm(komm, w.values)
    return MatrixField(wave.grid, out, j.margin)


# --- residual --------------------------------------------------------------------


def lsp_residual(
    w: WaveField, u1: MatrixField, u2: MatrixField
) -> tuple[np.ndarray, np.ndarray, int]:
    """Pointwise ||D_alpha(Phi) - u^alpha Phi||_F with stencil derivatives of Phi."""
    if u1.grid != w.grid or u2.grid != w.grid:
        raise ValueError("wave field and connection live on different grids")
    d1phi, d2phi, dmargin = chart_first_derivatives(w)
    margin = max(dmargin, u1.margin, u2.margin)
    r1 = fro(d1phi - mm(u1.values, w.values))
    r2 = fro(d2phi - mm(u2.values, w.values))
    return r1, r2, margin
