"""Named verification checks with machine-readable reports.

The checks form one ordered table, ``_CHECKS``.  A row holds a check's
name, description, default tolerance and comparison, and ``measure(fx)``,
which requests every input it reads from a :class:`Fixtures` and returns
one residual or defect.  Most checks pass below their tolerance; negative
controls must exceed a floor instead.  A row's suite is the prefix of
its name: ``identities``, ``prop1`` .. ``prop8`` and ``appendix``; ``all``
runs every row in table order.

A tolerance override is keyed by the row's name, except where rows share
one key: ``identities.theta-square``, ``identities.theta-commutator``,
``identities.theta-triple``, ``prop7.lowered-rung``,
``prop8.conformal-wave``, ``prop8.explicit-integration`` and
``appendix.commutation``.  A key that names no row is a configuration
error.

Fixtures are memoized on the method name and its arguments, so a
quantity that several rows read is built once per run, by the first row
that asks.  A row's runtime in ``report.txt`` therefore includes the
fixtures it built first.

Fixture grids are chosen so that 4th-order stencil truncation dominates
rounding noise at every measured quantity; Euclidean immersion checks run
at an imaginary spectral parameter, where the wave function is unitary
and the algebra-valuedness of the surfaces is exact (unitarity is
reported, never assumed).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .config import ConfigError
from .fields import (
    CHART_EUCLIDEAN,
    CHART_MINKOWSKI,
    Grid2,
    MatrixField,
    chart_first_derivatives,
    interior,
    interior_max,
)
from .immersion import (
    ImmersionResult,
    conformal_immersion_closed,
    constant_difference_check,
    explicit_immersion,
    integrate_surface,
    linear_independence_report,
    psi_of,
    psi_residual,
    tangent_check,
)
from .matlie import commutator, constant, det, fro, su_basis
from .sigma import (
    JetField,
    theta_comm_identity_residual,
    theta_of,
    theta_square_residual,
    theta_triple_residual,
    traveling_solution,
    u_pair,
    veronese_field,
    veronese_ladder,
)
from .spectral import (
    WaveField,
    euclidean_wave,
    lsp_residual,
    phi_traveling,
)
from .symmetry import (
    ConformalSpec,
    commutation_defect,
    compatibility_defect,
    conformal_characteristic,
    frechet_apply,
    lowering_derivatives_functional,
    lowering_functional,
    prolong_u,
    theta_derivatives_functional,
    theta_functional,
    traveling_R_fields,
    u_derivatives_functional,
    u_functional,
    wave_functional,
)

__all__ = ["CheckResult", "VerificationReport", "SUITE_NAMES", "run_suites"]

# Standard fixture parameters.  Euclidean grids are small enough that the
# tightest identity tolerances hold, and large enough that second-derivative
# rounding noise stays below every truncation signal.
EUCLID_H = 0.0015
MINK_H = 0.001
GRID_N = 101
KAPPA, OMEGA = 2.0, 1.0
LAM_EUCLID = 0.6j
LAM_MINK = 0.5
# prop6's affine symmetry coefficients
AFFINE_A, AFFINE_B, AFFINE_C = 0.7, 0.4, -0.3
# the non-constancy of prop6's quadratic difference needs an O(1)-size
# window to show; the surfaces involved are closed forms, so no stencil
# accuracy is at stake
WIDE_H = 0.04
MINK_EPS = 1e-4


@dataclass(frozen=True)
class CheckResult:
    """One measured defect with its acceptance bound."""

    name: str
    target: str
    description: str
    measured: float
    tolerance: float
    comparison: str  # "below": pass iff measured < tolerance; "above": the reverse
    passed: bool
    runtime_s: float

    def to_json(self) -> dict:
        # runtime is intentionally omitted: reports must be byte-identical
        # across repeated runs of the same configuration
        return {
            "name": self.name,
            "target": self.target,
            "description": self.description,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "comparison": self.comparison,
            "passed": self.passed,
        }


@dataclass
class VerificationReport:
    suites: tuple[str, ...]
    results: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "version": __version__,
            "suites": list(self.suites),
            "passed": self.passed,
            "checks": [r.to_json() for r in self.results],
        }

    def json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def text(self) -> str:
        lines = [f"solsurf verification report (v{__version__})"]
        for r in self.results:
            sign = "<" if r.comparison == "below" else ">"
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"[{status}] {r.name:<38s} {r.measured:12.4e} {sign} {r.tolerance:8.1e}"
                f"  ({r.runtime_s:6.2f}s)  {r.description}"
            )
        n_fail = sum(not r.passed for r in self.results)
        lines.append(
            f"{len(self.results)} checks, {n_fail} failures"
            if n_fail
            else f"{len(self.results)} checks, all passed"
        )
        return "\n".join(lines)


def _fixture(method):
    """Memoize a `Fixtures` method on its name and bound arguments, defaults applied."""
    signature = inspect.signature(method)

    @functools.wraps(method)
    def memoized(self, *args, **kwargs):
        bound = signature.bind(self, *args, **kwargs)
        bound.apply_defaults()
        return self._get((method.__name__, *bound.args[1:]), lambda: method(self, *args, **kwargs))

    return memoized


class Fixtures:
    """The inputs of the checks, each built once per run on first request.

    Fields are held for the standard Euclidean pair, the traveling wave
    and the grids and jets they derive from.  Each (jets, Q, step) is
    prolonged once, by the one fixture that returns all the rows read of
    it; fields that nothing else needs are reduced to the rows' values.
    """

    def __init__(self):
        self._cache: dict = {}

    def _get(self, key, builder: Callable[[], object]):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @_fixture
    def euclid_grid(self, h: float = EUCLID_H) -> Grid2:
        return Grid2(CHART_EUCLIDEAN, (0.0, 0.0), (h, h), (GRID_N, GRID_N))

    @_fixture
    def mink_grid(self, h: float = MINK_H) -> Grid2:
        return Grid2(CHART_MINKOWSKI, (0.0, 0.0), (h, h), (GRID_N, GRID_N))

    # Only the jets are kept, each built from its own rung: holding every
    # Veronese ladder as well would raise the run's peak memory.

    @_fixture
    def jets_analytic(self, n: int, k: int = 0, h: float = EUCLID_H) -> JetField:
        return theta_of(veronese_field(n, self.euclid_grid(h), k))

    @_fixture
    def jets_numeric(self, n: int, k: int = 0, h: float = EUCLID_H) -> JetField:
        p = veronese_field(n, self.euclid_grid(h), k)
        return theta_of(MatrixField(p.grid, p.values, p.margin))

    @_fixture
    def traveling(self, h: float = MINK_H):
        return traveling_solution(KAPPA, OMEGA, self.mink_grid(h))

    @_fixture
    def euclid_spec(self) -> ConformalSpec:
        # f = xi^2, g the conjugate mirror
        return ConformalSpec.euclidean((0.0, 0.0, 1.0))

    @_fixture
    def mink_spec_linear(self) -> ConformalSpec:
        # f = x1, g = x2 (dilation)
        return ConformalSpec.minkowski((0.0, 1.0), (0.0, 1.0))

    @_fixture
    def mink_spec_quadratic(self) -> ConformalSpec:
        # f = (x1)^2, g = 0: the non-integrable control
        return ConformalSpec.minkowski((0.0, 0.0, 1.0), (0.0,))

    @_fixture
    def mink_spec_affine(self) -> ConformalSpec:
        # f = b + a x1, g = c + a x2: equal slopes, so integrable
        return ConformalSpec.minkowski((AFFINE_B, AFFINE_A), (AFFINE_C, AFFINE_A))

    # The standard Euclidean pair: rung (2, 0) at LAM_EUCLID under the
    # f = xi^2 symmetry.

    @_fixture
    def euclid_q(self) -> MatrixField:
        return conformal_characteristic(self.euclid_spec(), self.jets_analytic(2))

    @_fixture
    def euclid_wave(self) -> WaveField:
        return euclidean_wave(self.jets_analytic(2), 0, LAM_EUCLID)

    @_fixture
    def euclid_u(self) -> tuple[MatrixField, MatrixField]:
        return u_pair(self.jets_analytic(2), LAM_EUCLID)

    @_fixture
    def euclid_prolonged(self) -> dict[str, object]:
        """The one prolongation along the pair's Q and what the checks read
        of it: the prolonged connection (pr w u1, pr w u2), which is the
        tangent pair, and pr w Phi as fields; the linear-problem defect and
        the three commutation defects as values."""
        wave = wave_functional(_euclid_builder(0), LAM_EUCLID)
        gs = (*_commutation_functionals(LAM_EUCLID), wave)
        *commuting, (prw_phi, *lsp) = frechet_apply(gs, self.jets_analytic(2), self.euclid_q())
        return {
            "tangents": commuting[2],
            "wave": prw_phi,
            "lsp-symmetry": max(map(_field_max, lsp)),
            "commutation": _commutation_defects(commuting),
        }

    def euclid_tangents(self) -> tuple[MatrixField, MatrixField]:
        """The prolonged connection (pr w u1, pr w u2)."""
        return self.euclid_prolonged()["tangents"]

    @_fixture
    def euclid_compatibility(self) -> float:
        return compatibility_defect(*self.euclid_tangents(), *self.euclid_u())

    @_fixture
    def euclid_explicit(self) -> MatrixField:
        """Phi^-1 pr w Phi."""
        return explicit_immersion(self.euclid_wave(), self.euclid_prolonged()["wave"])

    @_fixture
    def euclid_closed(self) -> MatrixField:
        """F = Phi^-1 (f u1 + g u2) Phi."""
        spec, j, w = self.euclid_spec(), self.jets_analytic(2), self.euclid_wave()
        return conformal_immersion_closed(spec, j, w, LAM_EUCLID)

    @_fixture
    def euclid_surface(self) -> ImmersionResult:
        return integrate_surface(*self.euclid_tangents(), self.euclid_wave())

    @_fixture
    def euclid_theta_defects(self) -> dict[str, float]:
        """Q = theta, not a symmetry: the zero-curvature defect of its
        prolonged connection, and the path defect of its line integral."""
        j = self.jets_analytic(2)
        q = MatrixField(j.grid, j.values.copy(), j.margin)
        ((a, b),) = frechet_apply((u_functional(LAM_EUCLID),), j, q)
        return {
            "el-symmetry": compatibility_defect(a, b, *self.euclid_u()),
            "path-independence": integrate_surface(a, b, self.euclid_wave()).path_defect,
        }

    @_fixture
    def rung_defects(self, n: int, k: int) -> dict[str, object]:
        """prop7 and prop8 on rung (n, k) under f = xi^2, from one
        prolongation along its Q: pr w Phi against f D1 Phi + g D2 Phi, the
        tangents of Phi^-1 pr w Phi against the prolonged connection and,
        above level 0, pr w of the lowered rung against f D1 + g D2 of it,
        whose D1 and D2 the step-order probe reuses on rung (2, 1).

        Only the standard pair's fields are shared; another rung's fields
        are dropped on return, which keeps peak memory down.
        """
        spec, j = self.euclid_spec(), self.jets_analytic(n, k)
        out: dict[str, object] = {}
        if (n, k) == (2, 0):
            w, prw_phi = self.euclid_wave(), self.euclid_prolonged()["wave"]
            calf, (a, b) = self.euclid_explicit(), self.euclid_tangents()
        else:
            gs = [wave_functional(_euclid_builder(k)), u_functional(LAM_EUCLID)]
            if k:
                gs.append(lowering_functional())
            (prw_phi,), (a, b), *lowered = frechet_apply(gs, j, conformal_characteristic(spec, j))
            if lowered:
                dl = lowering_derivatives_functional()(j)
                out["lowered-rung"] = _lowering_defect(spec, lowered[0][0], dl)
                if (n, k) == (2, 1):
                    out["step-order"] = _step_defects(j, dl)
            w = euclidean_wave(j, k, LAM_EUCLID)
            calf = explicit_immersion(w, prw_phi)
        d1phi, d2phi, dm = chart_first_derivatives(w)
        ref = spec.along(j.grid, d1phi, d2phi)
        out["conformal-wave"] = interior_max(fro(prw_phi.values - ref), max(prw_phi.margin, dm))
        out["explicit-integration"] = max(tangent_check(calf, w, a, b))
        return out

    # Traveling wave at LAM_MINK, deformed by the quadratic f = (x1)^2.

    @_fixture
    def mink_wave(self, h: float = MINK_H) -> WaveField:
        return phi_traveling(*self.traveling(h), LAM_MINK)

    @_fixture
    def mink_u(self) -> tuple[MatrixField, MatrixField]:
        return u_pair(self.traveling()[1], LAM_MINK)

    @_fixture
    def mink_k(self) -> np.ndarray:
        """K = [theta_1, theta]."""
        jt = self.traveling()[1]
        return commutator(jt.d1, jt.values)

    @_fixture
    def mink_q(self, h: float = MINK_H) -> MatrixField:
        return conformal_characteristic(self.mink_spec_quadratic(), self.traveling(h)[1])

    @_fixture
    def mink_prolonged(self) -> dict[str, object]:
        """The one prolongation along the quadratic Q: Phi^-1 pr w Phi; the
        size of the linear-problem residual r1 and its match with
        -f_11 chi (1+lam) D1 Phi; the tangents of Phi^-1 pr w Phi against
        the prolonged connection."""
        (tw, jt), w, spec = self.traveling(), self.mink_wave(), self.mink_spec_quadratic()
        gs = (u_functional(LAM_MINK), wave_functional(_mink_builder(tw), LAM_MINK))
        (a, b), (prw_phi, r1, _) = frechet_apply(gs, jt, self.mink_q())
        calf = explicit_immersion(w, prw_phi)
        d1phi, _, dm = chart_first_derivatives(w)
        pred = (-(spec.f11(tw.grid)) * tw.chi(LAM_MINK) * (1 + LAM_MINK)) * d1phi
        return {
            "explicit": calf,
            "lsp": _field_max(r1),
            "curvature-defect-form": interior_max(fro(r1.values - pred), max(r1.margin, dm)),
            "explicit-tangents": max(tangent_check(calf, w, a, b)),
        }

    @_fixture
    def mink_linear_defects(self) -> dict[str, float]:
        """The dilation f = x1, g = x2: the closed form's tangents against
        the prolonged connection, and that connection's compatibility and
        path defects."""
        spec, jt, w = self.mink_spec_linear(), self.traveling()[1], self.mink_wave()
        ((a, b),) = frechet_apply((u_functional(LAM_MINK),), jt, conformal_characteristic(spec, jt))
        f_closed = conformal_immersion_closed(spec, jt, w, LAM_MINK)
        return {
            "closed-form-tangents": max(tangent_check(f_closed, w, a, b)),
            "compatibility": compatibility_defect(a, b, *self.mink_u()),
            "path-defect": integrate_surface(a, b, w).path_defect,
        }

    @_fixture
    def traveling_tangent_defects(self) -> dict[str, float]:
        """The closed tangent coefficients R of the quadratic symmetry: their
        match with the stencil tangents of Phi^-1 pr w Phi, and the smallest
        Gram eigenvalue of the tangents without and with a constant gauge
        term."""
        tw, jt = self.traveling()
        w, (u1, u2), calf = self.mink_wave(), self.mink_u(), self.mink_prolonged()["explicit"]
        r1, r2 = traveling_R_fields(self.mink_spec_quadratic(), tw, jt, LAM_MINK)
        s = constant(1j * np.array([[1.0, 0.0], [0.0, -1.0]]))

        def gram_min(x1: np.ndarray, x2: np.ndarray) -> float:
            t1 = MatrixField(tw.grid, w.conjugate(x1), r1.margin)
            t2 = MatrixField(tw.grid, w.conjugate(x2), r2.margin)
            return linear_independence_report(t1, t2)["max_min_eigenvalue"]

        return {
            "tangent-coefficients": max(tangent_check(calf, w, r1, r2)),
            "degenerate-rank": gram_min(r1.values, r2.values),
            "gauge-restores-rank": gram_min(
                r1.values + commutator(s, u1.values), r2.values + commutator(s, u2.values)
            ),
        }

    @_fixture
    def mink_affine_defects(self) -> dict[str, object]:
        """prop6's affine symmetry, from one prolongation: its linear-problem
        defect, and the mean and variation of F - Phi^-1 pr w Phi."""
        (tw, jt), w, spec = self.traveling(), self.mink_wave(), self.mink_spec_affine()
        gs = (wave_functional(_mink_builder(tw), LAM_MINK),)
        ((prw_phi, *lsp),) = frechet_apply(gs, jt, conformal_characteristic(spec, jt))
        f_closed = conformal_immersion_closed(spec, jt, w, LAM_MINK)
        mean, variation = constant_difference_check(f_closed, explicit_immersion(w, prw_phi))
        return {"lsp": max(map(_field_max, lsp)), "mean": mean, "variation": variation}

    @_fixture
    def mink_commutation_defects(self) -> dict[str, float]:
        """Commutation defects of theta, u1 and u2 on the traveling wave,
        from one prolongation at the step MINK_EPS."""
        jt, q = self.traveling()[1], self.mink_q()
        return _commutation_defects(
            frechet_apply(_commutation_functionals(LAM_MINK), jt, q, MINK_EPS)
        )


def _euclid_builder(k: int) -> Callable[[JetField], WaveField]:
    return lambda jd: euclidean_wave(jd, k, LAM_EUCLID)


def _mink_builder(tw) -> Callable[[JetField], WaveField]:
    return lambda jd: phi_traveling(tw, jd, LAM_MINK)


def _commutation_functionals(lam: complex) -> tuple:
    """theta, (D1 theta, D2 theta), (u1, u2), (D1 u1, D2 u1), (D1 u2, D2 u2)."""
    dus = (u_derivatives_functional(lam, 1), u_derivatives_functional(lam, 2))
    return theta_functional(), theta_derivatives_functional(), u_functional(lam), *dus


def _commutation_defects(prolonged) -> dict[str, float]:
    """The appendix's defects of theta, u1 and u2 from the prolongations
    of `_commutation_functionals`, in that order."""
    (prw_theta,), prw_dtheta, (prw_u1, prw_u2), prw_du1, prw_du2 = prolonged
    return {
        "theta": commutation_defect(prw_theta, prw_dtheta),
        "u1": commutation_defect(prw_u1, prw_du1),
        "u2": commutation_defect(prw_u2, prw_du2),
    }


def _field_max(r: MatrixField) -> float:
    return interior_max(fro(r.values), r.margin)


def _det_variation(w: WaveField) -> float:
    d = interior(det(w.values), w.margin)
    ref = d[d.shape[0] // 2, d.shape[1] // 2]
    return float(np.nanmax(np.abs(d - ref)))


# --- measures that take more than one expression ------------------------------


def _zero_curvature(fx: Fixtures) -> float:
    u1, u2 = fx.euclid_u()
    d1u2 = chart_first_derivatives(u2)
    d2u1 = chart_first_derivatives(u1)
    res = d2u1[1] - d1u2[0] + commutator(u1.values, u2.values)
    return interior_max(fro(res), max(d2u1[2], d1u2[2]))


def _euclid_tangent_defect(fx: Fixtures, f: MatrixField) -> float:
    """Stencil tangents of the surface ``f`` against the standard prolonged connection."""
    return max(tangent_check(f, fx.euclid_wave(), *fx.euclid_tangents()))


def _naive_pair_defect(fx: Fixtures) -> float:
    u1, u2 = fx.euclid_u()
    zero = MatrixField(u1.grid, np.zeros_like(u1.values), u1.margin)
    return compatibility_defect(u1, zero, u1, u2)


def _euclid_prolonged_connection(fx: Fixtures) -> float:
    a, b = fx.euclid_tangents()
    pw1, pw2 = prolong_u(fx.euclid_spec(), fx.jets_analytic(2), LAM_EUCLID)
    return max(
        interior_max(fro(a.values - pw1.values), max(a.margin, pw1.margin)),
        interior_max(fro(b.values - pw2.values), max(b.margin, pw2.margin)),
    )


def _traveling_lsp(fx: Fixtures) -> float:
    r1, r2, m = lsp_residual(fx.mink_wave(), *fx.mink_u())
    return max(interior_max(r1, m), interior_max(r2, m))


def _prolonged_surface_closed_form(fx: Fixtures) -> float:
    spec, tw = fx.mink_spec_quadratic(), fx.traveling()[0]
    calf = fx.mink_prolonged()["explicit"]
    grid = tw.grid
    coeff = -2 * spec.f(grid) - 2 * tw.kappa * spec.g(grid) + 2 * spec.f1(grid) * tw.chi(LAM_MINK)
    pred = coeff * fx.mink_wave().conjugate(fx.mink_k())
    return interior_max(fro(calf.values - pred), calf.margin)


def _slope_criterion(fx: Fixtures) -> float:
    """The second linear-problem residual under f = x1, g = 2 x2."""
    tw, jt = fx.traveling()
    q = conformal_characteristic(ConformalSpec.minkowski((0.0, 1.0), (0.0, 2.0)), jt)
    ((_, _, r2),) = frechet_apply((wave_functional(_mink_builder(tw), LAM_MINK),), jt, q)
    return _field_max(r2)


def _affine_difference_value(fx: Fixtures) -> float:
    mean = fx.mink_affine_defects()["mean"]
    tw = fx.traveling()[0]
    ktil = fx.mink_wave().conjugate(fx.mink_k())[..., tw.grid.n2 // 2, tw.grid.n1 // 2]
    lam = LAM_MINK
    pred = (2 * AFFINE_B * lam / (1 + lam) - 2 * AFFINE_C * tw.kappa * lam / (1 - lam)) * ktil
    return float(np.max(np.abs(mean - pred)))


def _quadratic_difference_variation(fx: Fixtures) -> float:
    spec, (tw, jt), w = fx.mink_spec_quadratic(), fx.traveling(WIDE_H), fx.mink_wave(WIDE_H)
    ((prw_phi,),) = frechet_apply((wave_functional(_mink_builder(tw)),), jt, fx.mink_q(WIDE_H))
    f_closed = conformal_immersion_closed(spec, jt, w, LAM_MINK)
    return constant_difference_check(f_closed, explicit_immersion(w, prw_phi))[1]


def _lowering_defect(
    spec: ConformalSpec, prw: MatrixField, dl: tuple[MatrixField, MatrixField]
) -> float:
    """pr w of the lowered rung, ``prw``, against f D1 + g D2 of it, given
    (D1, D2) as ``dl``."""
    dl1, dl2 = dl
    ref = spec.along(prw.grid, dl1.values, dl2.values)
    return interior_max(fro(prw.values - ref), max(prw.margin, dl1.margin))


# Convergence orders of the deformation apparatus, probed on the lowering
# operator (genuinely nonlinear in the jets).


def _step_defects(j: JetField, dl: tuple[MatrixField, MatrixField]) -> list[float]:
    """Lowering defects under a translation at steps 0.04, 0.02 and 0.01,
    given (D1, D2) of the lowered rung."""
    trans = ConformalSpec.euclidean((1.0,))
    q = conformal_characteristic(trans, j)
    out = []
    for eps in (0.04, 0.02, 0.01):
        ((prw,),) = frechet_apply((lowering_functional(),), j, q, eps)
        out.append(_lowering_defect(trans, prw, dl))
    return out


def _step_order(fx: Fixtures) -> float:
    ds = fx.rung_defects(2, 1)["step-order"]
    return float(min(np.log2(ds[i] / ds[i + 1]) for i in range(2)))


def _grid_order(fx: Fixtures) -> float:
    spec = fx.euclid_spec()
    gs = (lowering_functional(), lowering_derivatives_functional())
    ds = []
    for h in (0.012, 0.006, 0.003):
        jh = theta_of(veronese_ladder(2, fx.euclid_grid(h)).rungs[1])
        qh = conformal_characteristic(spec, jh)
        (prw_g,), prw_dg = frechet_apply(gs, jh, qh, 1e-3)
        ds.append(commutation_defect(prw_g, prw_dg))
    return float(min(np.log2(ds[i] / ds[i + 1]) for i in range(2)))


# --- the check table -----------------------------------------------------------


class _Check(NamedTuple):
    name: str
    description: str
    tolerance: float
    measure: Callable[[Fixtures], float]
    comparison: str = "below"
    key: str | None = None  # the tolerance key, where rows share one

    @property
    def suite(self) -> str:
        return self.name.split(".", 1)[0]


def _theta_identity_checks(n: int) -> tuple[_Check, ...]:
    return (
        _Check(
            f"identities.theta-square-cp{n - 1}",
            "theta^2 = -i(2-N)/N theta + (1-N)/N E pointwise",
            1e-10,
            lambda fx: interior_max(*theta_square_residual(fx.jets_numeric(n))),
            key="identities.theta-square",
        ),
        _Check(
            f"identities.theta-commutator-cp{n - 1}",
            "[theta_1,theta](2i theta-(2-N)E) = -i theta_1",
            1e-10,
            lambda fx: interior_max(*theta_comm_identity_residual(fx.jets_numeric(n))),
            key="identities.theta-commutator",
        ),
        _Check(
            f"identities.theta-triple-cp{n - 1}",
            "theta theta_1 theta = (N-1)/N^2 theta_1",
            1e-10,
            lambda fx: interior_max(*theta_triple_residual(fx.jets_numeric(n))),
            key="identities.theta-triple",
        ),
    )


def _rung_checks(n: int, k: int) -> tuple[_Check, ...]:
    return (
        _Check(
            f"prop8.conformal-wave-cp{n - 1}-level{k}",
            "pr w Phi = f D1 Phi + g D2 Phi per ladder level",
            1e-6,
            lambda fx: fx.rung_defects(n, k)["conformal-wave"],
            key="prop8.conformal-wave",
        ),
        _Check(
            f"prop8.explicit-integration-cp{n - 1}-level{k}",
            "Phi^-1 pr w Phi carries the prolonged tangents",
            1e-6,
            lambda fx: fx.rung_defects(n, k)["explicit-integration"],
            key="prop8.explicit-integration",
        ),
    )


_CHECKS: tuple[_Check, ...] = (
    # --- identities
    _Check(
        "identities.su-basis-closure",
        "structure constants reproduce su(3) commutators",
        1e-12,
        lambda fx: su_basis(3).closure_residual(),
    ),
    *_theta_identity_checks(2),
    *_theta_identity_checks(3),
    _Check(
        "identities.theta-square-traveling",
        "algebra identity on the traveling wave (exact jets)",
        1e-10,
        lambda fx: interior_max(*theta_square_residual(fx.traveling()[1])),
        key="identities.theta-square",
    ),
    # --- prop1: generic tangents <-> symmetry, wave-function deformation
    _Check(
        "prop1.zero-curvature-on-solution",
        "D2 u1 - D1 u2 + [u1,u2] vanishes on a solution field",
        1e-7,
        _zero_curvature,
    ),
    _Check(
        "prop1.deformed-wave-function",
        "Psi = Phi F satisfies D Psi = u Psi + Q Phi",
        1e-6,
        lambda fx: psi_residual(
            psi_of(fx.euclid_closed(), fx.euclid_wave()),
            fx.euclid_wave(),
            *fx.euclid_u(),
            *fx.euclid_tangents(),
        ),
    ),
    # --- prop2: symmetry <=> integrable tangents.  Q is a symmetry of the
    # field equations iff its prolonged connection (pr w u1, pr w u2) has
    # zero curvature; that pair is also the tangent pair of the surface, so
    # both positive criteria read one defect.
    _Check(
        "prop2.el-symmetry-positive",
        "conformal characteristic is a symmetry of the field equations",
        1e-6,
        lambda fx: fx.euclid_compatibility(),
    ),
    _Check(
        "prop2.compatibility-positive",
        "its tangent pair satisfies the integrability condition",
        1e-6,
        lambda fx: fx.euclid_compatibility(),
    ),
    _Check(
        "prop2.path-independence-positive",
        "the integrated surface is path independent",
        1e-6,
        lambda fx: fx.euclid_surface().path_defect,
    ),
    _Check(
        "prop2.integrated-tangents",
        "stencil derivatives of the integrated surface match the tangents",
        1e-6,
        lambda fx: _euclid_tangent_defect(fx, fx.euclid_surface().raw),
    ),
    _Check(
        "prop2.el-symmetry-negative",
        "non-symmetry characteristic fails the symmetry criterion",
        1e-3,
        lambda fx: fx.euclid_theta_defects()["el-symmetry"],
        "above",
    ),
    _Check(
        "prop2.path-independence-negative",
        "and its line integral is path dependent",
        1e-6,
        lambda fx: fx.euclid_theta_defects()["path-independence"],
        "above",
    ),
    _Check(
        "prop2.compatibility-negative",
        "as is the naive pair A = u1, B = 0",
        1e-3,
        _naive_pair_defect,
        "above",
    ),
    # --- prop3: explicit integration <=> symmetry of the linear problem
    _Check(
        "prop3.euclid-lsp-symmetry",
        "conformal characteristic is a symmetry of the linear problem",
        1e-6,
        lambda fx: fx.euclid_prolonged()["lsp-symmetry"],
    ),
    _Check(
        "prop3.euclid-explicit-integration",
        "so Phi^-1 (pr w Phi) has the prolonged tangents",
        1e-6,
        lambda fx: _euclid_tangent_defect(fx, fx.euclid_explicit()),
    ),
    _Check(
        "prop3.mink-lsp-symmetry-negative",
        "quadratic traveling-wave characteristic breaks the linear-problem symmetry",
        0.1,
        lambda fx: fx.mink_prolonged()["lsp"],
        "above",
    ),
    _Check(
        "prop3.mink-explicit-integration-negative",
        "and Phi^-1 (pr w Phi) fails the prolonged-tangent identity",
        0.1,
        lambda fx: fx.mink_prolonged()["explicit-tangents"],
        "above",
    ),
    # --- prop4: conformal closed form
    _Check(
        "prop4.euclid-closed-form-tangents",
        "F = Phi^-1(f u1 + g u2) Phi has the prolonged tangents (f=xi^2)",
        1e-6,
        lambda fx: _euclid_tangent_defect(fx, fx.euclid_closed()),
    ),
    _Check(
        "prop4.euclid-prolonged-connection",
        "field deformation matches the closed prolongation of the connection",
        1e-6,
        _euclid_prolonged_connection,
    ),
    _Check(
        "prop4.euclid-compatibility",
        "prolonged tangent pair is integrable",
        1e-6,
        lambda fx: fx.euclid_compatibility(),
    ),
    _Check(
        "prop4.euclid-path-defect",
        "line integration is path independent",
        1e-6,
        lambda fx: fx.euclid_surface().path_defect,
    ),
    _Check(
        "prop4.mink-closed-form-tangents",
        "same identity on the Minkowski chart (f=x1, g=x2)",
        1e-6,
        lambda fx: fx.mink_linear_defects()["closed-form-tangents"],
    ),
    _Check(
        "prop4.mink-compatibility",
        "Minkowski prolonged tangent pair is integrable",
        1e-6,
        lambda fx: fx.mink_linear_defects()["compatibility"],
    ),
    _Check(
        "prop4.mink-path-defect",
        "Minkowski line integration is path independent",
        1e-6,
        lambda fx: fx.mink_linear_defects()["path-defect"],
    ),
    # --- prop5: traveling-wave wave function and its prolonged surface
    _Check(
        "prop5.traveling-lsp",
        "exponential wave function solves the linear problem",
        1e-8,
        _traveling_lsp,
    ),
    _Check(
        "prop5.det-constant",
        "det Phi is constant on the grid",
        1e-10,
        lambda fx: _det_variation(fx.mink_wave()),
    ),
    _Check(
        "prop5.prolonged-surface-closed-form",
        "Phi^-1 pr w Phi = (-2f - 2 kappa g + 2 f_1 chi) Phi^-1 [theta_1,theta] Phi",
        1e-6,
        _prolonged_surface_closed_form,
    ),
    _Check(
        "prop5.tangent-coefficients",
        "its stencil tangents match the closed tangent coefficients",
        1e-6,
        lambda fx: fx.traveling_tangent_defects()["tangent-coefficients"],
    ),
    _Check(
        "prop5.degenerate-rank",
        "pure conformal tangents span a curve (Gram matrix is singular)",
        1e-10,
        lambda fx: fx.traveling_tangent_defects()["degenerate-rank"],
    ),
    _Check(
        "prop5.gauge-restores-rank",
        "adding a constant gauge term makes the Gram matrix nondegenerate",
        1e-3,
        lambda fx: fx.traveling_tangent_defects()["gauge-restores-rank"],
        "above",
    ),
    # --- prop6: integrability criteria on the Minkowski chart
    _Check(
        "prop6.curvature-criterion-defect-form",
        "quadratic-f defect equals -f_11 chi (1+lam) D1 Phi",
        1e-6,
        lambda fx: fx.mink_prolonged()["curvature-defect-form"],
    ),
    _Check(
        "prop6.curvature-criterion-negative",
        "and it is large: f must be affine for integrability",
        0.1,
        lambda fx: fx.mink_prolonged()["lsp"],
        "above",
    ),
    _Check(
        "prop6.slope-criterion-negative",
        "f_1 != g_2 breaks the second linear-problem equation",
        1e-2,
        _slope_criterion,
        "above",
    ),
    _Check(
        "prop6.affine-positive",
        "affine f, g with equal slopes pass both equations",
        1e-6,
        lambda fx: fx.mink_affine_defects()["lsp"],
    ),
    _Check(
        "prop6.constant-difference-variation",
        "F - Phi^-1 pr w Phi is constant for affine data",
        1e-8,
        lambda fx: fx.mink_affine_defects()["variation"],
    ),
    _Check(
        "prop6.constant-difference-value",
        "and equals (2b lam/(1+lam) - 2c kappa lam/(1-lam)) Phi^-1 [theta_1,theta] Phi",
        1e-8,
        _affine_difference_value,
    ),
    _Check(
        "prop6.constant-difference-negative",
        "for quadratic f the difference is not constant",
        0.1,
        _quadratic_difference_variation,
        "above",
    ),
    # --- prop7: conformal transformation of the ladder rungs
    *(
        _Check(
            f"prop7.lowered-rung-cp{n - 1}-level{k}",
            "pr w (lowered rung) = f D1 + g D2 of the rung",
            1e-6,
            lambda fx, n=n, k=k: fx.rung_defects(n, k)["lowered-rung"],
            key="prop7.lowered-rung",
        )
        for n, k in ((2, 1), (3, 1), (3, 2))
    ),
    # --- prop8: the Euclidean positive results, per ladder rung
    *(row for n in (2, 3) for k in range(n) for row in _rung_checks(n, k)),
    # --- appendix: prolongation commutes with total derivatives
    _Check(
        "appendix.commutation-euclid-theta",
        "D_alpha(pr w G) = pr w(D_alpha G) on the Euclidean chart",
        1e-6,
        lambda fx: fx.euclid_prolonged()["commutation"]["theta"],
        key="appendix.commutation",
    ),
    *(
        _Check(
            f"appendix.commutation-euclid-u{i}",
            "D_alpha(pr w G) = pr w(D_alpha G) on the Euclidean chart",
            1e-6,
            lambda fx, i=i: fx.euclid_prolonged()["commutation"][f"u{i}"],
            key="appendix.commutation",
        )
        for i in (1, 2)
    ),
    _Check(
        "appendix.commutation-mink-theta",
        "same on the Minkowski chart",
        1e-6,
        lambda fx: fx.mink_commutation_defects()["theta"],
        key="appendix.commutation",
    ),
    *(
        _Check(
            f"appendix.commutation-mink-u{i}",
            "same on the Minkowski chart",
            1e-6,
            lambda fx, i=i: fx.mink_commutation_defects()[f"u{i}"],
            key="appendix.commutation",
        )
        for i in (1, 2)
    ),
    _Check(
        "appendix.step-order",
        "deformation-step error decays at second order",
        1.9,
        _step_order,
        "above",
    ),
    _Check(
        "appendix.grid-order",
        "commutation defect decays at least at third order in h",
        3.0,
        _grid_order,
        "above",
    ),
)

SUITE_NAMES = tuple(dict.fromkeys(c.suite for c in _CHECKS))
_TOLERANCE_KEYS = frozenset(c.key or c.name for c in _CHECKS)


def _run_checks(
    checks: tuple[_Check, ...], fx: Fixtures, tolerances: dict[str, float]
) -> list[CheckResult]:
    """Measure each check; its runtime includes the fixtures it builds first."""
    out = []
    for c in checks:
        tolerance = float(tolerances.get(c.key or c.name, c.tolerance))
        t0 = time.perf_counter()
        value = float(c.measure(fx))
        dt = time.perf_counter() - t0
        ok = value < tolerance if c.comparison == "below" else value > tolerance
        out.append(
            CheckResult(
                name=c.name,
                target=c.suite,
                description=c.description,
                measured=value,
                tolerance=tolerance,
                comparison=c.comparison,
                passed=bool(ok),
                runtime_s=dt,
            )
        )
    return out


_SUITES: dict[str, Callable[[Fixtures, dict[str, float]], list[CheckResult]]] = {
    suite: functools.partial(_run_checks, tuple(c for c in _CHECKS if c.suite == suite))
    for suite in SUITE_NAMES
}


def run_suites(
    names: tuple[str, ...] | list[str],
    tolerances: dict[str, float] | None = None,
) -> VerificationReport:
    """Run the named suites (or ``all``) and assemble the ordered report."""
    tolerances = dict(tolerances or {})
    for key in tolerances:
        if key not in _TOLERANCE_KEYS:
            raise ConfigError(f"key 'tolerances.{key}' names no check")
    wanted: list[str] = []
    for nm in names:
        if nm == "all":
            wanted.extend(SUITE_NAMES)
        elif nm in _SUITES:
            wanted.append(nm)
        else:
            raise ValueError(f"unknown suite {nm!r}; choose from all, {', '.join(SUITE_NAMES)}")
    seen: set[str] = set()
    ordered = [nm for nm in wanted if not (nm in seen or seen.add(nm))]

    fx = Fixtures()
    results: list[CheckResult] = []
    for nm in ordered:
        results.extend(_SUITES[nm](fx, tolerances))
    return VerificationReport(suites=tuple(ordered), results=results)
