"""Named verification suites with machine-readable reports.

Each check measures one residual or defect on a standard fixture and
compares it against a tolerance (some checks are negative controls and
must exceed a floor instead).  Suites are named ``identities``,
``prop1`` .. ``prop8`` and ``appendix``; ``all`` runs everything.

Fixture grids are chosen so that 4th-order stencil truncation dominates
rounding noise at every measured quantity; Euclidean immersion checks run
at an imaginary spectral parameter, where the wave function is unitary
and the algebra-valuedness of the surfaces is exact (unitarity is
reported, never assumed).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .fields import (
    CHART_EUCLIDEAN,
    CHART_MINKOWSKI,
    Grid2,
    MatrixField,
    chart_first_derivatives,
    interior_max,
)
from .immersion import (
    ImmersionResult,
    conformal_immersion_closed,
    constant_difference_check,
    explicit_immersion,
    integrate_surface,
    linear_independence_report,
    prolonged_wave,
    psi_of,
    psi_residual,
    tangent_check,
)
from .matlie import commutator, det, fro, su_basis
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
    FrechetPolicy,
    commutation_defect,
    compatibility_defect,
    conformal_characteristic,
    el_symmetry_defect,
    frechet_apply,
    lowering_derivatives_functional,
    lowering_functional,
    lsp_symmetry_defect,
    prolong_u,
    theta_derivatives_functional,
    theta_functional,
    traveling_R_fields,
    u_derivatives_functional,
    u_functional,
)

__all__ = ["CheckResult", "VerificationReport", "SUITE_NAMES", "run_suites"]

SUITE_NAMES = (
    "identities",
    "prop1",
    "prop2",
    "prop3",
    "prop4",
    "prop5",
    "prop6",
    "prop7",
    "prop8",
    "appendix",
)

# Standard fixture parameters.  Euclidean grids are small enough that the
# tightest identity tolerances hold, and large enough that second-derivative
# rounding noise stays below every truncation signal.
EUCLID_H = 0.0015
MINK_H = 0.001
GRID_N = 101
KAPPA, OMEGA = 2.0, 1.0
LAM_EUCLID = 0.6j
LAM_MINK = 0.5
LSP_LAMBDAS = (0.5, -0.3, 2.0)


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


class Fixtures:
    """Lazily built standard fixtures shared by the suites.

    Every quantity that more than one check derives from the same inputs
    is built here once, under a key naming those inputs.
    """

    def __init__(self, tolerances: dict[str, float] | None = None):
        self._cache: dict = {}
        self.tol = dict(tolerances or {})

    def tolerance(self, name: str, default: float) -> float:
        return float(self.tol.get(name, default))

    def _get(self, key: str, builder: Callable[[], object]):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def euclid_grid(self, h: float = EUCLID_H) -> Grid2:
        return self._get(
            f"ge-{h}", lambda: Grid2(CHART_EUCLIDEAN, (0.0, 0.0), (h, h), (GRID_N, GRID_N))
        )

    def mink_grid(self, h: float = MINK_H) -> Grid2:
        return self._get(
            f"gm-{h}", lambda: Grid2(CHART_MINKOWSKI, (0.0, 0.0), (h, h), (GRID_N, GRID_N))
        )

    # Only the jets are kept, each built from its own rung: holding every
    # Veronese ladder as well would raise the run's peak memory.

    def jets_analytic(self, n: int, k: int = 0, h: float = EUCLID_H) -> JetField:
        return self._get(
            f"ja-{n}-{k}-{h}",
            lambda: theta_of(veronese_field(n, self.euclid_grid(h), k), "analytic"),
        )

    def jets_numeric(self, n: int, k: int = 0, h: float = EUCLID_H) -> JetField:
        return self._get(
            f"jn-{n}-{k}-{h}",
            lambda: theta_of(veronese_field(n, self.euclid_grid(h), k), "numeric-stencil"),
        )

    def traveling(self, h: float = MINK_H):
        return self._get(
            f"tw-{h}", lambda: traveling_solution(KAPPA, OMEGA, self.mink_grid(h))
        )

    def euclid_spec(self) -> ConformalSpec:
        # f = xi^2, g the conjugate mirror
        return ConformalSpec.euclidean((0.0, 0.0, 1.0))

    def mink_spec_linear(self) -> ConformalSpec:
        # f = x1, g = x2 (dilation)
        return ConformalSpec.minkowski((0.0, 1.0), (0.0, 1.0))

    def mink_spec_quadratic(self) -> ConformalSpec:
        # f = (x1)^2, g = 0: the non-integrable control
        return ConformalSpec.minkowski((0.0, 0.0, 1.0), (0.0,))

    # The standard Euclidean pair: rung (2, 0) at LAM_EUCLID under the
    # f = xi^2 symmetry.

    def euclid_q(self) -> MatrixField:
        j = self.jets_analytic(2)
        return self._get("eq-2-0", lambda: conformal_characteristic(self.euclid_spec(), j))

    def euclid_wave(self) -> WaveField:
        return self._get("ew-2-0", lambda: euclidean_wave(self.jets_analytic(2), 0, LAM_EUCLID))

    def euclid_u(self) -> tuple[MatrixField, MatrixField]:
        return self._get("eu-2-0", lambda: u_pair(self.jets_analytic(2), LAM_EUCLID))

    def euclid_tangents(self) -> tuple[MatrixField, MatrixField]:
        """The prolonged connection (pr w u1, pr w u2)."""
        j, q = self.jets_analytic(2), self.euclid_q()
        return self._get("et-2-0", lambda: frechet_apply(u_functional(LAM_EUCLID), j, q))

    def euclid_compatibility(self) -> float:
        a_b_u1_u2 = self.euclid_tangents() + self.euclid_u()
        return self._get("ecd-2-0", lambda: compatibility_defect(*a_b_u1_u2))

    def euclid_prolonged_wave(self) -> MatrixField:
        """pr w Phi."""
        j, q = self.jets_analytic(2), self.euclid_q()
        return self._get("epw-2-0", lambda: prolonged_wave(q, j, _euclid_builder(0)))

    def euclid_explicit(self) -> MatrixField:
        """Phi^-1 pr w Phi."""
        w, prw_phi = self.euclid_wave(), self.euclid_prolonged_wave()
        return self._get("ecalf-2-0", lambda: explicit_immersion(w, prw_phi)[0])

    def euclid_closed(self) -> MatrixField:
        """F = Phi^-1 (f u1 + g u2) Phi."""
        j, w = self.jets_analytic(2), self.euclid_wave()
        return self._get(
            "ef-2-0", lambda: conformal_immersion_closed(self.euclid_spec(), j, w, LAM_EUCLID)[0]
        )

    def euclid_surface(self) -> ImmersionResult:
        a, b = self.euclid_tangents()
        return self._get("es-2-0", lambda: integrate_surface(a, b, self.euclid_wave()))

    # Traveling wave at LAM_MINK, deformed by the quadratic f = (x1)^2.

    def mink_wave(self, h: float) -> WaveField:
        return self._get(f"mw-{h}", lambda: phi_traveling(*self.traveling(h), LAM_MINK))

    def mink_u(self) -> tuple[MatrixField, MatrixField]:
        return self._get(f"mu-{MINK_H}", lambda: u_pair(self.traveling()[1], LAM_MINK))

    def mink_k(self) -> np.ndarray:
        """K = [theta_1, theta]."""
        jt = self.traveling()[1]
        return self._get(f"mk-{MINK_H}", lambda: commutator(jt.d1, jt.theta))

    def mink_q(self, h: float) -> MatrixField:
        jt = self.traveling(h)[1]
        spec = self.mink_spec_quadratic()
        return self._get(f"mq-{h}", lambda: conformal_characteristic(spec, jt))

    def mink_lsp_defect(self) -> tuple[MatrixField, MatrixField]:
        (tw, jt), q = self.traveling(), self.mink_q(MINK_H)
        return self._get(
            f"mlsp-{MINK_H}", lambda: lsp_symmetry_defect(q, jt, LAM_MINK, _mink_builder(tw))
        )

    def mink_explicit(self, h: float) -> MatrixField:
        """Phi^-1 pr w Phi."""
        (tw, jt), q, w = self.traveling(h), self.mink_q(h), self.mink_wave(h)
        return self._get(
            f"mcalf-{h}",
            lambda: explicit_immersion(w, prolonged_wave(q, jt, _mink_builder(tw)))[0],
        )


def _euclid_builder(k: int) -> Callable[[JetField], WaveField]:
    return lambda jd: euclidean_wave(jd, k, LAM_EUCLID)


def _mink_builder(tw) -> Callable[[JetField], WaveField]:
    return lambda jd: phi_traveling(tw, jd, LAM_MINK)


def _check(
    name: str,
    description: str,
    measure: Callable[[], float],
    tolerance: float,
    comparison: str = "below",
) -> CheckResult:
    """Measure one check; its target is the suite named by the prefix of ``name``."""
    t0 = time.perf_counter()
    value = float(measure())
    dt = time.perf_counter() - t0
    ok = value < tolerance if comparison == "below" else value > tolerance
    return CheckResult(
        name=name,
        target=name.split(".", 1)[0],
        description=description,
        measured=value,
        tolerance=tolerance,
        comparison=comparison,
        passed=bool(ok),
        runtime_s=dt,
    )


# --- identities -------------------------------------------------------------


def suite_identities(fx: Fixtures) -> list[CheckResult]:
    out = []
    out.append(
        _check(
            "identities.su-basis-closure",
            "structure constants reproduce su(3) commutators",
            lambda: su_basis(3).closure_residual(),
            fx.tolerance("identities.su-basis-closure", 1e-12),
        )
    )
    for n in (2, 3):
        jn = fx.jets_numeric(n)
        sq, m0 = theta_square_residual(jn)
        out.append(
            _check(
                f"identities.theta-square-cp{n - 1}",
                "theta^2 = -i(2-N)/N theta + (1-N)/N E pointwise",
                lambda sq=sq, m0=m0: interior_max(sq, m0),
                fx.tolerance("identities.theta-square", 1e-10),
            )
        )
        ci, m1 = theta_comm_identity_residual(jn)
        out.append(
            _check(
                f"identities.theta-commutator-cp{n - 1}",
                "[theta_1,theta](2i theta-(2-N)E) = -i theta_1",
                lambda ci=ci, m1=m1: interior_max(ci, m1),
                fx.tolerance("identities.theta-commutator", 1e-10),
            )
        )
        tri, mt = theta_triple_residual(jn)
        out.append(
            _check(
                f"identities.theta-triple-cp{n - 1}",
                "theta theta_1 theta = (N-1)/N^2 theta_1",
                lambda tri=tri, mt=mt: interior_max(tri, mt),
                fx.tolerance("identities.theta-triple", 1e-10),
            )
        )
    _, jt = fx.traveling()
    sq, m0 = theta_square_residual(jt)
    out.append(
        _check(
            "identities.theta-square-traveling",
            "algebra identity on the traveling wave (exact jets)",
            lambda: interior_max(sq, m0),
            fx.tolerance("identities.theta-square", 1e-10),
        )
    )
    return out


# --- prop1: generic tangents <-> symmetry, wave-function deformation ---------


def suite_prop1(fx: Fixtures) -> list[CheckResult]:
    out = []
    u1, u2 = fx.euclid_u()

    def zero_curvature() -> float:
        d1u2 = chart_first_derivatives(u2)
        d2u1 = chart_first_derivatives(u1)
        res = d2u1[1] - d1u2[0] + commutator(u1.values, u2.values)
        return interior_max(fro(res), max(d2u1[2], d1u2[2]))

    out.append(
        _check(
            "prop1.zero-curvature-on-solution",
            "D2 u1 - D1 u2 + [u1,u2] vanishes on a solution field",
            zero_curvature,
            fx.tolerance("prop1.zero-curvature", 1e-7),
        )
    )

    w = fx.euclid_wave()
    a, b = fx.euclid_tangents()
    psi = psi_of(fx.euclid_closed(), w)
    out.append(
        _check(
            "prop1.deformed-wave-function",
            "Psi = Phi F satisfies D Psi = u Psi + Q Phi",
            lambda: psi_residual(psi, w, u1, u2, a, b),
            fx.tolerance("prop1.deformed-wave-function", 1e-6),
        )
    )
    return out


# --- prop2: symmetry <=> integrable tangents ----------------------------------


def suite_prop2(fx: Fixtures) -> list[CheckResult]:
    out = []
    lam = LAM_EUCLID
    j = fx.jets_analytic(2)
    u1, u2 = fx.euclid_u()
    w = fx.euclid_wave()
    a, b = fx.euclid_tangents()
    # Q is a symmetry of the field equations iff its prolonged connection
    # (pr w u1, pr w u2) has zero curvature; that pair is also the tangent
    # pair of the surface, so both positive criteria read one defect.
    out.append(
        _check(
            "prop2.el-symmetry-positive",
            "conformal characteristic is a symmetry of the field equations",
            fx.euclid_compatibility,
            fx.tolerance("prop2.el-symmetry-positive", 1e-6),
        )
    )
    out.append(
        _check(
            "prop2.compatibility-positive",
            "its tangent pair satisfies the integrability condition",
            fx.euclid_compatibility,
            fx.tolerance("prop2.compatibility-positive", 1e-6),
        )
    )
    res = fx.euclid_surface()
    out.append(
        _check(
            "prop2.path-independence-positive",
            "the integrated surface is path independent",
            lambda: res.path_defect,
            fx.tolerance("prop2.path-independence-positive", 1e-6),
        )
    )
    out.append(
        _check(
            "prop2.integrated-tangents",
            "stencil derivatives of the integrated surface match the tangents",
            lambda: max(tangent_check(res.raw, w, a, b)),
            fx.tolerance("prop2.integrated-tangents", 1e-6),
        )
    )

    # negative control: Q = theta is not a symmetry; its criterion is
    # measured by el_symmetry_defect, which prolongs the pair itself
    qneg = MatrixField(j.grid, j.theta.copy(), j.margin0)
    out.append(
        _check(
            "prop2.el-symmetry-negative",
            "non-symmetry characteristic fails the symmetry criterion",
            lambda: el_symmetry_defect(qneg, j, lam),
            fx.tolerance("prop2.el-symmetry-negative", 1e-3),
            comparison="above",
        )
    )
    resneg = integrate_surface(*frechet_apply(u_functional(lam), j, qneg), w)
    out.append(
        _check(
            "prop2.path-independence-negative",
            "and its line integral is path dependent",
            lambda: resneg.path_defect,
            fx.tolerance("prop2.path-independence-negative", 1e-6),
            comparison="above",
        )
    )
    out.append(
        _check(
            "prop2.compatibility-negative",
            "as is the naive pair A = u1, B = 0",
            lambda: compatibility_defect(
                u1, MatrixField(j.grid, np.zeros_like(u1.values), u1.margin), u1, u2
            ),
            fx.tolerance("prop2.compatibility-negative", 1e-3),
            comparison="above",
        )
    )
    return out


# --- prop3: explicit integration <=> symmetry of the linear problem -----------


def suite_prop3(fx: Fixtures) -> list[CheckResult]:
    out = []
    j = fx.jets_analytic(2)
    r1, r2 = lsp_symmetry_defect(fx.euclid_q(), j, LAM_EUCLID, _euclid_builder(0))
    out.append(
        _check(
            "prop3.euclid-lsp-symmetry",
            "conformal characteristic is a symmetry of the linear problem",
            lambda: max(
                interior_max(fro(r1.values), r1.margin),
                interior_max(fro(r2.values), r2.margin),
            ),
            fx.tolerance("prop3.euclid-lsp-symmetry", 1e-6),
        )
    )
    calf = fx.euclid_explicit()
    w = fx.euclid_wave()
    a, b = fx.euclid_tangents()
    out.append(
        _check(
            "prop3.euclid-explicit-integration",
            "so Phi^-1 (pr w Phi) has the prolonged tangents",
            lambda: max(tangent_check(calf, w, a, b)),
            fx.tolerance("prop3.euclid-explicit-integration", 1e-6),
        )
    )

    _, jt = fx.traveling()
    rr1, _ = fx.mink_lsp_defect()
    out.append(
        _check(
            "prop3.mink-lsp-symmetry-negative",
            "quadratic traveling-wave characteristic breaks the linear-problem symmetry",
            lambda: interior_max(fro(rr1.values), rr1.margin),
            fx.tolerance("prop3.mink-lsp-symmetry-negative", 0.1),
            comparison="above",
        )
    )
    calfm = fx.mink_explicit(MINK_H)
    wm = fx.mink_wave(MINK_H)
    am, bm = frechet_apply(u_functional(LAM_MINK), jt, fx.mink_q(MINK_H))
    out.append(
        _check(
            "prop3.mink-explicit-integration-negative",
            "and Phi^-1 (pr w Phi) fails the prolonged-tangent identity",
            lambda: max(tangent_check(calfm, wm, am, bm)),
            fx.tolerance("prop3.mink-explicit-integration-negative", 0.1),
            comparison="above",
        )
    )
    return out


# --- prop4: conformal closed form --------------------------------------------


def suite_prop4(fx: Fixtures) -> list[CheckResult]:
    out = []
    j = fx.jets_analytic(2)
    w = fx.euclid_wave()
    a, b = fx.euclid_tangents()
    f_closed = fx.euclid_closed()
    out.append(
        _check(
            "prop4.euclid-closed-form-tangents",
            "F = Phi^-1(f u1 + g u2) Phi has the prolonged tangents (f=xi^2)",
            lambda: max(tangent_check(f_closed, w, a, b)),
            fx.tolerance("prop4.euclid-closed-form-tangents", 1e-6),
        )
    )
    pw1, pw2 = prolong_u(fx.euclid_spec(), j, LAM_EUCLID)
    out.append(
        _check(
            "prop4.euclid-prolonged-connection",
            "field deformation matches the closed prolongation of the connection",
            lambda: max(
                interior_max(fro(a.values - pw1.values), max(a.margin, pw1.margin)),
                interior_max(fro(b.values - pw2.values), max(b.margin, pw2.margin)),
            ),
            fx.tolerance("prop4.euclid-prolonged-connection", 1e-6),
        )
    )
    out.append(
        _check(
            "prop4.euclid-compatibility",
            "prolonged tangent pair is integrable",
            fx.euclid_compatibility,
            fx.tolerance("prop4.euclid-compatibility", 1e-6),
        )
    )
    res = fx.euclid_surface()
    out.append(
        _check(
            "prop4.euclid-path-defect",
            "line integration is path independent",
            lambda: res.path_defect,
            fx.tolerance("prop4.euclid-path-defect", 1e-6),
        )
    )

    lamm = LAM_MINK
    _, jt = fx.traveling()
    specl = fx.mink_spec_linear()
    u1m, u2m = fx.mink_u()
    wm = fx.mink_wave(MINK_H)
    al, bl = frechet_apply(u_functional(lamm), jt, conformal_characteristic(specl, jt))
    fm, _ = conformal_immersion_closed(specl, jt, wm, lamm)
    out.append(
        _check(
            "prop4.mink-closed-form-tangents",
            "same identity on the Minkowski chart (f=x1, g=x2)",
            lambda: max(tangent_check(fm, wm, al, bl)),
            fx.tolerance("prop4.mink-closed-form-tangents", 1e-6),
        )
    )
    out.append(
        _check(
            "prop4.mink-compatibility",
            "Minkowski prolonged tangent pair is integrable",
            lambda: compatibility_defect(al, bl, u1m, u2m),
            fx.tolerance("prop4.mink-compatibility", 1e-6),
        )
    )
    resm = integrate_surface(al, bl, wm)
    out.append(
        _check(
            "prop4.mink-path-defect",
            "Minkowski line integration is path independent",
            lambda: resm.path_defect,
            fx.tolerance("prop4.mink-path-defect", 1e-6),
        )
    )
    return out


# --- prop5: traveling-wave wave function and its prolonged surface -------------


def suite_prop5(fx: Fixtures) -> list[CheckResult]:
    out = []
    lamm = LAM_MINK
    tw, jt = fx.traveling()
    wm = fx.mink_wave(MINK_H)
    u1m, u2m = fx.mink_u()
    r1, r2, m = lsp_residual(wm, u1m, u2m)
    out.append(
        _check(
            "prop5.traveling-lsp",
            "exponential wave function solves the linear problem",
            lambda: max(interior_max(r1, m), interior_max(r2, m)),
            fx.tolerance("prop5.traveling-lsp", 1e-8),
        )
    )
    out.append(
        _check(
            "prop5.det-constant",
            "det Phi is constant on the grid",
            lambda: _det_variation(wm),
            fx.tolerance("prop5.det-constant", 1e-10),
        )
    )
    specq = fx.mink_spec_quadratic()
    calf = fx.mink_explicit(MINK_H)
    chi = tw.chi(lamm)
    grid = tw.grid
    coeff = (
        -2 * specq.f(grid) - 2 * tw.kappa * specq.g(grid) + 2 * specq.f1(grid) * chi
    )
    pred = coeff[..., None, None] * wm.conjugate(fx.mink_k())
    out.append(
        _check(
            "prop5.prolonged-surface-closed-form",
            "Phi^-1 pr w Phi = (-2f - 2 kappa g + 2 f_1 chi) Phi^-1 [theta_1,theta] Phi",
            lambda: interior_max(fro(calf.values - pred), calf.margin),
            fx.tolerance("prop5.prolonged-surface-closed-form", 1e-6),
        )
    )
    rr1, rr2 = traveling_R_fields(specq, tw, jt, lamm)
    out.append(
        _check(
            "prop5.tangent-coefficients",
            "its stencil tangents match the closed tangent coefficients",
            lambda: max(tangent_check(calf, wm, rr1, rr2)),
            fx.tolerance("prop5.tangent-coefficients", 1e-6),
        )
    )
    t1 = MatrixField(grid, wm.conjugate(rr1.values), rr1.margin)
    t2 = MatrixField(grid, wm.conjugate(rr2.values), rr2.margin)
    out.append(
        _check(
            "prop5.degenerate-rank",
            "pure conformal tangents span a curve (Gram matrix is singular)",
            lambda: linear_independence_report(t1, t2)["max_min_eigenvalue"],
            fx.tolerance("prop5.degenerate-rank", 1e-10),
        )
    )
    s_const = MatrixField(
        grid,
        np.broadcast_to(1j * np.array([[1.0, 0.0], [0.0, -1.0]]), jt.theta.shape).copy(),
        0,
    )
    tg1 = MatrixField(
        grid,
        wm.conjugate(rr1.values + commutator(s_const.values, u1m.values)),
        rr1.margin,
    )
    tg2 = MatrixField(
        grid,
        wm.conjugate(rr2.values + commutator(s_const.values, u2m.values)),
        rr2.margin,
    )
    out.append(
        _check(
            "prop5.gauge-restores-rank",
            "adding a constant gauge term makes the Gram matrix nondegenerate",
            lambda: linear_independence_report(tg1, tg2)["max_min_eigenvalue"],
            fx.tolerance("prop5.gauge-restores-rank", 1e-3),
            comparison="above",
        )
    )
    return out


def _det_variation(w) -> float:
    ok = np.isfinite(w.phi).all(axis=(-1, -2))
    det_phi = np.where(ok, det(np.where(ok[..., None, None], w.phi, 0.0)), np.nan)
    m = w.margin
    d = det_phi[m:-m, m:-m] if m else det_phi
    ref = d[d.shape[0] // 2, d.shape[1] // 2]
    return float(np.nanmax(np.abs(d - ref)))


# --- prop6: integrability criteria on the Minkowski chart ----------------------


def suite_prop6(fx: Fixtures) -> list[CheckResult]:
    out = []
    lamm = LAM_MINK
    tw, jt = fx.traveling()
    grid = tw.grid
    wm = fx.mink_wave(MINK_H)
    builderm = _mink_builder(tw)

    # quadratic f: symmetry of the linear problem fails, with the predicted defect
    specq = fx.mink_spec_quadratic()
    r1, _ = fx.mink_lsp_defect()
    d1phi, _, dm = chart_first_derivatives(wm.field())
    pred1 = (-(specq.f11(grid)) * tw.chi(lamm) * (1 + lamm))[..., None, None] * d1phi
    out.append(
        _check(
            "prop6.curvature-criterion-defect-form",
            "quadratic-f defect equals -f_11 chi (1+lam) D1 Phi",
            lambda: interior_max(fro(r1.values - pred1), max(r1.margin, dm)),
            fx.tolerance("prop6.curvature-criterion-defect-form", 1e-6),
        )
    )
    out.append(
        _check(
            "prop6.curvature-criterion-negative",
            "and it is large: f must be affine for integrability",
            lambda: interior_max(fro(r1.values), r1.margin),
            fx.tolerance("prop6.curvature-criterion-negative", 0.1),
            comparison="above",
        )
    )

    # slope criterion: f_1 = g_2 required
    specn = ConformalSpec.minkowski((0.0, 1.0), (0.0, 2.0))
    qn = conformal_characteristic(specn, jt)
    rn1, rn2 = lsp_symmetry_defect(qn, jt, lamm, builderm)
    out.append(
        _check(
            "prop6.slope-criterion-negative",
            "f_1 != g_2 breaks the second linear-problem equation",
            lambda: interior_max(fro(rn2.values), rn2.margin),
            fx.tolerance("prop6.slope-criterion-negative", 1e-2),
            comparison="above",
        )
    )
    specl = ConformalSpec.minkowski((0.4, 0.7), (-0.3, 0.7))
    ql = conformal_characteristic(specl, jt)
    rl1, rl2 = lsp_symmetry_defect(ql, jt, lamm, builderm)
    out.append(
        _check(
            "prop6.affine-positive",
            "affine f, g with equal slopes pass both equations",
            lambda: max(
                interior_max(fro(rl1.values), rl1.margin),
                interior_max(fro(rl2.values), rl2.margin),
            ),
            fx.tolerance("prop6.affine-positive", 1e-6),
        )
    )

    # constant difference between the two surfaces for affine data
    a_, b_, c_ = 0.7, 0.4, -0.3
    spec_ab = ConformalSpec.minkowski((b_, a_), (c_, a_))
    q_ab = conformal_characteristic(spec_ab, jt)
    calf, _ = explicit_immersion(wm, prolonged_wave(q_ab, jt, builderm))
    f_closed, _ = conformal_immersion_closed(spec_ab, jt, wm, lamm)
    mean, variation = constant_difference_check(f_closed, calf)
    out.append(
        _check(
            "prop6.constant-difference-variation",
            "F - Phi^-1 pr w Phi is constant for affine data",
            lambda: variation,
            fx.tolerance("prop6.constant-difference-variation", 1e-8),
        )
    )
    ktil = wm.conjugate(fx.mink_k())[grid.n2 // 2, grid.n1 // 2]
    pred_mean = (
        2 * b_ * lamm / (1 + lamm) - 2 * c_ * tw.kappa * lamm / (1 - lamm)
    ) * ktil
    out.append(
        _check(
            "prop6.constant-difference-value",
            "and equals (2b lam/(1+lam) - 2c kappa lam/(1-lam)) Phi^-1 [theta_1,theta] Phi",
            lambda: float(np.max(np.abs(mean - pred_mean))),
            fx.tolerance("prop6.constant-difference-value", 1e-8),
        )
    )
    # the non-constancy of the difference needs an O(1)-size window to show;
    # the surfaces involved are closed forms, so no stencil accuracy is at stake
    h_wide = 0.04
    calfq = fx.mink_explicit(h_wide)
    fq, _ = conformal_immersion_closed(specq, fx.traveling(h_wide)[1], fx.mink_wave(h_wide), lamm)
    out.append(
        _check(
            "prop6.constant-difference-negative",
            "for quadratic f the difference is not constant",
            lambda: constant_difference_check(fq, calfq)[1],
            fx.tolerance("prop6.constant-difference-negative", 0.1),
            comparison="above",
        )
    )
    return out


# --- prop7: conformal transformation of the ladder rungs -----------------------


def suite_prop7(fx: Fixtures) -> list[CheckResult]:
    out = []
    spec = fx.euclid_spec()
    for n, k in ((2, 1), (3, 1), (3, 2)):
        j = fx.jets_analytic(n, k)
        (prw,) = frechet_apply(lowering_functional(), j, conformal_characteristic(spec, j))
        dl1, dl2 = lowering_derivatives_functional()(j)
        fv = spec.f(j.grid)[..., None, None]
        gv = spec.g(j.grid)[..., None, None]
        ref = fv * dl1.values + gv * dl2.values
        margin = max(prw.margin, dl1.margin)
        out.append(
            _check(
                f"prop7.lowered-rung-cp{n - 1}-level{k}",
                "pr w (lowered rung) = f D1 + g D2 of the rung",
                lambda prw=prw, ref=ref, margin=margin: interior_max(
                    fro(prw.values - ref), margin
                ),
                fx.tolerance("prop7.lowered-rung", 1e-6),
            )
        )
    return out


# --- prop8: the Euclidean positive results -------------------------------------


def suite_prop8(fx: Fixtures) -> list[CheckResult]:
    out = []
    for n in (2, 3):
        for k in range(n):
            out.extend(_prop8_rung(fx, n, k))
    return out


def _prop8_rung(fx: Fixtures, n: int, k: int) -> list[CheckResult]:
    spec = fx.euclid_spec()
    j = fx.jets_analytic(n, k)
    # only the standard pair is shared with other suites; the other rungs
    # are built here and dropped on return, which keeps peak memory down
    if (n, k) == (2, 0):
        w, prw_phi, calf = fx.euclid_wave(), fx.euclid_prolonged_wave(), fx.euclid_explicit()
        a, b = fx.euclid_tangents()
    else:
        q = conformal_characteristic(spec, j)
        w = euclidean_wave(j, k, LAM_EUCLID)
        prw_phi = prolonged_wave(q, j, _euclid_builder(k))
        calf, _ = explicit_immersion(w, prw_phi)
        a, b = frechet_apply(u_functional(LAM_EUCLID), j, q)

    def cor2_defect() -> float:
        d1phi, d2phi, dm = chart_first_derivatives(w.field())
        fv = spec.f(j.grid)[..., None, None]
        gv = spec.g(j.grid)[..., None, None]
        ref = fv * d1phi + gv * d2phi
        return interior_max(fro(prw_phi.values - ref), max(prw_phi.margin, dm))

    return [
        _check(
            f"prop8.conformal-wave-cp{n - 1}-level{k}",
            "pr w Phi = f D1 Phi + g D2 Phi per ladder level",
            cor2_defect,
            fx.tolerance("prop8.conformal-wave", 1e-6),
        ),
        _check(
            f"prop8.explicit-integration-cp{n - 1}-level{k}",
            "Phi^-1 pr w Phi carries the prolonged tangents",
            lambda: max(tangent_check(calf, w, a, b)),
            fx.tolerance("prop8.explicit-integration", 1e-6),
        ),
    ]


# --- appendix: prolongation commutes with total derivatives --------------------


def suite_appendix(fx: Fixtures) -> list[CheckResult]:
    out = []
    lam_e = LAM_EUCLID
    j = fx.jets_analytic(2)
    q = fx.euclid_q()
    a, b = fx.euclid_tangents()
    (prw_theta,) = frechet_apply(theta_functional(), j, q)
    for name, prw_g, dg in (
        ("theta", prw_theta, theta_derivatives_functional()),
        ("u1", a, u_derivatives_functional(lam_e, 1)),
        ("u2", b, u_derivatives_functional(lam_e, 2)),
    ):
        out.append(
            _check(
                f"appendix.commutation-euclid-{name}",
                "D_alpha(pr w G) = pr w(D_alpha G) on the Euclidean chart",
                lambda prw_g=prw_g, dg=dg: commutation_defect(q, prw_g, dg, j),
                fx.tolerance("appendix.commutation", 1e-6),
            )
        )
    lam_m = LAM_MINK
    _, jt = fx.traveling()
    qm = fx.mink_q(MINK_H)
    pol = FrechetPolicy(eps_base=1e-4)
    (prw_theta_m,) = frechet_apply(theta_functional(), jt, qm, pol)
    am, bm = frechet_apply(u_functional(lam_m), jt, qm, pol)
    for name, prw_g, dg in (
        ("theta", prw_theta_m, theta_derivatives_functional()),
        ("u1", am, u_derivatives_functional(lam_m, 1)),
        ("u2", bm, u_derivatives_functional(lam_m, 2)),
    ):
        out.append(
            _check(
                f"appendix.commutation-mink-{name}",
                "same on the Minkowski chart",
                lambda prw_g=prw_g, dg=dg: commutation_defect(qm, prw_g, dg, jt, pol),
                fx.tolerance("appendix.commutation", 1e-6),
            )
        )

    # convergence orders of the deformation apparatus, probed on the
    # lowering operator (genuinely nonlinear in the jets)
    def eps_order() -> float:
        j1 = fx.jets_analytic(2, 1)
        trans = ConformalSpec.euclidean((1.0,))
        q1 = conformal_characteristic(trans, j1)
        g = lowering_functional()
        dl1, dl2 = lowering_derivatives_functional()(j1)
        fv = trans.f(j1.grid)[..., None, None]
        gv = trans.g(j1.grid)[..., None, None]
        ref = fv * dl1.values + gv * dl2.values
        ds = []
        for eps in (0.04, 0.02, 0.01):
            (pw,) = frechet_apply(g, j1, q1, FrechetPolicy(eps_base=eps, richardson=False))
            ds.append(interior_max(fro(pw.values - ref), max(pw.margin, dl1.margin)))
        return float(min(np.log2(ds[i] / ds[i + 1]) for i in range(2)))

    out.append(
        _check(
            "appendix.step-order",
            "deformation-step error decays at second order",
            eps_order,
            fx.tolerance("appendix.step-order", 1.9),
            comparison="above",
        )
    )

    def h_order() -> float:
        trans = fx.euclid_spec()
        ds = []
        for h in (0.012, 0.006, 0.003):
            gh = fx.euclid_grid(h)
            ladh = veronese_ladder(2, gh)
            jh = theta_of(ladh.rungs[1], "analytic")
            qh = conformal_characteristic(trans, jh)
            pol_h = FrechetPolicy(eps_base=1e-3)
            (prw_g,) = frechet_apply(lowering_functional(), jh, qh, pol_h)
            ds.append(
                commutation_defect(qh, prw_g, lowering_derivatives_functional(), jh, pol_h)
            )
        return float(min(np.log2(ds[i] / ds[i + 1]) for i in range(2)))

    out.append(
        _check(
            "appendix.grid-order",
            "commutation defect decays at least at third order in h",
            h_order,
            fx.tolerance("appendix.grid-order", 3.0),
            comparison="above",
        )
    )
    return out


_SUITES: dict[str, Callable[[Fixtures], list[CheckResult]]] = {
    "identities": suite_identities,
    "prop1": suite_prop1,
    "prop2": suite_prop2,
    "prop3": suite_prop3,
    "prop4": suite_prop4,
    "prop5": suite_prop5,
    "prop6": suite_prop6,
    "prop7": suite_prop7,
    "prop8": suite_prop8,
    "appendix": suite_appendix,
}


def run_suites(
    names: tuple[str, ...] | list[str],
    tolerances: dict[str, float] | None = None,
) -> VerificationReport:
    """Run the named suites (or ``all``) and assemble the ordered report."""
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

    fx = Fixtures(tolerances)
    results: list[CheckResult] = []
    for nm in ordered:
        results.extend(_SUITES[nm](fx))
    return VerificationReport(suites=tuple(ordered), results=results)
