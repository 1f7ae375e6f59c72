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

Fixtures hold numbers only.  A fixture is memoized on the method name and
the positional arguments of the call (a default left out is not in the
key), so it is built once per run, by the first row that asks.  It returns
floats or a `Grid2`, never a field: every field is built inside the
fixture that reads it and freed on return.  Each standard solution
has one fixture, which builds the solution's fields once and returns
every number that the rows read of them.  A row's runtime in
``report.txt`` includes the fixtures it built.

Fixture grids are chosen so that 4th-order stencil truncation dominates
rounding noise at every measured quantity; Euclidean immersion checks run
at an imaginary spectral parameter, where the wave function is unitary
and the algebra-valuedness of the surfaces is exact (unitarity is
reported, never assumed).
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .config import ConfigError
from .fields import (
    CHART_EUCLIDEAN,
    CHART_MINKOWSKI,
    Grid2,
    JetField,
    MatrixField,
    interior,
    interior_max,
    row_strips,
    strip_derivatives,
    strip_jets,
    tangent_defect,
)
from .immersion import (
    conformal_integrand,
    constant_difference_check,
    integrate_surface,
    linear_independence_report,
    psi_of,
    psi_residual,
    pulled_back,
)
from .matlie import commutator, constant, det, fro, su_basis
from .sigma import (
    theta_comm_identity_residual,
    theta_of,
    theta_square_residual,
    theta_triple_residual,
    traveling_solution,
    u_pair,
    veronese,
)
from .spectral import (
    WaveField,
    euclidean_wave,
    lowered_rung_with_jets,
    lsp_residual,
    phi_traveling,
)
from .symmetry import (
    ConformalSpec,
    central_difference,
    compatibility_defect,
    conformal_characteristic,
    frechet_apply,
    lowering_functional,
    lowering_jets_functional,
    prolong_u,
    theta_functional,
    traveling_R_fields,
    u_functional,
    u_jets_functional,
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
# the conformal symmetries of the checks:
# f = xi^2, g the conjugate mirror
EUCLID_SPEC = ConformalSpec.euclidean((0.0, 0.0, 1.0))
# f = x1, g = x2 (dilation)
MINK_SPEC_LINEAR = ConformalSpec.minkowski((0.0, 1.0), (0.0, 1.0))
# f = (x1)^2, g = 0: the non-integrable control
MINK_SPEC_QUADRATIC = ConformalSpec.minkowski((0.0, 0.0, 1.0), (0.0,))
# f = b + a x1, g = c + a x2: equal slopes, so integrable
MINK_SPEC_AFFINE = ConformalSpec.minkowski((AFFINE_B, AFFINE_A), (AFFINE_C, AFFINE_A))
# the non-constancy of prop6's quadratic difference needs an O(1)-size
# window to show; the surfaces involved are closed forms, so no stencil
# accuracy is at stake
WIDE_H = 0.04


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
        out = asdict(self)
        del out["runtime_s"]
        return out

    @property
    def headroom(self) -> float:
        """tolerance/measured for a "below" check, measured/tolerance for "above"."""
        if self.comparison == "below":
            return self.tolerance / self.measured if self.measured > 0 else math.inf
        return self.measured / self.tolerance


@dataclass
class VerificationReport:
    suites: tuple[str, ...]
    results: list[CheckResult]
    fixtures: tuple[int, int]  # built and reused; text only

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
        tight = min(self.results, key=lambda r: r.headroom)
        built, reused = self.fixtures
        lines.append(
            f"nearest its tolerance: {tight.name}, headroom {tight.headroom:.4g}; "
            f"fixtures: {built} built, {reused} reused"
        )
        return "\n".join(lines)


def _fixture(method):
    """Memoize a `Fixtures` method on its name and positional arguments."""

    @functools.wraps(method)
    def memoized(self, *args):
        return self._get((method.__name__, *args), lambda: method(self, *args))

    return memoized


class Fixtures:
    """The inputs of the checks, each built once per run on first request.

    Every fixture returns numbers or a `Grid2`, never a field, so the memo
    holds no array and a field lives only as long as the fixture that
    builds it.  Each standard solution has one fixture, `euclid_defects`
    and `traveling_defects`: it builds the solution's jets, Phi and
    connection pair once, as locals, runs every computation that the rows
    read of that solution, and returns the numbers.  Each (jets, Q) is
    prolonged once, by the one fixture that returns all the rows read of
    it, and each fixture pulls back everything it reads of one wave
    function in one pass, `pulled_back`.  ``built`` and ``reused`` count
    the keys built and the requests served from the memo.
    """

    def __init__(self):
        self._cache: dict = {}
        self.built = self.reused = 0

    def _get(self, key, builder: Callable[[], object]):
        if key in self._cache:
            self.reused += 1
        else:
            self.built += 1
            self._cache[key] = builder()
        return self._cache[key]

    @_fixture
    def euclid_grid(self, h: float = EUCLID_H) -> Grid2:
        return Grid2(CHART_EUCLIDEAN, (0.0, 0.0), (h, h), (GRID_N, GRID_N))

    @_fixture
    def mink_grid(self, h: float = MINK_H) -> Grid2:
        return Grid2(CHART_MINKOWSKI, (0.0, 0.0), (h, h), (GRID_N, GRID_N))

    @_fixture
    def theta_identity_defects(self, n: int) -> dict[str, float]:
        """The theta identities on rung (n, 0), on stencil jets of its projector."""
        j = theta_of(veronese(n, self.euclid_grid())[0][0])
        return {
            "square": interior_max(*theta_square_residual(j)),
            "commutator": interior_max(*theta_comm_identity_residual(j)),
            "triple": interior_max(*theta_triple_residual(j)),
        }

    @_fixture
    def euclid_defects(self) -> dict[str, object]:
        """Every number read of the standard Euclidean pair, rung (2, 0) at
        LAM_EUCLID under f = xi^2.

        The one prolongation along the pair's Q gives the prolonged
        connection (pr w u1, pr w u2), which is the tangent pair, the three
        commutation defects and pr w Phi.  One pull-back by Phi gives the
        surface tangents, the closed conformal immersion F and prop8's
        defects on rung (2, 0), whose explicit-integration defect prop3
        reads too.  Then the rows that read the pair itself, and last
        Q = theta, which is not a symmetry: the zero-curvature defect of
        its prolonged connection and the path defect of its line integral.
        """
        spec, j = EUCLID_SPEC, veronese(2, self.euclid_grid())[1]
        out: dict[str, object] = {}
        out["commutation"], (w, prw_phi), u, (a, b) = _standard_prolongation(
            j, conformal_characteristic(spec, j), _euclid_builder(0), LAM_EUCLID)
        out["lsp-symmetry"] = _field_max(*psi_residual(prw_phi, w, *u, a, b))
        da, db, closed, calf = pulled_back(w, (a, b, conformal_integrand(spec, *u)), (prw_phi,))
        raw, out["path-defect"] = integrate_surface(da, db)
        out["integrated-tangents"] = tangent_defect(raw, da, db)
        out["closed-form-tangents"] = tangent_defect(closed, da, db)
        out.update(_prop8_defects(w, prw_phi, calf, da, db))
        del raw, da, db, calf, prw_phi
        # Psi = Phi F
        out["deformed-wave"] = _field_max(*psi_residual(psi_of(closed, w), w, *u, a, b))
        del closed
        out["compatibility"] = compatibility_defect(a, b, *u)
        out["prolonged-connection"] = _prolonged_connection_defect(j, a, b)
        # D2 u1 - D1 u2 + [u1, u2], and the naive pair A = u1, B = 0
        zero = MatrixField(j.grid, np.broadcast_to(0j, u[0].values.shape), u[0].margin)
        out["zero-curvature"] = compatibility_defect(*u, u[0], zero)
        out["naive-pair"] = compatibility_defect(u[0], zero, *u)
        q = MatrixField(j.grid, j.values.copy(), j.margin)
        ((a, b),) = frechet_apply((u_functional(LAM_EUCLID),), j, q)
        out["theta-el-symmetry"] = compatibility_defect(a, b, *u)
        out["theta-path-defect"] = integrate_surface(*pulled_back(w, (a, b)))[1]
        return out

    @_fixture
    def rung_defects(self, n: int, k: int) -> dict[str, object]:
        """prop7 and prop8 on rung (n, k) under f = xi^2, from one
        prolongation along its Q: prop8's defects and, above level 0, pr w
        of the lowered rung against f D1 + g D2 of it.  That defect is
        reduced strip by strip, with D1 and D2 lowered for each strip, but
        on rung (2, 1), whose step-order probe reuses them whole.

        Rung (2, 0) is the standard pair, whose fixture holds its defects;
        another rung's jets and fields are built here, and each is dropped
        after its last reader.  Phi is built again after the prolongation,
        not taken as its value half: held beside the prolongation of the
        level-two wave on CP^2, it would raise the whole run's heap peak,
        which sits there.
        """
        if (n, k) == (2, 0):
            prolonged = self.euclid_defects()
            return {key: prolonged[key] for key in ("conformal-wave", "explicit-integration")}
        j = veronese(n, self.euclid_grid(), k)[1]
        gs = [wave_functional(_euclid_builder(k)), u_functional(LAM_EUCLID)]
        if k:
            gs.append(lowering_functional)
        spec = EUCLID_SPEC
        (prw_phi,), (a, b), *lowered = frechet_apply(gs, j, conformal_characteristic(spec, j))
        out: dict[str, object] = {}
        if (n, k) == (2, 1):
            # the step probe reuses the whole D1 and D2 of the lowered rung
            dl = lowering_jets_functional(j)[1:]
            out["lowered-rung"] = _conformal_defect(spec, lowered[0][0], _strips(dl), j.margin2)
            out["step-order"] = _step_defects(j, dl)
            del dl
        elif lowered:
            # the prolongation that formed pr w L has raised if the lowering
            # vanished everywhere
            out["lowered-rung"] = _conformal_defect(
                spec, lowered[0][0], lambda rows: lowered_rung_with_jets(j.rows(rows))[1:3],
                j.margin2)
        del lowered
        w = euclidean_wave(j, k, LAM_EUCLID)
        del j
        da, db, calf = pulled_back(w, (a, b), (prw_phi,))
        del a, b
        return {**out, **_prop8_defects(w, prw_phi, calf, da, db)}

    @_fixture
    def traveling_defects(self) -> dict[str, object]:
        """Every number read of the traveling wave at LAM_MINK.

        The one prolongation along the quadratic f = (x1)^2 gives the three
        commutation defects and pr w Phi; one pull-back by Phi gives
        Phi^-1 pr w Phi, K~ = Phi^-1 K Phi of K = [theta_1, theta] and the
        surface tangents of the prolonged connection.  They give the size
        of the linear-problem residual r1 and its match with
        -f_11 chi (1+lam) D1 Phi, the tangents of Phi^-1 pr w Phi against
        the prolonged connection and against the closed tangent
        coefficients, and its closed form in K~.  Then the rows that read
        the wave itself, and the linear, affine and unequal-slope
        symmetries.
        """
        spec = MINK_SPEC_QUADRATIC
        tw, jt = traveling_solution(KAPPA, OMEGA, self.mink_grid())
        out: dict[str, object] = {}
        out["commutation"], (w, prw_phi), u, (a, b) = _standard_prolongation(
            jt, conformal_characteristic(spec, jt), _mink_builder(tw), LAM_MINK)
        r1 = psi_residual(prw_phi, w, *u, a, b)[0]
        k = MatrixField(tw.grid, commutator(jt.d1, jt.values), jt.margin1)
        da, db, ktilde, calf = pulled_back(w, (a, b, k), (prw_phi,))
        del a, b, k, prw_phi
        d1phi = strip_derivatives(w.values, tw.grid, slice(None))[0]
        pred = (-(spec.f11(tw.grid)) * tw.chi(LAM_MINK) * (1 + LAM_MINK)) * d1phi
        out["lsp"] = _field_max(r1)
        out["curvature-defect-form"] = interior_max(fro(r1.values - pred),
                                                    max(r1.margin, w.margin + 2))
        out["explicit-tangents"] = tangent_defect(calf, da, db)
        del r1, d1phi, pred, da, db
        out["prolonged-surface-closed-form"] = _prolonged_surface_closed_form(tw, calf, ktilde)
        ktilde_mid = ktilde.values[..., tw.grid.n2 // 2, tw.grid.n1 // 2].copy()
        del ktilde
        out.update(_tangent_coefficient_defects(tw, jt, w, u, calf))
        del calf
        out["traveling-lsp"] = _field_max(*lsp_residual(w, *u))
        out["det-variation"] = _det_variation(w)
        out.update(_linear_defects(jt, w, u))
        out.update(_affine_defects(tw, jt, w, u, ktilde_mid))
        out["slope-criterion"] = _slope_criterion(tw, jt, w, u)
        return out


def _prop8_defects(
    w: WaveField, prw_phi: MatrixField, calf: MatrixField, da: MatrixField, db: MatrixField
) -> dict[str, float]:
    """prop8's defects on a Euclidean rung under f = xi^2: pr w Phi against
    f D1 Phi + g D2 Phi, and the tangents of its pull-back ``calf`` =
    Phi^-1 pr w Phi against the surface tangents (da, db) of the prolonged
    connection."""
    conformal = _conformal_defect(
        EUCLID_SPEC, prw_phi, lambda rows: strip_derivatives(w.values, w.grid, rows), w.margin + 2)
    return {"conformal-wave": conformal, "explicit-integration": tangent_defect(calf, da, db)}


def _euclid_builder(k: int) -> Callable[[JetField], WaveField]:
    return lambda jd: euclidean_wave(jd, k, LAM_EUCLID)


def _mink_builder(tw) -> Callable[[JetField], WaveField]:
    return lambda jd: phi_traveling(tw, jd, LAM_MINK)


def _commutation_functionals(lam: complex) -> tuple:
    """The jet sets of theta and of the connection pair."""
    return theta_functional, u_jets_functional(lam)


def _standard_prolongation(j: JetField, q: MatrixField, builder, lam: complex) -> tuple:
    """The one prolongation of a standard solution along ``q``, which also
    gives the solution's Phi and connection pair as value halves: the
    appendix's commutation defects of theta, u1 and u2, (Phi, pr w Phi),
    (u1, u2) and the tangent pair (pr w u1, pr w u2).  The jet sets are
    dropped on return."""
    gs = (*_commutation_functionals(lam), wave_functional(builder))
    prw_theta, prw_u, (phi,) = frechet_apply(gs, j, q, values=((1, 0), (1, 3), (2, 0)))
    (u1, a), (u2, b) = prw_u[0], prw_u[3]
    commutation = {
        "theta": tangent_defect(*prw_theta),
        "u1": tangent_defect(a, *prw_u[1:3]),
        "u2": tangent_defect(b, *prw_u[4:]),
    }
    return commutation, phi, (u1, u2), (a, b)


def _field_max(*rs: MatrixField) -> float:
    """The largest interior norm of the fields ``rs``."""
    return max(interior_max(fro(r.values), r.margin) for r in rs)


def _det_variation(w: WaveField) -> float:
    d = interior(det(w.values), w.margin)
    ref = d[d.shape[0] // 2, d.shape[1] // 2]
    return float(np.nanmax(np.abs(d - ref)))


# --- the defects of the standard solutions' fields -----------------------------


def _prolonged_connection_defect(j: JetField, a: MatrixField, b: MatrixField) -> float:
    """The tangent pair (a, b) against the closed prolongation of the connection."""
    pw1, pw2 = prolong_u(EUCLID_SPEC, j, LAM_EUCLID)
    return max(
        interior_max(fro(a.values - pw1.values), max(a.margin, pw1.margin)),
        interior_max(fro(b.values - pw2.values), max(b.margin, pw2.margin)),
    )


def _prolonged_surface_closed_form(tw, calf: MatrixField, ktilde: MatrixField) -> float:
    """Phi^-1 pr w Phi of the quadratic symmetry against its closed form in K~."""
    spec, grid = MINK_SPEC_QUADRATIC, tw.grid
    coeff = -2 * spec.f(grid) - 2 * tw.kappa * spec.g(grid) + 2 * spec.f1(grid) * tw.chi(LAM_MINK)
    return interior_max(fro(calf.values - coeff * ktilde.values), calf.margin)


def _tangent_coefficient_defects(tw, jt: JetField, w: WaveField, u, calf: MatrixField) -> dict:
    """The closed tangent coefficients R of the quadratic symmetry: their
    match with the stencil tangents of Phi^-1 pr w Phi, ``calf``, and the
    smallest Gram eigenvalue of the tangents without and with a constant
    gauge term."""
    (u1, u2), (r1, r2) = u, traveling_R_fields(MINK_SPEC_QUADRATIC, tw, jt, LAM_MINK)
    s = constant(1j * np.array([[1.0, 0.0], [0.0, -1.0]]))

    g1 = MatrixField(tw.grid, r1.values + commutator(s, u1.values), r1.margin)
    g2 = MatrixField(tw.grid, r2.values + commutator(s, u2.values), r2.margin)
    dr1, dr2, dg1, dg2 = pulled_back(w, (r1, r2, g1, g2))
    return {
        "tangent-coefficients": tangent_defect(calf, dr1, dr2),
        "degenerate-rank": linear_independence_report(dr1, dr2)["max_min_eigenvalue"],
        "gauge-restores-rank": linear_independence_report(dg1, dg2)["max_min_eigenvalue"],
    }


def _linear_defects(jt: JetField, w: WaveField, u) -> dict[str, float]:
    """The dilation f = x1, g = x2: the closed form's tangents against the
    prolonged connection, and that connection's compatibility and path
    defects."""
    spec = MINK_SPEC_LINEAR
    ((a, b),) = frechet_apply((u_functional(LAM_MINK),), jt, conformal_characteristic(spec, jt))
    da, db, f_closed = pulled_back(w, (a, b, conformal_integrand(spec, *u)))
    return {
        "linear-closed-form-tangents": tangent_defect(f_closed, da, db),
        "linear-compatibility": compatibility_defect(a, b, *u),
        "linear-path-defect": integrate_surface(da, db)[1],
    }


def _affine_defects(tw, jt: JetField, w: WaveField, u, ktilde_mid: np.ndarray) -> dict[str, float]:
    """prop6's affine symmetry, from one prolongation: its linear-problem
    defect, and the variation of F - Phi^-1 pr w Phi and the distance of
    its mean from the closed form, whose K~ at the grid's middle node is
    ``ktilde_mid``."""
    spec = MINK_SPEC_AFFINE
    gs = (wave_functional(_mink_builder(tw)), u_functional(LAM_MINK))
    (prw_phi,), prw_u = frechet_apply(gs, jt, conformal_characteristic(spec, jt))
    lsp = _field_max(*psi_residual(prw_phi, w, *u, *prw_u))
    del prw_u
    closed = pulled_back(w, (conformal_integrand(spec, *u),), (prw_phi,))
    mean, variation = constant_difference_check(*closed)
    lam = LAM_MINK
    pred = (2 * AFFINE_B * lam / (1 + lam) - 2 * AFFINE_C * tw.kappa * lam / (1 - lam)) * ktilde_mid
    value = float(np.max(np.abs(mean - pred)))
    return {"affine-lsp": lsp, "affine-variation": variation, "affine-value": value}


def _slope_criterion(tw, jt: JetField, w: WaveField, u) -> float:
    """The second linear-problem residual under f = x1, g = 2 x2."""
    q = conformal_characteristic(ConformalSpec.minkowski((0.0, 1.0), (0.0, 2.0)), jt)
    gs = (wave_functional(_mink_builder(tw)), u_functional(LAM_MINK))
    (prw_phi,), prw_u = frechet_apply(gs, jt, q)
    return _field_max(psi_residual(prw_phi, w, *u, *prw_u)[1])


# --- measures that take more than one expression ------------------------------


def _quadratic_difference_variation(fx: Fixtures) -> float:
    tw, jt = traveling_solution(KAPPA, OMEGA, fx.mink_grid(WIDE_H))
    spec, w = MINK_SPEC_QUADRATIC, phi_traveling(tw, jt, LAM_MINK)
    q = conformal_characteristic(spec, jt)
    ((prw_phi,),) = frechet_apply((wave_functional(_mink_builder(tw)),), jt, q)
    closed = pulled_back(w, (conformal_integrand(spec, *u_pair(jt, LAM_MINK)),), (prw_phi,))
    return constant_difference_check(*closed)[1]


def _conformal_defect(
    spec: ConformalSpec, prw: MatrixField,
    derivatives: Callable[[slice], Sequence[np.ndarray]], margin: int,
) -> float:
    """Interior max of || pr w X - (f D1 X + g D2 X) ||, pr w X being
    ``prw``, one strip of grid rows at a time: ``derivatives(rows)`` gives
    (D1 X, D2 X) on the strip, trusted inside ``margin``."""
    grid = prw.grid
    f, g = spec.f(grid), spec.g(grid)
    res = np.empty((grid.n2, grid.n1))
    for rows in row_strips(grid.n2):
        d1, d2 = derivatives(rows)
        res[rows] = fro(prw.strip(rows) - (f[rows] * d1 + g[rows] * d2))
    return interior_max(res, max(prw.margin, margin))


def _strips(fields: Sequence[MatrixField]) -> Callable[[slice], list[np.ndarray]]:
    """The strips of the grid rows asked of each of ``fields``."""
    return lambda rows: [f.strip(rows) for f in fields]


# Convergence orders of the central difference probe, on the lowering
# operator (genuinely nonlinear in the jets).


def _step_defects(j: JetField, dl: tuple[MatrixField, MatrixField]) -> list[float]:
    """Lowering defects under a translation at steps 0.04, 0.02 and 0.01,
    given (D1, D2) of the lowered rung; the jets of Q serve all three."""
    trans = ConformalSpec.euclidean((1.0,))
    q_jets = strip_jets(conformal_characteristic(trans, j))
    out = []
    for eps in (0.04, 0.02, 0.01):
        ((prw,),) = central_difference((lowering_functional,), j, q_jets, eps)
        out.append(_conformal_defect(trans, prw, _strips(dl), j.margin2))
    return out


def _step_order(fx: Fixtures) -> float:
    ds = fx.rung_defects(2, 1)["step-order"]
    return float(min(np.log2(ds[i] / ds[i + 1]) for i in range(2)))


def _grid_order(fx: Fixtures) -> float:
    ds = []
    for h in (0.012, 0.006, 0.003):
        jh = veronese(2, fx.euclid_grid(h), 1)[1]
        qh = strip_jets(conformal_characteristic(EUCLID_SPEC, jh))
        (prw,) = central_difference((lowering_jets_functional,), jh, qh, 1e-3)
        ds.append(tangent_defect(*prw))
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


def _euclid(key: str) -> Callable[[Fixtures], float]:
    """The measure that reads ``key`` of the standard Euclidean pair."""
    return lambda fx: fx.euclid_defects()[key]


def _traveling(key: str) -> Callable[[Fixtures], float]:
    """The measure that reads ``key`` of the traveling wave."""
    return lambda fx: fx.traveling_defects()[key]


def _theta_identity_checks(n: int) -> tuple[_Check, ...]:
    return (
        _Check(
            f"identities.theta-square-cp{n - 1}",
            "theta^2 = -i(2-N)/N theta + (1-N)/N E pointwise",
            1e-10,
            lambda fx: fx.theta_identity_defects(n)["square"],
            key="identities.theta-square",
        ),
        _Check(
            f"identities.theta-commutator-cp{n - 1}",
            "[theta_1,theta](2i theta-(2-N)E) = -i theta_1",
            1e-10,
            lambda fx: fx.theta_identity_defects(n)["commutator"],
            key="identities.theta-commutator",
        ),
        _Check(
            f"identities.theta-triple-cp{n - 1}",
            "theta theta_1 theta = (N-1)/N^2 theta_1",
            1e-10,
            lambda fx: fx.theta_identity_defects(n)["triple"],
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
        lambda fx: interior_max(
            *theta_square_residual(traveling_solution(KAPPA, OMEGA, fx.mink_grid())[1])
        ),
        key="identities.theta-square",
    ),
    # --- prop1: generic tangents <-> symmetry, wave-function deformation
    _Check(
        "prop1.zero-curvature-on-solution",
        "D2 u1 - D1 u2 + [u1,u2] vanishes on a solution field",
        1e-7,
        _euclid("zero-curvature"),
    ),
    _Check(
        "prop1.deformed-wave-function",
        "Psi = Phi F satisfies D Psi = u Psi + Q Phi",
        1e-6,
        _euclid("deformed-wave"),
    ),
    # --- prop2: symmetry <=> integrable tangents.  Q is a symmetry of the
    # field equations iff its prolonged connection (pr w u1, pr w u2) has
    # zero curvature; that pair is also the tangent pair of the surface, so
    # both positive criteria read one defect.
    _Check(
        "prop2.el-symmetry-positive",
        "conformal characteristic is a symmetry of the field equations",
        1e-6,
        _euclid("compatibility"),
    ),
    _Check(
        "prop2.compatibility-positive",
        "its tangent pair satisfies the integrability condition",
        1e-6,
        _euclid("compatibility"),
    ),
    _Check(
        "prop2.path-independence-positive",
        "the integrated surface is path independent",
        1e-6,
        _euclid("path-defect"),
    ),
    _Check(
        "prop2.integrated-tangents",
        "stencil derivatives of the integrated surface match the tangents",
        1e-6,
        _euclid("integrated-tangents"),
    ),
    _Check(
        "prop2.el-symmetry-negative",
        "non-symmetry characteristic fails the symmetry criterion",
        1e-3,
        _euclid("theta-el-symmetry"),
        "above",
    ),
    _Check(
        "prop2.path-independence-negative",
        "and its line integral is path dependent",
        1e-6,
        _euclid("theta-path-defect"),
        "above",
    ),
    _Check(
        "prop2.compatibility-negative",
        "as is the naive pair A = u1, B = 0",
        1e-3,
        _euclid("naive-pair"),
        "above",
    ),
    # --- prop3: explicit integration <=> symmetry of the linear problem
    _Check(
        "prop3.euclid-lsp-symmetry",
        "conformal characteristic is a symmetry of the linear problem",
        1e-6,
        _euclid("lsp-symmetry"),
    ),
    _Check(
        "prop3.euclid-explicit-integration",
        "so Phi^-1 (pr w Phi) has the prolonged tangents",
        1e-6,
        _euclid("explicit-integration"),
    ),
    _Check(
        "prop3.mink-lsp-symmetry-negative",
        "quadratic traveling-wave characteristic breaks the linear-problem symmetry",
        0.1,
        _traveling("lsp"),
        "above",
    ),
    _Check(
        "prop3.mink-explicit-integration-negative",
        "and Phi^-1 (pr w Phi) fails the prolonged-tangent identity",
        0.1,
        _traveling("explicit-tangents"),
        "above",
    ),
    # --- prop4: conformal closed form
    _Check(
        "prop4.euclid-closed-form-tangents",
        "F = Phi^-1(f u1 + g u2) Phi has the prolonged tangents (f=xi^2)",
        1e-6,
        _euclid("closed-form-tangents"),
    ),
    _Check(
        "prop4.euclid-prolonged-connection",
        "field deformation matches the closed prolongation of the connection",
        1e-6,
        _euclid("prolonged-connection"),
    ),
    _Check(
        "prop4.euclid-compatibility",
        "prolonged tangent pair is integrable",
        1e-6,
        _euclid("compatibility"),
    ),
    _Check(
        "prop4.euclid-path-defect",
        "line integration is path independent",
        1e-6,
        _euclid("path-defect"),
    ),
    _Check(
        "prop4.mink-closed-form-tangents",
        "same identity on the Minkowski chart (f=x1, g=x2)",
        1e-6,
        _traveling("linear-closed-form-tangents"),
    ),
    _Check(
        "prop4.mink-compatibility",
        "Minkowski prolonged tangent pair is integrable",
        1e-6,
        _traveling("linear-compatibility"),
    ),
    _Check(
        "prop4.mink-path-defect",
        "Minkowski line integration is path independent",
        1e-6,
        _traveling("linear-path-defect"),
    ),
    # --- prop5: traveling-wave wave function and its prolonged surface
    _Check(
        "prop5.traveling-lsp",
        "exponential wave function solves the linear problem",
        1e-8,
        _traveling("traveling-lsp"),
    ),
    _Check(
        "prop5.det-constant",
        "det Phi is constant on the grid",
        1e-10,
        _traveling("det-variation"),
    ),
    _Check(
        "prop5.prolonged-surface-closed-form",
        "Phi^-1 pr w Phi = (-2f - 2 kappa g + 2 f_1 chi) Phi^-1 [theta_1,theta] Phi",
        1e-6,
        _traveling("prolonged-surface-closed-form"),
    ),
    _Check(
        "prop5.tangent-coefficients",
        "its stencil tangents match the closed tangent coefficients",
        1e-6,
        _traveling("tangent-coefficients"),
    ),
    _Check(
        "prop5.degenerate-rank",
        "pure conformal tangents span a curve (Gram matrix is singular)",
        1e-10,
        _traveling("degenerate-rank"),
    ),
    _Check(
        "prop5.gauge-restores-rank",
        "adding a constant gauge term makes the Gram matrix nondegenerate",
        1e-3,
        _traveling("gauge-restores-rank"),
        "above",
    ),
    # --- prop6: integrability criteria on the Minkowski chart
    _Check(
        "prop6.curvature-criterion-defect-form",
        "quadratic-f defect equals -f_11 chi (1+lam) D1 Phi",
        1e-6,
        _traveling("curvature-defect-form"),
    ),
    _Check(
        "prop6.curvature-criterion-negative",
        "and it is large: f must be affine for integrability",
        0.1,
        _traveling("lsp"),
        "above",
    ),
    _Check(
        "prop6.slope-criterion-negative",
        "f_1 != g_2 breaks the second linear-problem equation",
        1e-2,
        _traveling("slope-criterion"),
        "above",
    ),
    _Check(
        "prop6.affine-positive",
        "affine f, g with equal slopes pass both equations",
        1e-6,
        _traveling("affine-lsp"),
    ),
    _Check(
        "prop6.constant-difference-variation",
        "F - Phi^-1 pr w Phi is constant for affine data",
        1e-8,
        _traveling("affine-variation"),
    ),
    _Check(
        "prop6.constant-difference-value",
        "and equals (2b lam/(1+lam) - 2c kappa lam/(1-lam)) Phi^-1 [theta_1,theta] Phi",
        1e-8,
        _traveling("affine-value"),
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
    *(
        _Check(
            f"appendix.commutation-euclid-{g}",
            "D_alpha(pr w G) = pr w(D_alpha G) on the Euclidean chart",
            1e-6,
            lambda fx, g=g: fx.euclid_defects()["commutation"][g],
            key="appendix.commutation",
        )
        for g in ("theta", "u1", "u2")
    ),
    *(
        _Check(
            f"appendix.commutation-mink-{g}",
            "same on the Minkowski chart",
            1e-6,
            lambda fx, g=g: fx.traveling_defects()["commutation"][g],
            key="appendix.commutation",
        )
        for g in ("theta", "u1", "u2")
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
    return VerificationReport(tuple(ordered), results, fixtures=(fx.built, fx.reused))
