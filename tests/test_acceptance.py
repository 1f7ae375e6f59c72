"""Acceptance criteria, one test per criterion, each printing PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Fixture grids are sized so every stated tolerance is met with
4th-order stencils in double precision; convergence checks (criterion 8)
run each measured defect at a base spacing where truncation dominates
rounding noise, as recorded in the measurement table below.
"""

import json
import os
import time

import numpy as np
import pytest

from oracles import bare
from solsurf.cli import main as cli_main
from solsurf.fields import (
    CHART_EUCLIDEAN,
    CHART_MINKOWSKI,
    Grid2,
    MatrixField,
    chart_first_derivatives,
    interior_max,
)
from solsurf.immersion import (
    compatibility_defect,
    conformal_immersion_closed,
    constant_difference_check,
    explicit_immersion,
    integrate_surface,
    tangent_check,
)
from solsurf.matlie import commutator, fro, mm
from solsurf.sigma import (
    el_residual,
    theta_comm_identity_residual,
    theta_of,
    theta_square_residual,
    traveling_solution,
    u_pair,
    veronese_ladder,
)
from solsurf.spectral import (
    euclidean_terms,
    euclidean_wave,
    lsp_residual,
    phi_traveling,
    wave_from_terms,
)
from solsurf.symmetry import (
    ConformalSpec,
    commutation_defect,
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

H_E = 0.0015
H_M = 0.001
KAPPA, OMEGA = 2.0, 1.0
LAM_E = 0.6j
LAM_M = 0.5


def euclid_grid(h=H_E, n=101):
    return Grid2(CHART_EUCLIDEAN, (0.0, 0.0), (h, h), (n, n))


def mink_grid(h=H_M, n=101):
    return Grid2(CHART_MINKOWSKI, (0.0, 0.0), (h, h), (n, n))


@pytest.fixture(scope="module")
def ladders():
    g = euclid_grid()
    return {2: veronese_ladder(2, g), 3: veronese_ladder(3, g)}


@pytest.fixture(scope="module")
def traveling():
    return traveling_solution(KAPPA, OMEGA, mink_grid())


def report(name, entries, budget_s, elapsed):
    ok = all(passed for _, passed, _ in entries)
    for label, passed, value in entries:
        print(f"  [{'PASS' if passed else 'FAIL'}] {name}/{label}: {value:.3e}")
    print(f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.1f}s / budget {budget_s}s)")
    assert ok, f"{name} failed: " + ", ".join(
        f"{label}={value:.3e}" for label, passed, value in entries if not passed
    )
    assert elapsed < budget_s


def test_criterion_1_solution_validity(ladders):
    t0 = time.perf_counter()
    entries = []
    for n in (2, 3):
        jn = theta_of(bare(ladders[n].rungs[0]))
        el, em = el_residual(jn)
        entries.append((f"cp{n - 1}-el", interior_max(el, em) < 1e-8, interior_max(el, em)))
        sq, m0 = theta_square_residual(jn)
        entries.append(
            (f"cp{n - 1}-theta-square", interior_max(sq, m0) < 1e-10, interior_max(sq, m0))
        )
        ci, m1 = theta_comm_identity_residual(jn)
        entries.append(
            (f"cp{n - 1}-theta-comm", interior_max(ci, m1) < 1e-10, interior_max(ci, m1))
        )
    report("criterion-1 solution validity", entries, 10, time.perf_counter() - t0)


def test_criterion_2_lsp_euclidean(ladders):
    t0 = time.perf_counter()
    entries = []
    for n in (2, 3):
        for lam in (0.5, -0.3, 2.0):
            for k in range(n):
                j = theta_of(ladders[n].rungs[k])
                w = wave_from_terms(j.grid, euclidean_terms(j, k, ladders[n]), lam)
                u1, u2 = u_pair(j, lam)
                r1, r2, m = lsp_residual(w, u1, u2)
                worst = max(interior_max(r1, m), interior_max(r2, m))
                entries.append((f"cp{n - 1}-k{k}-lam{lam}", worst < 1e-7, worst))
    report("criterion-2 LSP euclidean", entries, 20, time.perf_counter() - t0)


def test_criterion_3_lsp_traveling(traveling):
    t0 = time.perf_counter()
    wave, jets = traveling
    w = phi_traveling(wave, jets, LAM_M)
    u1, u2 = u_pair(jets, LAM_M)
    r1, r2, m = lsp_residual(w, u1, u2)
    worst = max(interior_max(r1, m), interior_max(r2, m))
    report(
        "criterion-3 LSP traveling",
        [("kappa2-omega1-lam0.5", worst < 1e-8, worst)],
        5,
        time.perf_counter() - t0,
    )


def test_criterion_4_tangent_theorem(ladders, traveling):
    t0 = time.perf_counter()
    entries = []

    j = theta_of(ladders[2].rungs[0])
    spec = ConformalSpec.euclidean((0.0, 0.0, 1.0))
    q = conformal_characteristic(spec, j)
    w = euclidean_wave(j, 0, LAM_E)
    u1, u2 = u_pair(j, LAM_E)
    ((a, b),) = frechet_apply([u_functional(LAM_E)], j, q)
    f_closed = conformal_immersion_closed(spec, j, w, LAM_E)
    d = max(tangent_check(f_closed, w, a, b))
    entries.append(("euclid-tangents", d < 1e-6, d))
    cd = compatibility_defect(a, b, u1, u2)
    entries.append(("euclid-compatibility", cd < 1e-6, cd))
    res = integrate_surface(a, b, w)
    entries.append(("euclid-path", res.path_defect < 1e-6, res.path_defect))

    wave, jets = traveling
    specm = ConformalSpec.minkowski((0.0, 1.0), (0.0, 1.0))
    qm = conformal_characteristic(specm, jets)
    wm = phi_traveling(wave, jets, LAM_M)
    u1m, u2m = u_pair(jets, LAM_M)
    ((am, bm),) = frechet_apply([u_functional(LAM_M)], jets, qm)
    fm = conformal_immersion_closed(specm, jets, wm, LAM_M)
    d = max(tangent_check(fm, wm, am, bm))
    entries.append(("mink-tangents", d < 1e-6, d))
    cd = compatibility_defect(am, bm, u1m, u2m)
    entries.append(("mink-compatibility", cd < 1e-6, cd))
    resm = integrate_surface(am, bm, wm)
    entries.append(("mink-path", resm.path_defect < 1e-6, resm.path_defect))

    report("criterion-4 tangent theorem", entries, 30, time.perf_counter() - t0)


def test_criterion_5_euclidean_positive(ladders):
    t0 = time.perf_counter()
    entries = []
    spec = ConformalSpec.euclidean((0.0, 0.0, 1.0))
    for n in (2, 3):
        for k in range(n):
            j = theta_of(ladders[n].rungs[k])
            q = conformal_characteristic(spec, j)
            builder = lambda jd, k=k: euclidean_wave(jd, k, LAM_E)  # noqa: E731
            w = builder(j)
            (prw_phi,), (a, b) = frechet_apply([wave_functional(builder), u_functional(LAM_E)], j, q)
            d1phi, d2phi, dm = chart_first_derivatives(w)
            fv = spec.f(j.grid)
            gv = spec.g(j.grid)
            d = interior_max(
                fro(prw_phi.values - fv * d1phi - gv * d2phi),
                max(prw_phi.margin, dm),
            )
            entries.append((f"cp{n - 1}-k{k}-conformal-wave", d < 1e-6, d))

            calf = explicit_immersion(w, prw_phi)
            d = max(tangent_check(calf, w, a, b))
            entries.append((f"cp{n - 1}-k{k}-explicit-integration", d < 1e-6, d))
    report("criterion-5 euclidean positive", entries, 30, time.perf_counter() - t0)


def test_criterion_6_traveling_wave(traveling):
    t0 = time.perf_counter()
    entries = []
    wave, jets = traveling
    grid = wave.grid
    wm = phi_traveling(wave, jets, LAM_M)
    builder = lambda jd: phi_traveling(wave, jd, LAM_M)  # noqa: E731
    komm = commutator(jets.d1, jets.values)
    ktil = mm(mm(wm.inverse(), komm), wm.values)
    chi = wave.chi(LAM_M)

    # (a) closed expression for the prolonged surface
    specq = ConformalSpec.minkowski((0.0, 0.0, 1.0), (0.0,))
    qq = conformal_characteristic(specq, jets)
    (prw_phi,), (am, bm) = frechet_apply([wave_functional(builder), u_functional(LAM_M)], jets, qq)
    calf = explicit_immersion(wm, prw_phi)
    coeff = -2 * specq.f(grid) - 2 * KAPPA * specq.g(grid) + 2 * specq.f1(grid) * chi
    pred = coeff * ktil
    d = interior_max(fro(calf.values - pred), calf.margin)
    entries.append(("closed-form", d < 1e-6, d))

    # (b) the tangent identity fails for quadratic f, the R pair does not
    d_fail = max(tangent_check(calf, wm, am, bm))
    entries.append(("identity-fails", d_fail > 0.1, d_fail))
    r1, r2 = traveling_R_fields(specq, wave, jets, LAM_M)
    # the closed-form surface is polynomial in the coordinates, so its
    # stencil derivatives are exact and the comparison is noise-free
    calf_closed = MatrixField(grid, pred, calf.margin)
    d_r = max(tangent_check(calf_closed, wm, r1, r2))
    entries.append(("R-tangents", d_r < 1e-6, d_r))
    d_fre = max(tangent_check(calf, wm, r1, r2))
    entries.append(("R-tangents-deformed", d_fre < 1e-6, d_fre))

    # (c) affine data: identity holds and the difference matrix is constant
    a_, b_, c_ = 0.7, 0.4, -0.3
    spec_ab = ConformalSpec.minkowski((b_, a_), (c_, a_))
    q_ab = conformal_characteristic(spec_ab, jets)
    (prw_phi_ab,), (a2, b2) = frechet_apply([wave_functional(builder), u_functional(LAM_M)], jets, q_ab)
    calf_ab = explicit_immersion(wm, prw_phi_ab)
    d_ok = max(tangent_check(calf_ab, wm, a2, b2))
    entries.append(("affine-identity", d_ok < 1e-6, d_ok))
    f_ab = conformal_immersion_closed(spec_ab, jets, wm, LAM_M)
    mean, variation = constant_difference_check(f_ab, calf_ab)
    entries.append(("difference-constant", variation < 1e-8, variation))
    pred_mean = (
        2 * b_ * LAM_M / (1 + LAM_M) - 2 * c_ * KAPPA * LAM_M / (1 - LAM_M)
    ) * ktil[..., grid.n2 // 2, grid.n1 // 2]
    d_mean = float(np.max(np.abs(mean - pred_mean)))
    entries.append(("difference-value", d_mean < 1e-8, d_mean))

    report("criterion-6 traveling wave", entries, 30, time.perf_counter() - t0)


def test_criterion_7_commutation(ladders, traveling):
    t0 = time.perf_counter()
    entries = []
    j = theta_of(ladders[2].rungs[0])
    spec = ConformalSpec.euclidean((0.0, 0.0, 1.0))
    q = conformal_characteristic(spec, j)
    gs = [
        theta_functional(),
        theta_derivatives_functional(),
        u_functional(LAM_E),
        u_derivatives_functional(LAM_E, 1),
        u_derivatives_functional(LAM_E, 2),
    ]
    (prw_theta,), dtheta, (a, b), du1, du2 = frechet_apply(gs, j, q)
    for name, prw_g, prw_dg in (("theta", prw_theta, dtheta), ("u1", a, du1), ("u2", b, du2)):
        d = commutation_defect(prw_g, prw_dg)
        entries.append((f"euclid-{name}", d < 1e-6, d))
    wave, jets = traveling
    qm = conformal_characteristic(ConformalSpec.minkowski((0.0, 0.0, 1.0), (0.0,)), jets)
    gs[2:] = [u_functional(LAM_M), u_derivatives_functional(LAM_M, 1), u_derivatives_functional(LAM_M, 2)]
    (prw_theta_m,), dtheta_m, (am, bm), du1m, du2m = frechet_apply(gs, jets, qm, 1e-4)
    for name, prw_g, prw_dg in (("theta", prw_theta_m, dtheta_m), ("u1", am, du1m), ("u2", bm, du2m)):
        d = commutation_defect(prw_g, prw_dg)
        entries.append((f"mink-{name}", d < 1e-6, d))

    # step-size order, probed on the lowering operator (the jet-quadratic
    # functionals above have exact difference quotients, so they carry no
    # step truncation to measure)
    j1 = theta_of(ladders[2].rungs[1])
    trans = ConformalSpec.euclidean((1.0,))
    q1 = conformal_characteristic(trans, j1)
    g = lowering_functional()
    dl1, dl2 = lowering_derivatives_functional()(j1)
    ref = dl1.values + dl2.values
    margin = dl1.margin
    ds = []
    for eps in (0.04, 0.02, 0.01):
        ((pw,),) = frechet_apply([g], j1, q1, eps)
        ds.append(interior_max(fro(pw.values - ref), max(pw.margin, margin)))
    eps_order = float(min(np.log2(ds[i] / ds[i + 1]) for i in range(2)))
    entries.append(("eps-order>=2", eps_order > 1.9, eps_order))

    hs = []
    for h in (0.012, 0.006, 0.003):
        gh = euclid_grid(h)
        jh = theta_of(veronese_ladder(2, gh).rungs[1])
        qh = conformal_characteristic(spec, jh)
        (prw_g,), prw_dg = frechet_apply(
            [lowering_functional(), lowering_derivatives_functional()], jh, qh, 1e-3
        )
        hs.append(commutation_defect(prw_g, prw_dg))
    h_order = float(min(np.log2(hs[i] / hs[i + 1]) for i in range(2)))
    entries.append(("h-order>=3", h_order > 3.0, h_order))

    report("criterion-7 commutation lemma", entries, 30, time.perf_counter() - t0)


def _refinement_table():
    """(label, base h, measure(h)) for the representative criterion defects.

    Base spacings are chosen per defect so that 4th-order truncation
    dominates rounding noise at both h and h/2; comparison sides are the
    closed forms (noise-free), whose agreement with the deformation route
    is certified separately at fixed h by criteria 4-6.
    """

    def el_defect(h):
        jn = theta_of(bare(veronese_ladder(2, euclid_grid(h)).rungs[0]))
        el, m = el_residual(jn)
        return interior_max(el, m)

    def comm_identity_defect(h):
        jn = theta_of(bare(veronese_ladder(2, euclid_grid(h)).rungs[0]))
        ci, m = theta_comm_identity_residual(jn)
        return interior_max(ci, m)

    def lsp_euclid_defect(h):
        j = theta_of(veronese_ladder(3, euclid_grid(h)).rungs[2])
        w = euclidean_wave(j, 2, 0.5)
        u1, u2 = u_pair(j, 0.5)
        r1, r2, m = lsp_residual(w, u1, u2)
        return max(interior_max(r1, m), interior_max(r2, m))

    def lsp_traveling_defect(h):
        wave, jets = traveling_solution(KAPPA, OMEGA, mink_grid(h))
        w = phi_traveling(wave, jets, LAM_M)
        u1, u2 = u_pair(jets, LAM_M)
        r1, r2, m = lsp_residual(w, u1, u2)
        return max(interior_max(r1, m), interior_max(r2, m))

    def euclid_tangent_defect(h):
        j = theta_of(veronese_ladder(2, euclid_grid(h)).rungs[0])
        spec = ConformalSpec.euclidean((0.0, 0.0, 1.0))
        w = euclidean_wave(j, 0, LAM_E)
        f_closed = conformal_immersion_closed(spec, j, w, LAM_E)
        pw1, pw2 = prolong_u(spec, j, LAM_E)
        return max(tangent_check(f_closed, w, pw1, pw2))

    def traveling_R_defect(h):
        wave, jets = traveling_solution(KAPPA, OMEGA, mink_grid(h))
        wm = phi_traveling(wave, jets, LAM_M)
        specq = ConformalSpec.minkowski((0.0, 0.0, 1.0), (0.0,))
        komm = commutator(jets.d1, jets.values)
        coeff = (
            -2 * specq.f(wave.grid)
            - 2 * KAPPA * specq.g(wave.grid)
            + 2 * specq.f1(wave.grid) * wave.chi(LAM_M)
        )
        calf_closed = MatrixField(wave.grid, coeff * mm(mm(wm.inverse(), komm), wm.values), 0)
        r1, r2 = traveling_R_fields(specq, wave, jets, LAM_M)
        return max(tangent_check(calf_closed, wm, r1, r2))

    def commutation_defect_h(h):
        spec = ConformalSpec.euclidean((0.0, 0.0, 1.0))
        jh = theta_of(veronese_ladder(2, euclid_grid(h)).rungs[1])
        qh = conformal_characteristic(spec, jh)
        (prw_g,), prw_dg = frechet_apply(
            [lowering_functional(), lowering_derivatives_functional()], jh, qh, 1e-3
        )
        return commutation_defect(prw_g, prw_dg)

    return [
        ("c1-el-residual", 0.012, el_defect),
        ("c1-comm-identity", 0.012, comm_identity_defect),
        ("c2-lsp-euclid-top", 0.003, lsp_euclid_defect),
        ("c3-lsp-traveling", 0.002, lsp_traveling_defect),
        ("c4-tangent-euclid", 0.006, euclid_tangent_defect),
        ("c6-R-tangents", 0.002, traveling_R_defect),
        ("c7-commutation", 0.012, commutation_defect_h),
    ]


def test_criterion_8_convergence():
    t0 = time.perf_counter()
    entries = []
    floor = 1e-12
    for label, h, measure in _refinement_table():
        coarse = measure(h)
        if coarse < floor:
            entries.append((f"{label} (at floor)", True, coarse))
            continue
        fine = measure(h / 2)
        ratio = coarse / fine
        entries.append((f"{label} ratio", ratio >= 8.0, ratio))
    report("criterion-8 convergence", entries, 120, time.perf_counter() - t0)


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    out1, out2 = str(tmp_path / "v1"), str(tmp_path / "v2")
    t_suite = time.perf_counter()
    code1 = cli_main(["verify", "--suite", "all", "--out", out1])
    suite_time = time.perf_counter() - t_suite
    code2 = cli_main(["verify", "--suite", "all", "--out", out2])
    b1 = open(os.path.join(out1, "report.json"), "rb").read()
    b2 = open(os.path.join(out2, "report.json"), "rb").read()
    entries = [
        ("suite-exit-codes", code1 == 0 and code2 == 0, float(code1 + code2)),
        ("byte-identical-reports", b1 == b2, float(len(b1) != len(b2))),
        ("suite-runtime", suite_time < 120.0, suite_time),
    ]
    rep = json.loads(b1)
    entries.append(("all-checks-pass", rep["passed"], float(len(rep["checks"]))))
    report("criterion-9 determinism", entries, 300, time.perf_counter() - t0)
