"""Command line entry points.

    solsurf solve   --config cfg.json [--out DIR] [--grid-h H]
    solsurf immerse --config cfg.json [--out DIR] [--lambda X] [--grid-h H]
    solsurf verify  [--suite NAME] [--config cfg.json] [--out DIR]
    solsurf export  --config cfg.json [--out DIR]

Every command takes the same config key set and reads only its own keys
(see :mod:`solsurf.config`): ``solve`` and ``immerse`` the run keys,
``verify`` ``tolerances`` and ``suite``, ``export`` ``outputs``; a flag
overrides the key it names.

Exit codes: 0 success, 1 verification failure, 2 configuration error.
Reports written by ``verify`` are byte-identical across repeated runs of
the same configuration (timings appear only in the human-readable text).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import warnings
from typing import Callable, Iterator

import numpy as np

from .config import (
    GAUGE_PRESETS, ConfigError, RunConfig, SolveConfig, load_config, parse_config, parse_outputs,
    parse_solve, parse_verify,
)
from .errors import DeformationOutOfDomain, FieldFileError, LambdaSingular, MarginExhausted
from .fields import (
    JetField,
    MatrixField,
    interior,
    interior_max,
    read_field,
    tangent_defect,
    trim_margin,
    write_field,
    write_field_json,
    write_scalar_csv,
)
from .geometry import embed_su2, export_obj
from .immersion import (
    assemble_tangents,
    conformal_integrand,
    constant_difference_check,
    integrate_surface,
    linear_independence_report,
    pulled_back,
    su_measured,
    sym_tafel,
)
from .matlie import NonFiniteMatrix, constant, fro, identity, mm, su_basis
from .sigma import (
    el_residual,
    theta_comm_identity_residual,
    theta_of,
    theta_square_residual,
    traveling_solution,
    u_pair_rows,
    veronese,
)
from .spectral import (
    WaveField,
    euclidean_wave,
    euclidean_wave_dlambda,
    phi_traveling,
    traveling_wave_dlambda,
    wave_diagnostics,
)
from .symmetry import (
    compatibility_defect, conformal_characteristic, frechet_apply, polyval, u_functional,
    wave_functional,
)
from .verify import SUITE_NAMES, run_suites


def _dump_json(path: str, obj: dict) -> None:
    """Write ``obj`` compactly to ``path`` and echo it indented to stdout;
    the callers have rejected every non-finite float."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"), allow_nan=False)
    print(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False))


@contextlib.contextmanager
def _staged(outdir: str) -> Iterator[Callable[[str], str]]:
    """Yield ``stage(name)``, the temporary path ``<target>.<pid>.<i>.tmp`` to
    write the target ``outdir/name`` to.  The staged files are renamed onto
    their targets in order once the block ends, and removed if it raises."""
    staged: list[tuple[str, str]] = []

    def stage(name: str) -> str:
        dst = os.path.join(outdir, name)
        os.makedirs(os.path.dirname(dst) or ".", exist_ok=True)
        staged.append((f"{dst}.{os.getpid()}.{len(staged)}.tmp", dst))
        return staged[-1][0]

    try:
        yield stage
        for tmp, dst in staged:
            os.replace(tmp, dst)
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.remove(tmp)


def _check_out_dir(path: str, named: str) -> None:
    """A config error naming ``named`` if the directory ``path`` cannot be
    made because it, or a path above it, exists and is not a directory;
    nothing is made here."""
    head = os.path.abspath(path)
    while not os.path.isdir(head):
        if os.path.lexists(head):
            raise ConfigError(f"{named}: cannot make the directory {path!r}: "
                              f"{head!r} exists and is not a directory")
        head = os.path.dirname(head)


def _read_input(path: str, key: str) -> tuple[MatrixField, complex | None]:
    """A field file named by config key ``key``; any failure is a ConfigError."""
    try:
        return read_field(path)
    except (OSError, FieldFileError) as exc:
        raise ConfigError(f"key {key!r}: cannot read field file {path!r}: {exc}") from exc


# A Veronese ladder whose rungs sum to the identity no closer than this has
# lost its frame to cancellation, far from the origin or on a wide grid; the
# README Euclidean config reads 2.5e-16 at 101^2 and 3.3e-16 at 401^2.
COMPLETENESS_TOL = 1e-8

# `immerse` warns above this compatibility defect of the tangent pair, and
# integrates the surface regardless
COMPAT_WARN = 1e-6


def _completeness_residual(rungs: list[MatrixField]) -> float:
    """How far the rung projectors sum from the identity, over the interior."""
    total = sum(r.values for r in rungs)
    return interior_max(fro(total - identity(rungs[0].n)), max(r.margin for r in rungs))


def _orthogonality_defect(rungs: list[MatrixField]) -> float:
    """The largest product of two distinct rung projectors, over the interior."""
    m = max(r.margin for r in rungs)
    pairs = itertools.combinations(rungs, 2)
    return max(0.0, *(interior_max(fro(mm(a.values, b.values)), m) for a, b in pairs))


def _build_solution(cfg: SolveConfig):
    """Returns (jet_field, rungs_or_wave, completeness): the jets of theta,
    the projector of every ladder rung or the traveling wave, and the
    ladder's completeness residual (None for a traveling wave); a config
    error if theta, D_1 theta and D_2 theta, read one strip of grid rows at
    a time, are finite together at no interior node, or if the rungs of a
    Veronese ladder sum to the identity no closer than ``COMPLETENESS_TOL``."""
    if cfg.solution["kind"] == "veronese":
        carrier, j = veronese(cfg.n, cfg.grid, cfg.solution["k"])
    else:
        carrier, j = traveling_solution(cfg.solution["kappa"], cfg.solution["omega"], cfg.grid)
    (finite,) = j.map_rows(lambda jr: (
        (np.isfinite(jr.values) & np.isfinite(jr.d1) & np.isfinite(jr.d2)).all(axis=(0, 1)),))
    if not interior(finite, j.margin1).any():
        raise ConfigError("keys 'solution' and 'grid': the solution is not finite on the grid")
    residual = None
    if cfg.solution["kind"] == "veronese":
        residual = _completeness_residual(carrier)
        if residual > COMPLETENESS_TOL:
            raise ConfigError(
                "keys 'solution' and 'grid': the Veronese ladder is not complete on the grid "
                f"(completeness residual {residual:.3g} > {COMPLETENESS_TOL:g})"
            )
    return j, carrier, residual


def _wave_builder(cfg: RunConfig, carrier) -> Callable[[JetField], WaveField]:
    """The jet -> Phi builder of the solution, which a symmetry prolongs.

    The Euclidean builder lowers the rungs from the jets up to level 2,
    and ignores the ladder there; deeper levels sum the stored rung
    projectors, so `parse_config` admits no symmetry on them.
    """
    if cfg.solution["kind"] == "traveling":
        return lambda jd: phi_traveling(carrier, jd, cfg.lam)
    return lambda jd: euclidean_wave(jd, cfg.solution["k"], cfg.lam, carrier)


def _gauge_field(cfg: RunConfig, j: JetField) -> MatrixField | None:
    if cfg.gauge == "none":
        return None
    if "preset" in cfg.gauge:
        mat = su_basis(cfg.n).elements[..., GAUGE_PRESETS[cfg.gauge["preset"]]]
        shape = (j.n, j.n, j.grid.n2, j.grid.n1)
        return MatrixField(j.grid, np.broadcast_to(constant(mat), shape), 0)
    field, _ = _read_input(cfg.gauge["file"], "gauge.file")
    if field.grid != j.grid or field.n != cfg.n:
        raise ConfigError(
            "key 'gauge.file': gauge field grid or matrix size does not match the run"
        )
    return field


def _non_finite(report: dict, prefix: str = "") -> list[str]:
    """Dotted keys of the float values in ``report`` that are not finite."""
    names = []
    for key, value in report.items():
        if isinstance(value, dict):
            names += _non_finite(value, f"{prefix}{key}.")
        elif isinstance(value, float) and not math.isfinite(value):
            names.append(prefix + key)
    return names


# a summary value that overflows is rejected below, not warned about
@np.errstate(over="ignore", invalid="ignore")
def cmd_solve(cfg: SolveConfig, outdir: str) -> int:
    j, carrier, completeness = _build_solution(cfg)
    summary: dict = {"solution": cfg.solution, "grid": cfg.grid.to_json(), "n": cfg.n}
    with _staged(outdir) as stage:
        write_field(stage("theta.npz"), j)
        if cfg.solution["kind"] == "veronese":
            # the stencil route, so the residual does not rest on the exact
            # jets it certifies
            el, em = el_residual(theta_of(carrier[cfg.solution["k"]]))
            summary["el_residual_max"] = interior_max(el, em)
            for m, rung in enumerate(carrier):
                write_field(stage(f"ladder_{m}.npz"), rung)
            summary["ladder_length"] = len(carrier)
            summary["orthogonality_defect"] = _orthogonality_defect(carrier)
            summary["completeness_residual"] = completeness
            write_scalar_csv(stage("el_residual.csv"), cfg.grid, el, em)
        else:
            (tv,) = j.map_rows(lambda jr: (fro(carrier.kappa * jr.d1 - jr.d2),))
            summary["traveling_constraint_defect"] = interior_max(tv, j.margin1)
            el, em = el_residual(j)
            summary["el_residual_max"] = interior_max(el, em)
        sq, m0 = theta_square_residual(j)
        ci, m1 = theta_comm_identity_residual(j)
        summary["theta_square_residual_max"] = interior_max(sq, m0)
        summary["theta_commutator_identity_max"] = interior_max(ci, m1)
        bad = _non_finite(summary)
        if bad:
            raise ConfigError(f"keys 'solution' and 'grid': {bad[0]} is not finite on the grid")
        _dump_json(stage("solve-summary.json"), summary)
    return 0


# a report value that overflows is rejected below, not warned about
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def cmd_immerse(cfg: RunConfig, outdir: str) -> int:
    """Each field is staged as soon as it is final and then freed, the report
    last; the files are renamed into place once it is written, so a run that
    exits 2 leaves no file behind.  Each surface is measured, and the
    integrated one projected onto su(N), strip by strip as it is written;
    the Sym-Tafel surface is never held whole.  The tangent pair is
    assembled strip by strip from the jets, and the connection pair is read
    once after the Sym-Tafel surface, as rows formed from the jets: it
    gives the compatibility defect (a warning above ``COMPAT_WARN``) and,
    with the symmetry alone, the integrand of the closed conformal
    immersion, the last reader of the jets.  The rest of the solution is
    freed, and one pull-back by Phi writes the surface's tangents over the
    tangent pair, for the tangent checks, the integration and the Gram
    report, and with the symmetry alone forms the closed conformal and the
    explicit immersion.  Phi is then written and freed, so the surface is
    integrated beside the tangents alone."""
    if not (cfg.a_coeffs or cfg.gauge != "none" or cfg.symmetry is not None):
        raise ConfigError("immersion requires at least one of: a_coeffs, gauge, symmetry")
    j, carrier, _ = _build_solution(cfg)
    spectral_only = bool(cfg.a_coeffs) and cfg.gauge == "none" and cfg.symmetry is None
    symmetry_only = cfg.symmetry is not None and not cfg.a_coeffs and cfg.gauge == "none"
    builder = _wave_builder(cfg, carrier)
    if spectral_only and cfg.solution["kind"] == "veronese":
        # the Sym-Tafel surface's d(Phi)/d(lambda) comes from Phi's own strip pass
        wave, dphi = euclidean_wave_dlambda(j, cfg.solution["k"], cfg.lam, carrier)
    elif not symmetry_only:
        wave = builder(j)

    gauge = _gauge_field(cfg, j)
    prolonged = [None]
    if cfg.symmetry is not None:
        # one prolongation along Q: the connection pair, and with the
        # symmetry alone Phi and pr w Phi, for the closed forms
        prolonged = frechet_apply(
            (u_functional(cfg.lam), wave_functional(builder))[: 1 + symmetry_only],
            j, conformal_characteristic(cfg.symmetry, j), values=((1, 0),),
        )
    a, b = assemble_tangents(j, cfg.lam, a_coeffs=cfg.a_coeffs, gauge=gauge, prw_u=prolonged[0])
    prw_phi = None
    if symmetry_only:
        ((wave, prw_phi),) = prolonged[1]
    del gauge, prolonged
    # a grid that the deepest tangent check covers fails before the compatibility check warns
    deepest = max(a.margin, b.margin, wave.margin, prw_phi.margin if symmetry_only else 0)
    interior(np.empty(wave.values.shape[2:]), deepest + 2)

    report: dict = {}
    with _staged(outdir) as stage:
        if spectral_only:
            if cfg.solution["kind"] != "veronese":
                dphi = traveling_wave_dlambda(carrier, j, wave)
            fst, su_distance = su_measured(sym_tafel(wave, dphi, polyval(cfg.a_coeffs, cfg.lam)))
            write_field(stage("sym_tafel.npz"), fst)
            report["sym_tafel_su_distance"] = su_distance()
            del dphi, fst, su_distance

        # one connection pair: the compatibility check's and the closed form's
        u = u_pair_rows(j, cfg.lam)
        compat = compatibility_defect(a, b, *u)
        # the integrand reads the pair, and so the jets, as its rows are pulled back
        integrand = [conformal_integrand(cfg.symmetry, *u)] if symmetry_only else []
        del j, carrier, builder, u  # the Euclidean builder holds the rungs
        # one pass through Phi^-1: the surface's tangents, over the tangent
        # pair that nothing reads again, and with the symmetry alone the
        # closed conformal and the explicit immersion
        a, b, *closed = pulled_back(wave, [a, b, *integrand], [prw_phi] if symmetry_only else [],
                                    out=(a.values, b.values))
        del integrand, prw_phi
        write_field(stage("wave.npz"), wave, lam=wave.lam)
        report["wave"] = wave_diagnostics(wave)
        del wave
        if COMPAT_WARN < compat < np.inf:
            warnings.warn(
                f"tangent pair is not compatible (defect {compat:.3e}); "
                "the integrated surface will be path dependent"
            )

        if symmetry_only:
            for name, f in zip(("conformal_closed", "prolonged"), closed):
                measured, su_distance = su_measured(f)
                write_field(stage(f"{name}.npz"), measured)
                report[f"{name}_su_distance"] = su_distance()
            del f, measured
            report["closed_vs_prolonged_variation"] = constant_difference_check(*closed)[1]
            # only the symmetry is active, so (A, B) is the prolonged pair
            defect = tangent_defect(closed[1], a, b)
            del closed
            report["prolonged_tangent_defect"] = defect
            report["prolonged_is_fokas_gelfand"] = bool(defect < 1e-6)

        raw, path_defect = integrate_surface(a, b)
        surface, su_correction = su_measured(raw, project=True)
        write_field(stage("immersion.npz"), surface)
        report.update(
            basepoint=[raw.margin, raw.margin],
            compat_defect=compat,
            path_defect=path_defect,
            su_correction=su_correction(),
        )
        del surface
        report["integrated_tangent_defect"] = tangent_defect(raw, a, b)
        del raw
        report["tangent_gram"] = linear_independence_report(a, b)
        bad = sorted(_non_finite(report))
        if bad:
            raise ConfigError(
                f"keys 'solution', 'grid', 'lambda' and the tangent terms: "
                f"{', '.join(bad)} {'is' if len(bad) == 1 else 'are'} not finite on the grid"
            )
        _dump_json(stage("immersion-report.json"), report)
    return 0


def cmd_verify(tolerances: dict[str, float], suite: str, outdir: str) -> int:
    report = run_suites([suite], tolerances)
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        fh.write(report.json_text())
    with open(os.path.join(outdir, "report.txt"), "w") as fh:
        fh.write(report.text() + "\n")
    print(report.text())
    return 0 if report.passed else 1


def _finite_inside(f: MatrixField) -> bool:
    """Whether every node of ``f`` inside its margin is finite (so is an
    empty interior)."""
    m = f.margin
    return bool(np.isfinite(f.values[..., m:f.grid.n2 - m, m:f.grid.n1 - m]).all())


def cmd_export(outputs: list[dict], outdir: str) -> int:
    """Each entry of ``outputs`` is converted and staged beside its target,
    one at a time, and the files are renamed into place once the last entry
    has succeeded, so an export that exits 2 leaves no file behind.  OBJ
    vertices and CSV values have no spelling for a non-finite node, so a
    field with one inside its margin is rejected for them; JSON writes it
    as null."""
    for i, entry in enumerate(outputs):
        target = os.path.join(outdir, entry["path"])
        _check_out_dir(os.path.dirname(target), f"key 'outputs[{i}].path'")
        if os.path.isdir(target):
            raise ConfigError(f"key 'outputs[{i}].path': {target!r} is a directory")
    with _staged(outdir) as stage:
        for i, entry in enumerate(outputs):
            key = f"outputs[{i}].input"
            field, lam = _read_input(entry["input"], key)
            if entry["format"] != "json" and not _finite_inside(field):
                raise ConfigError(
                    f"key {key!r}: cannot export {entry['input']!r} as {entry['format']}: "
                    "it has non-finite nodes inside its margin"
                )
            if entry["format"] == "obj":
                # su(2) only, and the trimmed grid must keep the minimum node count
                try:
                    points = embed_su2(trim_margin(field))
                except ValueError as exc:
                    raise ConfigError(
                        f"key 'outputs[{i}]': cannot export {entry['input']!r} as obj: {exc}"
                    ) from exc
            tmp = stage(entry["path"])
            if entry["format"] == "json":
                write_field_json(tmp, field, lam)
            elif entry["format"] == "csv":
                write_scalar_csv(tmp, field.grid, fro(field.values), field.margin)
            else:
                export_obj(tmp, points)
    for entry in outputs:
        print(f"wrote {os.path.join(outdir, entry['path'])}")
    return 0


# Errors of a config that parses but cannot be computed, and the keys that cause them
_UNCOMPUTABLE = {
    # no wave function of the solution or of its prolongation: far from the origin, say
    DeformationOutOfDomain: "keys 'grid' and 'symmetry'",
    # the phase chi [theta_1, theta] of a traveling wave, or of its prolongation, is not finite
    NonFiniteMatrix: "keys 'solution', 'grid', 'lambda' and 'symmetry'",
    # the stencil margins of the run cover the grid
    MarginExhausted: "key 'grid'",
    # the wave function is exactly singular at a node, so no surface can be integrated
    np.linalg.LinAlgError: "keys 'solution', 'grid' and 'lambda'",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="solsurf",
        description="soliton surfaces in su(N): solve, immerse, verify, export",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "immerse", "verify", "export"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", default="solsurf-out", help="output directory")
        if name == "immerse":
            p.add_argument("--lambda", dest="lam", help="override the spectral parameter")
        if name in ("solve", "immerse"):
            p.add_argument("--grid-h", dest="grid_h", type=float, help="override grid spacing")
        if name == "verify":
            p.add_argument("--suite", help=f"one of: all, {', '.join(SUITE_NAMES)}")
    args = parser.parse_args(argv)

    try:
        # before any computation, so that a run cannot fail at its last write
        _check_out_dir(args.out, "--out")
        obj = load_config(args.config) if args.config else {}
        if args.command == "verify":
            tolerances, suite = parse_verify(obj)
            # the key is checked even when the flag overrides it
            for value, named in ((suite, "key 'suite'"), (args.suite, "--suite")):
                if value is not None and value != "all" and value not in SUITE_NAMES:
                    raise ConfigError(
                        f"{named}: unknown value {value!r}; "
                        f"choose from all, {', '.join(SUITE_NAMES)}"
                    )
            return cmd_verify(tolerances, suite if args.suite is None else args.suite, args.out)
        if not args.config:
            raise ConfigError("--config is required for this command")
        if args.command == "export":
            return cmd_export(parse_outputs(obj), args.out)
        if args.command == "solve":
            return cmd_solve(parse_solve(obj, args.grid_h), args.out)
        return cmd_immerse(parse_config(obj, args.lam, args.grid_h), args.out)
    except (ConfigError, LambdaSingular) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except tuple(_UNCOMPUTABLE) as exc:
        print(f"configuration error: {_UNCOMPUTABLE[type(exc)]}: {exc}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    raise SystemExit(main())
