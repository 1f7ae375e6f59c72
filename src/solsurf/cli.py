"""Command line entry points.

    solsurf solve   --config cfg.json [--out DIR] [--lambda X] [--grid-h H]
    solsurf immerse --config cfg.json [--out DIR] [--lambda X] [--grid-h H]
    solsurf verify  [--suite NAME] [--config cfg.json] [--out DIR]
    solsurf export  --config cfg.json [--out DIR]

Exit codes: 0 success, 1 verification failure, 2 configuration error.
Reports written by ``verify`` are byte-identical across repeated runs of
the same configuration (timings appear only in the human-readable text).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import Callable, Iterator

import numpy as np

from .config import ConfigError, RunConfig, finite_number, load_config, parse_lambda
from .errors import DeformationOutOfDomain, FieldFileError, LambdaSingular, MarginExhausted
from .fields import (
    Grid2,
    MatrixField,
    interior,
    interior_max,
    read_field,
    trim_margin,
    write_field,
    write_field_json,
    write_scalar_csv,
)
from .geometry import embed_su2, export_obj
from .immersion import (
    a_value,
    assemble_tangents,
    conformal_immersion_closed,
    constant_difference_check,
    explicit_immersion,
    integrate_surface,
    linear_independence_report,
    su_distance,
    sym_tafel,
    tangent_check,
)
from .matlie import NonFiniteMatrix, constant, fro, su_basis
from .sigma import (
    JetField,
    el_residual,
    theta_comm_identity_residual,
    theta_of,
    theta_square_residual,
    traveling_solution,
    u_pair,
    veronese_ladder,
)
from .spectral import (
    WaveField,
    euclidean_terms,
    euclidean_wave,
    euclidean_wave_dlambda,
    phi_traveling,
    traveling_wave_dlambda,
    wave_diagnostics,
    wave_from_terms,
)
from .symmetry import conformal_characteristic, frechet_apply, u_functional, wave_functional
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


def _build_solution(cfg: RunConfig):
    """Returns (jet_field, ladder_or_wave, extras dict); a config error if
    theta, D_1 theta and D_2 theta are finite together at no interior node,
    or if the rungs of a Veronese ladder sum to the identity no closer than
    ``COMPLETENESS_TOL``."""
    if cfg.solution["kind"] == "veronese":
        carrier = veronese_ladder(cfg.n, cfg.grid)
        j = theta_of(carrier.rungs[cfg.solution["k"]])
        meta = {"kind": "veronese", "k": cfg.solution["k"]}
    else:
        carrier, j = traveling_solution(cfg.solution["kappa"], cfg.solution["omega"], cfg.grid)
        meta = {"kind": "traveling", "kappa": cfg.solution["kappa"], "omega": cfg.solution["omega"]}
    finite = np.isfinite(j.values) & np.isfinite(j.d1) & np.isfinite(j.d2)
    if not interior(finite.all(axis=(0, 1)), j.margin1).any():
        raise ConfigError("keys 'solution' and 'grid': the solution is not finite on the grid")
    if meta["kind"] == "veronese":
        residual = carrier.completeness_residual()
        if residual > COMPLETENESS_TOL:
            raise ConfigError(
                "keys 'solution' and 'grid': the Veronese ladder is not complete on the grid "
                f"(completeness residual {residual:.3g} > {COMPLETENESS_TOL:g})"
            )
    return j, carrier, meta


def _wave_builder(cfg: RunConfig, carrier) -> Callable[[JetField], WaveField]:
    """The jet -> Phi builder that a symmetry deforms.

    The Euclidean builder lowers the rungs from the jets, up to level 2;
    `parse_config` admits no symmetry on the deeper levels, whose Phi
    sums the stored ladder rungs (`euclidean_terms` with the ladder).
    """
    if cfg.solution["kind"] == "traveling":
        return lambda jd: phi_traveling(carrier, jd, cfg.lam)
    return lambda jd: euclidean_wave(jd, cfg.solution["k"], cfg.lam)


def _gauge_field(cfg: RunConfig, j: JetField) -> MatrixField | None:
    if cfg.gauge == "none":
        return None
    if "preset" in cfg.gauge:
        name = cfg.gauge["preset"]
        basis = su_basis(cfg.n)
        if name == "diag":
            mat = basis.elements[..., -1]
        elif name == "offdiag":
            mat = basis.elements[..., 0]
        else:
            raise ConfigError(f"key 'gauge.preset': unknown preset {name!r}")
        vals = np.broadcast_to(constant(mat), j.values.shape).copy()
        return MatrixField(j.grid, vals, 0)
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
def cmd_solve(cfg: RunConfig, outdir: str) -> int:
    j, carrier, meta = _build_solution(cfg)
    summary: dict = {"solution": meta, "grid": cfg.grid.to_json(), "n": cfg.n}
    with _staged(outdir) as stage:
        write_field(stage("theta.npz"), j)
        if meta["kind"] == "veronese":
            # a bare field takes the stencil route, so the residual does not
            # rest on the exact jets it certifies
            rung = carrier.rungs[cfg.solution["k"]]
            el, em = el_residual(theta_of(MatrixField(rung.grid, rung.values, rung.margin)))
            summary["el_residual_max"] = interior_max(el, em)
            for m in range(len(carrier)):
                write_field(stage(f"ladder_{m}.npz"), carrier.rungs[m])
            summary["ladder_length"] = len(carrier)
            summary["orthogonality_defect"] = carrier.orthogonality_defect()
            summary["completeness_residual"] = carrier.completeness_residual()
            write_scalar_csv(stage("el_residual.csv"), cfg.grid, el, em)
        else:
            tvdefect = interior_max(fro(carrier.kappa * j.d1 - j.d2), j.margin1)
            summary["traveling_constraint_defect"] = tvdefect
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
    exits 2 leaves no file behind.  The closed forms, which read the
    solution, come first, so it is freed before the surface is integrated."""
    j, carrier, meta = _build_solution(cfg)
    spectral_only = bool(cfg.a_coeffs) and cfg.gauge == "none" and cfg.symmetry is None
    symmetry_only = cfg.symmetry is not None and not cfg.a_coeffs and cfg.gauge == "none"
    if meta["kind"] == "veronese":
        # Phi and the Sym-Tafel surface's d(Phi)/d(lambda) share these terms
        terms = euclidean_terms(j, cfg.solution["k"], carrier)
        wave = wave_from_terms(j.grid, terms, cfg.lam)
        if not spectral_only:
            del terms
    else:
        wave = phi_traveling(carrier, j, cfg.lam)

    gauge = _gauge_field(cfg, j)
    prolonged = [None]
    if cfg.symmetry is not None:
        # one prolongation along Q: the connection pair, and Phi when the
        # closed forms are compared
        builder = _wave_builder(cfg, carrier)
        gs = (u_functional(cfg.lam), wave_functional(builder))[: 1 + symmetry_only]
        prolonged = frechet_apply(gs, j, conformal_characteristic(cfg.symmetry, j))
    if not (cfg.a_coeffs or gauge is not None or cfg.symmetry is not None):
        raise ConfigError(
            "immersion requires at least one of: a_coeffs, gauge, symmetry"
        )
    a, b = assemble_tangents(j, cfg.lam, a_coeffs=cfg.a_coeffs, gauge=gauge, prw_u=prolonged[0])
    prw_phi = prolonged[1][0] if symmetry_only else None
    del gauge, prolonged
    # a grid that the deepest tangent check covers fails before the compatibility check warns
    deepest = max(a.margin, b.margin, wave.margin, prw_phi.margin if symmetry_only else 0)
    interior(np.empty(wave.values.shape[2:]), deepest + 2)

    report: dict = {}
    with _staged(outdir) as stage:
        if spectral_only:
            if meta["kind"] == "veronese":
                dphi = euclidean_wave_dlambda(j.grid, terms, cfg.lam)
                del terms
            else:
                dphi = traveling_wave_dlambda(carrier, j, wave)
            fst = sym_tafel(wave, dphi, a_value(cfg.a_coeffs, cfg.lam))
            del dphi
            write_field(stage("sym_tafel.npz"), fst)
            report["sym_tafel_su_distance"] = su_distance(fst)
            del fst

        if symmetry_only:
            f_closed = conformal_immersion_closed(cfg.symmetry, j, wave, cfg.lam)
            write_field(stage("conformal_closed.npz"), f_closed)
            report["conformal_closed_su_distance"] = su_distance(f_closed)
            calf = explicit_immersion(wave, prw_phi)
            del prw_phi
            write_field(stage("prolonged.npz"), calf)
            report["prolonged_su_distance"] = su_distance(calf)
            report["closed_vs_prolonged_variation"] = constant_difference_check(
                f_closed, calf
            )[1]
            del f_closed
            # only the symmetry is active, so (a, b) is the prolonged pair
            defect = max(tangent_check(calf, wave, a, b))
            del calf
            report["prolonged_tangent_defect"] = defect
            report["prolonged_is_fokas_gelfand"] = bool(defect < 1e-6)

        # the connection pair is read only by the compatibility check
        u1, u2 = u_pair(j, cfg.lam)
        del j, carrier
        res = integrate_surface(a, b, wave, u1=u1, u2=u2)
        del u1, u2
        write_field(stage("immersion.npz"), res.field)
        write_field(stage("wave.npz"), wave, lam=wave.lam)
        raw = res.raw
        report.update(
            basepoint=list(res.basepoint),
            compat_defect=res.compat_defect,
            path_defect=res.path_defect,
            su_correction=res.su_correction,
            wave=wave_diagnostics(wave),
        )
        del res  # frees the projected surface, which is staged
        report["integrated_tangent_defect"] = max(tangent_check(raw, wave, a, b))
        del raw
        report["tangent_gram"] = linear_independence_report(
            MatrixField(cfg.grid, wave.conjugate(a.values), max(a.margin, wave.margin)),
            MatrixField(cfg.grid, wave.conjugate(b.values), max(b.margin, wave.margin)),
        )
        bad = sorted(_non_finite(report))
        if bad:
            raise ConfigError(
                f"keys 'solution', 'grid', 'lambda' and the tangent terms: "
                f"{', '.join(bad)} {'is' if len(bad) == 1 else 'are'} not finite on the grid"
            )
        _dump_json(stage("immersion-report.json"), report)
    return 0


def cmd_verify(cfg: RunConfig | None, suite: str, outdir: str) -> int:
    tolerances = cfg.tolerances if cfg is not None else {}
    report = run_suites([suite], tolerances)
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        fh.write(report.json_text())
    with open(os.path.join(outdir, "report.txt"), "w") as fh:
        fh.write(report.text() + "\n")
    print(report.text())
    return 0 if report.passed else 1


def cmd_export(cfg: RunConfig, outdir: str) -> int:
    """Each entry is converted and staged beside its target, one at a time,
    and the files are renamed into place once the last entry has succeeded,
    so an export that exits 2 leaves no file behind."""
    if not cfg.outputs:
        raise ConfigError("key 'outputs' is empty; nothing to export")
    with _staged(outdir) as stage:
        for i, entry in enumerate(cfg.outputs):
            field, lam = _read_input(entry["input"], f"outputs[{i}].input")
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
    for entry in cfg.outputs:
        print(f"wrote {os.path.join(outdir, entry['path'])}")
    return 0


def _lambda_flag(text: str) -> complex:
    """``--lambda`` as a number or a JSON ``[re, im]`` pair, checked like
    the config key."""
    try:
        raw = json.loads(text) if text.startswith("[") else float(text)
    except ValueError as exc:
        raise ConfigError(f"--lambda must be a number or a [re, im] pair, got {text!r}") from exc
    return parse_lambda(raw, "--lambda")


# Errors of a config that parses but cannot be computed, and the keys that cause them
_UNCOMPUTABLE = {
    # no wave function of the solution or of its deformation: far from the origin, say
    DeformationOutOfDomain: "keys 'grid' and 'symmetry'",
    # the phase chi [theta_1, theta] of a traveling wave, or of its deformation, is not finite
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
        p.add_argument("--lambda", dest="lam", help="override the spectral parameter")
        p.add_argument("--grid-h", dest="grid_h", type=float, help="override grid spacing")
        if name == "verify":
            p.add_argument(
                "--suite",
                default=None,
                help=f"one of: all, {', '.join(SUITE_NAMES)}",
            )
    args = parser.parse_args(argv)

    try:
        cfg = None
        if args.config:
            cfg = load_config(args.config)
        if cfg is not None and args.lam is not None:
            cfg.lam = _lambda_flag(args.lam)
        if cfg is not None and args.grid_h is not None:
            h = finite_number(args.grid_h, "--grid-h")
            try:
                cfg.grid = Grid2(cfg.grid.chart, cfg.grid.origin, (h, h), cfg.grid.dims)
            except ValueError as exc:
                raise ConfigError(f"--grid-h: {exc}") from exc

        if args.command == "verify":
            suite = args.suite or (cfg.suite if cfg is not None else "all")
            if suite != "all" and suite not in SUITE_NAMES:
                raise ConfigError(
                    f"key 'suite': unknown value {suite!r}; "
                    f"choose from all, {', '.join(SUITE_NAMES)}"
                )
            return cmd_verify(cfg, suite, args.out)
        if cfg is None:
            raise ConfigError("--config is required for this command")
        if args.command == "solve":
            return cmd_solve(cfg, args.out)
        if args.command == "immerse":
            return cmd_immerse(cfg, args.out)
        return cmd_export(cfg, args.out)
    except (ConfigError, LambdaSingular) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except tuple(_UNCOMPUTABLE) as exc:
        print(f"configuration error: {_UNCOMPUTABLE[type(exc)]}: {exc}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    raise SystemExit(main())
