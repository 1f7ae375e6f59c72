"""Workloads: inputs made from a seed, the solsurf commands, and their gates.

Each workload is one execution of solsurf commands in a fresh child
process.  Its gate turns the outputs into a list of operations, each
passed or failed; the gates read only the JSON reports and the export
files, never the native field files, so a change of field format is
measured by the same gate.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

# Grid side of the Minkowski roundtrip.  At 401^2 one execution takes about
# 30 s and its wall time spread 0.25 (IQR / median) between runs on a 2-vCPU
# VM; at 201^2 it takes about 8 s, so a run holds several executions and
# reports their median.
GRID = 201
HERE = os.path.dirname(os.path.abspath(__file__))


def _load_check_names() -> list[str]:
    with open(os.path.join(HERE, "verify_checks.txt")) as fh:
        return [line.strip() for line in fh if line.strip()]


@dataclass(frozen=True)
class Op:
    """One gated operation: a check, a certificate or an export file."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class Gate:
    ops: list[Op]
    # headroom (tolerance/measured, inverted for "above") per verify check
    headroom: dict[str, float]
    # digest of report.json; equal across executions of one run
    digest: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (seed) -> stated parameters, printed with the results
    params: Callable[[int], dict]
    # (params, op_dir, dims) -> child steps; each step is a dict with "argv"
    steps: Callable[[dict, str, int], list[dict]]
    # (params, op_dir, dims) -> Gate
    gate: Callable[[dict, str, int], Gate]
    # directories (relative to the op directory) whose bytes are output_mb
    out_dirs: tuple[str, ...]


# --- verify-all ------------------------------------------------------------------


def _verify_params(seed: int) -> dict:
    # The verify fixtures are built into solsurf.verify (fixed grids,
    # spectral parameters and symmetries), so there is no program input
    # for the seed to choose.
    return {"seed": "ignored: the fixtures are built into solsurf.verify"}


def _verify_steps(params: dict, op_dir: str, dims: int) -> list[dict]:
    return [{"argv": ["verify", "--suite", "all", "--out", os.path.join(op_dir, "out")]}]


def headroom_of(check: dict) -> float:
    """tolerance/measured for "below" checks, measured/tolerance for "above"."""
    measured, tol = check["measured"], check["tolerance"]
    if check["comparison"] == "below":
        return tol / measured if measured > 0 else math.inf
    return measured / tol


def _verify_gate(params: dict, op_dir: str, dims: int) -> Gate:
    path = os.path.join(op_dir, "out", "report.json")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        report = json.loads(raw)
        checks = report["checks"]
    except (OSError, ValueError, KeyError) as exc:
        return Gate([Op("report.json", False, f"unreadable: {exc}")], {})
    # Every check named in verify_checks.txt must still run; new checks may join.
    missing = set(_load_check_names()) - {c["name"] for c in checks}
    ops = [Op("check-names", not missing,
              f"{len(checks)} checks; missing from verify_checks.txt: {sorted(missing)}")]
    for c in checks:
        ops.append(Op(c["name"], c["passed"] is True,
                      f"measured {c['measured']:.4e} {c['comparison']} {c['tolerance']:.1e}"))
    headroom = {c["name"]: headroom_of(c) for c in checks}
    return Gate(ops, headroom, hashlib.sha256(raw).hexdigest())


# --- CLI workloads ------------------------------------------------------------------

# Certificate bounds for immersion-report.json.  The tangent and
# compatibility defects are stencil-truncation quantities (bounded like the
# verify suite's 1e-6 integrability checks); the su distance and the path
# defect are rounding-level and bounded at 1e-8.
MINK_BOUNDS = {
    "compat_defect": 1e-6,
    "path_defect": 1e-8,
    "integrated_tangent_defect": 1e-6,
    "sym_tafel_su_distance": 1e-8,
}

# Seeded spectral parameter range; every certificate above holds across it.
MINK_LAMBDA_RANGE = (0.4, 0.6)


def _mink_params(seed: int) -> dict:
    return {"lambda": round(random.Random(seed).uniform(*MINK_LAMBDA_RANGE), 6)}


def mink_config(params: dict, dims: int) -> dict:
    """The README Minkowski config: traveling wave, spectral term only."""
    return {
        "model": "cp",
        "space": "minkowski",
        "n": 2,
        "solution": {"kind": "traveling", "kappa": 2.0, "omega": 1.0},
        "grid": {"origin": [0.0, 0.0], "spacing": [0.001, 0.001], "dims": [dims, dims]},
        "lambda": params["lambda"],
        "a_coeffs": [1.0],
    }


def _write_config(op_dir: str, name: str, cfg: dict) -> str:
    path = os.path.join(op_dir, name)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


# Export outputs of the roundtrip: (format, immerse output stem, file name).
EXPORTS = (("obj", "sym_tafel", "surface.obj"),
           ("csv", "immersion", "immersion.csv"),
           ("json", "wave", "wave.json"))


def _mink_steps(params: dict, op_dir: str, dims: int) -> list[dict]:
    out = os.path.join(op_dir, "out")
    cfg = _write_config(op_dir, "immerse.json", mink_config(params, dims))
    export_cfg = mink_config(params, dims)
    # The export inputs are the immerse outputs with these stems, whatever
    # their extension; the child resolves them after the immerse step.
    export_cfg["outputs"] = [{"format": f, "input": {"dir": out, "stem": stem}, "path": path}
                             for f, stem, path in EXPORTS]
    return [
        {"argv": ["immerse", "--config", cfg, "--out", out]},
        {"argv": ["export", "--config", os.path.join(op_dir, "export.json"),
                  "--out", os.path.join(op_dir, "export")],
         "export_config": {"path": os.path.join(op_dir, "export.json"), "config": export_cfg}},
    ]


def _report_ops(op_dir: str, bounds: dict[str, float]) -> tuple[list[Op], dict | None]:
    try:
        with open(os.path.join(op_dir, "out", "immersion-report.json")) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [Op("immersion-report.json", False, f"unreadable: {exc}")], None
    ops = []
    for key, bound in bounds.items():
        value = report.get(key)
        ok = isinstance(value, (int, float)) and math.isfinite(value) and value < bound
        ops.append(Op(key, ok, f"{value!r} < {bound:.0e}"))
    return ops, report


def _trimmed_sides(dims: int) -> set[int]:
    """Side lengths of the grid after trimming a margin of 0..10 layers."""
    return {dims - 2 * m for m in range(11)}


def check_obj(path: str, dims: int) -> Op:
    """Finite vertices on a trimmed square grid, two triangles per cell."""
    try:
        n_v = n_f = 0
        bad = 0
        with open(path) as fh:
            for line in fh:
                kind, *rest = line.split()
                if kind == "v":
                    n_v += 1
                    bad += len(rest) != 3 or not all(math.isfinite(float(x)) for x in rest)
                elif kind == "f":
                    n_f += 1
                    bad += len(rest) != 3
    except (OSError, ValueError) as exc:
        return Op("export.obj", False, f"unparsable: {exc}")
    side = math.isqrt(n_v)
    ok = (bad == 0 and side * side == n_v and side in _trimmed_sides(dims)
          and n_f == 2 * (side - 1) ** 2)
    return Op("export.obj", ok, f"{n_v} vertices, {n_f} faces, {bad} bad lines")


def check_csv(path: str, dims: int) -> Op:
    """Header plus ``x1,x2,value`` rows of finite numbers on a trimmed grid."""
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            rows = 0
            for line in fh:
                vals = [float(x) for x in line.split(",")]
                if len(vals) != 3 or not all(math.isfinite(v) for v in vals):
                    return Op("export.csv", False, f"bad row {line.strip()!r}")
                rows += 1
    except (OSError, ValueError) as exc:
        return Op("export.csv", False, f"unparsable: {exc}")
    side = math.isqrt(rows)
    ok = header == "x1,x2,value" and side * side == rows and side in _trimmed_sides(dims)
    return Op("export.csv", ok, f"{rows} rows")


def check_json(path: str) -> Op:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        return Op("export.json", False, f"unparsable: {exc}")
    return Op("export.json", isinstance(obj, dict) and bool(obj), f"{len(obj)} keys")


def _mink_gate(params: dict, op_dir: str, dims: int) -> Gate:
    ops, _ = _report_ops(op_dir, MINK_BOUNDS)
    export = os.path.join(op_dir, "export")
    ops.append(check_obj(os.path.join(export, "surface.obj"), dims))
    ops.append(check_csv(os.path.join(export, "immersion.csv"), dims))
    ops.append(check_json(os.path.join(export, "wave.json")))
    return Gate(ops, {})


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-all",
            "all 62 checks, pure compute: matlie kernels, lowering and Frechet "
            "deformations, half of it outside the check timers; no field I/O",
            _verify_params, _verify_steps, _verify_gate, ("out",)),
        Workload(
            "roundtrip-mink-201",
            "README Minkowski immerse at 201^2, then export to OBJ/CSV/JSON: field "
            "writes and reads, expm, the geometry writers; no Frechet work",
            _mink_params, _mink_steps, _mink_gate, ("out", "export")),
    )
}
