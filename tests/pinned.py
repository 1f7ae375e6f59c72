"""The reference outputs that tier-1 pins, and the rule that compares them.

``tests/reference`` holds a copy of ``solsurf verify --suite all``'s
``report.json``, and of ``solve-summary.json`` and
``immersion-report.json`` for three configs at 101^2, each beside its
copies: both README configs, and ``spectral-n3k2``, the README Euclidean
config without its symmetry on rung 2 of CP^2 at lambda = 0.5, the one
pinned run whose wave function lowers two rungs from the jets.  A fresh
run matches the copy when every string, integer, flag and tolerance is
equal, in the same order, and every measured value m lies within
``|m - ref| <= a * |ref| + ABS_FLOOR`` of the reference, where ``a`` is
the value's allowance in ``allowances.json``.

An allowance is sized from two perturbations that stand in for another
machine's rounding: every matrix product routed through numpy ``@``
(BLAS; ``matlie.MM_MAX_N = 0``), and every output of sin, cos, exp,
cosh, sinh and einsum (the Veronese frame) moved by a random +-1 ulp, as
another libm or SIMD path may.  ``a = max(MIN_ALLOWANCE, SAFETY * w)``,
with ``w`` the value's largest relative move under the two.  A value
that truncation error dominates barely moves under either, so it is
pinned to about 1e-6 relative; a value at rounding level moves by up to
20x, and gets a proportionally wide allowance.

A change that moves a value past its allowance regenerates the copy and
lists each moved value in CHANGES.md:

    PYTHONPATH=src python tests/pinned.py

which prints a line ``moved <path>: ...`` for each value that moved past
its old allowance, with its old and new value and allowance.

`heap_peak` measures the heap peaks that tier-1 bounds, each in units of
the fields its test names.  ``heap-peaks.json`` in ``tests/reference``
holds the peak of each command of those configs, and of the whole
``verify --suite all`` run (``verify/all``, `verify_peak`), in complex
2x2 fields at 101^2 (`FIELD` bytes); a fresh peak passes up to
``(1 + HEAP_SLACK)`` times its entry.  `command_peak` takes each reading
after one unmeasured call of the CLI: the first call in a process keeps
what its lazy imports allocate (importlib, locale through argparse's
gettext, argparse; about 0.25 fields), so without it a command read more
as the first of its process than after another.  The entries are the
largest of repeated in-process readings, and ``HEAP_SLACK`` covers their
spread while one more field still fails every entry.  A change that
lowers a peak lowers its entry; one that raises it states why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
import tracemalloc
from typing import Callable

import numpy as np

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
README_CONFIGS = ("euclidean", "minkowski", "spectral-n3k2")
# the report that each command writes
README_REPORTS = {"solve": "solve-summary.json", "immerse": "immersion-report.json"}
SAFETY = 10.0
MIN_ALLOWANCE = 1e-6
ABS_FLOOR = 1e-15
FIELD = 4 * 101**2 * 16
HEAP_SLACK = 0.05


def heap_peak(run: Callable[[], object]) -> int:
    """The peak in bytes of the heap that tracemalloc traces while ``run()``
    runs, counted from the moment it starts; what ``run`` returns is held
    until the peak is read."""
    tracemalloc.start()
    try:
        result = run()  # noqa: F841
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def command_peak(argv: list[str]) -> tuple[int, float]:
    """The exit code of ``solsurf.cli.main(argv)`` and the heap peak of that
    call in fields, read after one unmeasured call of the CLI, so that the
    reading leaves out what the first call of a process keeps of its lazy
    imports."""
    from solsurf.cli import main

    with contextlib.redirect_stderr(io.StringIO()):
        main(["solve"])  # exits 2, as it names no config
    codes = []
    peak = heap_peak(lambda: codes.append(main(argv)))
    return codes[0], peak / FIELD


def run_readme_configs(out: str, peaks: dict[str, float] | None = None) -> dict[str, str]:
    """``solve`` and ``immerse`` of each pinned config into ``out``: the
    path of each report they write, keyed ``<config>/<file>``.  Given
    ``peaks``, each command's heap peak in fields (`command_peak`) goes
    into ``peaks`` under ``<config>/<command>``."""
    from solsurf.cli import main

    paths = {}
    for name in README_CONFIGS:
        cfg = os.path.join(REFERENCE, name, "config.json")
        for command, report in README_REPORTS.items():
            dest = os.path.join(out, name, command)
            argv = [command, "--config", cfg, "--out", dest]
            if peaks is None:
                code = main(argv)
            else:
                code, peaks[f"{name}/{command}"] = command_peak(argv)
            assert code == 0, f"{command} {name} exited {code}"
            paths[f"{name}/{report}"] = os.path.join(dest, report)
    return paths


def verify_peak(out: str) -> float:
    """The heap peak in fields of ``verify --suite all`` into ``out``
    (`command_peak`), which ``heap-peaks.json`` pins as ``verify/all``;
    the run must exit 0."""
    code, peak = command_peak(["verify", "--suite", "all", "--out", out])
    assert code == 0, f"verify exited {code}"
    return peak


def heap_table() -> dict[str, float]:
    """The pinned heap peak of each command of the pinned configs, in fields."""
    with open(os.path.join(REFERENCE, "heap-peaks.json")) as fh:
        return json.load(fh)


def run_all(out: str) -> dict[str, str]:
    """The paths of the pinned reports of a fresh run into ``out``:
    ``report.json`` of ``verify --suite all`` and the pinned configs'."""
    from solsurf.cli import main

    assert main(["verify", "--suite", "all", "--out", out]) == 0
    return {"report.json": os.path.join(out, "report.json"), **run_readme_configs(out)}


def load(paths: dict[str, str]) -> dict[str, dict]:
    out = {}
    for key, path in paths.items():
        with open(path) as fh:
            out[key] = json.load(fh)
    return out


def reference(copied_only: bool = False) -> tuple[dict[str, dict], dict[str, float]]:
    """The pinned reports, keyed as `run_all` keys them, and the allowances;
    with ``copied_only``, a report that has no copy yet (its config was just
    added) is left out instead of raising."""
    keys = ["report.json"] + [f"{c}/{r}" for c in README_CONFIGS for r in README_REPORTS.values()]
    with open(os.path.join(REFERENCE, "allowances.json")) as fh:
        allow = json.load(fh)
    paths = {key: os.path.join(REFERENCE, key) for key in keys}
    if copied_only:
        paths = {key: path for key, path in paths.items() if os.path.exists(path)}
    return load(paths), allow


def leaves(obj, path: str) -> list[tuple[str, object]]:
    """The leaves of a report as (path, value), in order; a check of
    ``report.json`` is named by its ``name``, so that its measured value is
    ``report.json:checks[<name>].measured``."""
    if isinstance(obj, dict):
        sep = "" if path.endswith(":") else "."
        return [leaf for k, v in obj.items() for leaf in leaves(v, f"{path}{sep}{k}")]
    if isinstance(obj, list) and obj and all(isinstance(v, dict) and "name" in v for v in obj):
        return [leaf for v in obj for leaf in leaves(v, f"{path}[{v['name']}]")]
    return [(path, obj)]


def mismatches(ref: dict[str, dict], got: dict[str, dict], allow: dict[str, float]) -> list[str]:
    """Every leaf of ``got`` that does not match ``ref`` under the rule of
    this module, as one line each; an empty list when all match."""
    bad = []
    for key, r in ref.items():
        want, have = leaves(r, key + ":"), leaves(got[key], key + ":")
        if [p for p, _ in want] != [p for p, _ in have]:
            bad.append(f"{key}: keys or check order differ from the reference")
            continue
        for (path, a), (_, b) in zip(want, have):
            if not _matches(a, b, allow.get(path)):
                bad.append(f"{path}: {b!r}, reference {a!r}")
    return bad


def _matches(a, b, allowance: float | None) -> bool:
    """``b`` matches the reference value ``a``: within ``allowance``, or
    equal where the value has none."""
    if allowance is None:
        return type(a) is type(b) and a == b
    return abs(b - a) <= allowance * abs(a) + ABS_FLOOR


# --- regeneration ---------------------------------------------------------------


_ULP_FUNCTIONS = ("sin", "cos", "exp", "cosh", "sinh", "einsum")


def _ulp_noise(f, rng):
    def g(x, *args, **kwargs):
        r = f(x, *args, **kwargs)
        if isinstance(r, np.ndarray) and r.dtype.kind in "fc":
            r = r * (1 + np.finfo(float).eps * rng.choice([-1.0, 0.0, 1.0], size=r.shape))
        return r

    return g


def _perturbed(out: str, how: str) -> dict[str, dict]:
    from solsurf import matlie

    mm_max_n, functions = matlie.MM_MAX_N, {name: getattr(np, name) for name in _ULP_FUNCTIONS}
    try:
        if how == "blas":
            matlie.MM_MAX_N = 0
        else:
            rng = np.random.default_rng(0)
            for name, f in functions.items():
                setattr(np, name, _ulp_noise(f, rng))
        return load(run_all(out))
    finally:
        matlie.MM_MAX_N = mm_max_n
        for name, f in functions.items():
            setattr(np, name, f)


def _measured(path: str) -> bool:
    # a check's tolerance and the echo of a config are compared exactly
    return path.endswith(".measured") or not (
        path.startswith("report.json:") or ":solution." in path
    )


def refresh() -> None:
    """Rewrite the reference copies and ``allowances.json`` from this tree,
    and print one line for each value that moved past its old allowance:
    its path, the old and new value, and the old and new allowance."""
    old, old_allow = reference(copied_only=True)
    with tempfile.TemporaryDirectory() as work:
        paths = run_all(os.path.join(work, "plain"))
        for key, path in paths.items():
            shutil.copyfile(path, os.path.join(REFERENCE, key))
        plain = load(paths)
        moved = [_perturbed(os.path.join(work, how), how) for how in ("blas", "ulp")]
    allow = {}
    for key, report in plain.items():
        others = [dict(leaves(run[key], key + ":")) for run in moved]
        for path, a in leaves(report, key + ":"):
            if isinstance(a, float) and _measured(path):
                w = max(abs(other[path] - a) / abs(a) if a else 0.0 for other in others)
                allow[path] = max(MIN_ALLOWANCE, SAFETY * w)
    with open(os.path.join(REFERENCE, "allowances.json"), "w") as fh:
        json.dump(allow, fh, indent=1)
        fh.write("\n")
    for key, report in plain.items():
        before = dict(leaves(old[key], key + ":")) if key in old else {}
        for path, b in leaves(report, key + ":"):
            a = before.get(path)
            if path not in before or not _matches(a, b, old_allow.get(path)):
                print(f"moved {path}: {a!r} -> {b!r}, allowance {old_allow.get(path)!r} -> "
                      f"{allow.get(path)!r}")


if __name__ == "__main__":
    refresh()
