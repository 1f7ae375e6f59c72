"""Configuration: a single JSON document, strictly validated, parsed per command.

All commands share one top-level key set, and `load_config` rejects an
unknown key (reproducibility beats convenience).  Each command parses
only the keys it reads and accepts the others unread: `parse_solve` the
solution and grid keys of ``solve``, `parse_config` those and the
spectral parameter and tangent terms of ``immerse``, whose cross-field
consistency is checked before any computation starts (the chart fixes
which solution generators and symmetry data are admissible),
`parse_verify` the ``tolerances`` and ``suite`` of ``verify``, and
`parse_outputs` the ``outputs`` of ``export``.

Every number must be a finite JSON number (NaN, Infinity, strings and
booleans are rejected), and every failure is a `ConfigError` that names
the key, or the flag for ``--lambda`` and ``--grid-h``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import LambdaSingular
from .fields import CHART_EUCLIDEAN, CHART_MINKOWSKI, Grid2
from .sigma import check_lambda
from .symmetry import ConformalSpec

__all__ = [
    "ConfigError", "GAUGE_PRESETS", "RunConfig", "SolveConfig", "finite_number", "load_config",
    "parse_config", "parse_lambda", "parse_outputs", "parse_solve", "parse_verify",
]


class ConfigError(ValueError):
    """Invalid or inconsistent configuration; message names the key."""


# The keys of every command: the run keys of solve and immerse, then those
# of verify and of export
_TOP_KEYS = {
    "model", "space", "n", "solution", "grid", "lambda", "a_coeffs", "gauge", "symmetry",
    "tolerances", "suite", "outputs",
}

# Largest matrix size.  A Veronese ladder holds n rungs of n x n fields,
# so memory grows as n^3 per node: n = 8 on a 61^2 grid at spacing 0.01
# peaks near 120 MB (ru_maxrss) in `solve`, and its binomial weights
# overflow a float from n of about 1030.
MAX_N = 8

# Largest grid, as nodes x n^2 (1024^2 nodes at n = 2).  At 401^2 a run
# peaks near 250 bytes per unit in `solve` and 310 in `immerse` (README), so
# a grid at the bound needs about 1.3 GB.
MAX_GRID_LOAD = 2**22

# Largest part of the spectral parameter: the wave-function coefficients
# take (1 - lambda)^3, whose complex power raises OverflowError from about
# 1e102 on.
MAX_LAMBDA = 1e100

# Grid spacing by space when the config gives none; origin and dims default alike
_DEFAULT_SPACING = {"euclidean": 0.05, "minkowski": 0.04}

# Gauge presets: the su(N) basis element that the constant gauge field is
# made of, by its index (the last one is diagonal, the first off-diagonal)
GAUGE_PRESETS = {"diag": -1, "offdiag": 0}


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


@dataclass
class SolveConfig:
    """The keys that ``solve`` reads: the solution and its grid."""

    space: str
    n: int
    solution: dict
    grid: Grid2


@dataclass
class RunConfig(SolveConfig):
    """The run keys, which ``immerse`` reads: the solution and its grid,
    the spectral parameter and the tangent terms."""

    lam: complex
    a_coeffs: tuple[float, ...] = ()
    gauge: dict | str = "none"
    symmetry: ConformalSpec | None = None


def _where(key: str) -> str:
    return key if key.startswith("--") else f"key {key!r}"


def _is_number(raw) -> bool:
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def finite_number(raw, key: str) -> float:
    """``raw`` as a float if it is a finite number, else a `ConfigError`
    naming ``key``."""
    if _is_number(raw):
        try:
            value = float(raw)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if math.isfinite(value):
            return value
    raise ConfigError(f"{_where(key)} must be a finite number, got {raw!r}")


def _integer(raw, key: str) -> int:
    if isinstance(raw, float) and raw.is_integer():
        raw = int(raw)
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    raise ConfigError(f"{_where(key)} must be an integer, got {raw!r}")


def _numbers(raw, key: str, length: int | None = None) -> tuple[float, ...]:
    if not isinstance(raw, list) or (length is not None and len(raw) != length):
        size = f"{length} " if length is not None else ""
        raise ConfigError(f"{_where(key)} must be a list of {size}numbers")
    return tuple(finite_number(v, f"{key}[{i}]") for i, v in enumerate(raw))


def parse_lambda(raw, key: str = "lambda") -> complex:
    """A finite number or ``[re, im]`` pair, with parts up to `MAX_LAMBDA` in
    magnitude, away from the poles at +1 and -1."""
    if isinstance(raw, list) and len(raw) == 2:
        lam = complex(*_numbers(raw, key))
    elif _is_number(raw):
        lam = complex(finite_number(raw, key))
    else:
        raise ConfigError(f"{_where(key)} must be a number or a [re, im] pair, got {raw!r}")
    if max(abs(lam.real), abs(lam.imag)) > MAX_LAMBDA:
        raise ConfigError(f"{_where(key)} has a part beyond {MAX_LAMBDA:g} in magnitude")
    try:
        return check_lambda(lam)
    except LambdaSingular as exc:
        raise ConfigError(f"{_where(key)} is singular (too close to +1 or -1)") from exc


def _checked(obj) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError("configuration must be a JSON object")
    _reject_unknown(obj, _TOP_KEYS, "configuration")
    return obj


def _symmetry(obj, chart: str) -> ConformalSpec:
    """Coefficients from ``{"f": [[re, im], ...], "g": [[re, im], ...]}``.

    A missing list or an entry that is not a pair of finite numbers is
    named, e.g. ``symmetry.f[0]``.
    """
    if not isinstance(obj, dict):
        raise ConfigError("key 'symmetry' must be an object")
    _reject_unknown(obj, {"f", "g"}, "symmetry")

    def coeffs(key: str) -> tuple[complex, ...]:
        raw = obj.get(key)
        if not isinstance(raw, list):
            raise ConfigError(f"key 'symmetry.{key}' must be a list of [re, im] pairs")
        out = []
        for i, c in enumerate(raw):
            where = f"symmetry.{key}[{i}]"
            if not (isinstance(c, list) and len(c) == 2):
                raise ConfigError(f"key {where!r} must be a [re, im] pair, got {c!r}")
            out.append(complex(finite_number(c[0], where), finite_number(c[1], where)))
        return tuple(out)

    f, g = coeffs("f"), coeffs("g")
    try:
        return ConformalSpec(f, g, chart)
    except ValueError as exc:
        raise ConfigError(f"key 'symmetry': {exc}") from exc


def parse_solve(obj: dict, grid_h: float | None = None) -> SolveConfig:
    """The keys of ``obj`` that ``solve`` reads, whose other keys are
    checked by name only; ``grid_h``, the flag ``--grid-h``, overrides both
    grid spacings."""
    obj = _checked(obj)
    model = obj.get("model", "cp")
    if model != "cp":
        raise ConfigError(f"key 'model': unsupported value {model!r}")

    space = obj.get("space")
    if space not in ("euclidean", "minkowski"):
        raise ConfigError("key 'space' must be 'euclidean' or 'minkowski'")

    n = _integer(obj.get("n", 2), "n")
    if not 2 <= n <= MAX_N:
        raise ConfigError(f"key 'n' must lie in 2..{MAX_N}")

    sol = obj.get("solution")
    if not isinstance(sol, dict) or "kind" not in sol:
        raise ConfigError("key 'solution' must be an object with a 'kind'")
    kind = sol["kind"]
    if kind == "veronese":
        _reject_unknown(sol, {"kind", "k"}, "solution")
        if space != "euclidean":
            raise ConfigError("key 'solution': veronese requires space = euclidean")
        k = _integer(sol.get("k", 0), "solution.k")
        if not 0 <= k <= n - 1:
            raise ConfigError(f"key 'solution.k' must lie in 0..{n - 1}")
        solution = {"kind": "veronese", "k": k}
    elif kind == "traveling":
        _reject_unknown(sol, {"kind", "kappa", "omega"}, "solution")
        if space != "minkowski":
            raise ConfigError("key 'solution': traveling requires space = minkowski")
        if n != 2:
            raise ConfigError("key 'n': traveling-wave solutions are implemented for n = 2")
        solution = {
            "kind": "traveling",
            "kappa": finite_number(sol.get("kappa", 2.0), "solution.kappa"),
            "omega": finite_number(sol.get("omega", 1.0), "solution.omega"),
        }
        if solution["kappa"] == 0.0:
            raise ConfigError("key 'solution.kappa' must be nonzero")
    else:
        raise ConfigError(f"key 'solution.kind': unknown value {kind!r}")

    chart = CHART_EUCLIDEAN if space == "euclidean" else CHART_MINKOWSKI
    graw = obj.get("grid", {})
    if not isinstance(graw, dict):
        raise ConfigError("key 'grid' must be an object")
    _reject_unknown(graw, {"origin", "spacing", "dims"}, "grid")
    origin = _numbers(graw.get("origin", [0.0, 0.0]), "grid.origin", 2)
    h = _DEFAULT_SPACING[space]
    spacing = _numbers(graw.get("spacing", [h, h]), "grid.spacing", 2)
    where = "key 'grid'"
    if grid_h is not None:
        spacing, where = (finite_number(grid_h, "--grid-h"),) * 2, "--grid-h"
    dims = graw.get("dims", [101, 101])
    if not isinstance(dims, list) or len(dims) != 2:
        raise ConfigError("key 'grid.dims' must be a list of 2 integers")
    dims = tuple(_integer(v, f"grid.dims[{i}]") for i, v in enumerate(dims))
    if min(dims) > 0 and dims[0] * dims[1] * n * n > MAX_GRID_LOAD:
        raise ConfigError(f"key 'grid.dims': {dims[0]} x {dims[1]} nodes with n = {n} "
                          f"exceed the bound nodes x n^2 <= {MAX_GRID_LOAD}")
    try:
        grid = Grid2(chart=chart, origin=origin, spacing=spacing, dims=dims)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc

    return SolveConfig(space, n, solution, grid)


def parse_config(obj: dict, lam_flag: str | None = None, grid_h: float | None = None) -> RunConfig:
    """The run keys of ``obj``, whose other keys are checked by name only.

    ``lam_flag`` and ``grid_h``, the flags ``--lambda`` (its text) and
    ``--grid-h``, override ``lambda`` and both grid spacings.
    """
    sol = parse_solve(obj, grid_h)
    lam = parse_lambda(obj.get("lambda", [0.5, 0.0]))
    if lam_flag is not None:
        try:
            raw = json.loads(lam_flag) if lam_flag.startswith("[") else float(lam_flag)
        except ValueError as exc:
            raise ConfigError(
                f"--lambda must be a number or a [re, im] pair, got {lam_flag!r}"
            ) from exc
        lam = parse_lambda(raw, "--lambda")

    a_coeffs = _numbers(obj.get("a_coeffs", []), "a_coeffs")

    gauge = obj.get("gauge", "none")
    if gauge != "none" and not (
        isinstance(gauge, dict)
        and len(gauge) == 1
        # a tuple of the names: the value may be unhashable
        and (gauge.get("preset") in tuple(GAUGE_PRESETS) or isinstance(gauge.get("file"), str))
    ):
        raise ConfigError(
            "key 'gauge' must be 'none', {'preset': 'diag' or 'offdiag'} or {'file': path}, "
            f"got {gauge!r}"
        )

    symmetry = None
    if obj.get("symmetry") is not None:
        symmetry = _symmetry(obj["symmetry"], sol.grid.chart)
        if sol.solution.get("k", 0) > 2:
            raise ConfigError(
                "key 'solution.k' must be at most 2 with a symmetry: deeper wave "
                "functions sum the stored ladder rungs, which no prolongation follows"
            )

    return RunConfig(sol.space, sol.n, sol.solution, sol.grid, lam, a_coeffs, gauge, symmetry)


def parse_verify(obj: dict) -> tuple[dict[str, float], str]:
    """(``tolerances``, ``suite``) of a document from `load_config`, ``{}``
    and ``"all"`` when there is none; the caller checks the suite name.  A
    tolerance is positive: a check that must exceed a negative one passes
    on any value."""
    tolerances = obj.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("key 'tolerances' must be an object")
    tolerances = {str(k): finite_number(v, f"tolerances.{k}") for k, v in tolerances.items()}
    for k, v in tolerances.items():
        if v <= 0:
            raise ConfigError(f"key 'tolerances.{k}' must be positive, got {v!r}")
    suite = obj.get("suite", "all")
    if not isinstance(suite, str):
        raise ConfigError("key 'suite' must be a string")
    return tolerances, suite


def parse_outputs(obj: dict) -> list[dict]:
    """``outputs`` of a document from `load_config`: a nonempty list of
    ``{"format", "input", "path"}`` entries."""
    outputs = obj.get("outputs", [])
    if not isinstance(outputs, list):
        raise ConfigError("key 'outputs' must be a list")
    if not outputs:
        raise ConfigError("key 'outputs' is empty; nothing to export")
    for i, entry in enumerate(outputs):
        if not isinstance(entry, dict):
            raise ConfigError(f"key 'outputs[{i}]' must be an object")
        _reject_unknown(entry, {"format", "input", "path"}, f"outputs[{i}]")
        if entry.get("format") not in ("obj", "csv", "json"):
            raise ConfigError(f"key 'outputs[{i}].format' must be obj, csv or json")
        for req in ("input", "path"):
            if not isinstance(entry.get(req), str):
                raise ConfigError(f"key 'outputs[{i}].{req}' must be a string")
    return outputs


def load_config(path: str) -> dict:
    """The JSON object in ``path``, its top-level keys checked by name."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return _checked(obj)
