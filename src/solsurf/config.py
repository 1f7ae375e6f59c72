"""Run configuration: a single JSON document, strictly validated.

Unknown keys are errors (reproducibility beats convenience), and
cross-field consistency is checked before any computation starts: the
chart fixes which solution generators and symmetry data are admissible.
Every number must be a finite JSON number (NaN, Infinity, strings and
booleans are rejected), and every failure is a `ConfigError` that names
the key, or the flag for ``--lambda`` and ``--grid-h``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

from .fields import CHART_EUCLIDEAN, CHART_MINKOWSKI, Grid2
from .symmetry import ConformalSpec

__all__ = ["ConfigError", "RunConfig", "finite_number", "load_config", "parse_lambda"]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration; message names the key."""


_TOP_KEYS = {
    "model",
    "space",
    "n",
    "solution",
    "grid",
    "lambda",
    "a_coeffs",
    "gauge",
    "symmetry",
    "outputs",
    "tolerances",
    "suite",
}

# Largest matrix size.  A Veronese ladder holds n rungs of n x n fields
# with their jets, so memory grows as n^3 per node: n = 8 on a 61^2 grid
# peaks near 265 MB in `solve`, and its binomial weights overflow a float
# from n of about 1030.
MAX_N = 8

# Largest part of the spectral parameter: the wave-function coefficients
# take (1 - lambda)^3, whose complex power raises OverflowError from about
# 1e102 on.
MAX_LAMBDA = 1e100

_DEFAULT_GRIDS = {
    "euclidean": {"origin": [0.0, 0.0], "spacing": [0.05, 0.05], "dims": [101, 101]},
    "minkowski": {"origin": [0.0, 0.0], "spacing": [0.04, 0.04], "dims": [101, 101]},
}


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


@dataclass
class RunConfig:
    space: str
    n: int
    solution: dict
    grid: Grid2
    lam: complex
    a_coeffs: tuple[float, ...] = ()
    gauge: dict | str = "none"
    symmetry: ConformalSpec | None = None
    outputs: list = dc_field(default_factory=list)
    tolerances: dict = dc_field(default_factory=dict)
    suite: str = "all"

    @property
    def chart(self) -> str:
        return CHART_EUCLIDEAN if self.space == "euclidean" else CHART_MINKOWSKI


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
    if abs(1 - lam) < 1e-6 or abs(1 + lam) < 1e-6:
        raise ConfigError(f"{_where(key)} is singular (too close to +1 or -1)")
    return lam


def parse_config(obj: dict) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigError("configuration must be a JSON object")
    _reject_unknown(obj, _TOP_KEYS, "configuration")

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
    graw = obj.get("grid", _DEFAULT_GRIDS[space])
    if not isinstance(graw, dict):
        raise ConfigError("key 'grid' must be an object")
    _reject_unknown(graw, {"origin", "spacing", "dims"}, "grid")
    origin = _numbers(graw.get("origin", [0.0, 0.0]), "grid.origin", 2)
    spacing = _numbers(graw.get("spacing", _DEFAULT_GRIDS[space]["spacing"]), "grid.spacing", 2)
    dims = graw.get("dims", [101, 101])
    if not isinstance(dims, list) or len(dims) != 2:
        raise ConfigError("key 'grid.dims' must be a list of 2 integers")
    dims = tuple(_integer(v, f"grid.dims[{i}]") for i, v in enumerate(dims))
    try:
        grid = Grid2(chart=chart, origin=origin, spacing=spacing, dims=dims)
    except ValueError as exc:
        raise ConfigError(f"key 'grid': {exc}") from exc

    lam = parse_lambda(obj.get("lambda", [0.5, 0.0]))

    a_coeffs = _numbers(obj.get("a_coeffs", []), "a_coeffs")

    gauge = obj.get("gauge", "none")
    if gauge != "none":
        if not isinstance(gauge, dict) or not ({"preset", "file"} & set(gauge)):
            raise ConfigError("key 'gauge' must be 'none', {'preset': ...} or {'file': ...}")
        _reject_unknown(gauge, {"preset", "file"}, "gauge")
        if not all(isinstance(value, str) for value in gauge.values()):
            raise ConfigError("key 'gauge' must name its preset or file by a string")

    symmetry = None
    sraw = obj.get("symmetry")
    if sraw is not None:
        if not isinstance(sraw, dict):
            raise ConfigError("key 'symmetry' must be an object")
        _reject_unknown(sraw, {"f", "g"}, "symmetry")
        try:
            symmetry = ConformalSpec.from_json(sraw, chart)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"key 'symmetry': {exc}") from exc
        if solution.get("k", 0) > 2:
            raise ConfigError(
                "key 'solution.k' must be at most 2 with a symmetry: deeper wave "
                "functions sum the stored ladder rungs, which no deformation follows"
            )

    outputs = obj.get("outputs", [])
    if not isinstance(outputs, list):
        raise ConfigError("key 'outputs' must be a list")
    for i, entry in enumerate(outputs):
        if not isinstance(entry, dict):
            raise ConfigError(f"key 'outputs[{i}]' must be an object")
        _reject_unknown(entry, {"format", "input", "path"}, f"outputs[{i}]")
        if entry.get("format") not in ("obj", "csv", "json"):
            raise ConfigError(f"key 'outputs[{i}].format' must be obj, csv or json")
        for req in ("input", "path"):
            if not isinstance(entry.get(req), str):
                raise ConfigError(f"key 'outputs[{i}].{req}' must be a string")

    tolerances = obj.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("key 'tolerances' must be an object")
    tolerances = {str(k): finite_number(v, f"tolerances.{k}") for k, v in tolerances.items()}

    suite = obj.get("suite", "all")

    return RunConfig(
        space=space,
        n=n,
        solution=solution,
        grid=grid,
        lam=lam,
        a_coeffs=a_coeffs,
        gauge=gauge,
        symmetry=symmetry,
        outputs=outputs,
        tolerances=tolerances,
        suite=suite,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return parse_config(obj)
