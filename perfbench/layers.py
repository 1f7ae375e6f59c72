"""Which solsurf functions the traced run wraps, and the per-layer metrics.

Every public function of the traced modules is wrapped, under the span
name ``<module>.<function>``; methods are named ``<module>.<Class>.<method>``
and the verify suites ``verify.suite.<name>``.  `PER_LAYER` lists the
metrics a traced run reports; `BENCHMARK.json` repeats it.
"""

from __future__ import annotations

import inspect
import math
import os
import sys

import numpy as np

from tracer import Tracer

# Modules whose public functions are wrapped, in the order they are layered.
MODULES = ("matlie", "fields", "sigma", "spectral", "symmetry", "immersion",
           "geometry", "config", "verify", "cli")

# Public functions that no workload reaches: the `solve` command and what
# only it uses, `immerse` with a symmetry, the ladder-building and gauge
# paths no check takes, and unused exports.  Wrapping them would only add names that always read 0.
UNREACHED = {
    "cli.cmd_solve",
    "fields.constant_field",
    "fields.field_norm",
    "geometry.export_surface_csv",
    "geometry.first_fundamental_form",
    "geometry.gauss_curvature",
    "geometry.unembed_su2",
    "immersion.gauge_immersion",
    "immersion.su_projected",
    "matlie.central_unit",
    "matlie.matrix_json_dumps",
    "matlie.su_defect",
    "sigma.action_density",
    "sigma.build_ladder",
    "sigma.el_residual",
    "sigma.lower_projector",
    "sigma.projector_from_vector",
    "sigma.projector_invariants",
    "sigma.raise_projector",
    "sigma.reproject_rank1",
    "spectral.dlambda_fd",
    "spectral.euclidean_wave_dlambda",
    "spectral.phi_euclidean",
    "symmetry.make_characteristic",
}

METHODS = (
    ("sigma", "JetField", "deformed"),
    ("spectral", "WaveField", "inverse"),
) + tuple(
    ("verify", "Fixtures", m)
    for m in ("euclid_grid", "mink_grid", "ladder", "jets_analytic", "jets_numeric",
              "traveling", "euclid_spec", "mink_spec_linear", "mink_spec_quadratic")
)

SUITES = ("identities", "prop1", "prop2", "prop3", "prop4", "prop5", "prop6",
          "prop7", "prop8", "appendix")

# The five checks with the least headroom at the commit that added the benchmark.
TIGHTEST_CHECKS = (
    "appendix.step-order",
    "appendix.grid-order",
    "identities.theta-commutator-cp2",
    "prop4.mink-compatibility",
    "identities.theta-triple-cp2",
)


def _metric(name: str, unit: str, better: str = "lower") -> dict:
    return {"name": name, "unit": unit, "better": better}


def _timings(prefix: str, *names: str, calls: tuple[str, ...] = ()) -> list[dict]:
    out = [_metric(f"{prefix}.self_s", "s")]
    for n in names:
        if n in calls:
            out.append(_metric(f"{prefix}.{n}.calls", "count"))
        out.append(_metric(f"{prefix}.{n}.s", "s"))
    return out


PER_LAYER: list[dict] = [
    *_timings("matlie", "commutator", "expm", "matrix_to_json", "matrix_from_json",
              calls=("commutator", "expm", "matrix_to_json")),
    _metric("matlie.commutator.matrices", "count"),
    _metric("matlie.expm.matrices", "count"),
    *_timings("fields", "write_field_json", "read_field_json", "write_scalar_csv",
              "chart_jets", "cumulative_line_integral",
              calls=("write_field_json", "read_field_json", "chart_jets")),
    _metric("fields.write_field_json.bytes", "B"),
    _metric("fields.read_field_json.bytes", "B"),
    _metric("fields.write_scalar_csv.bytes", "B"),
    *_timings("sigma", "veronese_ladder", "theta_of", "traveling_solution", "u_pair",
              "JetField.deformed", calls=("theta_of", "u_pair", "JetField.deformed")),
    *_timings("spectral", "lowered_rung_with_jets", "euclidean_wave", "phi_traveling",
              "lsp_residual", "WaveField.inverse",
              calls=("lowered_rung_with_jets", "euclidean_wave", "phi_traveling",
                     "WaveField.inverse")),
    *_timings("symmetry", "frechet_apply", "el_symmetry_defect", "commutation_defect",
              calls=("frechet_apply",)),
    _metric("symmetry.frechet_apply.qjets_reused_frac", "ratio", "higher"),
    *_timings("immersion", "assemble_tangents", "integrate_surface", "tangent_check",
              "prolong_immersion", "conformal_immersion_closed", "sym_tafel"),
    *_timings("geometry", "embed_su2", "export_obj"),
    _metric("geometry.export_obj.bytes", "B"),
    _metric("verify.self_s", "s"),
    _metric("verify.fixtures.requested", "count"),
    _metric("verify.fixtures.built", "count"),
    _metric("verify.fixtures.build_s", "s"),
    _metric("verify.checks.s", "s"),
    _metric("verify.unattributed_s", "s"),
    *[_metric(f"verify.suite.{s}.s", "s") for s in SUITES],
    _metric("verify.min_headroom", "ratio", "higher"),
    *[_metric(f"verify.headroom.{c}", "ratio", "higher") for c in TIGHTEST_CHECKS],
    _metric("cli.self_s", "s"),
    _metric("cli.cmd_immerse.s", "s"),
    _metric("cli.cmd_export.s", "s"),
    _metric("config.self_s", "s"),
    _metric("config.load_config.s", "s"),
    _metric("trace.remainder_s", "s"),
    _metric("trace.overhead_frac", "ratio"),
]


# --- hooks: counts taken at the call boundary ---------------------------------


def _path(args: tuple, kwargs: dict) -> str:
    return args[0] if args else kwargs["path"]


def _count_bytes(key: str, counters: dict):
    def after(args, kwargs, _result):
        counters[key] += os.stat(_path(args, kwargs)).st_size
    return after


def _count_matrices(key: str, counters: dict):
    def before(args, kwargs, _result):
        counters[key] += math.prod(np.shape(args[0] if args else next(iter(kwargs.values())))[:-2])
    return before


def _count_qjets_reuse(counters: dict):
    def before(args, kwargs, _result):
        q_jets = args[4] if len(args) > 4 else kwargs.get("q_jets")
        counters["symmetry.frechet_apply.qjets_reused"] += q_jets is not None
    return before


def _sum_check_runtime(counters: dict):
    def after(_args, _kwargs, report):
        counters["verify.checks.s"] += sum(r.runtime_s for r in report.results)
    return after


def _count_fixtures(tracer: Tracer, fixtures_cls: type) -> None:
    """Count fixture requests and builds; time the outermost builds."""
    original = vars(fixtures_cls)["_get"]
    counters, clock = tracer.counters, tracer.clock
    depth = [0]

    def _get(self, key, builder):
        counters["verify.fixtures.requested"] += 1
        if key in self._cache:
            return original(self, key, builder)

        def timed_builder():
            counters["verify.fixtures.built"] += 1
            depth[0] += 1
            t0 = clock()
            try:
                return builder()
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    counters["verify.fixtures.build_s"] += clock() - t0

        return original(self, key, timed_builder)

    tracer.replace(fixtures_cls, "_get", _get)


HOOKS = {
    "matlie.commutator": ("before", _count_matrices, "matlie.commutator.matrices"),
    "matlie.expm": ("before", _count_matrices, "matlie.expm.matrices"),
    "fields.write_field_json": ("after", _count_bytes, "fields.write_field_json.bytes"),
    "fields.read_field_json": ("after", _count_bytes, "fields.read_field_json.bytes"),
    "fields.write_scalar_csv": ("after", _count_bytes, "fields.write_scalar_csv.bytes"),
    "geometry.export_obj": ("after", _count_bytes, "geometry.export_obj.bytes"),
}


def public_functions(module: str) -> list[str]:
    """Public functions defined in ``solsurf.<module>`` (not re-exports)."""
    mod = sys.modules[f"solsurf.{module}"]
    return sorted(
        attr for attr, value in vars(mod).items()
        if inspect.isfunction(value) and not attr.startswith("_")
        and value.__module__ == mod.__name__
        and not (module == "verify" and attr.startswith("suite_"))
        and f"{module}.{attr}" not in UNREACHED
    )


def install() -> Tracer:
    """Wrap every traced solsurf function; call `Tracer.restore` to undo."""
    import solsurf.cli  # noqa: F401  (loads every traced module)

    tracer = Tracer()
    counters = tracer.counters
    for module in MODULES:
        for attr in public_functions(module):
            name = f"{module}.{attr}"
            before = after = None
            if name in HOOKS:
                when, make, key = HOOKS[name]
                hook = make(key, counters)
                before, after = (hook, None) if when == "before" else (None, hook)
            elif name == "symmetry.frechet_apply":
                before = _count_qjets_reuse(counters)
            elif name == "verify.run_suites":
                after = _sum_check_runtime(counters)
            tracer.patch_function(f"solsurf.{module}", attr, name, before, after)
    # A method or suite that a later change removes is skipped; its metrics read 0.
    for module, cls_name, method in METHODS:
        cls = getattr(sys.modules[f"solsurf.{module}"], cls_name)
        if method in vars(cls):
            tracer.patch_method(cls, method, f"{module}.{cls_name}.{method}")
    verify = sys.modules["solsurf.verify"]
    for suite in SUITES:
        if suite in verify._SUITES:
            tracer.patch_mapping(verify._SUITES, suite, f"verify.suite.{suite}")
    _count_fixtures(tracer, verify.Fixtures)
    return tracer


# --- per-layer metrics from spans, counters and the verify report ---------------


def layer_metrics(summary: dict[str, dict], counters: dict[str, float],
                  traced_wall_s: float, headroom: dict[str, float]) -> dict[str, float]:
    """Value of every `PER_LAYER` metric for one traced workload run.

    ``headroom`` maps check names to tolerance/measured ratios (empty when
    the workload runs no verify suite).  ``trace.overhead_frac`` is left
    to the caller, which holds the untraced wall time.
    """
    module_self: dict[str, float] = {}
    for name, row in summary.items():
        module = name.split(".", 1)[0]
        module_self[module] = module_self.get(module, 0.0) + row["self_s"]
    never = {"calls": 0, "total_s": 0.0}
    values: dict[str, float] = {}
    for metric in PER_LAYER:
        name = metric["name"]
        if name.endswith(".self_s"):
            values[name] = module_self.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            values[name] = summary.get(name[: -len(".calls")], never)["calls"]
        elif name.endswith(".s") and name[:-2] in summary:
            values[name] = summary[name[:-2]]["total_s"]
        else:
            values[name] = counters.get(name, 0.0)
    calls = summary.get("symmetry.frechet_apply", never)["calls"]
    values["symmetry.frechet_apply.qjets_reused_frac"] = (
        counters.get("symmetry.frechet_apply.qjets_reused", 0.0) / calls if calls else 0.0)
    run_suites = summary.get("verify.run_suites", never)
    if run_suites["calls"]:
        values["verify.unattributed_s"] = run_suites["total_s"] - values["verify.checks.s"]
    values["verify.min_headroom"] = min(headroom.values()) if headroom else 0.0
    for check in TIGHTEST_CHECKS:
        values[f"verify.headroom.{check}"] = headroom.get(check, 0.0)
    values["trace.remainder_s"] = traced_wall_s - sum(module_self.values())
    return values
