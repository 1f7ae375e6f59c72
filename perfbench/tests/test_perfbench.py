"""Self-tests of the benchmark: tracer arithmetic, transparency, coverage, gates.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import solsurf.cli  # noqa: E402


class FakeClock:
    """Advances one unit per reading, so span bounds are exact integers."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_self_time_of_nested_spans():
    tr = tracer.Tracer(clock=FakeClock())

    def leaf():
        return None

    leaf_t = tr.wrap("m.leaf", leaf)

    def mid():
        leaf_t()
        leaf_t()

    mid_t = tr.wrap("m.mid", mid)
    outer_t = tr.wrap("n.outer", lambda: (mid_t(), leaf_t()))
    tr.wrap("n.never", leaf)
    outer_t()
    names, spans = tr.names, tr.arrays()
    summary = tracer.summarize(names, spans)
    # outer [1, 10], mid [2, 7], leaf [3, 4], leaf [5, 6], leaf [8, 9]
    assert list(spans["start"]) == [1, 2, 3, 5, 8]
    assert list(spans["end"]) == [10, 7, 4, 6, 9]
    assert list(spans["parent"]) == [-1, 0, 1, 1, 0]
    leaf_row = summary["m.leaf"]
    assert (leaf_row["calls"], leaf_row["total_s"], leaf_row["self_s"]) == (3, 3.0, 3.0)
    assert list(leaf_row["durations"]) == [1.0, 1.0, 1.0]
    assert summary["m.mid"]["self_s"] == 5.0 - 2.0
    assert summary["n.outer"]["self_s"] == 9.0 - 5.0 - 1.0
    assert summary["n.never"]["calls"] == 0 and summary["n.never"]["total_s"] == 0.0
    assert sum(r["self_s"] for r in summary.values()) == summary["n.outer"]["total_s"]


def test_recursive_spans_count_once_in_total():
    tr = tracer.Tracer(clock=FakeClock())
    box = {}

    def rec(n):
        if n:
            box["f"](n - 1)

    box["f"] = tr.wrap("m.rec", rec)
    box["f"](2)
    summary = tracer.summarize(tr.names, tr.arrays())
    # spans [1, 6], [2, 5], [3, 4]
    assert summary["m.rec"]["calls"] == 3
    assert summary["m.rec"]["total_s"] == 5.0
    assert summary["m.rec"]["self_s"] == 5.0


def test_spans_survive_save_and_load(tmp_path):
    tr = tracer.Tracer(clock=FakeClock())
    tr.wrap("m.f", lambda: None)()
    tr.save(str(tmp_path / "spans.npz"))
    names, spans = tracer.load(str(tmp_path / "spans.npz"))
    assert names == ["m.f"]
    assert list(spans["start"]) == [1.0] and list(spans["end"]) == [2.0]


def _bindings() -> dict:
    """Every attribute of every solsurf module and traced class, plus the suite table."""
    snap = {}
    for name, mod in sys.modules.items():
        if name == "solsurf" or name.startswith("solsurf."):
            snap[name] = dict(vars(mod))
    for module, cls_name, _ in layers.METHODS:
        cls = getattr(sys.modules[f"solsurf.{module}"], cls_name)
        snap[f"{module}.{cls_name}"] = dict(vars(cls))
    snap["verify._SUITES"] = dict(sys.modules["solsurf.verify"]._SUITES)
    return snap


def test_install_patches_every_binding_and_restore_puts_them_back():
    before = _bindings()
    original = sys.modules["solsurf.matlie"].commutator
    tr = layers.install()
    try:
        patched = sys.modules["solsurf.matlie"].commutator
        assert patched is not original
        for module in ("sigma", "spectral", "symmetry", "immersion", "verify"):
            assert getattr(sys.modules[f"solsurf.{module}"], "commutator") is patched
    finally:
        tr.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    for key in before:
        changed = [a for a in before[key] if after[key].get(a) is not before[key][a]]
        assert not changed, (key, changed)


def test_tracing_is_transparent_on_identities(tmp_path):
    plain, traced = str(tmp_path / "plain"), str(tmp_path / "traced")
    assert solsurf.cli.main(["verify", "--suite", "identities", "--out", plain]) == 0
    tr = layers.install()
    try:
        assert solsurf.cli.main(["verify", "--suite", "identities", "--out", traced]) == 0
    finally:
        tr.restore()
    with open(os.path.join(plain, "report.json"), "rb") as a, \
            open(os.path.join(traced, "report.json"), "rb") as b:
        assert a.read() == b.read()
    summary = tracer.summarize(tr.names, tr.arrays())
    assert summary["verify.suite.identities"]["calls"] == 1
    assert summary["verify.suite.prop1"]["calls"] == 0


@pytest.fixture(scope="module")
def traced_summaries(tmp_path_factory):
    """Traced executions of every workload; the CLI one on a 61^2 grid."""
    work = str(tmp_path_factory.mktemp("executions"))
    env = run.child_env()
    out = {}
    try:
        for i, (name, w) in enumerate(workloads.WORKLOADS.items()):
            res = run.run_once(w, w.params(3), work, i, True, env, dims=61)
            assert res["child_exit"] == 0, res["stderr"]
            assert all(op.ok for op in res["ops"]), [op for op in res["ops"] if not op.ok]
            out[name] = res
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


def test_every_wrapped_name_is_reached(traced_summaries):
    names = set()
    for res in traced_summaries.values():
        names |= set(res["summary"])
    unreached = sorted(n for n in names
                       if all(r["summary"][n]["calls"] == 0 for r in traced_summaries.values()))
    assert not unreached


def test_every_per_layer_metric_is_reported(traced_summaries):
    for name, res in traced_summaries.items():
        values = layers.layer_metrics(res["summary"], res["counters"], res["wall_s"],
                                      res["headroom"])
        assert [m["name"] for m in layers.PER_LAYER] == list(values), name
        # a name with zero calls reads 0 rather than being dropped
        if name == "roundtrip-mink-201":
            assert values["symmetry.frechet_apply.calls"] == 0
            assert values["geometry.export_obj.bytes"] > 0


def test_self_times_add_up_to_traced_wall(traced_summaries):
    for name, res in traced_summaries.items():
        values = layers.layer_metrics(res["summary"], res["counters"], res["wall_s"],
                                      res["headroom"])
        selfs = sum(v for k, v in values.items() if k.endswith(".self_s"))
        assert selfs + values["trace.remainder_s"] == pytest.approx(res["wall_s"]), name
        assert 0 <= values["trace.remainder_s"] < 0.05 * res["wall_s"], name


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["per_layer"] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()]


def test_seeded_parameters_are_deterministic_and_in_range():
    params = workloads.WORKLOADS["roundtrip-mink-201"].params
    lo, hi = workloads.MINK_LAMBDA_RANGE
    for seed in range(50):
        assert params(seed) == params(seed)
        assert lo <= params(seed)["lambda"] <= hi
    assert params(1) != params(2)


def test_export_gates_reject_broken_files(tmp_path):
    obj = tmp_path / "s.obj"
    obj.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 4\nf 1 4 3\n")
    assert workloads.check_obj(str(obj), 2).ok
    assert not workloads.check_obj(str(obj), 5).ok  # not a trimmed 5x5 grid
    obj.write_text("v 0 0 nan\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 4\nf 1 4 3\n")
    assert not workloads.check_obj(str(obj), 2).ok
    csv = tmp_path / "i.csv"
    csv.write_text("x1,x2,value\n0,0,1\n")
    assert workloads.check_csv(str(csv), 1).ok
    csv.write_text("x1,x2,value\n0,0\n")
    assert not workloads.check_csv(str(csv), 1).ok
    js = tmp_path / "w.json"
    js.write_text("{\"grid\": 1")
    assert not workloads.check_json(str(js)).ok
    assert not workloads.check_json(str(tmp_path / "missing.json")).ok


def test_run_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_child_over_its_time_is_killed():
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    code, usage = run.wait_child(proc, 0.5)
    assert code == -9
    assert usage.ru_maxrss > 0
