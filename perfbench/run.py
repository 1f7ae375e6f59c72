"""solsurf benchmark: one workload, its end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 36 --trace 0

Run from the root of a solsurf checkout; the program is imported from
``src/`` there.  Each execution of the workload runs in a fresh child
interpreter, one at a time, with BLAS/OpenMP threads pinned to 1 in the
child's environment.  Executions repeat until another would overrun
``--seconds`` (at least one runs).  Outputs go to a temporary directory
under ``.perfbench-work/`` that is deleted after each execution.

``--trace 0`` reports the end-to-end metrics of untraced executions.
``--trace 1`` runs one untraced execution, then traced ones, and reports
the per-layer metrics of the traced ones plus the tracing overhead.
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 10
# Every child is killed if the run is still going this long after it began.
RUN_LIMIT_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def wait_child(proc: subprocess.Popen, timeout: float) -> tuple[int, object]:
    """Wait for ``proc``, killing it after ``timeout`` s; return exit code and rusage."""
    killer = threading.Timer(max(timeout, 0.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def measure_setup(env: dict[str, str]) -> float:
    """Seconds from launching a fresh interpreter until ``import solsurf.cli`` returns."""
    code = "import time, solsurf.cli; print(repr(time.monotonic()))"
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return float(out.strip().splitlines()[-1]) - t0


def dir_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def run_once(w: workloads.Workload, params: dict, work: str, index: int, trace: bool,
             env: dict[str, str], dims: int = workloads.GRID,
             timeout: float = RUN_LIMIT_S) -> dict:
    """One execution of ``w`` in a child; gated, measured, then deleted."""
    op_dir = os.path.join(work, f"exec{index}")
    os.makedirs(op_dir)
    try:
        steps = w.steps(params, op_dir, dims)
        spec = {"steps": steps, "trace": trace,
                "result": os.path.join(op_dir, "result.json"),
                "spans": os.path.join(op_dir, "spans.npz")}
        with open(os.path.join(op_dir, "spec.json"), "w") as fh:
            json.dump(spec, fh)
        with open(os.path.join(op_dir, "stdout.log"), "w") as out, \
                open(os.path.join(op_dir, "stderr.log"), "w") as err:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), os.path.join(op_dir, "spec.json")],
                env=env, cwd=ROOT, stdout=out, stderr=err)
            code, usage = wait_child(proc, timeout)
        with open(os.path.join(op_dir, "stderr.log")) as fh:
            stderr_tail = fh.read()[-2000:]
        result: dict = {"rss_mb": usage.ru_maxrss / 1024.0, "child_exit": code,
                        "stderr": stderr_tail}
        if code == 0:
            with open(spec["result"]) as fh:
                result.update(json.load(fh))
        exit_codes = result.get("exit_codes", [None] * len(steps))
        gate = w.gate(params, op_dir, dims)
        ops = [workloads.Op(f"exit:{s['argv'][0]}", c == 0, f"exit code {c}")
               for s, c in zip(steps, exit_codes)] + gate.ops
        result.update(ops=ops, headroom=gate.headroom, digest=gate.digest,
                      output_bytes=sum(dir_bytes(os.path.join(op_dir, d)) for d in w.out_dirs))
        if trace and code == 0:
            import tracer
            names, spans = tracer.load(spec["spans"])
            result["summary"] = tracer.summarize(names, spans)
        return result
    finally:
        shutil.rmtree(op_dir, ignore_errors=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def tail_percentile(n: int) -> float | None:
    """Highest of p90/p99/p99.9 with at least ten of ``n`` samples beyond it."""
    best = None
    for p in (90.0, 99.0, 99.9):
        if n * (100.0 - p) / 100.0 >= 10:
            best = p
    return best


def timing_line(name: str, values: list[float], unit: str) -> str:
    """Median, quartiles, sample count and the highest well-sampled percentile."""
    q1, med, q3 = quartiles(values)
    line = f"{name:<14} {med:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"
    p = tail_percentile(len(values))
    if p is not None:
        line += f", p{p:g} {statistics.quantiles(values, n=1000)[int(p * 10) - 1]:.6g}"
    return line + ")"


def print_trace_table(summary: dict[str, dict]) -> None:
    import numpy as np

    print(f"{'span':<44} {'calls':>8} {'total_s':>10} {'self_s':>10} {'p50_ms':>10}  tail_ms")
    for name in sorted(summary):
        row = summary[name]
        d = np.asarray(row["durations"]) * 1e3
        p50 = f"{np.median(d):10.4f}" if len(d) else f"{'-':>10}"
        p = tail_percentile(len(d))
        tail = f"p{p:g} {np.percentile(d, p):.4f}" if p is not None else ""
        print(f"{name:<44} {row['calls']:>8} {row['total_s']:>10.4f} {row['self_s']:>10.4f} "
              f"{p50}  {tail}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "solsurf", "cli.py")):
        print(f"error: no solsurf sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    params = w.params(args.seed)
    env = child_env()
    print(f"workload {w.name}: {w.why}")
    print(f"seed {args.seed}: parameters {json.dumps(params, sort_keys=True)}")

    work_root = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(dir=work_root)
    try:
        return measure(w, params, args, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass


def measure(w: workloads.Workload, params: dict, args: argparse.Namespace,
            env: dict[str, str], work: str) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    measure_setup(env)  # warm the file cache and the bytecode cache, untimed
    # Half the set-up samples are taken before the executions and half after,
    # so that one slow spell of the machine does not shift them all.
    setup = [measure_setup(env) for _ in range(SETUP_SAMPLES // 2)]

    untraced: list[dict] = []
    traced: list[dict] = []
    t_start = time.monotonic()
    while True:
        trace = bool(args.trace) and bool(untraced)
        runs = traced if trace else untraced
        res = run_once(w, params, work, len(untraced) + len(traced), trace, env,
                       timeout=deadline - time.monotonic())
        runs.append(res)
        if res["child_exit"] != 0:
            print(f"execution failed (exit {res['child_exit']}):\n{res['stderr']}")
            break
        if args.trace and not traced:
            continue
        next_cost = statistics.median(r["wall_s"] for r in runs)
        if time.monotonic() - t_start + next_cost > args.seconds:
            break
    setup += [measure_setup(env) for _ in range(SETUP_SAMPLES - len(setup))]

    executions = untraced + traced
    ops = [op for r in executions for op in r["ops"]]
    failed = [op for op in ops if not op.ok]
    digests = {r["digest"] for r in executions if r["digest"] is not None}
    for op in failed[:20]:
        print(f"FAILED {op.name}: {op.detail}")
    if len(digests) > 1:
        print(f"FAILED report.json differs between executions: {sorted(digests)}")
    correct = (not failed and len(digests) <= 1
               and all(r["child_exit"] == 0 for r in executions))

    # A failed execution has no wall time; its run is reported incorrect.
    walls = [r["wall_s"] for r in untraced if "wall_s" in r] or [0.0]
    rss = statistics.median(r["rss_mb"] for r in untraced)
    out_mb = statistics.median(r["output_bytes"] for r in untraced) / 1e6
    headroom = executions[0]["headroom"]
    print(timing_line("setup_s", setup, "s"))
    print(timing_line("wall_s", walls, "s"))
    print(f"{'peak_rss_mb':<14} {rss:.6g} MB (ru_maxrss of the child, MiB)")
    print(f"{'output_mb':<14} {out_mb:.6g} MB (10^6 bytes written to the output directories)")
    print(f"{'failed_frac':<14} {len(failed) / len(ops):.6g} ratio "
          f"({len(failed)} of {len(ops)} operations)")
    if headroom:
        tightest = min(headroom, key=headroom.get)
        print(f"{'min_headroom':<14} {headroom[tightest]:.6g} ratio ({tightest})")
    if digests:
        print(f"report.json sha256 {sorted(digests)[0][:16]}... "
              f"({len(digests)} distinct over {len(executions)} executions)")

    if args.trace:
        metrics = trace_metrics(traced, statistics.median(walls), headroom)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "output_mb": {"value": out_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def trace_metrics(traced: list[dict], untraced_wall: float,
                  headroom: dict[str, float]) -> dict[str, dict]:
    """Per-layer metrics: the median over traced executions of each value."""
    import layers

    ok = [r for r in traced if "summary" in r]
    per_exec = [layers.layer_metrics(r["summary"], r["counters"], r["wall_s"], headroom)
                for r in ok]
    metrics = {m["name"]: {"value": statistics.median(v[m["name"]] for v in per_exec)
                           if per_exec else 0.0, "unit": m["unit"]}
               for m in layers.PER_LAYER}
    if ok:
        traced_walls = [r["wall_s"] for r in ok]
        print_trace_table(ok[0]["summary"])
        print(timing_line("traced wall_s", traced_walls, "s"))
        first = per_exec[0]
        selfs = sum(v for k, v in first.items() if k.endswith(".self_s"))
        print(f"module self time {selfs:.6f} s + untraced remainder "
              f"{first['trace.remainder_s']:.6f} s = {selfs + first['trace.remainder_s']:.6f} s "
              f"(traced wall {ok[0]['wall_s']:.6f} s)")
        if untraced_wall > 0:
            metrics["trace.overhead_frac"]["value"] = (
                statistics.median(traced_walls) / untraced_wall - 1)
    return metrics


if __name__ == "__main__":
    raise SystemExit(main())
