"""One workload execution in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

SPEC names the solsurf CLI steps to run in-process, whether to trace
them, and where to write the result.  The result holds the moment
``import solsurf.cli`` returned (CLOCK_MONOTONIC, comparable with the
parent's clock), the wall time of the steps and each step's exit code.
A traced execution also saves its spans next to the result.
"""

import glob
import json
import os
import sys
import time
import traceback

import solsurf.cli as cli

READY = time.monotonic()


def _resolve_export_inputs(step: dict) -> None:
    """Write the export config, naming each input by the file the
    immerse step wrote under that stem, whatever its format."""
    cfg = step["export_config"]["config"]
    for entry in cfg["outputs"]:
        where = entry["input"]
        found = sorted(glob.glob(os.path.join(where["dir"], where["stem"] + ".*")))
        entry["input"] = found[0] if found else os.path.join(where["dir"], where["stem"])
    with open(step["export_config"]["path"], "w") as fh:
        json.dump(cfg, fh)


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        import layers

        tracer = layers.install()
    codes = []
    t0 = time.perf_counter()
    for step in spec["steps"]:
        if "export_config" in step:
            _resolve_export_inputs(step)
        try:
            codes.append(cli.main(step["argv"]))
        except Exception:  # a traceback is a failed operation, not a crashed benchmark
            traceback.print_exc()
            codes.append(-1)
    wall = time.perf_counter() - t0
    result = {"ready": READY, "wall_s": wall, "exit_codes": codes}
    if tracer is not None:
        tracer.restore()
        tracer.save(spec["spans"])
        result["counters"] = dict(tracer.counters)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
