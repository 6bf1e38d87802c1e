"""One benchmark repetition in a fresh process.

Set-up (interpreter start, imports, config merge, input preparation) ends at
``ready``; the timed region is exactly one call into the workload's entry
point, which returns after its artifacts are written.  The outputs are read
back after the clock stops and returned with the timings as one JSON file.

    python3 perfbench/worker.py --workload construct --seed 0 --trace 0 \
        --out .perfbench/rep --result .perfbench/rep.json

``--trace 1`` installs the out-of-package span wrappers before the call.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _artifact_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


def run(args):
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import kamforge
    import workloads

    if not os.path.abspath(kamforge.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"kamforge imported from {kamforge.__file__}, not {SRC}")
    cfg = workloads.config(args.workload, args.seed)
    call = workloads.prepare(args.workload, cfg, args.out)
    ready = time.monotonic()

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install(spans.TARGETS)

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    call()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0

    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "config_hash": workloads.config_hash(cfg),
        "kam_tol": float(cfg["kam"]["tol"]),
        "artifact_bytes": _artifact_bytes(args.out),
        "observables": workloads.observe(args.workload, args.out),
    }
    if tracer is not None:
        import spans
        result["unpatched"] = tracer.unpatched_bindings()
        result["layers"] = {k: list(v) for k, v in spans.layer_metrics(
            tracer, wall, result["artifact_bytes"]).items()}
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="artifact directory for this repetition")
    p.add_argument("--result", required=True, help="JSON file the result is written to")
    args = p.parse_args(argv)
    try:
        result = run(args)
        code = 0
    except Exception:  # noqa: BLE001 - reported to the runner, which counts a failure
        result = {"error": traceback.format_exc()}
        code = 1
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
