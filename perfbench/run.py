"""kamforge benchmark runner.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 30 --trace 0

Runs repetitions of one workload, each in a fresh worker process, until the
next one would overrun ``--seconds``.  With ``--trace 0`` every repetition is
untraced and the end-to-end metrics are reported; with ``--trace 1`` untraced
and traced repetitions alternate and the per-layer metrics are reported,
together with the tracing overhead (traced minus untraced wall time).

Every repetition's outputs are checked against ``references.json``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the run
record, every check and every metric with its unit.  Working files go to
``.perfbench/`` in the checkout root.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PKG = os.path.join(ROOT, "src", "kamforge")
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(ROOT, ".perfbench")
DEADLINE_S = 165.0        # the whole run ends well inside 180 s
ENV_KNOBS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "KAMFORGE_THREADS")

sys.path.insert(0, HERE)
import workloads  # noqa: E402  (stdlib-only at import time)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}


def calibration_kernel():
    """Fixed FFT-plus-interpreter-loop kernel; its time tracks host speed drift."""
    import numpy as np
    a = np.exp(1j * 1e-3 * np.arange(32 ** 3)).reshape(32, 32, 32)
    t0 = time.perf_counter()
    for _ in range(20):
        a = np.fft.ifftn(np.fft.fftn(a))
    acc = 0.0
    for i in range(100_000):
        acc += (i % 7) * 0.5
    return time.perf_counter() - t0


def run_record(args):
    import numpy
    import scipy
    rev = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = "unknown"
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC_PKG, "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_rev": rev, "source_sha256": h.hexdigest()[:16],
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "env": {k: os.environ.get(k) for k in ENV_KNOBS},
    }


def run_rep(args, index, traced, timeout):
    """Run one worker; returns its result dict plus spawn-side timings."""
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{index}"
    rep_dir = os.path.join(WORK, tag)
    shutil.rmtree(rep_dir, ignore_errors=True)
    os.makedirs(rep_dir)
    result_path = os.path.join(rep_dir, "result.json")
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced)), "--out", os.path.join(rep_dir, "out"),
           "--result", result_path]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
        stderr, code = proc.stderr, proc.returncode
    except subprocess.TimeoutExpired:
        stderr, code = f"timed out after {timeout:.0f} s", -1
    ended = time.monotonic()
    try:
        with open(result_path) as fh:
            res = json.load(fh)
    except (OSError, json.JSONDecodeError):
        res = {"error": f"no result (exit {code}): {stderr[-2000:]}"}
    shutil.rmtree(rep_dir, ignore_errors=True)
    res["traced"] = traced
    res["rep_s"] = ended - spawned
    if "ready" in res:
        res["setup_s"] = res["ready"] - spawned
    return res


def rep_checks(args, res, refs):
    """(name, passed, detail) for every output check of one repetition."""
    if "error" in res:
        return [("completed", False, res["error"].strip().splitlines()[-1])]
    ref = refs[args.workload]
    checks = [("config", res["config_hash"] == ref["config_hash"],
               f"config hash {res['config_hash']} vs recorded {ref['config_hash']}")]
    checks += workloads.check(args.workload, res["observables"], ref, args.seed,
                              cfg_kam_tol=res["kam_tol"])
    if res["traced"]:
        left = res["unpatched"]
        checks.append(("trace_bindings", not left,
                       "all bindings wrapped" if not left else f"unwrapped: {left}"))
        zero = [k for k in workloads.COVERAGE[args.workload] if not res["layers"][k][0] > 0]
        checks.append(("trace_counters", not zero,
                       f"{len(workloads.COVERAGE[args.workload])} counters nonzero"
                       if not zero else f"zero on {args.workload}: {zero}"))
    return checks


def median_of(reps, key):
    vals = [r[key] for r in reps if key in r]
    return (statistics.median(vals), len(vals)) if vals else (None, 0)


def main(argv=None):
    p = argparse.ArgumentParser(description="kamforge benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC_PKG, "cli.py")):
        print(f"error: kamforge sources not found under {SRC_PKG}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        refs = workloads.load_references()
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read references: {exc}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    record = run_record(args)

    reps, calib = [], []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        calib.append(calibration_kernel())
        left = DEADLINE_S - (time.monotonic() - started)
        res = run_rep(args, len(reps), traced, timeout=left)
        res["checks"] = rep_checks(args, res, refs)
        res["ok"] = all(ok for _, ok, _ in res["checks"])
        reps.append(res)
        elapsed = time.monotonic() - started
        need_traced = args.trace and not any(r["traced"] for r in reps)
        if elapsed + res["rep_s"] > DEADLINE_S - 5:
            break
        if not need_traced and elapsed + res["rep_s"] > args.seconds:
            break

    attempted = len(reps)
    failed = sum(1 for r in reps if not r["ok"])
    for i, r in enumerate(reps):
        kind = "traced" if r["traced"] else "untraced"
        for name, ok, detail in r["checks"]:
            print(f"check rep {i} ({kind}) {name}: {'PASS' if ok else 'FAIL'}  {detail}")

    untraced = [r for r in reps if not r["traced"] and "wall_s" in r]
    traced = [r for r in reps if r["traced"] and "layers" in r]
    record["config_hash"] = next((r["config_hash"] for r in reps if "config_hash" in r), None)
    record["calibration_s"] = calib
    record["calibration_median_s"] = statistics.median(calib)
    record["reps"] = [{k: r.get(k) for k in ("traced", "ok", "wall_s", "setup_s", "cpu_s",
                                              "peak_rss_mb", "rep_s")} for r in reps]
    metrics = {}
    if args.trace:
        if not traced or not untraced:
            print("error: no traced/untraced repetition completed", file=sys.stderr)
            return 1
        for key in traced[0]["layers"]:
            unit = traced[0]["layers"][key][1]
            metrics[key] = (statistics.median(r["layers"][key][0] for r in traced), unit)
        t_wall, _ = median_of(traced, "wall_s")
        u_wall, _ = median_of(untraced, "wall_s")
        u_cpu, _ = median_of(untraced, "cpu_s")
        metrics["trace.wall_s"] = (t_wall, "s")
        metrics["trace.untraced_wall_s"] = (u_wall, "s")
        metrics["trace.overhead_s"] = (t_wall - u_wall, "s")
        metrics["process.cpu_s"] = (u_cpu, "s")
        metrics["process.cpu_per_wall"] = (u_cpu / u_wall, "ratio")
    else:
        if not untraced:
            print("error: no repetition completed", file=sys.stderr)
            return 1
        for key in ("wall_s", "setup_s", "peak_rss_mb"):
            value, n = median_of(untraced, key)
            metrics[key] = (value, END_TO_END[key])
            record.setdefault("samples", {})[key] = n
        metrics["pass_frac"] = ((attempted - failed) / attempted, END_TO_END["pass_frac"])
    with open(os.path.join(WORK, f"record-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print("record " + json.dumps(record))
    n = len(traced) if args.trace else len(untraced)
    for key, (value, unit) in metrics.items():
        how = f"{attempted - failed} of {attempted}" if key == "pass_frac" else f"median of {n}"
        print(f"metric {key} = {value:.6g} {unit}  ({how})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
