"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_bench.py

The workload tests run the real workloads in worker processes, about two
minutes in total.
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402


def _python(code, env=None):
    """Run ``code`` in a fresh interpreter (tracing patches process-wide state)."""
    env = dict(os.environ, **(env or {}),
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_self_time_excludes_children_and_total_counts_outermost_only():
    tr = spans.Tracer()
    clock = iter(range(100))

    def leaf():
        return next(clock)

    def outer(n):
        if n:
            outer_t(n - 1)
        leaf_t()
        return n

    leaf_t = tr.wrap("x.leaf", leaf)
    outer_t = tr.wrap("x.outer", outer)
    t0 = time.perf_counter()
    outer_t(2)
    elapsed = time.perf_counter() - t0
    leaf_s, outer_s = tr.span("x.leaf"), tr.span("x.outer")
    assert leaf_s["calls"] == 3 and outer_s["calls"] == 3
    # recursion: only the outermost activation counts towards total time
    assert 0 < outer_s["total_s"] <= elapsed
    assert outer_s["self_s"] + leaf_s["self_s"] == pytest.approx(outer_s["total_s"])


def test_spans_on_pool_threads_are_children_of_the_waiting_caller():
    tr = spans.Tracer()
    work = tr.wrap("x.work", lambda _: time.sleep(0.05))

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as ex:
            list(ex.map(work, range(4)))

    tr.wrap("x.fan_out", fan_out)()
    outer, inner = tr.span("x.fan_out"), tr.span("x.work")
    assert inner["calls"] == 4
    # two workers in parallel: the caller waited about 0.1 s, the workers ran 0.2 thread-s
    assert inner["self_s"] >= 0.2
    assert outer["self_s"] < 0.25 * outer["total_s"]


def test_span_counts_survive_many_threads():
    tr = spans.Tracer()
    work = tr.wrap("x.work", lambda i: i)
    n = 4000

    def fan_out():
        with ThreadPoolExecutor(max_workers=8) as ex:
            futures = [ex.submit(work, i) for i in range(n)]
            return sum(f.result(timeout=60) for f in futures)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert tr.wrap("x.fan_out", fan_out)() == sum(range(n))
    finally:
        sys.setswitchinterval(old)
    assert tr.span("x.work")["calls"] == n
    assert 0 <= tr.span("x.fan_out")["self_s"] <= tr.span("x.fan_out")["total_s"]


def test_excluded_measure_with_worker_threads_keeps_no_child_time():
    env = {"KAMFORGE_THREADS": "2"}
    res = _python("""
        import json
        from kamforge import diophantine
        import spans
        tr = spans.Tracer()
        tr.install([t for t in spans.TARGETS if t.layer == "diophantine"])
        p = diophantine.DiophantineParams(d=2, gamma=2e-3, K_split=20, K_check=60)
        diophantine.excluded_measure(p, ([1.0, 1.3], [1.2, 1.6]), n_samples=4000)
        print(json.dumps({k: tr.span(k) for k in ("diophantine.excluded_measure",
                                                   "diophantine._margins_for")}))
    """, env)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    em, margins = out["diophantine.excluded_measure"], out["diophantine._margins_for"]
    assert margins["calls"] == 16
    assert em["self_s"] < 0.5 * em["total_s"]


def test_every_binding_is_wrapped_and_a_missed_one_is_reported():
    res = _python("""
        import json
        from kamforge import cli, kam, normal_form
        import spans
        orig_compose = kam.compose_shifted_grid
        tr = spans.Tracer()
        tr.install(spans.TARGETS)
        first = tr.unpatched_bindings()
        patched = tr.patched
        kam.stale_alias = orig_compose
        print(json.dumps({"first": first, "after": tr.unpatched_bindings(),
                          "patched": patched}))
    """)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["first"] == []
    assert out["after"] == ["kamforge.kam.stale_alias"]
    p = out["patched"]
    # names imported into other modules are rebound too
    assert {"kamforge.fourier.compose_shifted_grid", "kamforge.normal_form.compose_shifted_grid",
            "kamforge.kam.compose_shifted_grid"} <= set(p["fourier.compose_shifted_grid"])
    assert {"kamforge.kam.solve_fixed_point", "kamforge.normal_form.solve_fixed_point"} <= set(
        p["normal_form.solve_fixed_point"])
    assert {"kamforge.kam.solve_homological", "kamforge.normal_form.solve_homological"} <= set(
        p["normal_form.solve_homological"])
    assert {"kamforge.util.ifftn", "kamforge.fourier.ifftn"} <= set(p["fourier.ifftn"])
    assert {"kamforge.util.fftn", "kamforge.fourier.fftn",
            "kamforge.oscillator.fftn"} <= set(p["fourier.fftn"])
    for stage in ("normal_form.run_normal_form", "normal_form.taylor_split",
                  "kam.kam_iterate", "kam.extract_torus", "kam.invariance_defect",
                  "diophantine.find_dc_point", "duffing.to_hamiltonian_spec"):
        assert any(b.startswith("kamforge.cli.") for b in p[stage]), stage
    for target in spans.TARGETS:
        assert p[target.key], target.key


def _bench(workload, seed, trace):
    res = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_covers_its_layers(workload):
    lines = _bench(workload, 0, 1)
    result = json.loads(lines[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(result["metrics"]) == per_layer
    # the counters checked inside the run: every binding wrapped, busiest layers nonzero
    assert any("trace_counters: PASS" in line for line in lines), lines
    assert any("trace_bindings: PASS" in line for line in lines), lines
    assert any("config: PASS" in line for line in lines), lines
    assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("workload", ["construct", "kam_active"])
def test_seed_changes_only_sampling(workload):
    obs = []
    for seed in (0, 1):
        rdir = os.path.join(ROOT, ".perfbench", f"test-seed-{workload}-{seed}")
        os.makedirs(rdir, exist_ok=True)
        result = os.path.join(rdir, "result.json")
        res = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
             "--seed", str(seed), "--out", os.path.join(rdir, "out"), "--result", result],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        with open(result) as fh:
            out = json.load(fh)
        shutil.rmtree(rdir)
        assert res.returncode == 0, out.get("error", res.stderr)
        obs.append(out["observables"])
    a, b = obs
    assert a["dc_point"] == b["dc_point"]
    assert (a["nf_steps"], a["kam_steps"]) == (b["nf_steps"], b["kam_steps"])
    assert a["torus_angles"] == b["torus_angles"]
    # the seed does reach the program: the Monte-Carlo excluded fraction moves
    assert a["excluded_fraction"] != b["excluded_fraction"]
