"""Out-of-package tracing: wrap kamforge's public functions and aggregate spans.

The package itself carries no instrumentation, so the traced benchmark run
replaces every binding of each target function (the defining module, every
module that imported it by name, or the class that owns the method) with a
wrapper that records a span.  Spans are aggregated in memory per name: calls,
total time (outermost activation only, so a recursive or re-entrant function
is not counted twice) and self time (span duration minus the part of it that
its child spans cover).

A span opened on a pool thread (``KAMFORGE_THREADS`` above 1) has as parent the
innermost span open in the thread that created the tracer, so the waiting
caller does not keep the workers' time as its own.  Spans that run at the same
time on several threads each count in full, so their summed self times are
thread-seconds and may exceed the wall time.

Small hooks turn call arguments and results into counters (FFT bytes,
fixed-point iterations, integrator steps, ...).  A hook runs after its span has
closed; its few microseconds land in the caller's self time.
"""

import functools
import importlib
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

PACKAGE = "kamforge"


@dataclass(frozen=True)
class Target:
    """One traced function: ``layer.name`` is its metric prefix."""

    layer: str
    name: str
    module: str
    attr: str
    cls: str = None
    hook: object = None

    @property
    def key(self):
        return f"{self.layer}.{self.name}"


class Tracer:
    """Span and counter store for one traced run (thread-safe)."""

    def __init__(self):
        self.spans = {}      # key -> [calls, total_s, self_s]
        self.counters = {}   # name -> summed value
        self.maxima = {}     # name -> largest value seen
        self.patched = {}    # key -> ["module.attr", ...] bindings replaced
        self._originals = {}  # id(original) -> key
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root = (threading.get_ident(), self._thread_state()[0])

    # -- recording -----------------------------------------------------------

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.active
        except AttributeError:
            local.stack, local.active = [], {}
            return local.stack, local.active

    def inside(self, key):
        """True when a span named ``key`` is open in the calling thread."""
        return self._thread_state()[1].get(key, 0) > 0

    def count(self, name, value=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def record_max(self, name, value):
        with self._lock:
            if value > self.maxima.get(name, float("-inf")):
                self.maxima[name] = value

    def wrap(self, key, fn, hook=None):
        """Wrapper recording one span per call of ``fn`` under ``key``.

        A frame is ``[same-thread child time, child intervals from other
        threads]``; the intervals are merged when the frame closes, because
        children running in parallel overlap.
        """
        stats = self.spans.setdefault(key, [0, 0.0, 0.0])
        state, lock = self._thread_state, self._lock
        root_ident, root_stack = self._root

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, active = state()
            parent, cross = (stack[-1] if stack else None), False
            if parent is None and threading.get_ident() != root_ident and root_stack:
                parent, cross = root_stack[-1], True
            frame = [0.0, []]
            stack.append(frame)
            depth = active.get(key, 0)
            active[key] = depth + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                stack.pop()
                active[key] = depth
                covered = frame[0]
                if frame[1]:
                    covered = min(dur, covered + _union_length(frame[1]))
                with lock:
                    if cross:
                        parent[1].append((t0, t1))
                    elif parent is not None:
                        parent[0] += dur
                    stats[0] += 1
                    stats[2] += dur - covered
                    if not depth:
                        stats[1] += dur
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self, targets):
        """Replace every binding of each target inside the kamforge package."""
        for t in targets:
            owner = importlib.import_module(t.module)
            if t.cls is not None:
                owner = getattr(owner, t.cls)
            raw = owner.__dict__[t.attr]
            is_cm = isinstance(raw, classmethod)
            orig = raw.__func__ if is_cm else raw
            traced = self.wrap(t.key, orig, t.hook)
            self._originals[id(orig)] = t.key
            self.patched[t.key] = []
            if t.cls is not None:
                setattr(owner, t.attr, classmethod(traced) if is_cm else traced)
                self.patched[t.key].append(f"{t.module}.{t.cls}.{t.attr}")
                continue
            for mod in _package_modules():
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, name, traced)
                        self.patched[t.key].append(f"{mod.__name__}.{name}")

    def unpatched_bindings(self):
        """Names in the package that still refer to an unwrapped target.

        Scans module globals and class dictionaries; an empty list means every
        call path into a target goes through its wrapper.
        """
        left = []
        for mod in _package_modules():
            for name, val in vars(mod).items():
                if id(val) in self._originals:
                    left.append(f"{mod.__name__}.{name}")
                if isinstance(val, type) and val.__module__ == mod.__name__:
                    for attr, member in vars(val).items():
                        func = getattr(member, "__func__", member)
                        if id(func) in self._originals:
                            left.append(f"{mod.__name__}.{name}.{attr}")
        return left

    def span(self, key):
        calls, total, self_s = self.spans.get(key, (0, 0.0, 0.0))
        return {"calls": calls, "total_s": total, "self_s": self_s}


def _union_length(intervals):
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


# -- hooks: counters measured where the work happens ---------------------------

def _to_grid_hook(tr, args, kwargs, result):
    if tr.inside("fourier.compose_shifted_grid"):
        tr.count("fourier.to_grid.in_compose")


def _fft_hook(key):
    def hook(tr, args, kwargs, result):
        a = args[0] if args else kwargs["a"]
        tr.count(f"{key}.bytes", int(getattr(a, "nbytes", 0)))
    return hook


def _from_grid_hook(tr, args, kwargs, result):
    tr.record_max("fourier.from_grid.max_projection_residual",
                  float(getattr(result, "projection_residual", 0.0)))
    if tr.inside("duffing.to_hamiltonian_spec"):
        tr.count("duffing.to_hamiltonian_spec.from_grid_calls")


def _evaluate_hook(tr, args, kwargs, result):
    import numpy as np
    field, theta = args[0], (args[1] if len(args) > 1 else kwargs["theta"])
    points = np.atleast_2d(np.asarray(theta)).shape[0]
    tr.count("fourier.evaluate.point_modes", points * field.n_modes)


def _fixed_point_hook(tr, args, kwargs, result):
    tr.count("normal_form.solve_fixed_point.iters", int(result[1]))


def _margins_hook(tr, args, kwargs, result):
    import numpy as np
    from kamforge import diophantine
    omegas = args[0] if args else kwargs["omegas"]
    p = args[1] if len(args) > 1 else kwargs["p"]
    rows = np.atleast_2d(np.asarray(omegas)).shape[0]
    n_k = diophantine._k_enumeration(p.d, p.K_check).shape[0]
    tr.count("diophantine.frequencies", rows)
    tr.count("diophantine.mode_checks", rows * n_k)


def _integrate_hook(tr, args, kwargs, result):
    names = ("net", "x0", "v0", "t0", "T", "h")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    tr.count("duffing.integrate.steps", int(round(float(bound["T"]) / float(bound["h"]))))


TARGETS = [
    Target("cli", "run_pipeline", "kamforge.cli", "run_pipeline"),
    Target("cli", "run_verify", "kamforge.cli", "run_verify"),
    Target("cli", "run_dc_scan", "kamforge.cli", "run_dc_scan"),
    Target("cli", "save_torus", "kamforge.cli", "save_torus"),
    Target("cli", "load_torus", "kamforge.cli", "load_torus"),
    Target("util", "write_csv", "kamforge.util", "write_csv"),
    Target("fourier", "compose_shifted_grid", "kamforge.fourier", "compose_shifted_grid"),
    Target("fourier", "to_grid", "kamforge.fourier", "to_grid", cls="FourierField",
           hook=_to_grid_hook),
    Target("fourier", "from_grid", "kamforge.fourier", "from_grid", cls="FourierField",
           hook=_from_grid_hook),
    Target("fourier", "evaluate", "kamforge.fourier", "evaluate", cls="FourierField",
           hook=_evaluate_hook),
    Target("fourier", "ifftn", "kamforge.util", "ifftn", hook=_fft_hook("fourier.ifftn")),
    Target("fourier", "fftn", "kamforge.util", "fftn", hook=_fft_hook("fourier.fftn")),
    Target("normal_form", "run_normal_form", "kamforge.normal_form", "run_normal_form"),
    Target("normal_form", "push_forward", "kamforge.normal_form", "push_forward"),
    Target("normal_form", "solve_fixed_point", "kamforge.normal_form", "solve_fixed_point",
           hook=_fixed_point_hook),
    Target("normal_form", "solve_homological", "kamforge.normal_form", "solve_homological"),
    Target("normal_form", "time_average_transform", "kamforge.normal_form",
           "time_average_transform"),
    Target("normal_form", "twist_compose", "kamforge.normal_form", "twist_compose"),
    Target("normal_form", "locate_expansion_point", "kamforge.normal_form",
           "locate_expansion_point"),
    Target("normal_form", "taylor_split", "kamforge.normal_form", "taylor_split"),
    Target("kam", "kam_iterate", "kamforge.kam", "kam_iterate"),
    Target("kam", "kam_step", "kamforge.kam", "kam_step"),
    Target("kam", "cubic_contraction", "kamforge.kam", "cubic_contraction"),
    Target("kam", "extract_torus", "kamforge.kam", "extract_torus"),
    Target("kam", "invariance_defect", "kamforge.kam", "invariance_defect"),
    Target("diophantine", "find_dc_point", "kamforge.diophantine", "find_dc_point"),
    Target("diophantine", "excluded_measure", "kamforge.diophantine", "excluded_measure"),
    Target("diophantine", "_margins_for", "kamforge.diophantine", "_margins_for",
           hook=_margins_hook),
    Target("duffing", "to_hamiltonian_spec", "kamforge.duffing", "to_hamiltonian_spec"),
    Target("duffing", "integrate", "kamforge.duffing", "integrate", hook=_integrate_hook),
    Target("duffing", "potential_gradient", "kamforge.duffing", "potential_gradient",
           cls="DuffingNetwork"),
    Target("oscillator", "ActionAngleMap", "kamforge.oscillator", "__init__",
           cls="ActionAngleMap"),
    Target("oscillator", "from_cartesian", "kamforge.oscillator", "from_cartesian",
           cls="ActionAngleMap"),
]

LAYERS = ("fourier", "normal_form", "kam", "diophantine", "duffing", "oscillator", "cli",
          "util")


def layer_metrics(tr, wall_s, artifact_bytes):
    """Per-layer metric values (name -> (value, unit)) from one traced run."""
    out = {}

    def span(key, *fields):
        s = tr.span(key)
        for f in fields:
            out[f"{key}.{f}"] = (s[f], "count" if f == "calls" else "s")

    c = tr.counters
    span("fourier.compose_shifted_grid", "calls", "total_s", "self_s")
    calls = tr.span("fourier.compose_shifted_grid")["calls"]
    out["fourier.compose_shifted_grid.to_grid_per_call"] = (
        c.get("fourier.to_grid.in_compose", 0) / calls if calls else 0.0, "count/call")
    span("fourier.to_grid", "calls", "self_s")
    for k in ("fourier.ifftn", "fourier.fftn"):
        span(k, "calls", "self_s")
        out[f"{k}.bytes"] = (c.get(f"{k}.bytes", 0), "B")
    span("fourier.from_grid", "calls", "self_s")
    out["fourier.from_grid.max_projection_residual"] = (
        tr.maxima.get("fourier.from_grid.max_projection_residual", 0.0), "ratio")
    span("fourier.evaluate", "calls", "self_s")
    out["fourier.evaluate.point_modes"] = (c.get("fourier.evaluate.point_modes", 0), "count")

    span("normal_form.run_normal_form", "total_s")
    span("normal_form.push_forward", "calls", "self_s")
    span("normal_form.solve_fixed_point", "calls", "total_s")
    out["normal_form.solve_fixed_point.iters"] = (
        c.get("normal_form.solve_fixed_point.iters", 0), "count")
    span("normal_form.solve_homological", "calls", "self_s")
    for k in ("time_average_transform", "twist_compose", "locate_expansion_point",
              "taylor_split"):
        span(f"normal_form.{k}", "total_s")

    span("kam.kam_iterate", "total_s")
    span("kam.kam_step", "calls", "self_s", "total_s")
    for k in ("cubic_contraction", "extract_torus", "invariance_defect"):
        span(f"kam.{k}", "total_s")

    span("diophantine.find_dc_point", "self_s")
    span("diophantine.excluded_measure", "total_s")
    span("diophantine._margins_for", "calls", "self_s")
    out["diophantine.frequencies"] = (c.get("diophantine.frequencies", 0), "count")
    out["diophantine.mode_checks"] = (c.get("diophantine.mode_checks", 0), "count")

    span("duffing.to_hamiltonian_spec", "total_s")
    out["duffing.to_hamiltonian_spec.from_grid_calls"] = (
        c.get("duffing.to_hamiltonian_spec.from_grid_calls", 0), "count")
    span("duffing.integrate", "calls", "self_s")
    steps = c.get("duffing.integrate.steps", 0)
    out["duffing.integrate.steps"] = (steps, "count")
    span("duffing.potential_gradient", "calls", "self_s")
    pg = tr.span("duffing.potential_gradient")
    out["duffing.potential_gradient.us_per_call"] = (
        1e6 * pg["self_s"] / pg["calls"] if pg["calls"] else 0.0, "us")
    out["duffing.us_per_step"] = (
        1e6 * tr.span("duffing.integrate")["total_s"] / steps if steps else 0.0, "us")

    span("oscillator.ActionAngleMap", "total_s")
    span("oscillator.from_cartesian", "total_s")

    span("cli.save_torus", "total_s")
    span("util.write_csv", "total_s")
    out["cli.artifact_bytes"] = (artifact_bytes, "B")

    # self time summed per layer, and the shares the workloads were chosen for
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (
            sum(v[2] for k, v in tr.spans.items() if k.split(".")[0] == layer), "s")
    compose_fft = sum(tr.span(k)["self_s"] for k in (
        "fourier.compose_shifted_grid", "fourier.to_grid", "fourier.ifftn", "fourier.fftn"))
    out["share.compose_fft_self"] = (compose_fft / wall_s, "ratio")
    out["share.kam_step_total"] = (tr.span("kam.kam_step")["total_s"] / wall_s, "ratio")
    out["share.potential_gradient_self"] = (
        tr.span("duffing.potential_gradient")["self_s"] / wall_s, "ratio")
    return out
