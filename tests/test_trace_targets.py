"""Every function the benchmark traces exists and is wrapped on every binding.

``perfbench/spans.py`` replaces each binding of its ``TARGETS`` with a timing
wrapper.  A deleted or renamed target, or a module-level alias that keeps the
unwrapped function (``_to_grid = FourierField.to_grid``), would otherwise only
show up as a failed check in a traced benchmark run.  Likewise an FFT that
bypasses ``util.fftn``/``util.ifftn`` would escape the trace's FFT counters,
and a gradient of a field whose grids are transformed on their own, not read
off its ``ShiftGrids`` family, would bring back a second path to the same grids.
A run must load no scipy module at all, whose import time and memory it
would otherwise pay, and a pipeline call must import no module of its own,
which the benchmark would time as part of the call.  The last test keeps the
number of settable values in the package from growing.
"""

import ast
import glob
import json
import os
import subprocess
import sys

from test_cli import REDUCED

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import kamforge.cli  # imports every package module
import spans
tracer = spans.Tracer()
tracer.install(spans.TARGETS)
left = tracer.unpatched_bindings()
assert left == [], f"unwrapped bindings: {{left}}"
"""


def test_benchmark_trace_targets_are_all_wrapped():
    script = SCRIPT.format(src=os.path.join(ROOT, "src"),
                           bench=os.path.join(ROOT, "perfbench"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


FFT_MODULES = ("numpy.fft", "scipy.fft", "scipy.fftpack")
ALIASES = {"np": "numpy"}


def fft_uses(tree):
    """Dotted names of FFT modules that a module imports or reaches by attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{ALIASES.get(node.value.id, node.value.id)}.{node.attr}"]
        else:
            continue
        found += [n for n in names if n.startswith(FFT_MODULES)]
    return found


def test_only_util_reaches_an_fft_module():
    offenders = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "kamforge", "*.py"))):
        if os.path.basename(path) == "util.py":
            continue
        with open(path) as fh:
            uses = fft_uses(ast.parse(fh.read()))
        if uses:
            offenders[os.path.basename(path)] = uses
    assert offenders == {}
    # the walk does see both spellings
    assert fft_uses(ast.parse("import scipy.fft\nx = np.fft.ifft(a)")) == ["scipy.fft",
                                                                            "numpy.fft"]


GRADIENTS = ("grad_angle", "grad_action")


def gradient_grid_uses(tree):
    """Lines that place a field gradient's grids apart from its generating function's family.

    That is ``f.grad_angle().to_grid(...)``, or a ``grad_angle()`` or
    ``grad_action()`` call inside the arguments of ``ShiftGrids`` or
    ``compose_shifted_grid``, except on a ``ShiftGrids`` family or a name
    bound to one, whose views read the family's own grids.
    """
    def is_call(node, names):
        f = node.func if isinstance(node, ast.Call) else None
        return getattr(f, "attr", getattr(f, "id", None)) in names

    families = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and is_call(node.value, ("ShiftGrids",))
                for t in node.targets if isinstance(t, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if is_call(node, ("to_grid",)) and is_call(node.func.value, GRADIENTS):
            found.append(node.lineno)
        elif is_call(node, ("ShiftGrids", "compose_shifted_grid")):
            for arg in node.args + [k.value for k in node.keywords]:
                found += [n.lineno for n in ast.walk(arg) if is_call(n, GRADIENTS)
                          and getattr(n.func.value, "id", None) not in families
                          and not is_call(n.func.value, ("ShiftGrids",))]
    return sorted(set(found))


def test_gradient_grids_come_from_one_family():
    offenders = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "kamforge", "*.py"))):
        with open(path) as fh:
            uses = gradient_grid_uses(ast.parse(fh.read()))
        if uses:
            offenders[os.path.basename(path)] = uses
    assert offenders == {}
    # the walk sees each spelling, and lets a family's views through
    sample = ("W = S.grad_angle().to_grid(nshape)\n"
              "compose_shifted_grid(ShiftGrids(S.grad_action(), nshape), dtheta=V)\n"
              "compose_shifted_grid(S.grad_angle(), nshape)\n"
              "grids = ShiftGrids(S, nshape)\n"
              "compose_shifted_grid(grids.grad_angle(), dtheta=V)\n"
              "compose_shifted_grid(ShiftGrids(S, nshape).grad_action())\n")
    assert gradient_grid_uses(ast.parse(sample)) == [1, 2, 3]


IMPORT_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
import kamforge.cli as cli
def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(scipy_loaded()))
cfg = cli.load_config(None, json.loads({overrides!r}))
before = set(sys.modules)
cli.run_pipeline(cfg, out_dir={out!r})
print(json.dumps(sorted(set(sys.modules) - before)))
print(json.dumps(scipy_loaded()))
"""


def test_runs_load_no_scipy_and_import_nothing_inside_the_pipeline(tmp_path):
    script = IMPORT_SCRIPT.format(src=os.path.join(ROOT, "src"), overrides=json.dumps(REDUCED),
                                  out=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    after_import, inside_pipeline, after_pipeline = map(json.loads, proc.stdout.splitlines())
    assert after_import == []
    # a module first loaded inside the call is paid for in the timed region
    assert inside_pipeline == []
    assert after_pipeline == []


# Keyword defaults plus defaulted dataclass fields in the package: each is a
# value a caller can set.  Lower the ceiling when a change removes some.
SETTABLE_CEILING = 41


def is_dataclass(cls):
    for dec in cls.decorator_list:
        node = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(node, "attr", getattr(node, "id", None)) == "dataclass":
            return True
    return False


def settable_values(tree):
    n = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            n += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and is_dataclass(node):
            n += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return n


def test_settable_values_do_not_grow():
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "kamforge", "*.py")):
        with open(path) as fh:
            total += settable_values(ast.parse(fh.read()))
    assert total <= SETTABLE_CEILING
    # the count sees keyword defaults, keyword-only defaults and dataclass fields
    sample = ("def f(a, b=1, *, c=2, e):\n    pass\n"
              "@dataclass\nclass P:\n    x: int\n    y: int = 3\n")
    assert settable_values(ast.parse(sample)) == 3
