"""Every function the benchmark traces exists and is wrapped on every binding.

``perfbench/spans.py`` replaces each binding of its ``TARGETS`` with a timing
wrapper.  A deleted or renamed target, or a module-level alias that keeps the
unwrapped function (``_to_grid = FourierField.to_grid``), would otherwise only
show up as a failed check in a traced benchmark run.  Likewise an FFT that
bypasses ``util.fftn``/``util.ifftn`` would escape the trace's FFT counters
and the ``KAMFORGE_THREADS`` worker setting.  Importing the package must not
load the heavy scipy subpackages, whose import time and memory every run
would otherwise pay.  The last test keeps the number of settable values in
the package from growing.
"""

import ast
import glob
import os
import subprocess
import sys

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


HEAVY_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg",
               "scipy.spatial")


def test_package_import_leaves_heavy_scipy_unloaded():
    script = (f"import sys\nsys.path.insert(0, {os.path.join(ROOT, 'src')!r})\n"
              "import kamforge.cli\n"
              f"print(sorted(m for m in {HEAVY_SCIPY!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Keyword defaults plus defaulted dataclass fields in the package: each is a
# value a caller can set.  Lower the ceiling when a change removes some.
SETTABLE_CEILING = 42


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
