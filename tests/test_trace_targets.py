"""Every function the benchmark traces exists and is wrapped on every binding.

``perfbench/spans.py`` replaces each binding of its ``TARGETS`` with a timing
wrapper.  A deleted or renamed target, or a module-level alias that keeps the
unwrapped function (``_to_grid = FourierField.to_grid``), would otherwise only
show up as a failed check in a traced benchmark run.
"""

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
