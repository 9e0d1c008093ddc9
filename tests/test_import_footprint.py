"""The run path imports nothing heavy.

Every CLI command, pool worker and ``repro serve`` daemon starts by
importing :mod:`repro`; a scientific-stack or analyzer import there is
paid on every start-up even though no run uses it.  A fresh interpreter
is the only honest check: this test process may have loaded anything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import repro, repro.cli
print(json.dumps(sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("scipy", "numpy")
    or name == "repro.lint" or name.startswith("repro.lint."))))
"""


def test_import_repro_loads_no_scientific_stack_and_no_linter():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert json.loads(done.stdout) == []
