"""Which modules may carry baselined lint findings.

CI runs ``repro lint src examples``, which fails on any finding the
baseline does not cover.  Pinning the baseline to the modules below
makes every other module baseline-free: a new finding anywhere else
fails CI instead of being absorbed by a regenerated baseline.
"""

from pathlib import Path

from repro.lint import baseline_entry_path, load_baseline

ROOT = Path(__file__).resolve().parents[2]

# The simulated servers (and the example plugin workload) model real
# programs' bugs and deliberate quirks: dead server-model parameters,
# unchecked returns, leaked handles, corruption escapes.
BASELINED_MODULES = {
    "src/repro/servers/apache.py",
    "src/repro/servers/iis.py",
    "src/repro/servers/sqlserver.py",
    "src/repro/servers/base.py",
    "src/repro/posix/apache_linux.py",
    "examples/custom_workload.py",
}


def test_only_the_server_models_carry_baselined_findings():
    baseline = load_baseline(str(ROOT / "lint-baseline.json"))
    paths = {baseline_entry_path(key) for key in baseline}
    assert paths <= BASELINED_MODULES, sorted(paths - BASELINED_MODULES)
