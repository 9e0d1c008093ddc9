"""Total-robustness sweep of the kernel32 fault space.

The injector may hand ANY export ANY 32-bit words.  Whatever happens
next must be a *simulated* consequence — an error return, a structured
exception unwinding the process, a clean exit, a hang — never a Python
error escaping the harness (which the process manager surfaces as
``HarnessError``).  This sweeps every injectable export with the three
corruption patterns applied to *all* parameters at once, which is
strictly harsher than any single-parameter campaign fault.
"""

import pytest

from repro.nt import CallHook, Machine
from repro.nt.kernel32.runtime import IMPLEMENTATIONS
from repro.nt.kernel32.signatures import injectable_signatures
from repro.nt.process_manager import HarnessError

PATTERNS = {
    "zeros": lambda raws: tuple(0 for _ in raws),
    "ones": lambda raws: tuple(0xFFFFFFFF for _ in raws),
    "flip": lambda raws: tuple(r ^ 0xFFFFFFFF for r in raws),
}


class ForceAllArgs(CallHook):
    """Interception hook replacing every raw argument of every call."""

    def __init__(self, transform):
        self.transform = transform

    def on_call(self, process, sig, invocation, raw_args):
        return self.transform(raw_args)


def _call_with_pattern(sig, pattern_name) -> None:
    machine = Machine(seed=1)
    machine.fs.write_file("c:\\seed.txt", b"seed data")
    machine.interception.add_hook(ForceAllArgs(PATTERNS[pattern_name]))

    class Prog:
        image_name = "fuzz.exe"

        def main(self, ctx):
            arguments = [0] * sig.param_count
            yield from getattr(ctx.k32, sig.name)(*arguments)

    machine.processes.spawn(Prog(), role="fuzz")
    try:
        machine.engine.run(until=60.0)
    except HarnessError as bug:
        pytest.fail(f"{sig.name} with all-{pattern_name} args leaked a "
                    f"Python error: {bug}")


@pytest.mark.parametrize("pattern_name", sorted(PATTERNS))
def test_every_injectable_export_survives_total_corruption(pattern_name):
    for sig in injectable_signatures():
        _call_with_pattern(sig, pattern_name)


def test_every_implemented_zero_param_export_callable():
    machine = Machine(seed=1)
    results = []

    class Prog:
        image_name = "fuzz.exe"

        def main(self, ctx):
            from repro.nt.kernel32.signatures import REGISTRY

            for name, sig in REGISTRY.items():
                if sig.param_count == 0 and name in IMPLEMENTATIONS:
                    results.append((name, (yield from
                                           getattr(ctx.k32, name)())))

    machine.processes.spawn(Prog(), role="fuzz")
    try:
        machine.engine.run(until=60.0)
    except HarnessError as bug:
        pytest.fail(f"zero-parameter export leaked a Python error: {bug}")
    assert results
    assert all(isinstance(value, int) for _name, value in results)
