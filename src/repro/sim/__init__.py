"""Deterministic discrete-event simulation kernel.

Public surface:

- :class:`Engine` — virtual clock + event queue.
- :class:`collector_paused` — the run-scoped garbage-collector pause.
- :class:`SimProcess` — generator-based processes.
- Commands processes may yield: :class:`Sleep`, :class:`Wait`,
  :class:`WaitAny`, :class:`Hang`.
- :class:`SimEvent`, :class:`Signal`, :class:`FifoQueue` — waitables.
- :data:`TIMED_OUT` — sentinel returned by timed-out waits.
- :class:`RandomStreams` — named seeded randomness.
"""

from .engine import (
    Engine,
    ScheduleInPastError,
    SimulationError,
    Timer,
    collector_paused,
)
from .primitives import (
    TIMED_OUT,
    Command,
    FifoQueue,
    Hang,
    Signal,
    SimEvent,
    Sleep,
    Wait,
    WaitAny,
)
from .process import Killed, ProcState, SimProcess, run_to_completion
from .rng import RandomStreams, derive_seed

__all__ = [
    "Engine",
    "Timer",
    "collector_paused",
    "SimulationError",
    "ScheduleInPastError",
    "Command",
    "Sleep",
    "Wait",
    "WaitAny",
    "Hang",
    "SimEvent",
    "Signal",
    "FifoQueue",
    "TIMED_OUT",
    "SimProcess",
    "ProcState",
    "Killed",
    "run_to_completion",
    "RandomStreams",
    "derive_seed",
]
