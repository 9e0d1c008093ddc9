"""Load workload specifications.

A :class:`LoadSpec` describes one *loaded* configuration: N simulated
client processes driving a workload's server (optionally under
injection), with either **closed-loop** arrivals (a fixed population of
clients, each issuing ``iterations`` request cycles separated by think
time — the classic benchmark client model) or **open-loop** arrivals
(clients arrive at a fixed rate and issue one cycle each, regardless of
how the earlier arrivals are faring — the model that exposes queueing
collapse, cf. "open versus closed" workload-generator folklore).

Everything in the spec participates in the store fingerprint, so load
results checkpoint into the same resumable JSONL stores as injection
runs.
"""

from __future__ import annotations

import enum

from ..core.runner import check_integer, check_number
from ..core.store import (
    config_fingerprint,
    fault_from_dict,
    fault_key_str,
    fault_to_dict,
)
from ..core.workload import MiddlewareKind
from ..sim import derive_seed

DEFAULT_THINK_TIME = 5.0
DEFAULT_STAGGER = 0.25
DEFAULT_ARRIVAL_RATE = 2.0


class ArrivalMode(enum.Enum):
    """How client processes enter the system."""

    CLOSED = "closed"
    OPEN = "open"

    @classmethod
    def parse(cls, value) -> "ArrivalMode":
        if isinstance(value, cls):
            return value
        return cls(str(value).lower())


class LoadSpec:
    """One multi-client load configuration.

    The fields are declared once, as ``__slots__`` in constructor
    order; the JSON codec, :meth:`replace` and the fingerprint's shape
    fields are built from that declaration.
    """

    __slots__ = ("workload", "middleware", "clients", "mode", "iterations",
                 "think_time", "stagger", "arrival_rate", "fault")
    # Fields outside the client population's shape: the run identity
    # (in config_fingerprint) and the fault (in the store key).
    _IDENTITY = ("workload", "middleware", "fault")

    def __init__(self, workload: str,
                 middleware: MiddlewareKind = MiddlewareKind.NONE,
                 clients: int = 10,
                 mode=ArrivalMode.CLOSED,
                 iterations: int = 1,
                 think_time: float = DEFAULT_THINK_TIME,
                 stagger: float = DEFAULT_STAGGER,
                 arrival_rate: float = DEFAULT_ARRIVAL_RATE,
                 fault=None):
        check_integer("clients", clients, minimum=1)
        check_integer("iterations", iterations, minimum=1)
        check_number("think_time", think_time)
        check_number("stagger", stagger)
        check_number("arrival_rate", arrival_rate, above=0)
        if think_time < 0 or stagger < 0:
            raise ValueError("think_time and stagger must be >= 0")
        self.workload = workload
        self.middleware = MiddlewareKind(middleware)
        self.clients = clients
        self.mode = ArrivalMode.parse(mode)
        self.iterations = iterations
        self.think_time = think_time
        self.stagger = stagger
        self.arrival_rate = arrival_rate
        self.fault = fault

    # ------------------------------------------------------------------
    def arrival_time(self, client_index: int) -> float:
        """Virtual seconds (after server-up) until this client starts."""
        if self.mode is ArrivalMode.OPEN:
            return client_index / self.arrival_rate
        return client_index * self.stagger

    def cycles_for(self, client_index: int) -> int:
        """Open-loop arrivals issue exactly one cycle each."""
        return 1 if self.mode is ArrivalMode.OPEN else self.iterations

    def run_horizon(self, client_timeout: float) -> float:
        """Upper bound on the virtual time the client phase may take.

        Generous on purpose: virtual seconds are nearly free when no
        events are scheduled in them, and a load run must never cut off
        a slow-but-progressing client population.
        """
        last_arrival = self.arrival_time(self.clients - 1)
        worst_cycles = 1 if self.mode is ArrivalMode.OPEN else self.iterations
        return last_arrival + worst_cycles * client_timeout

    # ------------------------------------------------------------------
    # Identity: seeds, store keys, fingerprints
    # ------------------------------------------------------------------
    def seed(self, base_seed: int, watchd_version: int, rep: int) -> int:
        return derive_seed(
            base_seed, "load", self.workload, self.middleware.value,
            watchd_version, self.clients, self.mode.value, self.iterations,
            self.think_time, self.stagger, self.arrival_rate,
            fault_key_str(self.fault), rep)

    def key(self, rep: int) -> str:
        """Store key for one repetition of this spec."""
        return f"load:{fault_key_str(self.fault)}:rep{rep}"

    def fingerprint(self, config) -> str:
        """Store fingerprint: every parameter shaping a load run."""
        shape = {name: value for name, value in self.to_dict().items()
                 if name not in self._IDENTITY}
        return config_fingerprint(self.workload, self.middleware, config,
                                  "load", shape)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        data = {name: getattr(self, name) for name in self.__slots__}
        data.update(middleware=self.middleware.value, mode=self.mode.value,
                    fault=fault_to_dict(self.fault))
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "LoadSpec":
        """Decode :meth:`to_dict`; a key outside the declared fields is
        a ValueError rather than silently dropped."""
        unknown = sorted(set(data) - set(cls.__slots__))
        if unknown:
            raise ValueError(
                f"unknown load spec field(s) {', '.join(map(repr, unknown))}"
                f" (known: {', '.join(cls.__slots__)})")
        fields = {name: data[name] for name in cls.__slots__}
        fields["fault"] = fault_from_dict(fields["fault"])
        return cls(**fields)

    def replace(self, **changes) -> "LoadSpec":
        """A copy with some fields swapped (sweeps vary ``clients``)."""
        data = {name: getattr(self, name) for name in self.__slots__}
        data.update(changes)
        return LoadSpec(**data)

    def __repr__(self) -> str:
        fault = f" fault={fault_key_str(self.fault)}" if self.fault else ""
        return (f"<LoadSpec {self.workload}/{self.middleware.value} "
                f"{self.clients} clients {self.mode.value}"
                f" x{self.iterations}{fault}>")
