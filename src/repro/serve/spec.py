"""The wire schema for submitted jobs.

A submission is a JSON object whose ``kind`` selects the spec flavour:

``{"kind": "campaign", ...}``
    One injection campaign — the parameters ``repro run`` reads from
    the DTS main configuration file, inline::

        {"kind": "campaign", "workload": "IIS", "middleware": "watchd",
         "watchd_version": 3, "mechanism": "parameter",
         "functions": ["CreateFileA", "ReadFile"],
         "base_seed": 2000, "trace_level": "off"}

``{"kind": "load", ...}``
    One multi-client load grid — a :class:`~repro.load.spec.LoadSpec`
    plus the repetition/sweep axes ``repro load`` adds::

        {"kind": "load", "spec": {...LoadSpec.to_dict()...},
         "reps": 3, "sweep": [10, 50], "base_seed": 2000}

Every field that shapes run behaviour participates in the same store
fingerprints the CLI uses, so daemon-executed runs and CLI-executed
runs are interchangeable cache entries.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.faults import fault_family
from ..core.runner import RunConfig
from ..core.store import config_fingerprint
from ..core.workload import MiddlewareKind
from ..trace import TRACE_LEVEL_NAMES as TRACE_LEVELS


class SpecError(ValueError):
    """A submitted spec that cannot be accepted (HTTP 400)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _integer(name: str, value, minimum: Optional[int] = None) -> int:
    """A JSON integer field: booleans, floats and strings bounce rather
    than pass as ``int`` (``True``) or round (``int(2.7)``)."""
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{name} must be an integer, got {value!r}")
    _require(minimum is None or value >= minimum,
             f"{name} must be >= {minimum}, got {value}")
    return value


def _number(name: str, value) -> None:
    """A JSON number field: booleans and strings bounce rather than pass
    as 1/0 (with a fingerprint of their own) or fail unnamed."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{name} must be a number, got {value!r}")


def _watchd_version(value) -> int:
    _require(_integer("watchd_version", value) in (1, 2, 3),
             f"watchd_version must be 1, 2 or 3, got {value}")
    return value


def _reject_unknown(data: dict, spec) -> None:
    """A key outside ``spec.to_dict()`` is a typo or a field this daemon
    does not have; dropping it would run a campaign other than the one
    asked for, so it bounces."""
    fields = spec.to_dict()
    unknown = sorted(set(data) - set(fields))
    _require(not unknown,
             f"unknown field(s) {', '.join(map(repr, unknown))} "
             f"(known: {', '.join(fields)})")


class CampaignJobSpec:
    """One injection campaign, as submitted over the wire."""

    kind = "campaign"

    def __init__(self, workload: str,
                 middleware: MiddlewareKind = MiddlewareKind.NONE,
                 watchd_version: int = 3,
                 mechanism: str = "parameter",
                 functions: Optional[Sequence[str]] = None,
                 base_seed: int = 2000,
                 trace_level: str = "off"):
        _require(isinstance(workload, str) and bool(workload),
                 "workload must be a non-empty string")
        try:
            # A family name (the CLI's --fault-family) is accepted too.
            mechanism = fault_family(str(mechanism)).mechanism
        except ValueError as exc:
            raise SpecError(str(exc)) from None
        _watchd_version(watchd_version)
        _require(trace_level in TRACE_LEVELS,
                 f"unknown trace_level {trace_level!r}")
        _integer("base_seed", base_seed)
        try:
            self.middleware = MiddlewareKind(middleware)
        except ValueError:
            raise SpecError(f"unknown middleware {middleware!r}") from None
        self.workload = workload
        self.watchd_version = watchd_version
        self.mechanism = mechanism
        _require(functions is None
                 or (isinstance(functions, list)
                     and all(isinstance(name, str) for name in functions)),
                 "functions must be a list of strings")
        self.functions = None if functions is None else list(functions)
        _require(self.functions is None or len(self.functions) > 0,
                 "functions must be a non-empty list, or omitted for "
                 "the full space")
        self.base_seed = base_seed
        self.trace_level = trace_level

    # ------------------------------------------------------------------
    def run_config(self) -> RunConfig:
        return RunConfig(base_seed=self.base_seed,
                         watchd_version=self.watchd_version,
                         trace_level=self.trace_level)

    def fingerprint(self) -> str:
        """The store fingerprint these runs share with the CLI's."""
        return config_fingerprint(self.workload, self.middleware,
                                  self.run_config(), self.mechanism)

    def campaign(self, store=None, backend=None, progress=None,
                 on_stage=None):
        """The :class:`~repro.core.campaign.Campaign` this spec names.

        Raises :class:`SpecError` for an unregistered workload — the
        one validation that needs the registry, deferred so specs can
        round-trip without importing the world.
        """
        from ..core.campaign import Campaign
        from ..core.workload import WORKLOADS

        if self.workload not in WORKLOADS:
            raise SpecError(
                f"unknown workload {self.workload!r} "
                f"(known: {', '.join(sorted(WORKLOADS))})")
        return Campaign(self.workload, self.middleware,
                        functions=self.functions,
                        config=self.run_config(),
                        mechanism=self.mechanism,
                        store=store, backend=backend, progress=progress,
                        on_stage=on_stage)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "workload": self.workload,
            "middleware": self.middleware.value,
            "watchd_version": self.watchd_version,
            "mechanism": self.mechanism,
            "functions": self.functions,
            "base_seed": self.base_seed,
            "trace_level": self.trace_level,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignJobSpec":
        spec = cls(
            workload=data.get("workload", ""),
            middleware=data.get("middleware", "none"),
            watchd_version=data.get("watchd_version", 3),
            mechanism=data.get("mechanism", "parameter"),
            functions=data.get("functions"),
            base_seed=data.get("base_seed", 2000),
            trace_level=data.get("trace_level", "off"),
        )
        _reject_unknown(data, spec)
        return spec

    def __eq__(self, other) -> bool:
        return (isinstance(other, CampaignJobSpec)
                and self.to_dict() == other.to_dict())

    def __repr__(self) -> str:
        return (f"<CampaignJobSpec {self.workload}/"
                f"{self.middleware.value} {self.mechanism}>")


class LoadJobSpec:
    """One load grid (spec × sweep × reps), as submitted over the
    wire."""

    kind = "load"

    def __init__(self, load, reps: int = 1,
                 sweep: Optional[Sequence[int]] = None,
                 base_seed: int = 2000,
                 watchd_version: int = 3):
        _integer("reps", reps, minimum=1)
        _watchd_version(watchd_version)
        _integer("base_seed", base_seed)
        if sweep is not None:
            _require(isinstance(sweep, list) and len(sweep) > 0,
                     "sweep must be a non-empty list of client counts")
            sweep = [_integer("sweep entry", count, minimum=1)
                     for count in sweep]
        self.load = load
        self.reps = reps
        self.sweep = sweep
        self.base_seed = base_seed
        self.watchd_version = watchd_version

    # ------------------------------------------------------------------
    def run_config(self) -> RunConfig:
        return RunConfig(base_seed=self.base_seed,
                         watchd_version=self.watchd_version)

    def tasks(self):
        from ..load import plan_load_tasks

        return plan_load_tasks(self.load, reps=self.reps,
                               sweep=self.sweep)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "spec": self.load.to_dict(),
            "reps": self.reps,
            "sweep": self.sweep,
            "base_seed": self.base_seed,
            "watchd_version": self.watchd_version,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LoadJobSpec":
        from ..core.workload import WORKLOADS
        from ..load import LoadSpec

        _require(isinstance(data.get("spec"), dict),
                 "load submissions need a 'spec' object "
                 "(LoadSpec.to_dict shape)")
        for name in ("clients", "iterations"):
            if name in data["spec"]:
                _integer(f"spec.{name}", data["spec"][name])
        for name in ("think_time", "stagger", "arrival_rate"):
            if name in data["spec"]:
                _number(f"spec.{name}", data["spec"][name])
        try:
            load = LoadSpec.from_dict(data["spec"])
            workload = WORKLOADS.get(load.workload)
            if load.fault is not None and workload is not None:
                # The check ``repro load --fault`` makes: arming needs
                # the export (and parameter) in the workload's registry.
                load.fault.injector(workload.target_role, workload.registry)
        except (KeyError, ValueError, TypeError) as exc:
            raise SpecError(f"bad load spec: {exc}") from None
        spec = cls(load=load,
                   reps=data.get("reps", 1),
                   sweep=data.get("sweep"),
                   base_seed=data.get("base_seed", 2000),
                   watchd_version=data.get("watchd_version", 3))
        _reject_unknown(data, spec)
        return spec

    def __eq__(self, other) -> bool:
        return (isinstance(other, LoadJobSpec)
                and self.to_dict() == other.to_dict())

    def __repr__(self) -> str:
        return f"<LoadJobSpec {self.load!r} reps={self.reps}>"


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
_KINDS = {CampaignJobSpec.kind: CampaignJobSpec,
          LoadJobSpec.kind: LoadJobSpec}


def spec_from_dict(data) -> "CampaignJobSpec | LoadJobSpec":
    """Decode one submission; raises :class:`SpecError` on anything
    that should bounce with HTTP 400."""
    if not isinstance(data, dict):
        raise SpecError("submission must be a JSON object")
    kind = data.get("kind", "campaign")
    spec_cls = _KINDS.get(kind)
    if spec_cls is None:
        raise SpecError(f"unknown kind {kind!r} "
                        f"(want one of {', '.join(sorted(_KINDS))})")
    try:
        return spec_cls.from_dict(data)
    except SpecError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise SpecError(str(exc)) from None


def spec_to_dict(spec) -> dict:
    """Encode a spec of either kind (the round-trip inverse of
    :func:`spec_from_dict`)."""
    return spec.to_dict()
