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
from ..core.runner import RunConfig, check_integer
from ..core.store import config_fingerprint
from ..core.workload import resolve_middleware, resolve_workload


class SpecError(ValueError):
    """A submitted spec that cannot be accepted (HTTP 400)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _reject_unknown(data: dict, fields: Sequence[str]) -> None:
    """A key outside ``fields`` is a typo or a field this daemon does
    not have; dropping it would run a campaign other than the one asked
    for, so it bounces."""
    unknown = sorted(set(data) - set(fields))
    _require(not unknown,
             f"unknown field(s) {', '.join(map(repr, unknown))} "
             f"(known: {', '.join(fields)})")


class CampaignJobSpec:
    """One injection campaign, as submitted over the wire.

    The fields are declared once, as ``__slots__`` in constructor
    order, and the JSON codec is built from them.  Names resolve and
    values are checked as at every boundary, so a spec echoes canonical
    names."""

    kind = "campaign"
    __slots__ = ("workload", "middleware", "watchd_version", "mechanism",
                 "functions", "base_seed", "trace_level")

    def __init__(self, workload: str, middleware="none",
                 watchd_version: Optional[int] = None,
                 mechanism: str = "parameter",
                 functions: Optional[Sequence[str]] = None,
                 base_seed: int = 2000,
                 trace_level: str = "off"):
        self.workload = resolve_workload(workload)
        self.middleware, self.watchd_version = resolve_middleware(
            middleware, watchd_version)
        # A family name (the CLI's --fault-family) is accepted too.
        self.mechanism = fault_family(str(mechanism)).mechanism
        _require(functions is None
                 or (isinstance(functions, list)
                     and all(isinstance(name, str) for name in functions)),
                 "functions must be a list of strings")
        _require(functions is None or len(functions) > 0,
                 "functions must be a non-empty list, or omitted for "
                 "the full space")
        self.functions = None if functions is None else list(functions)
        self.base_seed = base_seed
        self.trace_level = trace_level
        # RunConfig checks the run values, and names the level.
        self.trace_level = self.run_config().trace_level.label

    # ------------------------------------------------------------------
    def run_config(self) -> RunConfig:
        return RunConfig(base_seed=self.base_seed,
                         watchd_version=self.watchd_version,
                         trace_level=self.trace_level)

    def fingerprint(self) -> str:
        """The store fingerprint these runs share with the CLI's."""
        return config_fingerprint(self.workload, self.middleware,
                                  self.run_config(), self.mechanism)

    def campaign(self, store=None, backend=None, progress=None):
        """The :class:`~repro.core.campaign.Campaign` this spec names."""
        from ..core.campaign import Campaign

        return Campaign(self.workload, self.middleware,
                        functions=self.functions,
                        config=self.run_config(),
                        mechanism=self.mechanism,
                        store=store, backend=backend, progress=progress)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        data = {"kind": self.kind}
        data.update((name, getattr(self, name)) for name in self.__slots__)
        data["middleware"] = self.middleware.value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignJobSpec":
        _reject_unknown(data, ("kind", *cls.__slots__))
        _require("workload" in data, "workload is required")
        return cls(**{name: data[name] for name in cls.__slots__
                      if name in data})

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
    _FIELDS = ("kind", "spec", "reps", "sweep", "base_seed",
               "watchd_version")

    def __init__(self, load, reps: int = 1,
                 sweep: Optional[Sequence[int]] = None,
                 base_seed: int = 2000,
                 watchd_version: int = 3):
        check_integer("reps", reps, minimum=1)
        if sweep is not None:
            _require(isinstance(sweep, list) and len(sweep) > 0,
                     "sweep must be a non-empty list of client counts")
            sweep = [check_integer("sweep entry", count, minimum=1)
                     for count in sweep]
        self.load = load
        self.reps = reps
        self.sweep = sweep
        self.base_seed = base_seed
        self.watchd_version = watchd_version
        self.run_config()  # RunConfig checks the run values

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
        _reject_unknown(data, cls._FIELDS)
        inner = dict(data["spec"])
        try:
            inner["workload"] = resolve_workload(inner["workload"])
            inner["middleware"], watchd_version = resolve_middleware(
                inner["middleware"], data.get("watchd_version"))
            load = LoadSpec.from_dict(inner)
            if load.fault is not None:
                # The check ``repro load --fault`` makes: arming needs
                # the export (and parameter) in the workload's registry.
                workload = WORKLOADS[load.workload]
                load.fault.injector(workload.target_role, workload.registry)
        except (KeyError, ValueError, TypeError) as exc:
            raise SpecError(f"bad load spec: {exc}") from None
        return cls(load=load,
                   reps=data.get("reps", 1),
                   sweep=data.get("sweep"),
                   base_seed=data.get("base_seed", 2000),
                   watchd_version=watchd_version)

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
    spec_cls = _KINDS.get(kind) if isinstance(kind, str) else None
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
