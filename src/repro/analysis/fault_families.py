"""Figure-2-style outcome distributions split by fault family.

The paper's Figure 2 normalizes outcomes over the *activated* runs of
one parameter-corruption campaign.  With the sustained fault families
(:mod:`repro.core.windowed`) the same workload can be measured under
several fault spaces; this module lines their distributions up so the
families are directly comparable — how a server that degrades
gracefully under corrupted arguments behaves when the disk fills up or
its allocator starts failing is exactly the comparison the
resource-exhaustion extension exists to make.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..core.campaign import WorkloadSetResult
from ..core.faults import FAMILY_SPECS, fault_family
from .figures import OutcomeDistribution

# Canonical presentation order (the paper's mechanism first).
FAMILY_ORDER = tuple(spec.family for spec in FAMILY_SPECS)


def family_of(fault) -> Optional[str]:
    """The family name a fault spec belongs to (None for profile)."""
    return None if fault is None else fault.family


class FamilyComparison:
    """Per-family outcome distributions for one workload set label."""

    def __init__(self, label: str,
                 distributions: Mapping[str, OutcomeDistribution]):
        self.label = label
        self.distributions = dict(distributions)

    def get(self, family: str) -> OutcomeDistribution:
        return self.distributions[family]

    @property
    def families(self) -> list[str]:
        return [family for family in FAMILY_ORDER
                if family in self.distributions]

    def render(self) -> str:
        lines = [f"Outcome distributions by fault family — {self.label}"]
        for family in self.families:
            lines.append(self.distributions[family].render())
        return "\n".join(lines)


def build_family_comparison(
        label: str,
        results: Mapping[str, WorkloadSetResult]) -> FamilyComparison:
    """``results`` maps family name → its workload-set result."""
    distributions = {
        family: OutcomeDistribution.from_result(
            fault_family(family).label, result)
        for family, result in results.items()
    }
    return FamilyComparison(label, distributions)


def split_runs_by_family(runs: Sequence) -> dict[str, list]:
    """Partition a mixed run list (e.g. a shared store's contents) by
    fault family, dropping profile runs."""
    grouped: dict[str, list] = {}
    for run in runs:
        family = family_of(run.fault)
        if family is None:
            continue
        grouped.setdefault(family, []).append(run)
    return grouped


def build_family_comparison_from_runs(label: str,
                                      runs: Sequence) -> FamilyComparison:
    """Family comparison over a mixed run list; only activated runs
    count, mirroring Figure 2's normalization."""
    distributions = {}
    for family, group in split_runs_by_family(runs).items():
        activated = [r for r in group if r.counts_for_statistics]
        distributions[family] = OutcomeDistribution.from_runs(
            fault_family(family).label, activated)
    return FamilyComparison(label, distributions)
