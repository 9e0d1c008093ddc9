"""Result analysis: statistics, the paper's tables and figures,
failure coverage, and the availability-modelling extension."""

from .availability import (
    AvailabilityEstimate,
    compare_availability,
    estimate_availability,
)
from .coverage import CoverageSummary, build_coverage
from .fault_families import (
    FAMILY_ORDER,
    FamilyComparison,
    build_family_comparison,
    build_family_comparison_from_runs,
    family_of,
    split_runs_by_family,
)
from .figures import (
    Figure2,
    Figure3,
    Figure4,
    Figure5,
    OutcomeDistribution,
    build_figure2,
    build_figure3,
    build_figure4,
    build_figure5,
    combine_apache,
    response_times_by_class,
)
from .render import render_bar, render_stacked_distribution, render_table
from .stats import MeanCI, mean, mean_ci95, proportion, sample_std, t_critical_95
from .tables import (
    PAPER_TABLE1,
    Table1,
    Table2,
    build_table1,
    build_table2,
    common_fault_keys,
)

__all__ = [
    "MeanCI",
    "mean",
    "mean_ci95",
    "sample_std",
    "t_critical_95",
    "proportion",
    "Table1",
    "Table2",
    "build_table1",
    "build_table2",
    "common_fault_keys",
    "PAPER_TABLE1",
    "Figure2",
    "Figure3",
    "Figure4",
    "Figure5",
    "OutcomeDistribution",
    "build_figure2",
    "build_figure3",
    "build_figure4",
    "build_figure5",
    "combine_apache",
    "response_times_by_class",
    "CoverageSummary",
    "build_coverage",
    "FAMILY_ORDER",
    "FamilyComparison",
    "build_family_comparison",
    "build_family_comparison_from_runs",
    "family_of",
    "split_runs_by_family",
    "AvailabilityEstimate",
    "estimate_availability",
    "compare_availability",
    "render_table",
    "render_bar",
    "render_stacked_distribution",
]
