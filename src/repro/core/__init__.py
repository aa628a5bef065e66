"""Engine facade, planner, statistics and index advisor."""

from repro.core.advisor import Recommendation, WorkloadProfile, recommend
from repro.core.engine import AttachedIndex, IncompleteDatabase, QueryReport
from repro.core.planner import (
    CostEstimate,
    estimate_cost,
    rank_plans,
)
from repro.core.statistics import AttributeStatistics, TableStatistics

__all__ = [
    "AttachedIndex",
    "AttributeStatistics",
    "CostEstimate",
    "IncompleteDatabase",
    "QueryReport",
    "Recommendation",
    "TableStatistics",
    "WorkloadProfile",
    "estimate_cost",
    "rank_plans",
    "recommend",
]
