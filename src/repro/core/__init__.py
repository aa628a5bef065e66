"""Engine facade, sub-result cache, and index advisor."""

from repro.core.advisor import Recommendation, WorkloadProfile, recommend
from repro.core.cache import DEFAULT_CACHE_BYTES, CacheStats, SubResultCache
from repro.core.engine import AttachedIndex, IncompleteDatabase, QueryReport
from repro.core.planner import (
    CostEstimate,
    combine_shard_estimates,
    estimate_cost,
    rank_plans,
)
from repro.core.statistics import AttributeStatistics, TableStatistics

__all__ = [
    "AttachedIndex",
    "AttributeStatistics",
    "CacheStats",
    "CostEstimate",
    "DEFAULT_CACHE_BYTES",
    "IncompleteDatabase",
    "QueryReport",
    "Recommendation",
    "SubResultCache",
    "TableStatistics",
    "WorkloadProfile",
    "combine_shard_estimates",
    "estimate_cost",
    "rank_plans",
    "recommend",
]
