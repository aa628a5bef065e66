"""Cost-based index selection for the engine.

The paper's cost story is simple and explicit: bitmap query cost is the
number of bitvectors touched times their (compressed) size; VA-file cost is
one approximation scan per query dimension.  This module turns that into a
tiny optimizer: every covering index gets a cost estimate in the same
cost-model units the experiments report (32-bit words / approximations
processed), and the engine picks the cheapest.

Estimates deliberately reuse each index's own introspection
(``bitmaps_for_interval``, size reports), so the planner stays honest as
encodings evolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.bitmap.base import BitmapIndex
from repro.errors import PlanningError
from repro.observability import record as _obs_record
from repro.query.model import MissingSemantics, RangeQuery
from repro.vafile.vafile import VAFile


@dataclass(frozen=True, slots=True)
class CostEstimate:
    """A planner estimate for serving one query with one index."""

    index_name: str
    kind: str
    #: Estimated cost-model items processed (lower is better).
    items: float
    #: Human-readable explanation of the estimate.
    detail: str


def _covering_hint(available: Sequence[str] | None) -> str:
    """Render the covering-index part of an uncovered-attribute error."""
    if available is None:
        return ""
    if not available:
        return "; no attached index covers it"
    return f"; covering indexes available: {sorted(available)}"


def estimate_bitmap_cost(
    index: BitmapIndex,
    query: RangeQuery,
    semantics: MissingSemantics,
    available: Sequence[str] | None = None,
) -> tuple[float, str]:
    """Estimated words processed by a bitmap index for ``query``.

    Bitvectors touched per interval come from the encoding's own
    ``bitmaps_for_interval``; each touched bitvector is costed at the
    attribute's average stored bitmap size (compressed words).
    ``available`` names the attached indexes that *do* cover the query, so
    an uncovered-attribute :class:`PlanningError` can tell the caller where
    to send the query instead.
    """
    report = {r.attribute: r for r in index.size_report().per_attribute}
    total_words = 0.0
    total_bitmaps = 0
    for name, interval in query.items():
        attr_report = report.get(name)
        if attr_report is None:
            raise PlanningError(
                f"cannot cost a {index.encoding} bitmap plan: the index does "
                f"not cover query attribute {name!r} "
                f"(covers {sorted(report)})"
                f"{_covering_hint(available)}"
            )
        touched = index.bitmaps_for_interval(name, interval, semantics)
        if attr_report.num_bitmaps:
            avg_words = attr_report.compressed_bytes / 4 / attr_report.num_bitmaps
        else:
            avg_words = 0.0
        total_words += touched * avg_words
        total_bitmaps += touched
    # The final AND chain costs roughly one result-sized pass per dimension.
    result_words = (index.num_records + 30) // 31
    total_words += result_words * max(0, query.dimensionality - 1)
    return total_words, (
        f"{total_bitmaps} bitvectors @ avg compressed size, "
        f"+{max(0, query.dimensionality - 1)} result-width ANDs"
    )


def estimate_vafile_cost(
    vafile: VAFile,
    query: RangeQuery,
    semantics: MissingSemantics,
    available: Sequence[str] | None = None,
) -> tuple[float, str]:
    """Estimated approximations processed by a VA-file for ``query``."""
    uncovered = set(query.attributes) - set(vafile.attributes)
    if uncovered:
        raise PlanningError(
            f"cannot cost a VA-file plan: the file does not cover query "
            f"attributes {sorted(uncovered)} "
            f"(covers {sorted(vafile.attributes)})"
            f"{_covering_hint(available)}"
        )
    items = float(vafile.num_records * query.dimensionality)
    return items, (
        f"{vafile.num_records} approximations x {query.dimensionality} dims"
    )


def semantics_for_costing(semantics) -> MissingSemantics:
    """The single semantics to cost a plan under.

    A both-mode execution computes its pair in one pass whose work is
    essentially the possible bound's (the certain bound is one missing-
    bitmap adjustment away), so :data:`~repro.query.model.BOTH` is costed
    as ``IS_MATCH`` — the superset bound — and one plan serves both
    bounds.  Single-semantics requests cost as themselves.  Either way
    that is the widest bound the request asks for.
    """
    return semantics.bounds[-1]


def estimate_cost(
    attached,
    query: RangeQuery,
    semantics: MissingSemantics,
    available: Sequence[str] | None = None,
) -> CostEstimate | None:
    """Cost estimate for one attached index, or None when not costable."""
    index = attached.index
    if isinstance(index, BitmapIndex):
        items, detail = estimate_bitmap_cost(index, query, semantics, available)
    elif isinstance(index, VAFile):
        items, detail = estimate_vafile_cost(index, query, semantics, available)
    else:
        return None
    return CostEstimate(
        index_name=attached.name, kind=attached.kind, items=items, detail=detail
    )


def rank_plans(
    candidates,
    query: RangeQuery,
    semantics: MissingSemantics,
) -> list[CostEstimate]:
    """Cost estimates for all costable covering indexes, cheapest first.

    Candidates that do not cover every query attribute are skipped (an
    index that cannot serve the query has no plan to rank), so callers may
    pass an unfiltered index list without tripping the cost model's
    coverage check.
    """
    covering = []
    for attached in candidates:
        covers = getattr(attached, "covers", None)
        if covers is not None and not covers(query):
            continue
        covering.append(attached)
    available = [getattr(c, "name", "?") for c in covering]
    estimates = []
    for attached in covering:
        estimate = estimate_cost(attached, query, semantics, available)
        if estimate is not None:
            estimates.append(estimate)
    estimates.sort(key=lambda e: e.items)
    _obs_record("planner.rankings")
    _obs_record("planner.plans_costed", len(estimates))
    return estimates


# -- batch planning ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BatchGroup:
    """One batch executor work unit: a run of queries on one access path.

    ``positions`` index into the submitted workload, in execution order;
    results are reassembled into submission order afterwards, so ordering
    here is purely a cache-locality decision.
    """

    #: Attached-index name serving the group; None means sequential scan.
    index_name: str | None
    #: Workload positions, ordered for sub-result reuse.
    positions: tuple[int, ...]


def reuse_sort_key(query: RangeQuery) -> tuple:
    """Canonical interval signature used to cluster cache-sharing queries.

    Queries with identical signatures share every per-attribute sub-result;
    sorting a group by this key makes them adjacent, so under a starved
    cache budget a memoized interval is reused before eviction pressure
    from unrelated queries pushes it out.  Sharing ties (a common prefix of
    ``(attribute, lo, hi)`` triples) land nearby for the same reason.
    """
    return tuple(
        sorted((name, iv.lo, iv.hi) for name, iv in query.items())
    )


def plan_batch(
    queries: list[RangeQuery],
    chosen_names: list[str | None],
) -> list[BatchGroup]:
    """Group a workload by chosen index and order each group for reuse.

    ``chosen_names[i]`` is the index the engine picked for ``queries[i]``
    (None for the scan fallback).  Groups come back in first-appearance
    order; within a group, positions are ordered by
    :func:`reuse_sort_key` with submission order as the tiebreak, keeping
    the plan deterministic.
    """
    if len(queries) != len(chosen_names):
        raise PlanningError(
            f"got {len(queries)} queries but {len(chosen_names)} plans"
        )
    by_index: dict[str | None, list[int]] = {}
    for position, name in enumerate(chosen_names):
        by_index.setdefault(name, []).append(position)
    groups = []
    for name, positions in by_index.items():
        positions.sort(key=lambda p: (reuse_sort_key(queries[p]), p))
        groups.append(BatchGroup(index_name=name, positions=tuple(positions)))
    _obs_record("planner.batches")
    _obs_record("planner.batch_groups", len(groups))
    return groups


# -- shard planning ----------------------------------------------------------


def combine_shard_estimates(
    per_shard: Sequence[Sequence[CostEstimate]],
) -> list[CostEstimate]:
    """Merge per-shard plan rankings into whole-database estimates.

    Every shard of a :class:`~repro.shard.ShardedDatabase` carries the same
    index names over its own row slice; the cost of serving a query with
    index ``x`` on the whole database is the *sum* of shard ``x`` costs
    (shards execute independently and their work does not overlap).  Only
    index names costable on **every** shard are merged — an index that some
    shard cannot cost has no whole-database plan.  Cheapest first, like
    :func:`rank_plans`; a single partition's ranking comes back as it is.
    """
    if not per_shard:
        return []
    if len(per_shard) == 1:
        return list(per_shard[0])
    sums: dict[str, CostEstimate] = {}
    counts: dict[str, int] = {}
    for plans in per_shard:
        for plan in plans:
            counts[plan.index_name] = counts.get(plan.index_name, 0) + 1
            seen = sums.get(plan.index_name)
            if seen is None:
                sums[plan.index_name] = plan
            else:
                sums[plan.index_name] = CostEstimate(
                    index_name=plan.index_name,
                    kind=plan.kind,
                    items=seen.items + plan.items,
                    detail=seen.detail,
                )
    num_shards = len(per_shard)
    merged = [
        CostEstimate(
            index_name=name,
            kind=estimate.kind,
            items=estimate.items,
            detail=f"sum over {num_shards} shards",
        )
        for name, estimate in sums.items()
        if counts[name] == num_shards
    ]
    merged.sort(key=lambda e: e.items)
    _obs_record("planner.shard_rankings")
    _obs_record("planner.shard_plans_merged", len(merged))
    return merged


#: Kind -> rank when no covering index is costable, mirroring the paper's
#: conclusions: BRE typically fastest for ranges, then BEE, then the
#: VA-file, then the prior-work baselines.
_PREFERENCE = {kind: rank for rank, kind in enumerate((
    "bre", "bie", "bee", "bsl", "vafile", "mosaic", "rtree-sentinel",
    "gridfile", "bitstring",
))}


def choose_plan(covering, rankings: Sequence[Sequence[CostEstimate]]):
    """The one plan chooser: ``(chosen, merged ranking)`` for any partitioning.

    ``covering`` is one partition's covering indexes (every partition holds
    the same set), ``rankings`` one :func:`rank_plans` list per partition.
    Cheapest merged plan, else the static preference order, else None (scan).
    """
    merged = combine_shard_estimates(rankings)
    if merged:
        cheapest = merged[0].index_name
        return next(ix for ix in covering if ix.name == cheapest), merged
    chosen = min(
        covering,
        key=lambda ix: _PREFERENCE.get(ix.kind, len(_PREFERENCE)),
        default=None,
    )
    return chosen, merged
