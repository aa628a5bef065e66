"""Figure 4: index size versus cardinality and percent missing data.

Fig. 4(a) sweeps attribute cardinality at 10% missing; Fig. 4(b) sweeps
percent missing at cardinality 50.  For each cell we build single-attribute
indexes over a uniform column and report their on-disk sizes in bytes:
equality and range encodings both raw and WAH-compressed, and the VA-file.

Paper shapes to expect:

* BEE grows linearly with cardinality but WAH recovers most of it at high
  cardinality (sparse value bitmaps).
* BRE "does not benefit from WAH compression" (its cumulative bitmaps are
  ~50% dense).
* The VA-file grows only with ``ceil(lg(C+1))`` and is by far the smallest;
  its size is independent of the missing rate.
* BEE-WAH *shrinks* as the missing rate grows (value bitmaps get sparser).
"""

from __future__ import annotations

import numpy as np

from repro.bitmap.equality import EqualityEncodedBitmapIndex
from repro.bitmap.range_encoded import RangeEncodedBitmapIndex
from repro.core.engine import IncompleteDatabase
from repro.dataset.synthetic import generate_uniform_table
from repro.experiments.harness import ExperimentResult, time_batch
from repro.query.model import RangeQuery
from repro.vafile.vafile import VAFile

_COLUMNS = ["bee_raw", "bee_wah", "bre_raw", "bre_wah", "vafile"]


def _sizes_for(num_records: int, cardinality: int, missing_fraction: float,
               seed: int) -> tuple[int, int, int, int, int]:
    table = generate_uniform_table(
        num_records, {"a": cardinality}, {"a": missing_fraction}, seed=seed
    )
    bee_raw = EqualityEncodedBitmapIndex(table, codec="none").nbytes()
    bee_wah = EqualityEncodedBitmapIndex(table, codec="wah").nbytes()
    bre_raw = RangeEncodedBitmapIndex(table, codec="none").nbytes()
    bre_wah = RangeEncodedBitmapIndex(table, codec="wah").nbytes()
    vafile = VAFile(table).nbytes()
    return bee_raw, bee_wah, bre_raw, bre_wah, vafile


def run_fig4a(
    num_records: int = 100_000,
    cardinalities: tuple[int, ...] = (2, 5, 10, 20, 50, 100),
    missing_pct: int = 10,
    seed: int = 4,
) -> ExperimentResult:
    """Index size versus attribute cardinality (10% missing)."""
    result = ExperimentResult(
        title=(
            f"Fig. 4(a) - index size (bytes) vs cardinality "
            f"({missing_pct}% missing, n={num_records})"
        ),
        x_label="cardinality",
        columns=_COLUMNS,
    )
    for cardinality in cardinalities:
        result.add_row(
            cardinality,
            *_sizes_for(num_records, cardinality, missing_pct / 100.0,
                        seed + cardinality),
        )
    result.notes.append(
        "expect: BEE linear in C (WAH recovers it), BRE barely compressed, "
        "VA-file smallest and ~log(C)"
    )
    return result


def run_fig4b(
    num_records: int = 100_000,
    cardinality: int = 50,
    missing_pcts: tuple[int, ...] = (10, 20, 30, 40, 50),
    seed: int = 40,
) -> ExperimentResult:
    """Index size versus percent missing data (cardinality 50)."""
    result = ExperimentResult(
        title=(
            f"Fig. 4(b) - index size (bytes) vs % missing "
            f"(cardinality {cardinality}, n={num_records})"
        ),
        x_label="% missing",
        columns=_COLUMNS,
    )
    for pct in missing_pcts:
        result.add_row(
            pct,
            *_sizes_for(num_records, cardinality, pct / 100.0, seed + pct),
        )
    result.notes.append(
        "expect: BEE-WAH shrinks as missing grows; BRE and VA-file flat; "
        "VA-file smallest"
    )
    return result


def run_fig4_batch(
    num_records: int = 100_000,
    cardinalities: tuple[int, ...] = (10, 50, 100),
    missing_pct: int = 10,
    num_queries: int = 200,
    pool_size: int = 8,
    repeats: int = 3,
    seed: int = 44,
) -> ExperimentResult:
    """Batch executor speedup on a Fig. 4-style workload.

    Same single-attribute uniform tables as Fig. 4(a), but queried: the
    workload draws ``num_queries`` range queries from a pool of
    ``pool_size`` distinct intervals, so per-attribute intervals repeat.
    Each cell reports best-of-``repeats`` wall-clock for one-by-one
    ``execute`` versus ``execute_batch`` on a BRE index, and the speedup.
    A batch shares VA-file scans only, so on bitmaps it costs what the
    queries cost one by one (there is no bitmap sub-result cache: a
    cached interval cost more than recomputing it from decoded bitmaps).
    """
    result = ExperimentResult(
        title=(
            f"Fig. 4 batch - execute_batch vs sequential execute "
            f"({missing_pct}% missing, {num_queries} queries from a pool of "
            f"{pool_size}, best of {repeats}, n={num_records})"
        ),
        x_label="cardinality",
        columns=["sequential_ms", "batch_ms", "speedup"],
    )
    for cardinality in cardinalities:
        table = generate_uniform_table(
            num_records, {"a": cardinality}, {"a": missing_pct / 100.0},
            seed=seed + cardinality,
        )
        db = IncompleteDatabase(table)
        db.create_index("bre", "bre")
        rng = np.random.default_rng(seed + cardinality)
        pool = []
        for _ in range(pool_size):
            lo = int(rng.integers(1, cardinality + 1))
            hi = int(rng.integers(lo, cardinality + 1))
            pool.append(RangeQuery.from_bounds({"a": (lo, hi)}))
        queries = [pool[i] for i in rng.integers(0, pool_size, num_queries)]
        sequential_ms = time_batch(
            lambda: [db.execute(q) for q in queries], repeats
        )
        batch_ms = time_batch(lambda: db.execute_batch(queries), repeats)
        result.add_row(
            cardinality,
            sequential_ms,
            batch_ms,
            sequential_ms / batch_ms if batch_ms else float("inf"),
        )
    result.notes.append("expect: speedup ~1.0 (bitmap batches share nothing)")
    return result
