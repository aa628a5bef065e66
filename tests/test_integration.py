"""End-to-end integration tests across the whole stack."""

import time

import numpy as np
import pytest

from repro import (
    IncompleteDatabase,
    MissingSemantics,
    RangeQuery,
    WorkloadGenerator,
    generate_census_like,
    generate_uniform_table,
    load_table,
    reorder,
    save_table,
)
from repro.bitmap.range_encoded import RangeEncodedBitmapIndex
from repro.dataset.table import concat_tables
from repro.query.ground_truth import evaluate
from repro.serve import EpochManager, SnapshotWriter
from repro.shard import ShardedDatabase
from repro.storage.serialize import (
    load_bitmap_index_file,
    load_vafile_file,
    save_bitmap_index,
    save_vafile,
)
from repro.vafile.vafile import VAFile


class TestFullLifecycle:
    """Generate -> persist -> reorder -> index -> save -> load -> query,
    then append -> delete -> compact through the snapshot writer, checking
    the oracle at every step."""

    def test_lifecycle(self, tmp_path, rng):
        # 1. Generate and persist a dataset.
        table = generate_uniform_table(
            2000, {"a": 15, "b": 30}, {"a": 0.3, "b": 0.1}, seed=121
        )
        save_table(table, tmp_path / "data.npz")
        table = load_table(tmp_path / "data.npz")

        # 2. Reorder for compression; keep the id mapping.
        reordered, perm = reorder(table, "gray")

        # 3. Build, save, and reload a bitmap index over the reordered rows.
        index = RangeEncodedBitmapIndex(reordered, codec="wah")
        save_bitmap_index(index, tmp_path / "bre.rpix")
        index = load_bitmap_index_file(tmp_path / "bre.rpix")

        # 4. Queries on the loaded index translate back to original ids.
        query = RangeQuery.from_bounds({"a": (3, 9), "b": (5, 25)})
        for semantics in MissingSemantics:
            expect = set(evaluate(table, query, semantics).tolist())
            got = set(perm[index.execute_ids(query, semantics)].tolist())
            assert got == expect

        # 5. Serve the reordered rows; append a chunk and delete some rows
        #    in new snapshots, checking every one against the oracle.
        served = ShardedDatabase(reordered, num_shards=2)
        served.create_index("bre", "bre", codec="wah")
        manager = EpochManager(served)
        try:
            writer = SnapshotWriter(manager)
            chunk = generate_uniform_table(
                500, {"a": 15, "b": 30}, {"a": 0.2, "b": 0.2}, seed=122
            )
            writer.append(chunk)
            mirror = concat_tables(reordered, chunk)
            with manager.pin() as pin:
                victims = pin.database.execute(query).record_ids[:20]
            writer.delete(victims)
            mirror = mirror.take(
                np.setdiff1d(np.arange(mirror.num_records), victims)
            )
            # 6. Compact, and re-verify every bound.
            for mutate in (lambda: None, writer.compact):
                mutate()
                with manager.pin() as pin:
                    for semantics in MissingSemantics:
                        assert np.array_equal(
                            pin.database.execute(query, semantics).record_ids,
                            evaluate(mirror, query, semantics),
                        )
        finally:
            manager.close()


class TestAllAccessMethodsOnCensusData:
    def test_agreement_on_skewed_data(self, rng):
        table = generate_census_like(num_records=3000, seed=5)
        db = IncompleteDatabase(table)
        # Pick three mid-cardinality attributes for the shared key space.
        names = [
            spec.name for spec in table.schema if 5 <= spec.cardinality <= 40
        ][:3]
        for kind in ("bee", "bre", "bie", "vafile", "mosaic"):
            db.create_index(kind, kind, names)
        workload = WorkloadGenerator(table, seed=6)
        for query in workload.workload(names, 0.05, 10):
            for semantics in MissingSemantics:
                results = {
                    kind: db.query(query, semantics, using=kind).record_ids.tolist()
                    for kind in ("bee", "bre", "bie", "vafile", "mosaic")
                }
                oracle = evaluate(table, query, semantics).tolist()
                for kind, ids in results.items():
                    assert ids == oracle, (kind, semantics)


class TestVaFilePersistenceIntegration:
    def test_vafile_saved_and_requeried(self, tmp_path):
        table = generate_uniform_table(
            1500, {"x": 12, "y": 80}, {"x": 0.4, "y": 0.0}, seed=123
        )
        va = VAFile(table, bits={"x": 2, "y": 4}, quantization="vaplus")
        save_vafile(va, tmp_path / "va.rpix")
        loaded = load_vafile_file(tmp_path / "va.rpix", table)
        query = RangeQuery.from_bounds({"x": (4, 9), "y": (10, 60)})
        for semantics in MissingSemantics:
            expect = evaluate(table, query, semantics)
            assert np.array_equal(loaded.execute_ids(query, semantics), expect)


class TestPlannerEndToEnd:
    def test_planner_picks_cheaper_index_per_query(self):
        # Measured unit costs, not injected ones, checked against the clock.
        # On a wide range BEE ORs ~70 bitmaps against BRE's two; with every
        # stored bitmap decoded once, that runs ~1.6x slower (about 40
        # against 60-100 us on a 2-core host), so BRE must win.  On the
        # point query the two are within ~10 % and the measured model may
        # pick either; only a pick that runs over 2x slower than the
        # fastest forced index fails here.
        table = generate_uniform_table(
            4000, {"a": 100}, {"a": 0.1}, seed=124
        )
        db = IncompleteDatabase(table)
        db.create_index("bee", "bee")
        db.create_index("bre", "bre")
        semantics = MissingSemantics.NOT_MATCH
        point = RangeQuery.from_bounds({"a": (42, 42)})
        wide = RangeQuery.from_bounds({"a": (10, 80)})
        assert db.choose_index(wide, semantics).name == "bre"
        for query in (point, wide):
            chosen = db.choose_index(query, semantics).name
            runs = {"bee": [], "bre": []}
            for _ in range(25):
                for name, times in runs.items():
                    start = time.perf_counter_ns()
                    db.query(query, semantics, using=name)
                    times.append(time.perf_counter_ns() - start)
            fastest = min(min(times) for times in runs.values())
            assert min(runs[chosen]) <= 2 * fastest
            # And the chosen plan executes correctly.
            report = db.query(query, semantics)
            assert report.index_name == chosen
            expect = evaluate(table, query, semantics)
            assert np.array_equal(np.sort(report.record_ids), expect)
