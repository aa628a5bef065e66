"""MetricsRegistry, NullRegistry, and the module-level record/observe API."""

from __future__ import annotations

import threading

import pytest

from repro.observability import (
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    enabled,
    get_registry,
    observe,
    record,
    set_registry,
    suppressed,
    use_registry,
)


class TestRegistry:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        c = reg.counter("a.b")
        c.inc()
        c.inc(4)
        assert reg.counter("a.b") is c
        assert c.value == 5

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(10.0)
        g.dec(3.0)
        g.inc()
        assert g.value == 8.0

    def test_histogram_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (1, 2, 4, 100, 1000):
            h.observe(v)
        assert h.count == 5
        assert h.min == 1 and h.max == 1000
        assert h.mean == pytest.approx(1107 / 5)
        # p50 falls in the bucket holding 4 (bit_length 3 -> bound 2**3 - 1).
        assert h.quantile(0.5) == 7.0

    def test_histogram_timer_records(self):
        reg = MetricsRegistry()
        with reg.timer("t"):
            pass
        snap = reg.snapshot().histograms["t"]
        assert snap.count == 1
        assert snap.total >= 0

    def test_snapshot_is_sorted_and_detached(self):
        reg = MetricsRegistry()
        reg.counter("z").inc()
        reg.counter("a").inc(2)
        snap = reg.snapshot()
        assert list(snap.counters) == ["a", "z"]
        reg.counter("a").inc(100)
        assert snap.counters["a"] == 2

    def test_reset_drops_instruments(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.reset()
        assert not reg.snapshot()


class TestNullRegistry:
    def test_null_registry_adds_no_counters(self):
        reg = NullRegistry()
        reg.counter("a").inc(100)
        reg.gauge("b").set(5)
        reg.histogram("c").observe(42)
        assert not reg.snapshot()
        assert reg.snapshot().counters == {}

    def test_default_registry_is_null(self):
        assert get_registry() is NULL_REGISTRY
        record("anything", 10)  # must be a harmless no-op
        observe("anything.ns", 10)
        assert not NULL_REGISTRY.snapshot()

    def test_enabled_is_false_by_default(self):
        assert not enabled()


class TestInstallation:
    def test_use_registry_installs_and_restores(self):
        before = get_registry()
        with use_registry() as reg:
            assert get_registry() is reg
            assert enabled()
            record("hits", 3)
        assert get_registry() is before
        assert reg.snapshot().counters == {"hits": 3}

    def test_set_registry_returns_previous(self):
        reg = MetricsRegistry()
        prev = set_registry(reg)
        try:
            assert get_registry() is reg
        finally:
            assert set_registry(prev) is reg

    def test_nested_use_registry(self):
        with use_registry() as outer:
            record("n")
            with use_registry() as inner:
                record("n")
            record("n")
        assert outer.snapshot().counters == {"n": 2}
        assert inner.snapshot().counters == {"n": 1}


class TestSuppression:
    def test_suppressed_discards_records(self):
        with use_registry() as reg:
            record("kept")
            with suppressed():
                assert not enabled()
                record("dropped")
                observe("dropped.ns", 1)
            record("kept")
        assert reg.snapshot().counters == {"kept": 2}
        assert "dropped.ns" not in reg.snapshot().histograms

    def test_suppressed_nests(self):
        with use_registry() as reg:
            with suppressed():
                with suppressed():
                    record("x")
                record("x")
            record("x")
        assert reg.snapshot().counters == {"x": 1}

    def test_suppression_stays_in_its_own_thread(self):
        # A planner probe holding suppressed() open in one thread must not
        # drop a concurrent query's counters in another.
        inside, release = threading.Event(), threading.Event()

        def probe():
            with suppressed():
                record("probe")
                inside.set()
                release.wait(10)
                record("probe")

        with use_registry() as reg:
            thread = threading.Thread(target=probe)
            thread.start()
            try:
                assert inside.wait(10)
                worker = threading.Thread(target=record, args=("x",))
                worker.start()
                worker.join(10)
                assert not worker.is_alive()
            finally:
                release.set()
                thread.join(10)
        assert not thread.is_alive()
        assert reg.snapshot().counters == {"x": 1}


class TestHistogramBuckets:
    def test_zero_and_negative_land_in_bucket_zero(self):
        h = Histogram("edge")
        h.observe(0)
        h.observe(-5)
        assert h.buckets[0] == 2
        assert h.quantile(0.5) == 0.0

    def test_quantile_empty(self):
        assert Histogram("e").quantile(0.99) == 0.0
        assert Histogram("e").quantile(0.5) == 0.0

    def test_power_of_two_edges(self):
        # A power of two is the first value of its bucket: bit_length(8)=4,
        # so 8 lands in the [8, 15] bucket and quantiles report its upper
        # bound, while 7 (bit_length 3) stays in [4, 7].
        h8 = Histogram("p2")
        h8.observe(8)
        assert h8.quantile(0.5) == 15.0
        assert h8.quantile(0.99) == 15.0
        h7 = Histogram("p2m1")
        h7.observe(7)
        assert h7.quantile(0.5) == 7.0
        assert h7.quantile(0.99) == 7.0

    def test_single_observation_dominates_all_quantiles(self):
        h = Histogram("one")
        h.observe(1)
        assert h.count == 1
        assert h.min == h.max == 1
        for q in (0.5, 0.99, 1.0):
            assert h.quantile(q) == 1.0

    def test_p50_p99_split_across_buckets(self):
        h = Histogram("split")
        for _ in range(99):
            h.observe(4)       # [4, 7] bucket
        h.observe(1024)        # [1024, 2047] bucket
        assert h.quantile(0.5) == 7.0
        assert h.quantile(0.99) == 7.0    # rank 99 of 100 is still a 4
        assert h.quantile(1.0) == 2047.0


class TestThreadSafety:
    """The lost-update satellite: ``+=`` is three bytecodes; locks make the
    registry's totals exact under the thread-pool fan-outs."""

    THREADS = 8
    ITERATIONS = 2_500

    def _hammer(self, fn):
        barrier = threading.Barrier(self.THREADS)

        def run():
            barrier.wait()  # maximize interleaving
            for _ in range(self.ITERATIONS):
                fn()

        threads = [threading.Thread(target=run) for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_counter_increments_are_not_lost(self):
        reg = MetricsRegistry()
        self._hammer(lambda: reg.counter("shared").inc())
        assert reg.counter("shared").value == self.THREADS * self.ITERATIONS

    def test_module_record_with_creation_race(self):
        # Every thread records to the *same new* names, so instrument
        # creation itself races too; double-checked creation must hand
        # every thread the same instrument.
        with use_registry() as reg:
            self._hammer(lambda: record("raced.counter", 2))
        assert (
            reg.snapshot().counters["raced.counter"]
            == 2 * self.THREADS * self.ITERATIONS
        )

    def test_gauge_add_sub_balance(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("depth")

        def pulse():
            gauge.inc(5.0)
            gauge.dec(5.0)

        self._hammer(pulse)
        assert gauge.value == 0.0

    def test_histogram_observations_are_not_lost(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat")
        self._hammer(lambda: hist.observe(4))
        expected = self.THREADS * self.ITERATIONS
        assert hist.count == expected
        assert hist.total == 4 * expected
        assert hist.buckets[3] == expected  # all in the [4, 7] bucket

    def test_snapshot_during_writes_is_coherent(self):
        reg = MetricsRegistry()
        stop = threading.Event()

        def write():
            while not stop.is_set():
                reg.counter("w").inc()
                reg.histogram("h").observe(1)

        writer = threading.Thread(target=write)
        writer.start()
        try:
            for _ in range(50):
                snap = reg.snapshot()
                if "h" in snap.histograms:
                    hist = snap.histograms["h"]
                    assert hist.total == hist.count  # every observation was 1
        finally:
            stop.set()
            writer.join()
        assert reg.counter("w").value > 0
