"""Tests for the cross-worker shared physics store.

Lifecycle (attach/detach/auto-cleanup), value roundtrips as read-only views,
stale-index rejection, key-shareability filtering, concurrent readers, and
the end-to-end contract: a pool sweep with ``shared_cache_dir`` produces
records bit-identical to the private-cache run while actually sharing
entries across workers.
"""

import json
import os

import numpy as np
import pytest

from repro.power.vf_table import VFPair
from repro.sim import (
    RuntimeConfig,
    attach_shared_store,
    clear_level_cache,
    detach_shared_store,
    level_cache_stats,
    simulate,
)
from repro.sim.level_cache import ByteBudgetCache, LEVEL_CACHE, LevelEntry
from repro.sim.shared_store import SharedPhysicsStore, shareable_key
from repro.sweep import (
    PoolExecutor,
    SerialExecutor,
    SweepRunner,
    SweepSpec,
    WorkloadSpec,
    build_compiled_workload,
)


@pytest.fixture
def fresh_cache():
    """Isolate the process-level cache and detach any store around a test."""
    clear_level_cache()
    detach_shared_store()
    yield
    clear_level_cache()
    detach_shared_store()


def sample_entry(members=3, cycles=50, seed=0):
    rng = np.random.default_rng(seed)
    drop = rng.random((members, cycles))
    drop.setflags(write=False)
    fail_cycles = [np.flatnonzero(rng.random(cycles) < 0.2)
                   for _ in range(members)]
    return LevelEntry(pair=VFPair(level=40, voltage=0.68, frequency=1.1e9),
                      drop_rows=drop, fail_cycles=fail_cycles)


SPEC_KEY = ("spec", "w|fingerprint")


def level_key(tag="a"):
    return ((SPEC_KEY, 400, 0.6, 0.15, 0.7, 0.003, 1, 0.5), 0, 40, 0.68, tag)


class TestShareableKeys:
    def test_spec_fingerprints_share(self):
        assert shareable_key(level_key())

    def test_token_and_unshared_markers_refused(self):
        assert not shareable_key((("token", 3), 0, 40))
        assert not shareable_key((("unshared", 1), 0))
        assert not shareable_key(((("token", 0), 17), "x"))

    def test_non_primitives_refused(self):
        assert not shareable_key((object(), 1))


class TestStoreRoundtrip:
    def test_level_entry_roundtrip_readonly(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        entry = sample_entry()
        assert store.store(level_key(), entry, 1000)

        other = SharedPhysicsStore(str(tmp_path))
        loaded = other.load(level_key())
        assert loaded is not None
        value, nbytes = loaded
        assert nbytes > 0
        assert value.pair == entry.pair
        assert np.array_equal(value.drop_rows, entry.drop_rows)
        assert len(value.fail_cycles) == len(entry.fail_cycles)
        for got, want in zip(value.fail_cycles, entry.fail_cycles):
            assert np.array_equal(got, want)
        assert value.fail_lists == entry.fail_lists
        # Attached arrays are read-only views of the mapped file.
        assert not value.drop_rows.flags.writeable
        with pytest.raises(ValueError):
            value.drop_rows[0, 0] = 1.0

    def test_activity_dict_roundtrip(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        rng = np.random.default_rng(1)
        activity = {3: rng.random(64), 11: rng.random(64)}
        key = ("activity", SPEC_KEY, 64, 0.6, 0.15, 0.7, 1, 0.5)
        assert store.store(key, activity, 1024)
        value, _ = SharedPhysicsStore(str(tmp_path)).load(key)
        assert sorted(value) == [3, 11]
        for macro in activity:
            assert np.array_equal(value[macro], activity[macro])
        assert not value[3].flags.writeable

    def test_store_is_idempotent(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        entry = sample_entry()
        assert store.store(level_key(), entry, 1000)
        assert store.store(level_key(), entry, 1000)
        assert store.stats()["entries"] == 1

    def test_unshareable_key_not_stored(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        key = ((("token", 1), 400), 0, 40, 0.68, "a")
        assert not store.store(key, sample_entry(), 1000)
        assert store.load(key) is None
        assert store.stats()["entries"] == 0
        assert store.rejected_keys == 1

    def test_unknown_value_kind_declined(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        assert not store.store(level_key(), {"not": "physics"}, 10)

    def test_miss_on_absent_key(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        assert store.load(level_key("missing")) is None

    def test_concurrent_readers_share_one_file(self, tmp_path):
        """Two attached stores map the same published bytes."""
        writer = SharedPhysicsStore(str(tmp_path))
        writer.store(level_key(), sample_entry(seed=5), 1000)
        readers = [SharedPhysicsStore(str(tmp_path)) for _ in range(2)]
        values = [r.load(level_key())[0] for r in readers]
        assert np.array_equal(values[0].drop_rows, values[1].drop_rows)
        # Same backing file on disk — one physical copy for the fleet.
        bins = [f for f in os.listdir(tmp_path) if f.endswith(".bin")]
        assert len(bins) == 1

    def test_index_visible_to_earlier_attachers(self, tmp_path):
        """A store attached before a sibling published still sees the entry
        (the index log's new tail is read on a miss)."""
        early = SharedPhysicsStore(str(tmp_path))
        assert early.load(level_key()) is None
        SharedPhysicsStore(str(tmp_path)).store(level_key(),
                                                sample_entry(), 1000)
        assert early.load(level_key()) is not None


class TestStaleIndexRejection:
    def test_truncated_data_file_rejected(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        store.store(level_key(), sample_entry(), 1000)
        [bin_name] = [f for f in os.listdir(tmp_path) if f.endswith(".bin")]
        with open(tmp_path / bin_name, "r+b") as handle:
            handle.truncate(8)
        reader = SharedPhysicsStore(str(tmp_path))
        assert reader.load(level_key()) is None
        assert reader.stale_rejected == 1

    def test_missing_data_file_rejected(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        store.store(level_key(), sample_entry(), 1000)
        [bin_name] = [f for f in os.listdir(tmp_path) if f.endswith(".bin")]
        os.unlink(tmp_path / bin_name)
        reader = SharedPhysicsStore(str(tmp_path))
        assert reader.load(level_key()) is None
        assert reader.stale_rejected == 1

    def test_stale_entry_can_be_republished(self, tmp_path):
        """A digest whose data file vanished must not block re-publication
        just because the disk index still lists it."""
        store = SharedPhysicsStore(str(tmp_path))
        store.store(level_key(), sample_entry(), 1000)
        [bin_name] = [f for f in os.listdir(tmp_path) if f.endswith(".bin")]
        os.unlink(tmp_path / bin_name)
        healer = SharedPhysicsStore(str(tmp_path))    # fresh index snapshot
        assert healer.load(level_key()) is None       # stale-rejected
        assert healer.store(level_key(), sample_entry(), 1000)
        assert healer.stores == 1                     # actually rewritten
        assert SharedPhysicsStore(str(tmp_path)).load(level_key()) is not None

    def test_unknown_format_version_ignored(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        store.store(level_key(), sample_entry(), 1000)
        log = tmp_path / "index.jsonl"
        header, entries = log.read_bytes().split(b"\n", 1)
        assert json.loads(header) == {"version": 2}
        log.write_bytes(json.dumps({"version": 999}).encode() + b"\n"
                        + entries)
        foreign = SharedPhysicsStore(str(tmp_path))
        assert foreign.load(level_key()) is None
        assert foreign.stats()["entries"] == 0
        # A writer does not append to another format's log: it starts a
        # new one, which every reader then follows.
        assert foreign.store(level_key(), sample_entry(), 1000)
        assert foreign.stores == 1
        assert log.read_bytes().startswith(b'{"version": 2}\n')
        assert SharedPhysicsStore(str(tmp_path)).load(level_key()) is not None

    def test_legacy_index_json_misses_then_republishes(self, tmp_path):
        """A directory holding only the old whole-file ``index.json`` is not
        read: the first lookup misses, the entry is republished into the
        log, and from then on it hits."""
        entry = sample_entry()
        SharedPhysicsStore(str(tmp_path)).store(level_key(), entry, 1000)
        log = tmp_path / "index.jsonl"
        lines = log.read_text().splitlines()[1:]
        legacy = {"version": 1, "entries": {}}
        for line in lines:
            record = json.loads(line)
            legacy["entries"][record.pop("digest")] = record
        (tmp_path / "index.json").write_text(json.dumps(legacy))
        log.unlink()

        store = SharedPhysicsStore(str(tmp_path))
        assert store.load(level_key()) is None
        assert store.store(level_key(), entry, 1000)
        assert store.stores == 1                      # really republished
        value, _ = SharedPhysicsStore(str(tmp_path)).load(level_key())
        assert np.array_equal(value.drop_rows, entry.drop_rows)


class TestByteBudgetCacheBackend:
    def test_rejected_counter_counts_oversized_puts(self):
        cache = ByteBudgetCache(100)
        cache.put("small", "v", 10)
        cache.put("big", "v", 1000)
        stats = cache.stats()
        assert stats["rejected"] == 1
        assert stats["entries"] == 1
        cache.clear()
        assert cache.stats()["rejected"] == 0

    def test_zero_budget_counts_every_put_as_rejected(self):
        cache = ByteBudgetCache(0)
        cache.put("a", "v", 1)
        assert cache.stats()["rejected"] == 1

    def test_backend_hit_promotes_into_memory(self, tmp_path):
        backend = SharedPhysicsStore(str(tmp_path))
        backend.store(level_key(), sample_entry(), 1000)
        cache = ByteBudgetCache(1 << 20, backend=backend)
        assert cache.get(level_key()) is not None
        stats = cache.stats()
        assert stats["backend_hits"] == 1 and stats["misses"] == 0
        # Second get is a pure in-memory hit.
        assert cache.get(level_key()) is not None
        assert cache.stats()["hits"] == 1
        assert "backend" in stats

    def test_puts_flow_through_to_backend(self, tmp_path):
        backend = SharedPhysicsStore(str(tmp_path))
        cache = ByteBudgetCache(1 << 20, backend=backend)
        cache.put(level_key(), sample_entry(), 1000)
        assert backend.stats()["entries"] == 1


def store_workload(label="store-w"):
    return WorkloadSpec(builder="synthetic", groups=4, macros_per_group=2,
                        banks=4, rows=8, operator_rows=16, n_operators=4,
                        code_spread=30.0, mapping="sequential", label=label)


class TestLevelCacheIntegration:
    def test_attach_detach_lifecycle(self, fresh_cache, tmp_path):
        store = attach_shared_store(str(tmp_path))
        assert LEVEL_CACHE.backend is store
        assert "backend" in level_cache_stats()
        detach_shared_store()
        assert LEVEL_CACHE.backend is None
        assert "backend" not in level_cache_stats()

    def test_cross_process_reuse_is_bit_identical(self, fresh_cache, tmp_path):
        """Simulate a worker handoff: populate the store, wipe the in-memory
        cache (a fresh process), rerun — backend hits, identical results."""
        compiled = build_compiled_workload(store_workload())
        config = dict(cycles=400, controller="booster", beta=6,
                      flip_mean=0.8, monitor_noise=0.01, seed=2)
        attach_shared_store(str(tmp_path))
        first = simulate(compiled, RuntimeConfig(**config))
        clear_level_cache()                    # memory gone, disk remains
        second = simulate(compiled, RuntimeConfig(**config))
        assert level_cache_stats()["backend_hits"] > 0
        detach_shared_store()
        clear_level_cache()
        private = simulate(compiled, RuntimeConfig(**config))
        for warm in (first, second):
            assert warm.total_failures == private.total_failures
            assert warm.total_stall_cycles == private.total_stall_cycles
            for a, b in zip(warm.macro_results, private.macro_results):
                assert np.array_equal(a.drop_trace, b.drop_trace)
                assert a.failures == b.failures
            for a, b in zip(warm.group_results, private.group_results):
                assert np.array_equal(a.level_trace, b.level_trace)

    def test_zero_budget_bypasses_backend(self, fresh_cache, tmp_path):
        """``set_level_cache_budget(0)`` means *cold*: an attached store
        must neither serve nor receive entries, so cache-disabled timing
        runs stay honest inside store-attached workers."""
        from repro.sim import set_level_cache_budget
        compiled = build_compiled_workload(store_workload("store-cold"))
        config = RuntimeConfig(cycles=200, controller="booster", seed=0)
        store = attach_shared_store(str(tmp_path))
        simulate(compiled, config)             # populate the store
        assert store.stats()["entries"] > 0
        clear_level_cache()
        loads_before = store.loads
        old_budget = set_level_cache_budget(0)
        try:
            simulate(compiled, config)
            stats = level_cache_stats()
            assert stats["backend_hits"] == 0
            assert stats["entries"] == 0
            assert store.loads == loads_before    # backend never consulted
        finally:
            set_level_cache_budget(old_budget)
        simulate(compiled, config)             # re-enabled: served from disk
        assert level_cache_stats()["backend_hits"] > 0

    def test_store_io_failure_degrades_to_recompute(self, fresh_cache,
                                                    tmp_path):
        """Losing the store directory mid-sweep must not crash a run —
        the backend is best-effort by contract."""
        import shutil
        compiled = build_compiled_workload(store_workload("store-gone"))
        config = RuntimeConfig(cycles=200, controller="booster", seed=0)
        attach_shared_store(str(tmp_path / "volatile"))
        baseline = simulate(compiled, config)
        shutil.rmtree(tmp_path / "volatile")   # operator cleanup mid-run
        clear_level_cache()
        survived = simulate(compiled, config)  # must not raise
        assert survived.total_failures == baseline.total_failures
        for a, b in zip(baseline.macro_results, survived.macro_results):
            assert np.array_equal(a.drop_trace, b.drop_trace)

    def test_adhoc_workloads_share_by_content(self, fresh_cache, tmp_path):
        """Compiled images without a builder fingerprint derive a
        content-derived identity the store accepts: their physics publishes,
        and a content-identical rebuild maps to the same shareable keys."""
        from repro.sim.level_cache import workload_cache_key
        compiled = build_compiled_workload(store_workload("store-token"))
        adhoc = type(compiled)(**{
            f: getattr(compiled, f) for f in compiled.__dataclass_fields__})
        assert getattr(adhoc, "cache_key", None) is None
        store = attach_shared_store(str(tmp_path))
        simulate(adhoc, RuntimeConfig(cycles=200, controller="booster",
                                      seed=0))
        assert store.stats()["entries"] > 0
        assert store.rejected_keys == 0
        # A second, independently constructed content-identical image hashes
        # to the same ("content", ...) identity — the cross-process pattern.
        rebuilt = type(compiled)(**{
            f: getattr(compiled, f) for f in compiled.__dataclass_fields__})
        key = workload_cache_key(rebuilt)
        assert key[0] == "content"
        assert key == workload_cache_key(adhoc)
        assert shareable_key(key)

    def test_undigestible_workloads_never_cross_processes(
            self, fresh_cache, tmp_path, monkeypatch):
        """When no content digest can be derived the key falls back to a
        process-local token — the store must refuse it."""
        from repro.sim import level_cache as level_cache_module

        def refuse(compiled):
            raise TypeError("undigestible")

        monkeypatch.setattr(level_cache_module, "content_fingerprint", refuse)
        compiled = build_compiled_workload(store_workload("store-token2"))
        compiled = type(compiled)(**{
            f: getattr(compiled, f) for f in compiled.__dataclass_fields__})
        assert getattr(compiled, "cache_key", None) is None
        store = attach_shared_store(str(tmp_path))
        simulate(compiled, RuntimeConfig(cycles=200, controller="booster",
                                         seed=0))
        assert store.stats()["entries"] == 0
        assert store.rejected_keys > 0


class TestPoolExecutorSharedStore:
    def sweep_spec(self):
        return SweepSpec(
            name="store-sweep", workloads=(store_workload("store-pool"),),
            controllers=("booster",), modes=("low_power",), betas=(5, 9),
            cycles=300, flip_means=(0.8,), monitor_noises=(0.01,), seeds=2,
            master_seed=0, seed_mode="shared")

    def test_shared_dir_records_match_serial(self, fresh_cache, tmp_path):
        spec = self.sweep_spec()
        serial = SweepRunner(spec, SerialExecutor()).run()
        clear_level_cache()
        executor = PoolExecutor(processes=2, shared_cache_dir=str(tmp_path))
        pool = SweepRunner(spec, executor).run()
        assert [r.to_json_dict() for r in serial.sorted_records()] == \
            [r.to_json_dict() for r in pool.sorted_records()]
        store = SharedPhysicsStore(str(tmp_path))
        assert store.stats()["entries"] > 0
        # A second fleet over the same store must reuse the first fleet's
        # entries (fresh worker pids — cross-worker by construction) and
        # still reproduce the records bit for bit.
        clear_level_cache()
        again = SweepRunner(spec, executor).run()
        assert [r.to_json_dict() for r in pool.sorted_records()] == \
            [r.to_json_dict() for r in again.sorted_records()]
        assert store.cross_worker_hits() > 0

    def test_auto_dir_is_cleaned_up(self, fresh_cache, tmp_path,
                                    monkeypatch):
        import tempfile as _tempfile
        created = []
        real_mkdtemp = _tempfile.mkdtemp

        def tracking_mkdtemp(*args, **kwargs):
            kwargs.setdefault("dir", str(tmp_path))
            path = real_mkdtemp(*args, **kwargs)
            created.append(path)
            return path

        monkeypatch.setattr("repro.sweep.runner.tempfile",
                            type("T", (), {"mkdtemp": tracking_mkdtemp}))
        spec = self.sweep_spec()
        SweepRunner(spec, PoolExecutor(processes=2,
                                       shared_cache_dir="auto")).run()
        assert len(created) == 1
        assert not os.path.exists(created[0])

    def test_explicit_dir_left_in_place(self, fresh_cache, tmp_path):
        spec = self.sweep_spec()
        target = tmp_path / "physics"
        SweepRunner(spec, PoolExecutor(
            processes=2, shared_cache_dir=str(target))).run()
        assert target.is_dir()
        assert SharedPhysicsStore(str(target)).stats()["entries"] > 0

    def test_events_can_be_disabled(self, fresh_cache, tmp_path):
        spec = self.sweep_spec()
        SweepRunner(spec, PoolExecutor(
            processes=2, shared_cache_dir=str(tmp_path),
            shared_cache_events=False)).run()
        assert SharedPhysicsStore(str(tmp_path)).stats()["entries"] > 0
        assert not (tmp_path / "stats.jsonl").exists()


class TestStoreHardening:
    """Checksum quarantine, swallowed-error counters, lock timeouts and
    graceful degradation — the store half of the fault-tolerance layer."""

    def bin_path(self, directory):
        names = [n for n in os.listdir(directory) if n.endswith(".bin")]
        assert len(names) == 1
        return os.path.join(directory, names[0])

    def test_corrupt_entry_quarantined_and_republishable(self, tmp_path):
        writer = SharedPhysicsStore(str(tmp_path))
        entry = sample_entry()
        assert writer.store(level_key(), entry, 1000)
        path = self.bin_path(str(tmp_path))
        with open(path, "r+b") as handle:
            handle.seek(os.path.getsize(path) // 2)
            handle.write(b"\xff")

        reader = SharedPhysicsStore(str(tmp_path))    # no verification memo
        assert reader.load(level_key()) is None       # corruption -> miss
        assert reader.stats()["corrupt_rejected"] == 1
        assert os.path.exists(path + ".corrupt")      # post-mortem evidence
        # Recovery is miss + republish: the slot is free again.
        assert reader.store(level_key(), entry, 1000)
        value, _ = SharedPhysicsStore(str(tmp_path)).load(level_key())
        assert np.array_equal(value.drop_rows, entry.drop_rows)

    def test_verification_memoized_per_process(self, tmp_path):
        writer = SharedPhysicsStore(str(tmp_path))
        entry = sample_entry()
        assert writer.store(level_key(), entry, 1000)
        reader = SharedPhysicsStore(str(tmp_path))
        assert reader.load(level_key()) is not None
        assert len(reader._verified) == 1
        # Subsequent loads skip the hash; a fresh instance re-verifies.
        assert reader.load(level_key()) is not None
        assert SharedPhysicsStore(str(tmp_path))._verified == set()

    def test_event_log_errors_counted(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        os.makedirs(str(tmp_path / "stats.jsonl"))    # appends now raise
        assert store.store(level_key(), sample_entry(), 1000)
        assert store.stats()["event_log_errors"] >= 1

    def test_load_errors_counted_for_corrupt_index_record(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        assert store.store(level_key(), sample_entry(), 1000)
        digest = next(iter(store._index))
        store._index[digest]["arrays"][0]["dtype"] = "not-a-dtype"
        assert store.load(level_key()) is None
        assert store.stats()["load_errors"] == 1

    def test_lock_timeout_degrades_store(self, tmp_path):
        fcntl = pytest.importorskip("fcntl")
        store = SharedPhysicsStore(str(tmp_path), lock_timeout=0.2)
        holder = open(str(tmp_path / ".lock"), "a")
        fcntl.flock(holder.fileno(), fcntl.LOCK_EX)   # flock is per-open-fd
        try:
            assert not store.store(level_key(), sample_entry(), 1000)
            stats = store.stats()
            assert stats["lock_timeouts"] == 1
            assert stats["store_errors"] == 1
        finally:
            holder.close()
        # Holder gone: publication works again.
        assert store.store(level_key(), sample_entry(), 1000)

    def test_unusable_directory_degrades_gracefully(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        store = SharedPhysicsStore(str(blocker / "sub"))
        assert store.degraded
        assert store.load(level_key()) is None
        assert not store.store(level_key(), sample_entry(), 1000)
        assert store.stats()["degraded"]
        assert store.stats()["store_errors"] == 1

    def test_checksum_recorded_on_publish(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        assert store.store(level_key(), sample_entry(), 1000)
        reader = SharedPhysicsStore(str(tmp_path))
        reader._refresh_index()
        record = next(iter(reader._index.values()))
        import hashlib
        blob = (tmp_path / record["file"]).read_bytes()
        assert record["sha256"] == hashlib.sha256(blob).hexdigest()


def _publish_disjoint_keys(directory, worker, count, start):
    """Publish ``count`` keys no other worker uses (spawned child target)."""
    store = SharedPhysicsStore(directory)
    start.wait(timeout=60)
    for i in range(count):
        assert store.store(level_key(f"w{worker}-{i}"),
                           sample_entry(seed=worker * count + i), 1000)


class TestIndexLog:
    """The append-only index log: publishes append one line and never
    rewrite, readers skip a torn tail, writers fence it off, and concurrent
    writer processes lose no entry."""

    def log_lines(self, directory):
        return (directory / "index.jsonl").read_bytes().splitlines(
            keepends=True)

    def test_publish_appends_one_line_without_rewrite(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        log = tmp_path / "index.jsonl"
        assert store.store(level_key("k0"), sample_entry(seed=0), 1000)
        header, first = self.log_lines(tmp_path)
        assert header == b'{"version": 2}\n'
        assert log.stat().st_size == len(header) + len(first)
        inode = log.stat().st_ino
        for i in range(1, 6):
            before = log.read_bytes()
            assert store.store(level_key(f"k{i}"), sample_entry(seed=i), 1000)
            after = log.read_bytes()
            assert log.stat().st_ino == inode         # never replaced
            assert after.startswith(before)           # earlier bytes intact
            appended = after[len(before):]
            assert appended.endswith(b"\n") and appended.count(b"\n") == 1
            record = json.loads(appended)
            assert record["file"] == record["digest"] + ".bin"
        # A republish of a known, intact entry appends nothing.
        size = log.stat().st_size
        assert store.store(level_key("k0"), sample_entry(seed=0), 1000)
        assert log.stat().st_size == size
        assert SharedPhysicsStore(str(tmp_path)).stats()["entries"] == 6

    def test_readers_skip_a_line_still_being_written(self, tmp_path):
        SharedPhysicsStore(str(tmp_path)).store(level_key("a"),
                                                sample_entry(), 1000)
        log = tmp_path / "index.jsonl"
        header, line = self.log_lines(tmp_path)
        record = json.loads(line)
        record["digest"] = "f" * 40
        pending = json.dumps(record).encode() + b"\n"
        cut = len(pending) // 2
        with open(log, "ab") as handle:
            handle.write(pending[:cut])               # a writer mid-append
        reader = SharedPhysicsStore(str(tmp_path))
        assert reader.load(level_key("a")) is not None
        assert reader.stats()["entries"] == 1
        assert reader._log_offset == len(header) + len(line)
        with open(log, "ab") as handle:
            handle.write(pending[cut:])               # ... and it finishes
        assert reader.stats()["entries"] == 2
        assert "f" * 40 in reader._index

    def test_writer_fences_off_a_torn_tail(self, tmp_path):
        """A writer killed mid-append leaves a line with no newline; the next
        publish starts on a fresh line, so both entries stay readable and
        the torn bytes are a line of their own that readers skip."""
        entry_a, entry_b = sample_entry(seed=1), sample_entry(seed=2)
        SharedPhysicsStore(str(tmp_path)).store(level_key("a"), entry_a, 1000)
        torn = b'{"digest": "0123456789", "file": "01234'
        with open(tmp_path / "index.jsonl", "ab") as handle:
            handle.write(torn)
        assert SharedPhysicsStore(str(tmp_path)).stats()["entries"] == 1
        assert SharedPhysicsStore(str(tmp_path)).store(level_key("b"),
                                                       entry_b, 1000)
        lines = self.log_lines(tmp_path)
        assert len(lines) == 4 and lines[2] == torn + b"\n"
        reader = SharedPhysicsStore(str(tmp_path))
        assert reader.stats()["entries"] == 2
        for key, entry in ((level_key("a"), entry_a), (level_key("b"), entry_b)):
            value, _ = reader.load(key)
            assert np.array_equal(value.drop_rows, entry.drop_rows)

    def test_shrunken_log_is_read_again(self, tmp_path):
        store = SharedPhysicsStore(str(tmp_path))
        store.store(level_key("a"), sample_entry(seed=1), 1000)
        store.store(level_key("b"), sample_entry(seed=2), 1000)
        reader = SharedPhysicsStore(str(tmp_path))
        assert reader.stats()["entries"] == 2
        header, first, _ = self.log_lines(tmp_path)
        (tmp_path / "index.jsonl").write_bytes(header + first)
        assert reader.stats()["entries"] == 1
        assert reader.load(level_key("a")) is not None
        assert reader.load(level_key("b")) is None

    def test_concurrent_writer_processes_lose_no_entry(self, tmp_path):
        import multiprocessing
        context = multiprocessing.get_context("spawn")
        workers, count = 4, 15
        start = context.Event()
        children = [context.Process(
            target=_publish_disjoint_keys,
            args=(str(tmp_path), worker, count, start))
            for worker in range(workers)]
        for child in children:
            child.start()
        start.set()
        for child in children:
            child.join(timeout=120)
        hung = [child for child in children if child.is_alive()]
        for child in hung:                            # pragma: no cover
            child.kill()
            child.join()
        assert not hung, "writer process did not exit within the deadline"
        assert [child.exitcode for child in children] == [0] * workers
        lines = self.log_lines(tmp_path)
        assert lines[0] == b'{"version": 2}\n'
        assert len(lines) == 1 + workers * count      # no torn or lost line
        reader = SharedPhysicsStore(str(tmp_path))
        assert reader.stats()["entries"] == workers * count
        for worker in range(workers):
            for i in range(count):
                value, _ = reader.load(level_key(f"w{worker}-{i}"))
                want = sample_entry(seed=worker * count + i)
                assert np.array_equal(value.drop_rows, want.drop_rows)
