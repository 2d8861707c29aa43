"""Cache correctness: hits equal cold runs, keys invalidate, corruption heals.

The three properties the result cache must uphold:

1. a cache hit returns a payload equal to what a cold computation
   produces;
2. changing *any* component of the recipe — seed, duration, policy
   ``nbits``, package version — changes the key, so stale entries are
   never returned;
3. corrupted cache files (truncated, not JSON, wrong schema, swapped
   between keys) are detected, discarded, and recomputed — never
   crashed on and never served.
"""

import json
from dataclasses import replace

import pytest

from repro.runner import (
    CELL_KINDS,
    Cell,
    ExperimentRunner,
    ResultCache,
    cache_key,
    tech_params,
)
from repro.technology import DEFAULT_TECH

TECH = tech_params(DEFAULT_TECH)


def _cell(seed=11, duration=0.2, nbits=2, policy="vrl", benchmark=None):
    return Cell(
        "refresh-overhead",
        {
            "tech": TECH,
            "rows": 64,
            "cols": 8,
            "policy": policy,
            "nbits": nbits,
            "benchmark": benchmark,
            "seed": seed,
            "duration_seconds": duration,
        },
        label=f"{policy}/s{seed}",
    )


class TestCacheKey:
    def test_stable_across_calls(self):
        cell = _cell()
        assert cache_key(cell.kind, cell.params) == cache_key(cell.kind, cell.params)

    def test_key_order_irrelevant(self):
        params = dict(_cell().params)
        reordered = dict(reversed(list(params.items())))
        assert cache_key("refresh-overhead", params) == cache_key(
            "refresh-overhead", reordered
        )

    @pytest.mark.parametrize(
        "variant",
        [
            _cell(seed=12),
            _cell(duration=0.3),
            _cell(nbits=3),
            _cell(policy="raidr"),
            _cell(benchmark="canneal"),
        ],
    )
    def test_any_param_change_changes_key(self, variant):
        base = _cell()
        assert cache_key(base.kind, base.params) != cache_key(
            variant.kind, variant.params
        )

    def test_version_is_part_of_key(self):
        cell = _cell()
        assert cache_key(cell.kind, cell.params, version="1.0.0") != cache_key(
            cell.kind, cell.params, version="1.0.1"
        )

    def test_kind_is_part_of_key(self):
        cell = _cell()
        assert cache_key("refresh-overhead", cell.params) != cache_key(
            "engine-run", cell.params
        )


class TestCacheHitEqualsColdRun:
    def test_warm_payload_identical(self, tmp_path):
        cell = _cell()
        cold = ExperimentRunner(cache=ResultCache(tmp_path)).run([cell])
        assert cold.cache_misses == 1
        warm = ExperimentRunner(cache=ResultCache(tmp_path)).run([cell])
        assert warm.cache_hits == 1
        uncached = ExperimentRunner().run([cell])
        assert warm.results == cold.results == uncached.results

    def test_key_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        ExperimentRunner(cache=cache).run([_cell()])
        for changed in (_cell(seed=99), _cell(duration=0.25), _cell(nbits=1)):
            report = ExperimentRunner(cache=cache).run([changed])
            assert report.cache_misses == 1, f"{changed.label} unexpectedly hit"

    def test_version_bump_invalidates(self, tmp_path):
        cell = _cell()
        cache = ResultCache(tmp_path)
        old_key = cache_key(cell.kind, cell.params, version="0.9.0")
        cache.put(old_key, {"stale": True})
        report = ExperimentRunner(cache=cache).run([cell])
        assert report.cache_misses == 1
        assert "stale" not in report.results[0]


class TestResultSchemaInKey:
    """The per-kind payload-layout version is part of every cache key."""

    @staticmethod
    def _bump(monkeypatch, kind, by=1):
        """Swap in ``kind``'s entry with its schema version bumped."""
        spec = CELL_KINDS[kind]
        monkeypatch.setitem(
            CELL_KINDS, kind, replace(spec, schema_version=spec.schema_version + by)
        )

    def test_result_version_changes_key(self):
        cell = _cell()
        assert cache_key(cell.kind, cell.params, result_version=1) != cache_key(
            cell.kind, cell.params, result_version=2
        )

    def test_default_is_the_kinds_schema_version(self):
        cell = _cell()
        assert cache_key(cell.kind, cell.params) == cache_key(
            cell.kind, cell.params,
            result_version=CELL_KINDS[cell.kind].schema_version,
        )

    def test_bumped_kind_invalidates_cached_entry(self, tmp_path, monkeypatch):
        cell = _cell()
        cache = ResultCache(tmp_path)
        assert ExperimentRunner(cache=cache).run([cell]).cache_misses == 1
        assert ExperimentRunner(cache=cache).run([cell]).cache_hits == 1
        with monkeypatch.context() as patch:
            self._bump(patch, cell.kind)
            report = ExperimentRunner(cache=cache).run([cell])
            assert report.cache_misses == 1  # stale layout never served
        assert ExperimentRunner(cache=cache).run([cell]).cache_hits == 1

    def test_bump_leaves_other_kinds_untouched(self, monkeypatch):
        cell = _cell()
        before = cache_key(cell.kind, cell.params)
        self._bump(monkeypatch, "temperature-point", by=7)
        assert cache_key(cell.kind, cell.params) == before
        assert cache_key("temperature-point", cell.params) != cache_key(
            "temperature-point", cell.params, result_version=1
        )


class TestCorruptionRecovery:
    @pytest.mark.parametrize(
        "garbage",
        [
            b"",                                 # truncated to nothing
            b"{\"schema\": 1, \"key\":",          # cut mid-JSON
            b"not json at all \x00\xff",          # binary junk
            json.dumps({"schema": 999, "key": "x", "payload": {}}).encode(),
            json.dumps([1, 2, 3]).encode(),       # wrong top-level type
            json.dumps({"schema": 1, "key": "mismatch", "payload": {}}).encode(),
        ],
    )
    def test_corrupt_entry_is_recomputed(self, tmp_path, garbage):
        cell = _cell()
        cache = ResultCache(tmp_path)
        clean = ExperimentRunner(cache=cache).run([cell]).results
        key = cache_key(cell.kind, cell.params)
        cache.path_for(key).write_bytes(garbage)
        report = ExperimentRunner(cache=cache).run([cell])
        assert report.cache_misses == 1  # detected, not served
        assert report.results == clean
        # and the healthy entry was restored in place of the bad one
        assert cache.get(key) == clean[0]

    def test_get_on_missing_directory(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.get("0" * 64) is None
        assert len(cache) == 0

    def test_put_then_contains(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "a" * 64
        cache.put(key, {"x": 1})
        assert key in cache
        assert cache.get(key) == {"x": 1}
        assert len(cache) == 1


class TestCrashSafePut:
    """A kill mid-``put`` can never leave a torn entry behind.

    ``put`` serializes to a ``.tmp`` sibling, fsyncs, then
    ``os.replace``s into place — so the destination file is only ever
    absent or complete.  These tests simulate the debris a mid-write
    kill leaves (truncated destination from a pre-atomic writer, stray
    temp files) and assert both are healed, not served or crashed on.
    """

    def test_put_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("b" * 64, {"x": 2})
        stray = [p.name for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert stray == []

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "c" * 64
        full = json.dumps(
            {"schema": 1, "key": key, "version": "x", "meta": {}, "payload": {"v": 3}}
        )
        # Every strict prefix of a real entry (a torn write) must read
        # as a miss, never as a partial payload or a crash.
        for cut in (1, len(full) // 2, len(full) - 1):
            cache.path_for(key).write_text(full[:cut])
            assert cache.get(key) is None, f"prefix of {cut} bytes served"
        cache.put(key, {"v": 3})
        assert cache.get(key) == {"v": 3}

    def test_stray_tmp_file_does_not_shadow_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "d" * 64
        # Debris from a writer killed between open() and replace().
        cache.path_for(key).with_suffix(".tmp.99999").write_text('{"half": ')
        assert cache.get(key) is None
        cache.put(key, {"v": 4})
        assert cache.get(key) == {"v": 4}


class TestConcurrentPut:
    """Racing writers must never tear an entry or crash each other.

    Workers legitimately race ``put`` on one key (two sweeps sharing a
    cache, a retry racing its predecessor).  Each call stages to a tmp
    file unique to the writer, so every rename lands a complete entry
    and the last one wins; a shared staging name would let one writer
    truncate or unlink another's in-flight file.
    """

    def test_threads_racing_one_key_land_a_complete_entry(self, tmp_path):
        import threading

        cache = ResultCache(tmp_path)
        key = "e" * 64
        n_writers, rounds = 8, 25
        start = threading.Barrier(n_writers)
        errors = []

        def writer(worker):
            try:
                start.wait()
                for r in range(rounds):
                    cache.put(key, {"worker": worker, "round": r})
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(n_writers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == []
        payload = cache.get(key)
        # Whoever won, the entry is complete and well-formed.
        assert payload is not None
        assert payload["round"] == rounds - 1
        assert 0 <= payload["worker"] < n_writers
        stray = [p.name for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert stray == []

    def test_racing_distinct_keys_all_survive(self, tmp_path):
        import threading

        cache = ResultCache(tmp_path)
        keys = [str(i) * 64 for i in range(6)]
        start = threading.Barrier(len(keys))

        def writer(key, value):
            start.wait()
            cache.put(key, {"v": value})

        threads = [
            threading.Thread(target=writer, args=(k, i))
            for i, k in enumerate(keys)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i, k in enumerate(keys):
            assert cache.get(k) == {"v": i}
        assert len(cache) == len(keys)
