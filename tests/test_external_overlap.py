"""Overlapped prefetch, run-shaped inputs, and multipass merging.

Three properties anchor every test here:

* **Byte identity.**  Normalized keys carry a unique ascending row-id
  suffix, so the final output is a function of the input alone -- not of
  run partitioning, read-ahead timing, or merge pass shape.  Every
  feature configuration must therefore produce output byte-identical to
  the tuple-key oracle.
* **Bounded resources.**  Read-ahead stays within its block budget, no
  prefetch thread survives a sort, spill directories end empty, and a
  key-carried sort reads each run's keys exactly once.
* **Honest gating.**  The exact-string gate keeps multipass merging off
  paths whose key bytes are refined later.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from test_external_kway import SPECS, assert_byte_identical, mixed_table
from test_oracle import oracle_sort
from repro.errors import SortError
from repro.sort.external import ExternalSortOperator
from repro.sort.faults import SlowStorageIO, SpillIO
from repro.sort.operator import SortConfig
from repro.sort.prefetch import prefetch_budget_blocks
from repro.sort.spillfile import VerifiedTailCache
from repro.table.chunk import chunk_table
from repro.table.table import Table
from repro.types.sortspec import SortSpec


def spec_of(text):
    return SortSpec.of(*[part.strip() for part in text.split(",")])


def sort_external(table, spec, directory, io=None, **overrides):
    config_kwargs = dict(run_threshold=1000)
    config_kwargs.update(overrides)
    os.makedirs(directory, exist_ok=True)
    operator = ExternalSortOperator(
        table.schema,
        spec_of(spec),
        SortConfig(**config_kwargs),
        spill_directory=str(directory),
        io=io,
    )
    with operator:
        for chunk in chunk_table(table, 512):
            operator.sink(chunk)
        result = operator.finalize()
    return result, operator.stats


def assert_matches_oracle(table, spec, directory, **overrides):
    """Sort externally and compare byte for byte with the oracle."""
    result, stats = sort_external(table, spec, directory, **overrides)
    assert_byte_identical(result, oracle_sort(table, spec_of(spec)))
    assert stats.rungen_path == "argsort"
    return stats


def near_sorted_table(rng, n, jitter=40):
    """Sorted int64 keys with bounded local displacement."""
    base = np.arange(n, dtype=np.int64)
    order = np.argsort(
        base + rng.integers(-jitter, jitter + 1, n), kind="stable"
    )
    return Table.from_pydict(
        {
            "a": [int(v) for v in base[order]],
            "p": [int(v) for v in rng.integers(0, 1 << 30, n)],
        }
    )


def no_prefetch_threads():
    return not any(
        thread.name.startswith("spill-prefetch")
        for thread in threading.enumerate()
    )


class TestPrefetchByteIdentity:
    @pytest.mark.parametrize("spec", SPECS)
    def test_on_off_identical(self, rng, tmp_path, spec):
        table = mixed_table(rng, 6000)
        off, _ = sort_external(
            table, spec, tmp_path / "off", prefetch_blocks=0
        )
        on, stats = sort_external(
            table, spec, tmp_path / "on", prefetch_blocks=2
        )
        assert_byte_identical(on, off)
        assert stats.prefetch_hits + stats.prefetch_misses > 0
        assert stats.prefetch_peak_blocks >= 1

    def test_budget_bounds_read_ahead(self, rng, tmp_path):
        table = mixed_table(rng, 6000)
        _, stats = sort_external(
            table, "a", tmp_path, prefetch_blocks=2
        )
        runs = stats.runs_generated
        budget = prefetch_budget_blocks(2, runs, 4096, 1000)
        # Scheduled read-ahead respects the budget; synchronous fallback
        # windows (needed-now data, not read-ahead) may add at most one
        # buffered block per run on top.
        assert 1 <= stats.prefetch_peak_blocks <= budget + runs

    def test_zero_depth_disables_prefetch(self, rng, tmp_path):
        table = mixed_table(rng, 6000)
        result, stats = sort_external(
            table, "a", tmp_path, prefetch_blocks=0
        )
        assert result.num_rows == 6000
        assert stats.prefetch_hits == 0
        assert stats.prefetch_misses == 0
        assert stats.prefetch_peak_blocks == 0

    def test_no_leaked_threads(self, rng, tmp_path):
        table = mixed_table(rng, 4000)
        sort_external(table, "a, s DESC", tmp_path, prefetch_blocks=2)
        assert no_prefetch_threads()

    def test_spill_directory_left_empty(self, rng, tmp_path):
        table = mixed_table(rng, 4000)
        sort_external(table, "a", tmp_path, prefetch_blocks=2)
        assert os.listdir(tmp_path) == []


class TestSlowStorageOverlap:
    def test_slow_reads_overlap_and_stay_identical(self, rng, tmp_path):
        table = mixed_table(rng, 5000)
        reference, _ = sort_external(table, "a", tmp_path / "raw")
        io = SlowStorageIO(read_delay_s=0.0002)
        result, stats = sort_external(
            table, "a", tmp_path / "slow", io=io, prefetch_blocks=2
        )
        assert_byte_identical(result, reference)
        assert io.reads > 0
        # Background read+verify time is attributed to the overlapped
        # phase, not to the critical-path spill_io counter.
        assert stats.phase_seconds.get("spill_io_overlap", 0.0) > 0.0
        assert no_prefetch_threads()


class TestReplacementSelection:
    """The inputs replacement selection targeted, now on argsort runs.

    Near-sorted, reversed and duplicate-heavy inputs stress the
    run-adaptive merge (presorted runs, one long tie group); each must
    match the tuple-key oracle byte for byte.
    """

    @pytest.mark.parametrize("spec", SPECS)
    def test_external_matches_oracle(self, rng, tmp_path, spec):
        assert_matches_oracle(mixed_table(rng, 6000), spec, tmp_path)

    def test_near_sorted_and_random_match_oracle(self, rng, tmp_path):
        near = near_sorted_table(rng, 6000)
        stats = assert_matches_oracle(near, "a", tmp_path / "near")
        assert max(stats.run_lengths) <= 1000 + 512  # cut at the threshold
        random_table = Table.from_pydict(
            {
                "a": [int(v) for v in rng.integers(0, 1 << 40, 6000)],
                "p": list(range(6000)),
            }
        )
        assert_matches_oracle(random_table, "a", tmp_path / "random")

    def test_desc_nulls_first(self, rng, tmp_path):
        values = [
            None if int(v) % 17 == 0 else int(v)
            for v in rng.integers(0, 500, 6000)
        ]
        table = Table.from_pydict({"a": values, "p": list(range(6000))})
        assert_matches_oracle(table, "a DESC NULLS FIRST", tmp_path)

    def test_duplicate_heavy(self, rng, tmp_path):
        table = Table.from_pydict(
            {
                "a": sorted(int(v) for v in rng.integers(0, 25, 6000)),
                "p": list(range(6000)),
            }
        )
        assert_matches_oracle(table, "a", tmp_path)

    def test_reverse_worst_case(self, rng, tmp_path):
        table = Table.from_pydict(
            {
                "a": list(range(6000, 0, -1)),
                "p": [int(v) for v in rng.integers(0, 1 << 30, 6000)],
            }
        )
        assert_matches_oracle(table, "a", tmp_path)

    def test_mixed_numeric_types(self, rng, tmp_path):
        assert_matches_oracle(mixed_table(rng, 6000), "a, f DESC", tmp_path)


class CountingIO(SpillIO):
    """Records every write's section sizes and every ranged read."""

    def __init__(self) -> None:
        self.sections: dict[str, list[int]] = {}
        self.reads: list[tuple[str, int, int]] = []
        self._lock = threading.Lock()

    def write_file(self, path, sections):
        with self._lock:
            self.sections[path] = [len(section) for section in sections]
        super().write_file(path, sections)

    def read(self, path, offset, nbytes):
        with self._lock:
            self.reads.append((path, offset, nbytes))
        return super().read(path, offset, nbytes)

    def keys_bytes_read(self, path):
        """Bytes read inside a run file's keys section."""
        header, keys = self.sections[path][:2]
        lo, hi = header, header + keys
        return sum(
            max(0, min(hi, offset + nbytes) - max(lo, offset))
            for read_path, offset, nbytes in self.reads
            if read_path == path
        )


class TestKeyCarriedSingleRead:
    @pytest.mark.parametrize("prefetch_blocks", [0, 1])
    def test_keys_section_read_once(self, rng, tmp_path, prefetch_blocks):
        n = 6000
        table = Table.from_pydict(
            {
                "a": [
                    None if v % 11 == 0 else int(v)
                    for v in rng.integers(-50, 50, n)
                ],
                "b": [int(v) for v in rng.integers(0, 1 << 40, n)],
            }
        )
        io = CountingIO()
        result, stats = sort_external(
            table,
            "a DESC NULLS FIRST, b",
            tmp_path,
            io=io,
            prefetch_blocks=prefetch_blocks,
        )
        assert_byte_identical(
            result, oracle_sort(table, spec_of("a DESC NULLS FIRST, b"))
        )
        assert stats.runs_generated >= 4
        assert stats.key_carried_runs == stats.runs_generated
        assert len(io.sections) == stats.runs_generated
        for path, sizes in io.sections.items():
            _, keys, rows, heap = sizes
            assert rows == heap == 0  # nothing but keys was spilled
            assert io.keys_bytes_read(path) == keys, path


class TestMultipassMerge:
    def test_fan_in_multipass_byte_identical(self, rng, tmp_path):
        table = mixed_table(rng, 6000)
        single, single_stats = sort_external(
            table, "a", tmp_path / "single", run_threshold=500
        )
        multi, stats = sort_external(
            table, "a", tmp_path / "multi", run_threshold=500, merge_fan_in=4
        )
        assert_byte_identical(multi, single)
        assert single_stats.merge_passes == 1
        assert stats.merge_passes >= 2
        assert os.listdir(tmp_path / "multi") == []

    def test_fan_in_multipass_with_string_heaps(self, rng, tmp_path):
        # mixed_table strings fit inside the key prefix, so byte order
        # is exact and multipass is allowed -- intermediate runs must
        # rebuild their string heaps correctly.
        table = mixed_table(rng, 6000)
        spec = "s NULLS FIRST, a"
        single, _ = sort_external(
            table, spec, tmp_path / "single", run_threshold=500
        )
        multi, stats = sort_external(
            table,
            spec,
            tmp_path / "multi",
            run_threshold=500,
            merge_fan_in=2,
        )
        assert_byte_identical(multi, single)
        assert stats.merge_passes >= 2

    def test_fan_in_gated_off_for_inexact_strings(self, rng, tmp_path):
        # Strings longer than the key prefix need exact-varchar
        # refinement, which rewrites key bytes at the final merge;
        # intermediate runs cannot be cut from unrefined keys.
        long_strings = [
            f"shared-long-prefix-{int(v):012d}"
            for v in rng.integers(0, 2000, 6000)
        ]
        table = Table.from_pydict(
            {"s": long_strings, "p": list(range(6000))}
        )
        single, _ = sort_external(
            table, "s", tmp_path / "single", run_threshold=500
        )
        multi, stats = sort_external(
            table, "s", tmp_path / "multi", run_threshold=500, merge_fan_in=2
        )
        assert_byte_identical(multi, single)
        assert stats.merge_passes == 1

    def test_fan_in_validation(self):
        with pytest.raises(SortError):
            SortConfig(merge_fan_in=1)
        with pytest.raises(SortError):
            SortConfig(prefetch_blocks=-1)

    def test_fan_in_composes_with_prefetch(self, rng, tmp_path):
        table = near_sorted_table(rng, 8000)
        combined, stats = sort_external(
            table,
            "a",
            tmp_path,
            run_threshold=500,
            prefetch_blocks=2,
            merge_fan_in=4,
        )
        assert_byte_identical(combined, oracle_sort(table, spec_of("a")))
        assert stats.merge_passes >= 2
        assert no_prefetch_threads()


class TestVerifiedTailCache:
    def test_cache_semantics(self):
        cache = VerifiedTailCache()
        assert cache.get(0, 3) is None
        cache.put(0, 3, b"abc")
        assert cache.get(0, 3) == b"abc"
        assert cache.get(0, 4) is None  # different page misses
        assert cache.get(1, 3) is None  # different section misses
        cache.put(0, 4, b"def")  # replaces: one page per section
        assert cache.get(0, 3) is None
        assert cache.get(0, 4) == b"def"

    def test_straddling_reads_skip_reverification(self, rng, tmp_path):
        table = mixed_table(rng, 4000)
        operator = ExternalSortOperator(
            table.schema,
            SortSpec.of("a"),
            SortConfig(run_threshold=1000),
            spill_directory=str(tmp_path),
        )
        with operator:
            for chunk in chunk_table(table, 512):
                operator.sink(chunk)
            run = operator._runs[0]
            stats = operator.stats
            page = run.header.page_size
            # First row whose bytes start inside page 1 (rows do not
            # align to page boundaries, so round up).
            inside = -(-page // run.key_width)
            # Warm: verifies every page the range touches, caches the
            # tail page (page 1).
            first = run.read_key_block(0, inside + 2, stats)
            before = stats.checksum_verifications
            # Entirely inside the cached tail page: zero new
            # verifications, served from memory.
            again = run.read_key_block(inside, inside + 2, stats)
            assert stats.checksum_verifications == before
            assert again.tobytes() == first[inside:].tobytes()
            operator.finalize()
