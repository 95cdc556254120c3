"""The relational sort operator: DuckDB's Figure 11 pipeline on one core.

The operator is a pipeline breaker: it sinks all input as vector chunks,
then produces the fully sorted table in one pass:

1. **Buffer** -- incoming vector chunks are kept as they arrive.
2. **Encode** -- at finalize the chunks become one table (one
   concatenate per column) and the ORDER BY columns are encoded once into
   *normalized keys*: one order-preserving byte string per row, with a
   row-id suffix.  Key compression builds its layout from one statistics
   pass over that table.
3. **Sort** -- one stable vector sort of the key bytes
   (:func:`repro.sort.heuristic.vector_sort_rows`, or the morsel-parallel
   :class:`repro.sort.parallel_exec.ParallelSortExecutor` when
   ``num_workers > 1``).  Truncated VARCHAR prefixes are repaired by one
   :func:`repro.sort.stringsort.refine_key_order` pass over the sorted
   keys.
4. **Gather** -- the payload is one columnar ``Table.take`` of the
   permutation.

The paper cuts thread-local runs and merges them with a cascaded
Merge-Path merge because 48 threads each sort a cache-sized run.  On one
numpy core a single run is faster, so that cascade lives only in the
simulator and system models (:mod:`repro.systems.duckdb_model`, the
phase model of :mod:`repro.engine.parallel`).  Runs exist where they
must: external spills (:mod:`repro.sort.external`), parallel morsels and
incremental deltas (:mod:`repro.sort.incremental`).

``sort_table`` wraps the operator for one-shot use.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SortCancelledError, SortError
from repro.keys.compression import KeyStatsAccumulator, plain_key_width
from repro.keys.normalizer import MAX_STRING_PREFIX, NormalizedKeys, normalize_keys
from repro.sort.heuristic import vector_sort_rows
from repro.sort.stringsort import refine_key_order
from repro.sort.parallel_exec import (
    DEFAULT_MORSEL_ROWS as DEFAULT_PARALLEL_MORSEL_ROWS,
    ParallelSortExecutor,
)
from repro.sort.radix import RadixStats
from repro.table.chunk import VECTOR_SIZE, DataChunk, chunk_table
from repro.table.table import Table
from repro.types.datatypes import TypeId
from repro.types.schema import Schema
from repro.types.sortspec import SortSpec

__all__ = [
    "SortConfig",
    "SortStats",
    "SortOperator",
    "sort_table",
    "effective_run_threshold",
    "raise_if_cancelled",
]


def raise_if_cancelled(config: "SortConfig") -> None:
    """Raise :class:`SortCancelledError` when the config's event is set.

    The shared cooperative-cancellation checkpoint: every sort consumer
    (in-memory operator, external operator, Top-N, prefetch scheduler,
    parallel dispatch) calls this at its natural yield points.
    """
    event = config.cancel_event
    if event is not None and event.is_set():
        raise SortCancelledError("sort was cancelled")


def effective_run_threshold(config: "SortConfig") -> int:
    """The live run threshold: the configured one, shrunk by the grant.

    The external operator re-evaluates it at every sink so a governor
    revoking grant bytes mid-query takes effect at the next checkpoint --
    the run is cut and spilled earlier than the static configuration
    would have.
    """
    threshold = config.run_threshold
    grant = config.memory_grant
    if grant is not None:
        threshold = max(
            1, min(threshold, int(grant.effective_run_threshold(threshold)))
        )
    return threshold


DEFAULT_RUN_THRESHOLD = 1 << 17
"""Rows an external sort buffers before it cuts and spills a run."""


@dataclass(frozen=True)
class SortConfig:
    """Tuning knobs of the sort operator.

    Attributes:
        run_threshold: rows the external sort accumulates before it
            cuts and spills a sorted run.  The in-memory operator never
            spills and sorts its whole input as one run, so it ignores
            this (cutting runs there never bounded memory).
        string_prefix: forced VARCHAR prefix length in normalized keys
            (default: chosen from the data, capped at 12 like DuckDB).
        vector_size: chunk granularity used by :func:`sort_table`.
        external: make the engine's ORDER BY run through the
            spilling :class:`repro.sort.external.ExternalSortOperator`
            instead of the in-memory operator.
        spill_directories: ordered failover targets for spill files.
            The external sort writes each run to its primary directory
            first; on persistent write failure (e.g. ``ENOSPC``) it
            fails over to these, in order, before degrading to an
            in-memory run.
        spill_retries: transient-failure write retries per directory
            (bounded exponential backoff between attempts).
        spill_retry_backoff_s: initial backoff; doubles per retry,
            capped at 1 second.  Zero disables sleeping (tests).
        verify_spill_checksums: verify the per-page CRC32 checksums of
            every spill block read (and each run's header at merge
            start).  On by default; off trades integrity for a little
            read throughput.
        allow_memory_fallback: when no spill target is writable, keep
            runs in memory (reduced-memory degradation) instead of
            raising :class:`repro.errors.SpillCapacityError`.
        num_workers: worker processes for the multi-core parallel path
            (:mod:`repro.sort.parallel_exec`): morsel-driven run
            generation plus Merge-Path-partitioned merges over shared
            memory.  ``1`` (the default) keeps everything serial; any
            value is byte-identical to the serial kernels, and the
            parallel path silently falls back to serial when the
            platform lacks ``fork``/POSIX shared memory.  Truncated
            string prefixes run in parallel: the workers sort key bytes
            and the parent repairs prefix ties afterwards
            (:mod:`repro.sort.stringsort`), same as serial.
        parallel_morsel_rows: rows per run-generation morsel of the
            parallel path.
        compress_keys: shrink normalized keys from runtime statistics
            (paper, Section V): each fixed-width key column is biased to
            unsigned and stored at the minimal byte width its observed
            min/max needs, with the NULL indicator byte folded into the
            value when a spare code point exists
            (:mod:`repro.keys.compression`).  Off preserves the
            full-width layout bit-for-bit.  Ignored (treated as off) when
            ``string_prefix`` forces a fixed VARCHAR prefix, since the
            compressed layout chooses prefixes from the data.
        exact_varchar: repair truncated VARCHAR prefixes on the vector
            path (:mod:`repro.sort.stringsort`): byte-equal tie groups are
            re-encoded at progressively wider string offsets until the
            order is exact, once per in-memory sort and per external run
            or settled merge batch.  On by default.  Turning it off is
            the documented escape hatch for approximate prefix-only
            ordering and *requires* a forced ``string_prefix`` (so the
            truncation is an explicit choice, never an accident).
        use_ovc: apply offset-value coding in the merge kernels
            (:func:`repro.sort.kernels.merge_indices` /
            ``kway_merge_blocks``): uint64 words shared by every frontier
            row are skipped, so duplicate-heavy keys cost one word compare
            or none.  Off forces full-width comparisons (benchmark /
            equivalence-test knob; results are identical either way).
        prefetch_blocks: read-ahead depth, in blocks per run per section,
            of the external merge's prefetch layer
            (:mod:`repro.sort.prefetch`).  A small thread pool fetches and
            CRC-verifies each run's *next* key block (and the payload rows
            backing the frontier) while the merge kernel consumes the
            current one; file reads and ``zlib.crc32`` release the GIL, so
            the overlap is real in pure Python.  The total buffered
            read-ahead is additionally capped at ``run_threshold`` rows,
            so prefetch memory is charged against the same budget that
            sizes runs.  ``0`` disables prefetching (every spill read is
            synchronous on the merge's critical path).
        cancel_event: cooperative cancellation flag (any object with an
            ``is_set()`` method, typically a ``threading.Event``).  Both
            sort operators poll it at their checkpoints -- sink, run
            generation, every merge round, the external k-way merge's
            round hook, prefetch scheduling, and parallel phase
            dispatch -- and raise
            :class:`repro.errors.SortCancelledError` when it is set, so
            a query service can abort a sort from another thread
            without reaching into operator internals.  Cleanup follows
            the operator's normal failure paths (temp files removed,
            prefetch pools joined, shared memory released).
        memory_grant: per-operator memory grant from a global governor
            (any object with ``effective_run_threshold(base_rows)`` and
            ``record_spill(nbytes)``, see
            :class:`repro.service.governor.MemoryGrant`).  Like
            ``run_threshold`` it sizes external runs only; the in-memory
            operator ignores it.  The external operator treats ``min(run_threshold, grant.effective_run_threshold(
            run_threshold))`` as its live run threshold, re-read at
            every sink -- so a governor shrinking the grant under
            memory pressure forces runs (and the prefetch budget
            derived from the threshold) to shrink mid-query, spilling
            earlier via the existing degradation ladder.
            ``SortStats.governor_forced_spills`` counts runs cut below
            the configured threshold because of the grant.
        merge_fan_in: maximum runs merged per k-way pass of the external
            sort.  ``0`` (default) merges all runs in one pass.  With a
            limit, excess runs are first combined in intermediate passes
            that re-spill merged runs -- each pass re-reads and re-writes
            its input (``SortStats.merge_passes`` records the pass
            count).  Ignored when truncated VARCHAR prefixes require
            exact-string refinement (those merges stay single-pass).
    """

    run_threshold: int = DEFAULT_RUN_THRESHOLD
    string_prefix: int | None = None
    vector_size: int = VECTOR_SIZE
    external: bool = False
    spill_directories: tuple[str, ...] = ()
    spill_retries: int = 2
    spill_retry_backoff_s: float = 0.01
    verify_spill_checksums: bool = True
    allow_memory_fallback: bool = True
    num_workers: int = 1
    parallel_morsel_rows: int = DEFAULT_PARALLEL_MORSEL_ROWS
    compress_keys: bool = True
    exact_varchar: bool = True
    use_ovc: bool = True
    prefetch_blocks: int = 1
    merge_fan_in: int = 0
    cancel_event: object | None = field(default=None, compare=False)
    memory_grant: object | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.run_threshold <= 0:
            raise SortError("run_threshold must be positive")
        if not self.exact_varchar and self.string_prefix is None:
            raise SortError(
                "exact_varchar=False sorts by prefix bytes only; force a "
                "string_prefix to make the truncation explicit"
            )
        if self.num_workers < 1:
            raise SortError("num_workers must be at least 1")
        if self.parallel_morsel_rows < 1:
            raise SortError("parallel_morsel_rows must be at least 1")
        if self.spill_retries < 0:
            raise SortError("spill_retries must be non-negative")
        if self.prefetch_blocks < 0:
            raise SortError("prefetch_blocks must be non-negative")
        if self.merge_fan_in < 0 or self.merge_fan_in == 1:
            raise SortError("merge_fan_in must be 0 (unlimited) or >= 2")
        if self.spill_retry_backoff_s < 0:
            raise SortError("spill_retry_backoff_s must be non-negative")
        if not isinstance(self.spill_directories, tuple):
            object.__setattr__(
                self, "spill_directories", tuple(self.spill_directories)
            )


@dataclass
class SortStats:
    """What the operator did: run counts, sort kernels, merge work.

    The in-memory :class:`SortOperator` sorts its input as one run, so it
    reports ``runs_generated == 1`` (0 for empty input) and
    ``merge_rounds == 0``; its ``phase_seconds`` hold ``encode`` and
    ``run_gen`` (the sort, string repair and payload gather).  The run,
    merge, spill, prefetch and k-way counters below describe the external
    operator.

    ``kernel_kway_merges`` counts external k-way merge phases;
    ``kway_rounds`` and ``kway_peak_frontier_rows`` describe the
    kernel's frontier loop.  ``phase_seconds`` accumulates wall-clock per
    pipeline phase: ``encode`` (key normalization), ``run_gen`` (sorting
    runs), ``merge`` (merging runs, I/O excluded), and ``spill_io``
    (reading/writing spill files).

    The fault counters describe the external sort's degradation ladder:
    ``spill_retries`` (write attempts retried after a transient error),
    ``spill_failovers`` (runs redirected to a secondary spill
    directory), ``memory_run_fallbacks`` (runs kept in memory because no
    spill target was writable), ``checksum_verifications`` /
    ``checksum_failures`` (CRC32 pages checked on spill reads), and
    ``cleanup_errors`` (temp files/directories that could not be
    removed -- recorded, warned about, never silently swallowed).

    The parallel counters describe the multi-core executor
    (:mod:`repro.sort.parallel_exec`) when ``SortConfig.num_workers > 1``
    actually ran work: ``parallel_workers`` (pool size),
    ``parallel_task_rows`` / ``parallel_task_seconds`` (per parallel
    phase, the rows and wall-clock of every dispatched task in
    submission order), ``parallel_worker_seconds`` (busy time per pool
    worker slot), and ``parallel_makespan_s`` (parent-observed
    wall-clock of all parallel phases) -- the measured schedule that
    :class:`repro.engine.parallel.PhaseModel` predictions are checked
    against.

    The key-compression counters: ``key_width_used`` / ``key_width_full``
    are the final layout's key bytes per row with and without compression
    (row-id suffix excluded); ``key_layout_rebases`` counts runs whose
    keys were re-encoded because later data widened the layout;
    ``key_carried_runs`` counts external runs spilled as keys only (the
    payload reconstructed from the keys at merge time).
    ``vector_sort_paths`` / ``vector_sort_reasons`` record which
    vectorized sort kernel ran per run and why
    (:func:`repro.sort.heuristic.vector_sort_rows`).

    The exact-string counters: ``ovc_compares`` / ``ovc_ties`` are rows
    the merge kernels ordered through post-skip word comparisons vs. rows
    settled with all key words equal (offset-value coding);
    ``full_key_compares`` counts rows whose full string values were
    consulted to break byte-equal prefix ties; ``reencode_rounds`` /
    ``reencoded_rows`` count the adaptive tie-break re-encoding's chunk
    rounds and the row-chunks they touched
    (:mod:`repro.sort.stringsort`).

    The prefetch counters describe the external merge's read-ahead layer
    (:mod:`repro.sort.prefetch`): ``prefetch_hits`` (blocks already
    buffered when the merge asked for them) vs ``prefetch_misses``
    (blocks the merge had to wait for, or fetch synchronously), with the
    consumer-side wait recorded under ``phase_seconds["io_wait"]`` and
    the background threads' read+verify time under
    ``phase_seconds["spill_io_overlap"]`` (overlapped, so it does not
    extend the critical path the way ``spill_io`` does);
    ``prefetch_peak_blocks`` is the most read-ahead blocks buffered at
    once (the budget observably holding).

    The run-generation shape: ``run_lengths`` holds the row count of
    every external run in generation order (the run-length histogram);
    ``rungen_path`` is ``"argsort"`` once an external sort has cut a run
    (every run is one stable vector sort of the buffered rows) and
    stays ``""`` for in-memory sorts.
    ``merge_passes`` counts k-way merge passes over the data
    (1 unless ``SortConfig.merge_fan_in`` forces intermediate passes).
    ``governor_forced_spills`` counts runs cut below the configured
    ``run_threshold`` because a shrinking memory grant
    (``SortConfig.memory_grant``) lowered the live threshold -- the
    governor forcing an early spill.

    The order-propagation counters describe planner-level sortedness
    reuse (:mod:`repro.engine.plan`): ``sorts_elided`` counts sorts
    skipped entirely because the input's provided ordering already
    satisfied the spec, ``sorts_subsumed`` sorts satisfied by a strictly
    longer provided ordering (``ORDER BY a, b`` over input sorted
    ``a, b, c``), ``sorts_refined`` sorts downgraded to the tie-group
    refinement pass (:func:`repro.sort.refine.refine_sorted`) because a
    proper prefix of the spec was provided, and ``refine_fallbacks``
    refine attempts that fell back to a full sort (truncated-VARCHAR
    suffixes where :func:`repro.sort.stringsort.refinement_must_defer`
    says byte order is inexact).
    """

    rows_sorted: int = 0
    runs_generated: int = 0
    merge_rounds: int = 0
    kernel_kway_merges: int = 0
    kway_rounds: int = 0
    kway_peak_frontier_rows: int = 0
    prefix_exact: bool = True
    spill_retries: int = 0
    spill_failovers: int = 0
    memory_run_fallbacks: int = 0
    checksum_verifications: int = 0
    checksum_failures: int = 0
    cleanup_errors: list[str] = field(default_factory=list)
    radix: RadixStats = field(default_factory=RadixStats)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    parallel_workers: int = 0
    parallel_task_rows: dict[str, list[int]] = field(default_factory=dict)
    parallel_task_seconds: dict[str, list[float]] = field(
        default_factory=dict
    )
    parallel_worker_seconds: dict[int, float] = field(default_factory=dict)
    parallel_makespan_s: float = 0.0
    key_width_used: int = 0
    key_width_full: int = 0
    key_layout_rebases: int = 0
    key_carried_runs: int = 0
    vector_sort_paths: dict[str, int] = field(default_factory=dict)
    vector_sort_reasons: dict[str, int] = field(default_factory=dict)
    ovc_compares: int = 0
    ovc_ties: int = 0
    full_key_compares: int = 0
    reencode_rounds: int = 0
    reencoded_rows: int = 0
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    prefetch_peak_blocks: int = 0
    run_lengths: list[int] = field(default_factory=list)
    rungen_path: str = ""
    merge_passes: int = 0
    governor_forced_spills: int = 0
    sorts_elided: int = 0
    sorts_subsumed: int = 0
    sorts_refined: int = 0
    refine_fallbacks: int = 0

    def record_vector_sort(self, path: str, reason: str) -> None:
        self.vector_sort_paths[path] = self.vector_sort_paths.get(path, 0) + 1
        self.vector_sort_reasons[reason] = (
            self.vector_sort_reasons.get(reason, 0) + 1
        )

    def add_phase_seconds(self, phase: str, seconds: float) -> None:
        self.phase_seconds[phase] = (
            self.phase_seconds.get(phase, 0.0) + seconds
        )

    @contextmanager
    def time_phase(self, phase: str):
        """Accumulate the wall-clock of a ``with`` block into a phase."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_phase_seconds(phase, time.perf_counter() - start)


class SortOperator:
    """Materializing ORDER BY operator (paper Figure 11, one core).

    Use as::

        op = SortOperator(schema, SortSpec.of("a DESC", "b"))
        for chunk in chunks:
            op.sink(chunk)
        result = op.finalize()
    """

    def __init__(
        self,
        schema: Schema,
        spec: SortSpec,
        config: SortConfig | None = None,
    ) -> None:
        self.schema = schema
        self.spec = spec
        self.config = config or SortConfig()
        for name in spec.column_names:
            schema.column(name)  # raises SchemaError on unknown columns
        self._buffer: list[DataChunk] = []
        self._finalized = False
        self._parallel: ParallelSortExecutor | None = None
        self.stats = SortStats()
        self._has_string_key = any(
            schema.column(name).dtype.type_id is TypeId.VARCHAR
            for name in spec.column_names
        )
        # A forced string prefix pins the layout, which the statistics
        # pass would override -- compression defers to it.
        self._compress = (
            self.config.compress_keys and self.config.string_prefix is None
        )

    # ------------------------------------------------------------------ #
    # Parallel execution
    # ------------------------------------------------------------------ #

    def _parallel_executor(self) -> ParallelSortExecutor | None:
        """The lazily-created multi-core executor, or ``None`` if serial.

        The executor sorts key *bytes*; truncated string prefixes are
        repaired afterwards by the same tie refinement
        (:mod:`repro.sort.stringsort`) the serial path uses.
        """
        if self.config.num_workers <= 1:
            return None
        if self._parallel is None:
            self._parallel = ParallelSortExecutor(
                self.config.num_workers,
                self.config.parallel_morsel_rows,
                cancel_check=lambda: raise_if_cancelled(self.config),
            )
        return self._parallel

    def _close_parallel(self) -> None:
        if self._parallel is not None:
            self._parallel.close()
            self._parallel = None

    # ------------------------------------------------------------------ #
    # Sink
    # ------------------------------------------------------------------ #

    def sink(self, chunk: DataChunk) -> None:
        """Accept one vector batch of input."""
        if self._finalized:
            raise SortError("cannot sink into a finalized sort")
        if chunk.schema.names != self.schema.names:
            raise SortError(
                f"chunk schema {chunk.schema.names} does not match "
                f"operator schema {self.schema.names}"
            )
        raise_if_cancelled(self.config)
        if len(chunk) == 0:
            return
        self._buffer.append(chunk)

    # ------------------------------------------------------------------ #
    # Sort
    # ------------------------------------------------------------------ #

    def _encode(self, table: Table) -> NormalizedKeys:
        """Normalized keys of the whole input, in one pass."""
        # Uncompressed keys keep DuckDB's full 12-byte string prefix (the
        # legacy layout ``compress_keys=False`` preserves).
        string_prefix = self.config.string_prefix
        if string_prefix is None and self._has_string_key:
            string_prefix = MAX_STRING_PREFIX
        layout = None
        if self._compress:
            # Stats-driven key compression: one accumulator pass over
            # the input chooses every segment's width.
            acc = KeyStatsAccumulator(self.schema, self.spec)
            acc.update(table)
            layout = acc.build_layout(include_row_id=True, row_id_width=8)
        return normalize_keys(
            table,
            self.spec,
            string_prefix=string_prefix,
            include_row_id=True,
            row_id_width=8,
            layout=layout,
        )

    def _argsort(self, keys: NormalizedKeys) -> np.ndarray:
        """The sorting permutation of the key bytes.

        Every vector kernel is a stable sort of the key bytes without the
        row-id suffix: the suffix ascends with row index, so stability
        reproduces full-row memcmp order.  With inexact prefixes the
        result is the prefix order; :meth:`_refine_order` repairs it.
        """
        key_width = keys.layout.key_width
        executor = self._parallel_executor()
        if executor is not None:
            # Morsel-driven parallel sort of the same key bytes; stable,
            # so byte-identical to the serial kernels.
            order = executor.argsort(keys.matrix, key_width, self.stats)
            if order is not None:
                return order
        # Width/row-count/skew heuristic picks the vectorized MSD radix
        # kernel or the argsort/lexsort kernel.
        return vector_sort_rows(
            keys.matrix[:, :key_width],
            key_width,
            self.stats,
            self.stats.radix,
        )

    def _refine_order(
        self, table: Table, keys: NormalizedKeys, order: np.ndarray
    ) -> np.ndarray:
        """Repair a prefix-only permutation to exact full-string order.

        Adaptive tie-break re-encoding: only byte-equal groups of the
        prefix order are re-sorted on their full strings.  The groups
        arrive ordered by any later key bytes and the row id, which the
        stable re-sort keeps for equal full strings.
        """
        order = np.asarray(order, dtype=np.int64)
        matrix = keys.matrix[:, : keys.layout.key_width][order]

        def fetch_tied(tied: np.ndarray):
            source = order[tied]

            def get(name: str):
                column = table.column(name)
                return column.data[source], column.validity[source]

            return get

        perm = refine_key_order(matrix, keys.layout, fetch_tied, self.stats)
        if perm is None:
            return order
        return order[perm]

    # ------------------------------------------------------------------ #
    # Finalize
    # ------------------------------------------------------------------ #

    def finalize(self) -> Table:
        """Sort everything sunk and return it as one table."""
        if self._finalized:
            raise SortError("sort already finalized")
        self._finalized = True
        try:
            if not self._buffer:
                return Table.empty(self.schema)
            raise_if_cancelled(self.config)
            first, *rest = [chunk.to_table() for chunk in self._buffer]
            table = first.concat(*rest)
            self._buffer.clear()

            with self.stats.time_phase("encode"):
                keys = self._encode(table)
            self.stats.key_width_used = keys.layout.key_width
            self.stats.key_width_full = plain_key_width(keys.layout)
            self.stats.prefix_exact = keys.prefix_exact

            with self.stats.time_phase("run_gen"):
                order = self._argsort(keys)
                if not keys.prefix_exact and self.config.exact_varchar:
                    order = self._refine_order(table, keys, order)
                result = table.take(order)
            self.stats.runs_generated = 1
            self.stats.rows_sorted = len(table)
            return result
        finally:
            self._close_parallel()


def sort_table(
    table: Table, spec: SortSpec | str, config: SortConfig | None = None
) -> Table:
    """Sort a table by an ORDER BY spec; the one-call public entry point.

    ``spec`` may be a :class:`SortSpec` or text like
    ``"country DESC NULLS LAST, birth_year"``.
    """
    if isinstance(spec, str):
        spec = SortSpec.of(*[part.strip() for part in spec.split(",")])
    config = config or SortConfig()
    operator = SortOperator(table.schema, spec, config)
    for chunk in chunk_table(table, config.vector_size):
        operator.sink(chunk)
    return operator.finalize()
