"""The three workloads: two closed loops and one open-loop service mix.

Each ``run_*`` function sets up (several times, reporting the median),
measures for the given seconds, then -- outside every timed interval,
after peak memory is read -- checks each result against the tuple-key
reference and looks for leaked spill files and threads.

With ``trace`` set the measured time is split in two passes over the
same set-up: the first untraced, the second with every layer hook
installed.  The traced pass gives the per-layer metrics; comparing the
two gives the tracing overhead.  End-to-end metrics come only from
untraced runs.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import os
import resource
import shutil
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import layers
from perfbench.inputs import (
    CONFIG,
    DASHBOARDS,
    Read,
    delta_table,
    input_bytes,
    scenario_inputs,
    service_schedule,
    service_tables,
)
from perfbench.reference import Query, Reference, table_digest
from perfbench.tracing import Tracer
from repro.engine.database import Database
from repro.service.core import QueryTicket, SortService
from repro.sort.operator import SortConfig
from repro.table.column import ColumnVector
from repro.table.table import Table
from repro.workloads.scenarios import SCENARIOS

__all__ = ["Outcome", "WORKLOADS", "run_workload"]

_clock = time.perf_counter
_LEAK_PREFIXES = ("repro-service", "spill-prefetch")
_DONE_AT = "perfbench_done_at"
_SPIN_S = 0.001  # the last stretch before a due time is busy-waited


@dataclass
class Op:
    """One operation the load generator attempted."""

    kind: str  # "read" or "write"
    rows: int
    latency: float | None = None  # None: the operation raised
    error: str | None = None
    slo_s: float = float("inf")


@dataclass
class Outcome:
    """What one run measured and found."""

    setup_s: list[float] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    timed_s: float = 0.0
    peak_rss_mb: float = 0.0
    wrong: list[str] = field(default_factory=list)
    leaks: list[str] = field(default_factory=list)
    layer: dict[str, float] | None = None
    traced_ops: int = 0
    absent: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return max(1, len(self.ops))

    @property
    def failed(self) -> int:
        errors = sum(op.latency is None for op in self.ops)
        return min(self.attempted, errors + len(self.wrong) + len(self.leaks))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _leaked_threads() -> list[str]:
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(_LEAK_PREFIXES) and thread.is_alive()
    ]


def _work_dir(root: Path) -> Path:
    path = root / ".perfbench-work" / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@contextmanager
def _trace_pass(tracer: Tracer, outcome: Outcome):
    """The traced pass: every layer hook installed, always restored."""
    outcome.absent = layers.install(tracer)
    try:
        yield
    finally:
        tracer.restore()


# ---------------------------------------------------------------------- #
# Closed loops: inmem_sort and spill_sort
# ---------------------------------------------------------------------- #


def _closed_setup(workload: str, seed: int, config: SortConfig) -> Database:
    database = Database(config)
    for name, rows, table_seed in scenario_inputs(workload, seed):
        database.register(name, SCENARIOS[name].table(rows, table_seed))
    # Warm-up: one small sort per scenario finishes lazy imports and
    # first-call set-up before the first timed query.
    warm = Database(config)
    for name, _, table_seed in scenario_inputs(workload, seed):
        warm.register(name, SCENARIOS[name].table(CONFIG["warmup_rows"], table_seed))
        warm.execute_detailed(Query(name, SCENARIOS[name].order_by).sql)
    return database


def _closed_pass(
    database: Database,
    queries: list[Query],
    seconds: float,
    slo_s: float,
    digests: list[tuple[str, str]],
    ops: list[Op],
    tracer: Tracer | None = None,
) -> list:
    """Run whole cycles until ``seconds`` have passed; returns SortStats."""
    sort_stats: list = []
    started = _clock()
    while True:
        for query in queries:
            rows = database.table(query.table).num_rows
            op = Op("read", rows, slo_s=slo_s)
            ops.append(op)
            begin = _clock()
            try:
                if tracer is None:
                    result, stats = database.execute_detailed(query.sql)
                else:
                    with tracer.span("bench.op", request=len(ops)):
                        result, stats = database.execute_detailed(query.sql)
            except Exception as error:  # a failed operation is counted, not fatal
                op.error = f"{query.sql}: {error!r}"
                continue
            op.latency = _clock() - begin
            sort_stats.extend(stats)
            digests.append((query.table, table_digest(result)))
            del result
        if _clock() - started >= seconds:
            return sort_stats


def run_closed(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> Outcome:
    cfg = CONFIG[workload]
    outcome = Outcome()
    work = _work_dir(root)
    try:
        if workload == "spill_sort":
            config = SortConfig(external=True, spill_directories=(str(work),))
        else:
            config = SortConfig()
        database = None
        for _ in range(CONFIG["setup_repeats"]):
            database = None  # free the previous set-up before timing the next
            gc.collect()
            begin = _clock()
            database = _closed_setup(workload, seed, config)
            outcome.setup_s.append(_clock() - begin)
        queries = [
            Query(name, SCENARIOS[name].order_by)
            for name, _, _ in scenario_inputs(workload, seed)
        ]
        digests: list[tuple[str, str]] = []
        plain: list[Op] = []
        if not trace:
            _closed_pass(database, queries, seconds, cfg["slo_s"], digests, plain)
            outcome.ops = plain
        else:
            _closed_pass(database, queries, seconds / 2, cfg["slo_s"], digests, plain)
            tracer = Tracer()
            traced: list[Op] = []
            with _trace_pass(tracer, outcome):
                stats = _closed_pass(
                    database, queries, seconds / 2, cfg["slo_s"], digests, traced, tracer
                )
            outcome.ops = plain + traced
            outcome.traced_ops = len(traced)
            outcome.layer = layers.layer_metrics(
                layers.TraceInputs(
                    tracer=tracer,
                    ops=len(traced),
                    sort_stats=stats,
                    input_bytes=_sorted_bytes(database, queries, traced),
                    overhead_share=_overhead(plain, traced),
                )
            )
        outcome.peak_rss_mb = _peak_rss_mb()
        outcome.leaks.extend(f"thread {name}" for name in _leaked_threads())
        outcome.leaks.extend(f"spill file {p.name}" for p in work.iterdir())
        # Reference results: once per (scenario, rows, seed), after the
        # measurements and the peak-memory reading.
        expected = {
            q.table: Reference(database.table(q.table)).expected_digest(q)
            for q in queries
        }
        outcome.wrong.extend(
            f"{table}: result differs from the reference"
            for table, digest in digests
            if digest != expected[table]
        )
        if not trace:
            outcome.timed_s = sum(op.latency for op in plain if op.latency is not None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    return outcome


def _sorted_bytes(database: Database, queries: list[Query], ops: list[Op]) -> int:
    """Input bytes of the queries that completed (ops run in cycle order)."""
    sizes = {q.table: input_bytes(database.table(q.table)) for q in queries}
    cycle = queries * (len(ops) // len(queries) + 1)
    return sum(
        sizes[q.table] for q, op in zip(cycle, ops) if op.latency is not None
    )


def _overhead(plain: list[Op], traced: list[Op]) -> float:
    """Traced time per row over untraced time per row, minus one."""

    def per_row(ops: list[Op]) -> float:
        done = [op for op in ops if op.latency is not None]
        rows = sum(op.rows for op in done)
        return sum(op.latency for op in done) / rows if rows else 0.0

    base = per_row(plain)
    return per_row(traced) / base - 1.0 if base else 0.0


# ---------------------------------------------------------------------- #
# Open loop: service_mix
# ---------------------------------------------------------------------- #


def _stamp_completion() -> list[tuple[str, object]]:
    """Record when each ticket completes, on the thread completing it.

    ``QueryTicket`` exposes ``done`` but no completion time; the open
    loop's latency needs one without a polling client thread.  Returns
    the originals for :func:`_unstamp`; absent methods leave latency to
    be observed by the draining client instead.
    """
    originals = []
    for name in ("_complete", "_fail"):
        method = QueryTicket.__dict__.get(name)
        if method is None:
            continue

        def stamped(self, value, _method=method):
            setattr(self, _DONE_AT, _clock())
            return _method(self, value)

        originals.append((name, method))
        setattr(QueryTicket, name, functools.wraps(method)(stamped))
    return originals


def _unstamp(originals: list[tuple[str, object]]) -> None:
    for name, method in originals:
        setattr(QueryTicket, name, method)


@dataclass
class _ServiceState:
    service: SortService
    database: Database
    deltas: list[Table]
    published: list[float] = field(default_factory=list)  # done times
    lock: threading.Lock = field(default_factory=threading.Lock)


def _service_setup(seed: int, writes: int) -> _ServiceState:
    cfg = CONFIG["service_mix"]
    database = Database()
    for name, table in service_tables(seed).items():
        database.register(name, table)
    deltas = [delta_table(seed, index) for index in range(writes + 1)]
    database.register("events", Table.empty(deltas[0].schema))
    service = SortService(
        database,
        cfg["memory_budget_bytes"],
        workers=cfg["workers"],
        queue_limit=cfg["queue_limit"],
        cache_capacity=cfg["cache_capacity"],
    )
    try:
        service.maintain_view("v", "events", "a, p")
        service.append_delta("v", deltas[0]).result()
        service.publish_view("v")
        # Warm-up: every dashboard once, so the cache holds the popular
        # results and lazy set-up is done before the first timed read.
        for query in DASHBOARDS:
            service.execute(query.sql)
    except BaseException:
        service.shutdown()
        raise
    return _ServiceState(service, database, deltas)


def _wait_until(due: float) -> None:
    """Sleep until just before ``due``, then spin: wake-up jitter of
    ``time.sleep`` would otherwise count in every latency."""
    time.sleep(max(0.0, due - _SPIN_S - _clock()))
    while _clock() < due:
        pass


@dataclass
class _Pending:
    read: Read
    due: float
    ticket: QueryTicket | None
    op: Op
    version_lo: int
    result: Table | None = None


def _writer(state: _ServiceState, writes, start: float, ops: list[Op], timeout: float) -> None:
    """Second client thread: append a delta, then publish the view."""
    cfg = CONFIG["service_mix"]
    for write in writes:
        due = start + write.due
        _wait_until(due)
        op = Op("write", cfg["delta_rows"])
        ops.append(op)
        try:
            state.service.append_delta("v", state.deltas[write.index]).result(timeout)
            state.service.publish_view("v", timeout=timeout)
        except Exception as error:  # a failed operation is counted, not fatal
            op.error = f"write {write.index}: {error!r}"
            continue
        done = _clock()
        op.latency = done - due
        with state.lock:
            state.published.append(done)


def _serve_pass(state: _ServiceState, reads, writes):
    """Drive one schedule: reads from this thread, writes from another."""
    cfg = CONFIG["service_mix"]
    timeout = cfg["drain_timeout_s"]
    pending: list[_Pending] = []
    write_ops: list[Op] = []
    lags: list[float] = []
    start = _clock() + 0.01
    writer = threading.Thread(
        target=_writer,
        args=(state, writes, start, write_ops, timeout),
        name="perfbench-writer",
    )
    writer.start()
    try:
        for read in reads:
            due = start + read.due
            _wait_until(due)
            lags.append(_clock() - due)
            table = state.database.table(read.query.table)
            op = Op("read", table.num_rows, slo_s=cfg["read_slo_s"])
            with state.lock:
                version_lo = len(state.published)
            try:
                ticket = state.service.submit(read.query.sql)
            except Exception as error:  # a failed operation is counted, not fatal
                op.error = f"{read.query.sql}: {error!r}"
                ticket = None
            pending.append(_Pending(read, due, ticket, op, version_lo))
    finally:
        writer.join()
    deadline = _clock() + timeout
    for item in pending:
        if item.ticket is None:
            continue
        try:
            item.result = item.ticket.result(max(0.0, deadline - _clock()))
        except Exception as error:  # a failed operation is counted, not fatal
            item.op.error = f"{item.read.query.sql}: {error!r}"
            item.ticket.cancel()
            continue
        done = getattr(item.ticket, _DONE_AT, None) or _clock()
        item.op.latency = done - item.due
    end = max(
        [start]
        + [p.due + p.op.latency for p in pending if p.op.latency is not None]
        + [start + w.due + op.latency for w, op in zip(writes, write_ops) if op.latency is not None]
    )
    return pending, write_ops, lags, end - start


def _read_waits(pending: list[_Pending], tracer: Tracer) -> list[float]:
    """Per read: latency from its due time minus its execution span."""
    spans = {
        s.request: s.duration for s in tracer.spans if s.name == "service.ticket"
    }
    return [
        item.op.latency - spans.get(item.ticket.query_id, 0.0)
        for item in pending
        if item.op.latency is not None and item.ticket is not None
    ]


def _stats_delta(after, before):
    """Field-wise difference of two numeric stats dataclass snapshots."""
    return dataclasses.replace(
        after,
        **{
            f.name: getattr(after, f.name) - getattr(before, f.name)
            for f in dataclasses.fields(after)
            if isinstance(getattr(after, f.name), (int, float))
        },
    )


def _check_service(state: _ServiceState, pending: list[_Pending], outcome: Outcome) -> None:
    """Compare every read against the reference for what it could see."""
    references = {name: Reference(state.database.table(name)) for name in ("u", "ls")}
    view_refs: dict[int, Reference] = {}

    def view_reference(version: int) -> Reference:
        if version not in view_refs:
            view_refs[version] = Reference(_concat(state.deltas[:version]))
        return view_refs[version]

    published = sorted(state.published)
    for item in pending:
        if item.result is None:
            continue
        digest = table_digest(item.result)
        query = item.read.query
        if query.table != "v":
            ok = digest == references[query.table].expected_digest(query)
        else:
            # The view held deltas[:1 + k] after k publishes; a read may
            # see any version current between its submit and completion.
            done = item.due + item.op.latency
            seen_by_done = sum(t <= done for t in published)
            versions = range(1 + item.version_lo, 2 + min(seen_by_done + 1, len(published)))
            ok = any(
                digest == view_reference(version).expected_digest(query)
                for version in versions
            )
        if not ok:
            outcome.wrong.append(f"{query.sql}: result differs from the reference")


def _concat(tables: list[Table]) -> Table:
    """Row-wise concatenation with numpy (the reference's own copy)."""
    first = tables[0]
    columns = [
        ColumnVector(
            column.dtype,
            np.concatenate([t.column_at(i).data for t in tables]),
            np.concatenate([t.column_at(i).validity for t in tables]),
        )
        for i, column in enumerate(first.columns)
    ]
    return Table(first.schema, columns)


def _traced_service_pass(
    state: _ServiceState, reads, writes, plain: list[_Pending], outcome: Outcome
) -> list[_Pending]:
    """Serve a second schedule with every layer hook installed."""
    tracer = Tracer()
    service_before = state.service.stats
    governor_before = dataclasses.replace(state.service.governor.stats)
    compacted_before = state.service.view_stats("v").rows_compacted
    with _trace_pass(tracer, outcome):
        pending, write_ops, lags, _ = _serve_pass(state, reads, writes)
    outcome.ops.extend(p.op for p in pending)
    outcome.ops.extend(write_ops)
    outcome.traced_ops = len(pending) + len(write_ops)

    def read_p50(items: list[_Pending]) -> float:
        done = [p.op.latency for p in items if p.op.latency is not None]
        return statistics.median(done) if done else 0.0

    base = read_p50(plain)
    outcome.layer = layers.layer_metrics(
        layers.TraceInputs(
            tracer=tracer,
            ops=outcome.traced_ops,
            sort_stats=[
                stats
                for p in pending
                if p.ticket is not None and p.ticket.done
                for stats in p.ticket.sort_stats
            ],
            service_stats=_stats_delta(state.service.stats, service_before),
            governor_stats=_stats_delta(state.service.governor.stats, governor_before),
            rows_compacted=state.service.view_stats("v").rows_compacted - compacted_before,
            read_waits=_read_waits(pending, tracer),
            write_latencies=[w.latency for w in write_ops if w.latency is not None],
            generator_lags=lags,
            top_spans=("service.ticket",),
            overhead_share=read_p50(pending) / base - 1.0 if base else 0.0,
        )
    )
    return pending


def run_service(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    length = seconds / 2 if trace else seconds
    reads, writes = service_schedule(seed, length)
    traced_reads, traced_writes = service_schedule(seed + 1, length) if trace else ([], [])
    # The traced pass appends the deltas that follow the untraced pass's.
    traced_writes = [
        dataclasses.replace(w, index=w.index + len(writes)) for w in traced_writes
    ]
    originals = _stamp_completion()
    state = None
    try:
        for _ in range(CONFIG["setup_repeats"]):
            if state is not None:
                state.service.shutdown()
            state = None  # free the previous set-up before timing the next
            gc.collect()
            begin = _clock()
            state = _service_setup(seed, len(writes) + len(traced_writes))
            outcome.setup_s.append(_clock() - begin)
        pending, write_ops, lags, outcome.timed_s = _serve_pass(state, reads, writes)
        outcome.ops = [p.op for p in pending] + write_ops
        outcome.notes.append(
            f"generator lag p50 {statistics.median(lags) if lags else 0.0:.6f} s, "
            f"max {max(lags) if lags else 0.0:.6f} s over {len(lags)} reads"
        )
        if trace:
            pending += _traced_service_pass(
                state, traced_reads, traced_writes, pending, outcome
            )
        state.service.shutdown()
        outcome.peak_rss_mb = _peak_rss_mb()
        outcome.leaks.extend(f"thread {name}" for name in _leaked_threads())
        _check_service(state, pending, outcome)
    finally:
        if state is not None:
            state.service.shutdown()
        _unstamp(originals)
    return outcome


WORKLOADS = ("inmem_sort", "spill_sort", "service_mix")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> Outcome:
    if workload == "service_mix":
        return run_service(seed, seconds, trace)
    if workload in ("inmem_sort", "spill_sort"):
        return run_closed(workload, seed, seconds, trace, root)
    raise ValueError(f"unknown workload {workload!r}")
