"""Which calls each layer is timed at, and the per-layer metrics.

:data:`HOOKS` names, per layer, the functions and methods the traced run
wraps.  Every name is looked up when the tracer is installed; a hook
whose target no longer exists is reported absent and its metrics read 0.
:func:`layer_metrics` turns the recorded spans, the tracer's counts and
the program's own stats objects (``SortStats``, ``ServiceStats``,
``GovernorStats``, ``IncrementalStats``) into the per-layer metrics.

Times are self times (a span minus its traced children) and, like the
counts, are averaged per operation of the traced pass, so runs of
different lengths compare.
"""

from __future__ import annotations

import importlib
import statistics
from dataclasses import dataclass, field
from typing import Callable

from perfbench.tracing import Span, Tracer, self_times

__all__ = ["HOOKS", "PER_LAYER", "TraceInputs", "install", "layer_metrics"]


def _count_topn_in(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("topn.rows_in", len(args[1]))


def _count_topn_out(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("topn.rows_out", result.num_rows)


def _count_spill_write(tracer: Tracer, args, kwargs, result) -> None:
    sections = args[2] if len(args) > 2 else kwargs["sections"]
    tracer.count("spill.files")
    tracer.count(
        "spill.bytes_written",
        sum(memoryview(section).nbytes for section in sections),
    )


def _ticket_id(args, kwargs) -> object:
    return getattr(args[1], "query_id", None)


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str
    attr: str
    span: str
    on_return: Callable | None = None
    request_of: Callable | None = None


HOOKS: tuple[Hook, ...] = (
    Hook("table", "repro.table.table", "Table.concat", "table.concat"),
    Hook("table", "repro.table.table", "Table.take", "table.take"),
    Hook("engine", "repro.engine.database", "Database.plan", "engine.plan"),
    Hook("engine", "repro.engine.operators", "collect", "engine.collect"),
    Hook("keys", "repro.keys.normalizer", "normalize_keys", "keys.normalize"),
    Hook("keys", "repro.keys.encoding", "utf8_byte_lengths", "keys.utf8_lengths"),
    Hook("sort.heuristic", "repro.sort.heuristic", "vector_sort_rows", "sort.vector_sort"),
    Hook("sort.kernels", "repro.sort.operator", "SortOperator._merge_two_kernel", "sort.merge"),
    Hook("sort.kernels", "repro.sort.operator", "SortOperator._merge_two", "sort.merge"),
    Hook("sort.stringsort", "repro.sort.stringsort", "refine_key_order", "sort.refine"),
    Hook("rows", "repro.rows.block", "RowBlock.from_table", "rows.from_table"),
    Hook("rows", "repro.rows.block", "RowBlock.take", "rows.take"),
    Hook("rows", "repro.rows.block", "RowBlock.to_table", "rows.to_table"),
    Hook("sort.topn", "repro.sort.topn", "TopNOperator.sink", "topn.sink", _count_topn_in),
    Hook("sort.topn", "repro.sort.topn", "TopNOperator.finalize", "topn.finalize", _count_topn_out),
    Hook("sort.external", "repro.sort.faults", "SpillIO.write_file", "spill.write", _count_spill_write),
    Hook("sort.external", "repro.sort.faults", "SpillIO.read", "spill.read"),
    Hook("sort.kway", "repro.sort.kway", "kway_merge_stream", "kway.merge"),
    Hook("sort.kway", "repro.sort.kway", "kway_merge_indices", "kway.merge"),
    Hook("sort.incremental", "repro.sort.incremental", "IncrementalSorter.insert", "incremental.insert"),
    Hook("sort.incremental", "repro.sort.incremental", "IncrementalSorter.view", "incremental.view"),
    Hook("service.core", "repro.service.core", "SortService._run_ticket", "service.ticket", request_of=_ticket_id),
)

# Modules whose functions the hooks may have been imported into; loaded
# before patching so every holder of a wrapped name is found.
_PRELOAD = (
    "repro",
    "repro.engine.database",
    "repro.engine.expressions",
    "repro.sort.external",
    "repro.sort.refine",
    "repro.sort.incremental",
    "repro.sort.mergesort",
    "repro.aggregate.groupby",
    "repro.join.merge_join",
    "repro.service",
)

PER_LAYER: tuple[tuple[str, str], ...] = (
    ("table.concat_s", "s/op"),
    ("table.concat_calls", "count/op"),
    ("table.take_s", "s/op"),
    ("engine.plan_s", "s/op"),
    ("engine.collect_s", "s/op"),
    ("keys.normalize_s", "s/op"),
    ("keys.normalize_calls", "count/op"),
    ("keys.utf8_lengths_calls", "count/op"),
    ("keys.width_ratio", "ratio"),
    ("sort.vector_sort_s", "s/op"),
    ("sort.runs", "count/op"),
    ("sort.merge_s", "s/op"),
    ("sort.merge_rounds", "count/op"),
    ("sort.refine_s", "s/op"),
    ("sort.refine_calls", "count/op"),
    ("rows.from_table_s", "s/op"),
    ("rows.take_s", "s/op"),
    ("rows.to_table_s", "s/op"),
    ("topn.sink_s", "s/op"),
    ("topn.finalize_s", "s/op"),
    ("topn.rows_in_per_out", "ratio"),
    ("spill.bytes_written", "bytes/op"),
    ("spill.files", "count/op"),
    ("spill.write_s", "s/op"),
    ("spill.read_s", "s/op"),
    ("spill.io_wait_s", "s/op"),
    ("spill.write_amp", "ratio"),
    ("rungen.runs", "count/op"),
    ("rungen.merge_passes", "count/op"),
    ("rungen.rs_sorts", "count/op"),
    ("kway.merge_s", "s/op"),
    ("kway.rounds", "count/op"),
    ("kway.ovc_compares", "count/op"),
    ("prefetch.hit_share", "share"),
    ("incremental.insert_s", "s/op"),
    ("incremental.view_s", "s/op"),
    ("incremental.rows_compacted", "count/op"),
    ("service.exec_s", "s/op"),
    ("service.queue_wait_s", "s/op"),
    ("service.rejected", "count/op"),
    ("service.shed", "count/op"),
    ("service.timed_out", "count/op"),
    ("governor.grant_wait_s", "s/op"),
    ("governor.revocations", "count/op"),
    ("governor.forced_spills", "count/op"),
    ("cache.hit_share", "share"),
    ("cache.prefix_hits", "count/op"),
    ("bench.write_p50_s", "s"),
    ("bench.generator_lag_p50_s", "s"),
    ("bench.generator_lag_max_s", "s"),
    ("bench.span_coverage_share", "share"),
    ("bench.trace_overhead_share", "share"),
)
"""Every per-layer metric, with its unit, in print order."""


def install(tracer: Tracer) -> list[str]:
    """Patch every hook into the program; returns the absent hooks."""
    for module in _PRELOAD:
        importlib.import_module(module)
    absent = []
    for hook in HOOKS:
        if not tracer.patch(
            hook.module, hook.attr, hook.span, hook.on_return, hook.request_of
        ):
            absent.append(f"{hook.layer}:{hook.module}.{hook.attr}")
    return absent


@dataclass
class TraceInputs:
    """What a traced pass hands to :func:`layer_metrics`."""

    tracer: Tracer
    ops: int
    sort_stats: list = field(default_factory=list)
    input_bytes: int = 0
    service_stats: object = None
    governor_stats: object = None
    rows_compacted: int = 0
    read_waits: list[float] = field(default_factory=list)
    write_latencies: list[float] = field(default_factory=list)
    generator_lags: list[float] = field(default_factory=list)
    top_spans: tuple[str, ...] = ("bench.op",)
    overhead_share: float = 0.0


def _coverage(spans: list[Span], top: tuple[str, ...]) -> float:
    """Mean share of each top-level span its direct children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    shares = []
    for span in spans:
        if span.name in top and span.duration > 0:
            covered = sum(child.duration for child in children.get(span.span_id, []))
            shares.append(min(1.0, covered / span.duration))
    return statistics.fmean(shares) if shares else 0.0


def layer_metrics(inputs: TraceInputs) -> dict[str, float]:
    """Per-layer metric values, keyed as in :data:`PER_LAYER`."""
    tracer = inputs.tracer
    ops = max(1, inputs.ops)
    selfs = self_times(tracer.spans)

    def self_s(span: str) -> float:
        return selfs.get(span, (0.0, 0))[0] / ops

    def calls(span: str) -> float:
        return selfs.get(span, (0.0, 0))[1] / ops

    def inclusive_s(span: str) -> float:
        return sum(s.duration for s in tracer.spans if s.name == span) / ops

    stats = inputs.sort_stats
    external = [s for s in stats if s.rungen_path]
    in_memory = [s for s in stats if not s.rungen_path]
    width_full = sum(s.key_width_full for s in stats)
    hits = sum(s.prefetch_hits for s in stats)
    misses = sum(s.prefetch_misses for s in stats)
    counts = tracer.counts
    service = inputs.service_stats
    governor = inputs.governor_stats
    lookups = service.cache_hits + service.cache_misses if service else 0
    lags = inputs.generator_lags

    values = {
        "table.concat_s": self_s("table.concat"),
        "table.concat_calls": calls("table.concat"),
        "table.take_s": self_s("table.take"),
        "engine.plan_s": self_s("engine.plan"),
        "engine.collect_s": self_s("engine.collect"),
        "keys.normalize_s": self_s("keys.normalize"),
        "keys.normalize_calls": calls("keys.normalize"),
        "keys.utf8_lengths_calls": calls("keys.utf8_lengths"),
        "keys.width_ratio": (
            sum(s.key_width_used for s in stats) / width_full if width_full else 0.0
        ),
        "sort.vector_sort_s": self_s("sort.vector_sort"),
        "sort.runs": sum(s.runs_generated for s in in_memory) / ops,
        "sort.merge_s": self_s("sort.merge"),
        "sort.merge_rounds": sum(s.merge_rounds for s in stats) / ops,
        "sort.refine_s": self_s("sort.refine"),
        "sort.refine_calls": calls("sort.refine"),
        "rows.from_table_s": self_s("rows.from_table"),
        "rows.take_s": self_s("rows.take"),
        "rows.to_table_s": self_s("rows.to_table"),
        "topn.sink_s": self_s("topn.sink"),
        "topn.finalize_s": self_s("topn.finalize"),
        "topn.rows_in_per_out": (
            counts["topn.rows_in"] / counts["topn.rows_out"]
            if counts["topn.rows_out"]
            else 0.0
        ),
        "spill.bytes_written": counts["spill.bytes_written"] / ops,
        "spill.files": counts["spill.files"] / ops,
        "spill.write_s": self_s("spill.write"),
        "spill.read_s": self_s("spill.read"),
        "spill.io_wait_s": sum(s.phase_seconds.get("io_wait", 0.0) for s in stats) / ops,
        "spill.write_amp": (
            counts["spill.bytes_written"] / inputs.input_bytes
            if inputs.input_bytes
            else 0.0
        ),
        "rungen.runs": sum(s.runs_generated for s in external) / ops,
        "rungen.merge_passes": sum(s.merge_passes for s in external) / ops,
        "rungen.rs_sorts": sum(
            s.rungen_path == "replacement_selection" for s in external
        ) / ops,
        "kway.merge_s": self_s("kway.merge"),
        "kway.rounds": sum(s.kway_rounds for s in stats) / ops,
        "kway.ovc_compares": sum(s.ovc_compares for s in stats) / ops,
        "prefetch.hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "incremental.insert_s": self_s("incremental.insert"),
        "incremental.view_s": self_s("incremental.view"),
        "incremental.rows_compacted": inputs.rows_compacted / ops,
        "service.exec_s": inclusive_s("service.ticket"),
        "service.queue_wait_s": (
            sum(inputs.read_waits) / len(inputs.read_waits)
            if inputs.read_waits
            else 0.0
        ),
        "service.rejected": service.rejected / ops if service else 0.0,
        "service.shed": service.shed / ops if service else 0.0,
        "service.timed_out": service.timed_out / ops if service else 0.0,
        "governor.grant_wait_s": governor.grant_wait_s / ops if governor else 0.0,
        "governor.revocations": governor.revocations / ops if governor else 0.0,
        "governor.forced_spills": (
            service.governor_forced_spills / ops
            if service
            else sum(s.governor_forced_spills for s in stats) / ops
        ),
        "cache.hit_share": (
            (service.cache_hits + service.cache_prefix_hits) / lookups
            if lookups
            else 0.0
        ),
        "cache.prefix_hits": service.cache_prefix_hits / ops if service else 0.0,
        "bench.write_p50_s": (
            statistics.median(inputs.write_latencies)
            if inputs.write_latencies
            else 0.0
        ),
        "bench.generator_lag_p50_s": statistics.median(lags) if lags else 0.0,
        "bench.generator_lag_max_s": max(lags) if lags else 0.0,
        "bench.span_coverage_share": _coverage(tracer.spans, inputs.top_spans),
        "bench.trace_overhead_share": inputs.overhead_share,
    }
    return values
