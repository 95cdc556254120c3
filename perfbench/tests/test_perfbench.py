"""The benchmark's own checks: inputs, the reference, names, spans.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers
from perfbench.inputs import (
    CONFIG,
    delta_table,
    scenario_inputs,
    service_schedule,
    service_tables,
)
from perfbench.reference import Query, Reference, table_digest
from perfbench.run import END_TO_END, end_to_end, main
from perfbench.tracing import Tracer
from perfbench.workloads import Op, Outcome
from repro.engine.database import Database
from repro.workloads.scenarios import SCENARIOS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_same_seed_same_inputs():
    assert scenario_inputs("inmem_sort", 3) == scenario_inputs("inmem_sort", 3)
    assert scenario_inputs("inmem_sort", 3) != scenario_inputs("inmem_sort", 4)
    assert service_schedule(3, 5.0) == service_schedule(3, 5.0)
    assert service_schedule(3, 5.0) != service_schedule(4, 5.0)
    first, again = service_tables(3), service_tables(3)
    for name in first:
        assert table_digest(first[name]) == table_digest(again[name])
    assert table_digest(delta_table(3, 2)) == table_digest(delta_table(3, 2))
    assert table_digest(delta_table(3, 2)) != table_digest(delta_table(3, 1))


def test_schedule_rate_and_quiet_gaps():
    cfg = CONFIG["service_mix"]
    reads, writes = service_schedule(3, 4.0)
    per_cycle = sum(cfg["dashboard_counts"]) + sum(cfg["block_counts"].values())
    assert len(reads) == 4 * per_cycle and len(writes) == 4
    assert [w.index for w in writes] == [1, 2, 3, 4]
    requests = sorted(
        [(r.due, r.kind) for r in reads] + [(w.due, "write") for w in writes]
    )
    for (due, kind), (after, _) in zip(requests, requests[1:]):
        assert after - due >= cfg["quiet_after_s"].get(kind, 0.0) - 1e-9


@pytest.mark.parametrize(
    "scenario", ["mixed_null", "tpcds_catalog", "long_string", "dup_heavy"]
)
def test_reference_matches_engine(scenario):
    table = SCENARIOS[scenario].table(3000, 5)
    database = Database()
    database.register("t", table)
    query = Query("t", SCENARIOS[scenario].order_by)
    expected = Reference(table).expected_digest(query)
    assert table_digest(database.execute(query.sql)) == expected


def test_reference_filters_and_slices():
    table = SCENARIOS["uniform"].table(4000, 9)
    database = Database()
    database.register("u", table)
    reference = Reference(table)
    for query in (
        Query("u", "p DESC", columns=("p", "a"), limit=25, offset=7),
        Query("u", "p", where=("a", ">", 1 << 61)),
        Query("u", "a, p", where=("p", "<", 1 << 60), limit=10),
    ):
        assert table_digest(database.execute(query.sql)) == (
            reference.expected_digest(query)
        ), query.sql


def test_checker_rejects_wrong_permutation():
    table = SCENARIOS["uniform"].table(2000, 1)
    database = Database()
    database.register("u", table)
    query = Query("u", "a, p")
    result = database.execute(query.sql)
    expected = Reference(table).expected_digest(query)
    assert table_digest(result) == expected
    swap = np.arange(result.num_rows)
    swap[[10, 11]] = swap[[11, 10]]
    assert table_digest(result.take(swap)) != expected


def test_metric_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert dict(END_TO_END) == declared
    assert dict(layers.PER_LAYER) == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    }
    for name, unit in END_TO_END + layers.PER_LAYER:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
    outcome = Outcome(setup_s=[1.0], ops=[Op("read", 10, 0.5)], timed_s=0.5)
    values, samples = end_to_end(outcome)
    assert set(values) == set(samples) == set(declared)
    assert set(layers.layer_metrics(layers.TraceInputs(Tracer(), ops=1))) == set(
        dict(layers.PER_LAYER)
    )
    assert {w["name"] for w in BENCHMARK["workloads"]} == {
        "inmem_sort",
        "spill_sort",
        "service_mix",
    }


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(capsys, trace, section):
    code = main(
        ["--workload", "service_mix", "--seed", "4", "--seconds", "1", "--trace", str(trace)]
    )
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] and printed["failed"] == 0 and printed["attempted"] >= 1
    assert {
        name: metric["unit"] for name, metric in printed["metrics"].items()
    } == {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_top_level_spans_cover_the_query():
    table = SCENARIOS["uniform"].table(200_000, 2)
    database = Database()
    database.register("u", table)
    sql = Query("u", "a, p").sql
    database.execute(sql)  # warm
    tracer = Tracer()
    absent = layers.install(tracer)
    try:
        with tracer.span("bench.op", request=1):
            traced = database.execute_detailed(sql)[0]
    finally:
        tracer.restore()
    assert absent == []
    (op,) = [s for s in tracer.spans if s.name == "bench.op"]
    children = [s for s in tracer.spans if s.parent == op.span_id]
    assert {s.name for s in children} >= {"engine.plan", "engine.collect"}
    assert sum(s.duration for s in children) >= 0.95 * op.duration
    assert all(s.request == 1 for s in tracer.spans)
    assert table_digest(traced) == table_digest(database.execute(sql))


def test_wrappers_are_restored_and_absent_hooks_are_reported():
    import repro.keys.normalizer as normalizer
    import repro.sort.operator as operator_module

    original = normalizer.normalize_keys
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert operator_module.normalize_keys is not original
        assert operator_module.normalize_keys.__wrapped__ is original
        assert not tracer.patch(
            "repro.sort.operator", "SortOperator._no_such_method", "x"
        )
        assert not tracer.patch("repro.no_such_module", "f", "x")
    finally:
        tracer.restore()
    assert operator_module.normalize_keys is original
    assert normalizer.normalize_keys is original
