"""Concurrent query service benchmark; writes BENCH_service.json.

Measures what the service layer buys (and costs) when many ORDER BY
queries contend for one constrained sort-memory budget:

* **serial** -- the same queries one after another through
  ``Database.execute`` with the full budget to themselves; the baseline
  latency floor.
* **concurrent** -- all queries submitted at once to a
  :class:`repro.service.SortService` whose
  :class:`~repro.service.MemoryGovernor` budget is deliberately sized
  for only a couple of grants, so admission revokes shares and forces
  early spills while workers overlap each other's I/O and compute.

Reported per scenario (``uniform`` and ``zipf_dups`` from
:mod:`scenarios`): wall-clock throughput (queries/s and rows/s), p50/p99
per-query latency (submit to completion, measured by per-ticket waiter
threads, not by polling order), and the governor counters that prove the
budget actually constrained the run (grant waits, revocations, forced
spills, peak concurrent spill bytes).

Timings vary with runner hardware, so they are *recorded, not gated*;
what IS asserted at any scale: every concurrent result is byte-identical
to its serial run, the governor forced at least one early spill, and no
grant, spill file, or service thread survives the run.

Results land in ``BENCH_service.json`` at the repository root.  Runs
standalone (``python benchmarks/bench_service.py [--rows N]``) or under
pytest.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import tempfile
import threading
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np  # noqa: E402

from scenarios import scenario_table  # noqa: E402
from repro.engine import Database  # noqa: E402
from repro.service import SortService  # noqa: E402
from repro.sort.operator import SortConfig  # noqa: E402
from repro.table.table import Table  # noqa: E402

OUTPUT = os.path.join(os.path.dirname(_SRC), "BENCH_service.json")

DEFAULT_ROWS = 1_000_000
SCENARIO_NAMES = ("uniform", "zipf_dups")
QUERIES = 16
WORKERS = 8
MEMORY_BUDGET = 256 << 10  # sized for ~4 minimum grants: real contention
MIN_GRANT = 64 << 10


def _tables_equal(a: Table, b: Table) -> bool:
    if a.num_rows != b.num_rows:
        return False
    for name in a.schema.names:
        left, right = a.column(name), b.column(name)
        if left.data.tobytes() != right.data.tobytes():
            return False
    return True


def _spill_dirs() -> set:
    return set(
        glob.glob(os.path.join(tempfile.gettempdir(), "repro-spill-*"))
    )


def bench_scenario(name: str, rows: int) -> dict:
    config = SortConfig(external=True, run_threshold=max(2000, rows // 4))
    db = Database(sort_config=config)
    db.register("t", scenario_table(name, rows, seed=17))
    # Distinct OFFSETs defeat the result cache without changing the work.
    queries = [
        f"SELECT * FROM t ORDER BY a, p OFFSET {i}" for i in range(QUERIES)
    ]

    serial_started = time.perf_counter()
    expected = {sql: db.execute(sql) for sql in queries}
    serial_s = time.perf_counter() - serial_started

    before_dirs = _spill_dirs()
    latencies: dict[str, float] = {}
    latencies_lock = threading.Lock()

    with SortService(
        db,
        memory_budget=MEMORY_BUDGET,
        min_grant_bytes=MIN_GRANT,
        workers=WORKERS,
        queue_limit=QUERIES,
        cache_capacity=0,
        admission_timeout_s=600.0,
    ) as service:
        concurrent_started = time.perf_counter()
        tickets = [service.submit(sql) for sql in queries]

        def waiter(sql: str, ticket) -> None:
            result = ticket.result(timeout=600)
            elapsed = time.monotonic() - ticket.submitted_at
            assert _tables_equal(result, expected[sql]), (
                f"concurrent result diverged from serial for {sql!r}"
            )
            with latencies_lock:
                latencies[ticket.query_id] = elapsed

        waiters = [
            threading.Thread(target=waiter, args=(sql, ticket))
            for sql, ticket in zip(queries, tickets)
        ]
        for thread in waiters:
            thread.start()
        for thread in waiters:
            thread.join()
        concurrent_s = time.perf_counter() - concurrent_started
        stats = service.stats
        assert service.governor.active_grants == 0, "grant leaked"
        assert service.governor.concurrent_spill_bytes == 0

    assert len(latencies) == QUERIES
    assert stats.completed == QUERIES
    assert stats.governor_forced_spills > 0, (
        "budget never constrained a sort -- benchmark is not measuring "
        "contention"
    )
    assert _spill_dirs() == before_dirs, "spill directory leaked"

    values = np.array(sorted(latencies.values()))
    return {
        "serial_s": serial_s,
        "serial_queries_per_s": QUERIES / serial_s,
        "concurrent_s": concurrent_s,
        "concurrent_queries_per_s": QUERIES / concurrent_s,
        "concurrent_rows_per_s": QUERIES * rows / concurrent_s,
        "speedup_vs_serial": serial_s / concurrent_s,
        "latency_p50_s": float(np.percentile(values, 50)),
        "latency_p99_s": float(np.percentile(values, 99)),
        "latency_max_s": float(values[-1]),
        "governor": {
            "grant_waits": stats.grant_waits,
            "grant_wait_s": stats.grant_wait_s,
            "revocations": stats.revocations,
            "peak_active_grants": stats.peak_active_grants,
            "governor_forced_spills": stats.governor_forced_spills,
            "peak_concurrent_spill_bytes": stats.peak_concurrent_spill_bytes,
        },
    }


def main(rows: int = DEFAULT_ROWS, out: str = OUTPUT) -> dict:
    results = {
        "cpu_count": os.cpu_count(),
        "rows": rows,
        "queries_per_scenario": QUERIES,
        "workers": WORKERS,
        "memory_budget_bytes": MEMORY_BUDGET,
        "min_grant_bytes": MIN_GRANT,
        "scenarios": {},
    }
    for name in SCENARIO_NAMES:
        results["scenarios"][name] = bench_scenario(name, rows)
    with open(out, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    for name, numbers in results["scenarios"].items():
        print(
            f"{name}: concurrent {numbers['concurrent_queries_per_s']:.2f} q/s "
            f"({numbers['speedup_vs_serial']:.2f}x vs serial), "
            f"p50 {numbers['latency_p50_s']:.3f}s "
            f"p99 {numbers['latency_p99_s']:.3f}s, "
            f"forced_spills={numbers['governor']['governor_forced_spills']} "
            f"revocations={numbers['governor']['revocations']}"
        )
    print(f"wrote {out} (cpu_count={results['cpu_count']})")
    return results


def test_service_bench_smoke(tmp_path, capsys):
    out = tmp_path / "BENCH_service.json"
    with capsys.disabled():
        print()
        results = main(rows=50_000, out=str(out))
    # Byte identity and governor pressure are asserted inside main();
    # here only completeness of the recorded shape.
    assert set(results["scenarios"]) == set(SCENARIO_NAMES)
    for numbers in results["scenarios"].values():
        assert numbers["latency_p99_s"] >= numbers["latency_p50_s"]
    assert out.exists()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=DEFAULT_ROWS)
    parser.add_argument("--out", type=str, default=OUTPUT)
    arguments = parser.parse_args()
    main(rows=arguments.rows, out=arguments.out)
