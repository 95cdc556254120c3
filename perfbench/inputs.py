"""Seed-derived inputs: catalog tables, the service schedule, constants.

Everything a run feeds the program comes from here and depends only on
``--seed`` and the fixed constants in ``config.json``: the same seed
gives the same tables, the same arrival times and the same SQL text.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench.reference import Query
from repro.table.table import Table
from repro.workloads.scenarios import SCENARIOS

__all__ = [
    "CONFIG",
    "DASHBOARDS",
    "Read",
    "Write",
    "derive_seed",
    "delta_table",
    "input_bytes",
    "scenario_inputs",
    "service_schedule",
    "service_tables",
]

CONFIG = json.loads((Path(__file__).parent / "config.json").read_text())
"""The benchmark's fixed constants (sizes, rates, latency limits)."""

_PAYLOAD_SPAN = 1 << 62

# Repeated "dashboard" reads, most popular first.  The uniform table is
# ``u``, the long-string table ``ls``, the published incremental view
# ``v`` (ordered by ``a, p``).  The full ORDER BYs come first so the
# warm-up caches them before the Top-N reads they can serve.
DASHBOARDS: tuple[Query, ...] = (
    Query("u", "a, p"),
    Query("ls", "s, p"),
    Query("u", "a, p", limit=100),
    Query("v", "a, p", limit=100),
    Query("ls", "s, p", limit=50),
    Query("u", "p DESC", columns=("p", "a"), limit=25),
)


def derive_seed(seed: int, *labels: object) -> int:
    """A 31-bit seed for one named input, derived from the run seed."""
    text = "/".join(str(label) for label in (seed, *labels))
    return zlib.crc32(text.encode()) & 0x7FFFFFFF


def scenario_inputs(workload: str, seed: int) -> list[tuple[str, int, int]]:
    """``(scenario, rows, table_seed)`` for a closed-loop workload."""
    return [
        (name, int(rows), derive_seed(seed, workload, name, rows))
        for name, rows in CONFIG[workload]["scenarios"]
    ]


def input_bytes(table: Table) -> int:
    """Bytes of user data: fixed-width values plus UTF-8 string bytes."""
    total = 0
    for column in table.columns:
        if column.data.dtype == object:
            total += sum(len(value.encode()) for value in column.data.tolist())
        else:
            total += column.data.nbytes
    return total


def service_tables(seed: int) -> dict[str, Table]:
    """The service's base tables: ``u`` (uniform) and ``ls`` (long strings)."""
    rows = CONFIG["service_mix"]["table_rows"]
    return {
        "u": SCENARIOS["uniform"].table(rows, derive_seed(seed, "u")),
        "ls": SCENARIOS["long_string"].table(rows, derive_seed(seed, "ls")),
    }


def delta_table(seed: int, index: int) -> Table:
    """The ``index``-th batch appended to the incremental view."""
    rows = CONFIG["service_mix"]["delta_rows"]
    return SCENARIOS["uniform"].table(rows, derive_seed(seed, "delta", index))


@dataclass(frozen=True)
class Read:
    """A read due at ``due`` seconds after the timed section starts."""

    due: float
    kind: str
    query: Query


@dataclass(frozen=True)
class Write:
    """Append delta ``index`` to the view, then publish it."""

    due: float
    index: int


def _read(rng: np.random.Generator, kind: str, dashboard: int) -> Query:
    if kind == "dashboard":
        return DASHBOARDS[dashboard]
    if kind == "page":
        # A Top-N page over a base table's dashboard order: served from
        # the cached full ORDER BY when one is resident.
        limit = int(rng.choice([10, 25, 50]))
        offset = int(rng.integers(0, 2000))
        if rng.random() < 0.5:
            return Query("u", "a, p", limit=limit, offset=offset)
        return Query("ls", "s, p", limit=limit, offset=offset)
    if kind == "filtered_sort":
        # A distinct filter constant per read: always a cache miss.
        cut = int(rng.uniform(0.7, 0.8) * _PAYLOAD_SPAN)
        return Query("u", "a, p", where=("p", "<", cut))
    if kind == "filtered_topn":
        cut = int(rng.uniform(0.005, 0.01) * _PAYLOAD_SPAN)
        return Query("ls", "s, p", where=("p", "<", cut), limit=20)
    if kind == "view":
        offset = int(rng.integers(0, 500))
        return Query("v", "a, p", limit=50, offset=offset)
    raise ValueError(f"unknown read kind {kind!r}")


def _cycle() -> list[tuple[str, int]]:
    """One cycle of load: ``(kind, dashboard index)`` in fixed counts.

    A cycle holds the reads of ``block_counts`` and ``dashboard_counts``
    and one write.
    """
    cfg = CONFIG["service_mix"]
    cycle = [
        ("dashboard", index)
        for index, count in enumerate(cfg["dashboard_counts"])
        for _ in range(count)
    ]
    for kind, count in cfg["block_counts"].items():
        cycle.extend((kind, -1) for _ in range(count))
    cycle.append(("write", -1))
    return cycle


def service_schedule(seed: int, seconds: float) -> tuple[list[Read], list[Write]]:
    """Open-loop arrivals for ``seconds``: whole cycles of reads and a write.

    Every cycle of ``cycle_s`` seconds sends the same make-up
    (``config.json``) in an order shuffled by the seed, with seeded
    query parameters, so runs differ in order and parameters but not in
    how much of each kind they send.  Each request is followed by a
    fixed gap before the next one is due: ``quiet_after_s`` for the
    slow kinds (room for them to finish on the current code), the rest
    of the cycle shared evenly after the fast ones.  Without the spacing
    a fast read would land on a running slow request by chance, and the
    latency percentiles would follow the seed's ordering and the
    machine's speed rather than the program.
    """
    cfg = CONFIG["service_mix"]
    rng = np.random.default_rng(derive_seed(seed, "schedule"))
    period = cfg["cycle_s"]
    quiet = cfg["quiet_after_s"]
    cycle = _cycle()
    slow = [kind for kind, _ in cycle if kind in quiet]
    fast_gap = (period - sum(quiet[kind] for kind in slow)) / (len(cycle) - len(slow))
    reads: list[Read] = []
    writes: list[Write] = []
    for number in range(int(seconds / period)):
        due = number * period
        for position in rng.permutation(len(cycle)):
            kind, dashboard = cycle[position]
            if kind == "write":
                writes.append(Write(due, len(writes) + 1))
            else:
                reads.append(Read(due, kind, _read(rng, kind, dashboard)))
            due += quiet.get(kind, fast_gap)
    return reads, writes
