"""Smoke benchmark of the vectorized kernel layer; writes BENCH_kernels.json.

Times the two kernels from :mod:`repro.sort.kernels` against scalar
reference code kept in this file, on the exact representation the
operator feeds them (normalized-key uint8 matrices with a 9-byte
single-int64 layout):

* **merge** -- :func:`merge_indices` vs. a two-pointer Python merge over
  materialized ``bytes`` rows,
* **run-generation** -- :func:`argsort_rows` vs. ``pdq_argsort`` over
  ``bytes`` rows,

and records the throughput of the production paths built on them:

* **end-to-end** -- ``sort_table`` of 200k random int64 rows,
* **k-way merge** -- the external sort's block-streaming k-way merge
  (:func:`repro.sort.kernels.kway_merge_blocks`) on 8 spilled runs of
  50k int64 rows each, timed on the merge phase alone
  (``SortStats.phase_seconds``) so run generation and spill I/O do not
  dilute it.

Results land in ``BENCH_kernels.json`` at the repository root (or
``--out``) so future changes have a perf trajectory to regress against.
Runs standalone (``python benchmarks/bench_kernels.py``) or under pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np  # noqa: E402

from repro.sort.external import ExternalSortOperator  # noqa: E402
from repro.sort.kernels import argsort_rows, merge_indices  # noqa: E402
from repro.sort.operator import SortConfig, sort_table  # noqa: E402
from repro.sort.pdqsort import pdq_argsort  # noqa: E402
from repro.table.chunk import chunk_table  # noqa: E402
from repro.table.table import Table  # noqa: E402
from repro.types.sortspec import SortSpec  # noqa: E402

OUTPUT = os.path.join(os.path.dirname(_SRC), "BENCH_kernels.json")

KEY_WIDTH = 9  # null byte + big-endian int64: the single-int64-key layout
MERGE_N = 200_000  # per input run
RUNGEN_N = 100_000
END_TO_END_N = 200_000
KWAY_RUNS = 8  # spilled runs in the external-sort k-way benchmark
KWAY_RUN_ROWS = 50_000  # rows per spilled run
ROUNDS = 3  # best-of for the vectorized sides; scalar references run once


def _best_of(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _scalar_merge(raw_a, raw_b):
    """Scalar reference: a two-pointer merge over bytes rows.

    Like :func:`merge_indices`, produces the gather permutation over the
    concatenated inputs (plus the merged raw rows a cascade would carry
    between rounds).
    """
    perm = []
    merged_raw = []
    i = j = 0
    n, m = len(raw_a), len(raw_b)
    while i < n and j < m:
        if raw_b[j] < raw_a[i]:
            perm.append(n + j)
            merged_raw.append(raw_b[j])
            j += 1
        else:
            perm.append(i)
            merged_raw.append(raw_a[i])
            i += 1
    while i < n:
        perm.append(i)
        merged_raw.append(raw_a[i])
        i += 1
    while j < m:
        perm.append(n + j)
        merged_raw.append(raw_b[j])
        j += 1
    return perm, merged_raw


def bench_merge(rng):
    a = rng.integers(0, 256, size=(MERGE_N, KEY_WIDTH)).astype(np.uint8)
    b = rng.integers(0, 256, size=(MERGE_N, KEY_WIDTH)).astype(np.uint8)
    a, b = a[argsort_rows(a)], b[argsort_rows(b)]
    rows = 2 * MERGE_N
    kernel = _best_of(lambda: merge_indices(a, b))
    raw_a = [a[i].tobytes() for i in range(MERGE_N)]
    raw_b = [b[i].tobytes() for i in range(MERGE_N)]
    scalar = _best_of(lambda: _scalar_merge(raw_a, raw_b), rounds=1)
    return {
        "rows": rows,
        "key_width": KEY_WIDTH,
        "kernel_rows_per_s": rows / kernel,
        "scalar_rows_per_s": rows / scalar,
        "speedup": scalar / kernel,
    }


def bench_run_generation(rng):
    matrix = rng.integers(0, 256, size=(RUNGEN_N, KEY_WIDTH)).astype(np.uint8)
    kernel = _best_of(lambda: argsort_rows(matrix))
    raw = [matrix[i].tobytes() for i in range(RUNGEN_N)]
    scalar = _best_of(lambda: pdq_argsort(raw), rounds=1)
    return {
        "rows": RUNGEN_N,
        "key_width": KEY_WIDTH,
        "kernel_rows_per_s": RUNGEN_N / kernel,
        "scalar_rows_per_s": RUNGEN_N / scalar,
        "speedup": scalar / kernel,
    }


def bench_end_to_end(rng):
    table = Table.from_numpy(
        {"v": rng.integers(-(1 << 62), 1 << 62, END_TO_END_N).astype(np.int64)}
    )
    spec = SortSpec.of("v")
    kernel = _best_of(lambda: sort_table(table, spec, SortConfig()))
    return {
        "rows": END_TO_END_N,
        "kernel_rows_per_s": END_TO_END_N / kernel,
    }


def _external_sort(table, spec):
    """Spill KWAY_RUNS sorted runs to disk, merge them, return the stats."""
    with tempfile.TemporaryDirectory(prefix="bench_kway_") as spill_dir:
        operator = ExternalSortOperator(
            table.schema,
            spec,
            SortConfig(run_threshold=KWAY_RUN_ROWS),
            spill_directory=spill_dir,
        )
        for chunk in chunk_table(table, 10_000):
            operator.sink(chunk)
        operator.finalize()
        return operator.stats


def bench_kway_merge(rng):
    rows = KWAY_RUNS * KWAY_RUN_ROWS
    table = Table.from_numpy(
        {"v": rng.integers(-(1 << 62), 1 << 62, rows).astype(np.int64)}
    )
    spec = SortSpec.of("v")

    kernel = float("inf")
    for _ in range(ROUNDS):
        kernel_stats = _external_sort(table, spec)
        kernel = min(kernel, kernel_stats.phase_seconds["merge"])
    assert kernel_stats.runs_generated == KWAY_RUNS
    assert kernel_stats.kernel_kway_merges == 1
    return {
        "rows": rows,
        "runs": KWAY_RUNS,
        "rows_per_run": KWAY_RUN_ROWS,
        "kway_rounds": kernel_stats.kway_rounds,
        "peak_frontier_rows": kernel_stats.kway_peak_frontier_rows,
        "kernel_rows_per_s": rows / kernel,
    }


def main(out=OUTPUT):
    rng = np.random.default_rng(11)
    results = {
        "merge": bench_merge(rng),
        "run_generation": bench_run_generation(rng),
        "end_to_end_200k_int64": bench_end_to_end(rng),
        "kway_merge": bench_kway_merge(rng),
    }
    with open(out, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    for name, numbers in results.items():
        line = f"{name}: kernel {numbers['kernel_rows_per_s']:,.0f} rows/s"
        if "speedup" in numbers:
            line += (
                f", scalar {numbers['scalar_rows_per_s']:,.0f} rows/s, "
                f"speedup {numbers['speedup']:.1f}x"
            )
        print(line)
    print(f"wrote {out}")
    return results


def test_kernels_smoke(tmp_path, capsys):
    out = tmp_path / "BENCH_kernels.json"
    with capsys.disabled():
        print()
        results = main(out=str(out))
    assert results["run_generation"]["speedup"] > 1.0, (
        "run_generation regressed below scalar"
    )
    assert out.exists()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=str, default=OUTPUT)
    main(out=parser.parse_args().out)
