"""Heuristic dispatch stability: recorded decisions per scenario.

The vectorized sort dispatch (:func:`repro.sort.heuristic.
vector_sort_rows`) and the external run-generation path are
deterministic for a fixed (rows, seed) -- which makes them testable as a
*recorded expectation table*: every scenario in the catalog pins the
kernel it dispatches to (and why), plus the external ``rungen_path``.
A heuristic change that flips any cell fails here with the full table
in hand, forcing the flip to be reviewed and the expectations (and the
committed ``BENCH_matrix.json`` baseline) updated deliberately --
the same contract ``benchmarks/regress.py`` enforces at bench scale.

The table is interesting because the catalog actually diversifies it:
wide two-column int keys go to radix, the skewed-leading-byte string
scenarios to lexsort, and TPC-DS catalog_sales compresses its four
low-cardinality keys into a single word (argsort-1word).
"""

from __future__ import annotations

import pytest

from repro.sort.external import ExternalSortOperator
from repro.sort.heuristic import RADIX_MIN_ROWS
from repro.sort.operator import SortConfig, SortOperator
from repro.table.chunk import chunk_table
from repro.types.sortspec import SortSpec
from repro.workloads.scenarios import SCENARIOS

ROWS = 6_000
SEED = 7
EXTERNAL_RUN_THRESHOLD = 1_500

# scenario -> (in-memory path, in-memory reason, external rungen path).
# In-memory sorts run as one ROWS-row run (above RADIX_MIN_ROWS, so the
# radix gate is open); external runs are EXTERNAL_RUN_THRESHOLD rows.
EXPECTED = {
    "uniform": ("radix", "wide-keys", "argsort"),
    "zipf_skew": ("radix", "wide-keys", "argsort"),
    "near_sorted": ("radix", "wide-keys", "argsort"),
    "reverse": ("radix", "wide-keys", "argsort"),
    "dup_heavy": ("radix", "wide-keys", "argsort"),
    "long_string": ("lexsort", "skewed-leading-byte", "argsort"),
    "mixed_null": ("radix", "wide-keys", "argsort"),
    "tpcds_catalog": ("argsort-1word", "single-word", "argsort"),
    "tpcds_customer": ("lexsort", "skewed-leading-byte", "argsort"),
}


def _spec(scenario) -> SortSpec:
    return SortSpec.of(*[part.strip() for part in scenario.order_by.split(",")])


def test_expectation_table_covers_the_catalog():
    assert set(EXPECTED) == set(SCENARIOS)
    assert ROWS > RADIX_MIN_ROWS  # the radix gate must be open


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_in_memory_dispatch_matches_recorded(name):
    scenario = SCENARIOS[name]
    table = scenario.table(ROWS, seed=SEED)
    operator = SortOperator(table.schema, _spec(scenario), SortConfig())
    for chunk in chunk_table(table, 2048):
        operator.sink(chunk)
    operator.finalize()
    expected_path, expected_reason, _ = EXPECTED[name]
    paths = dict(operator.stats.vector_sort_paths)
    reasons = dict(operator.stats.vector_sort_reasons)
    assert paths == {expected_path: 1}, (
        f"scenario {name!r} rows={ROWS} seed={SEED}: dispatch flipped to "
        f"{paths} (reasons {reasons}); if intended, update EXPECTED and "
        f"regenerate BENCH_matrix.json"
    )
    assert expected_reason in reasons, (
        f"scenario {name!r}: reason {reasons} != {expected_reason!r}"
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_external_rungen_matches_recorded(name, tmp_path):
    scenario = SCENARIOS[name]
    table = scenario.table(ROWS, seed=SEED)
    config = SortConfig(external=True, run_threshold=EXTERNAL_RUN_THRESHOLD)
    with ExternalSortOperator(
        table.schema, _spec(scenario), config, str(tmp_path)
    ) as operator:
        for chunk in chunk_table(table, config.vector_size):
            operator.sink(chunk)
        operator.finalize()
    _, _, expected_rungen = EXPECTED[name]
    assert operator.stats.rungen_path == expected_rungen, (
        f"scenario {name!r} rows={ROWS} seed={SEED}: rungen flipped "
        f"{expected_rungen!r} -> {operator.stats.rungen_path!r}; if "
        f"intended, update EXPECTED and regenerate BENCH_matrix.json"
    )
