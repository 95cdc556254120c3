"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload inmem_sort --seed 1 --seconds 20 --trace 0

The program under test is imported from ``src/`` of the same checkout.
Human-readable lines (every metric with its unit and sample count, the
checks, absent layers) come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones.  The exit code is 0 only when every operation
succeeded and every result matched the reference.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("query_p50_s", "s"),
    ("read_p50_s", "s"),
    ("read_p90_s", "s"),
    ("slo_met_share", "share"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
)
"""Every end-to-end metric, with its unit, in print order."""


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def end_to_end(outcome) -> tuple[dict[str, float], dict[str, int]]:
    """End-to-end metric values and the sample count behind each."""
    ops = outcome.ops
    done = [op for op in ops if op.latency is not None]
    reads = [op for op in ops if op.kind == "read"]
    read_latencies = [op.latency for op in reads if op.latency is not None]
    latencies = [op.latency for op in done]
    rows = sum(op.rows for op in done)
    slo_met = sum(op.latency is not None and op.latency <= op.slo_s for op in reads)
    values = {
        "setup_s": statistics.median(outcome.setup_s),
        "rows_per_s": rows / outcome.timed_s if outcome.timed_s else 0.0,
        "query_p50_s": statistics.median(latencies) if latencies else 0.0,
        "read_p50_s": statistics.median(read_latencies) if read_latencies else 0.0,
        "read_p90_s": _p90(read_latencies),
        "slo_met_share": slo_met / len(reads) if reads else 0.0,
        "ok_share": (outcome.attempted - outcome.failed) / outcome.attempted,
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    samples = {
        "setup_s": len(outcome.setup_s),
        "rows_per_s": len(done),
        "query_p50_s": len(latencies),
        "read_p50_s": len(read_latencies),
        "read_p90_s": len(read_latencies),
        "slo_met_share": len(reads),
        "ok_share": outcome.attempted,
        "peak_rss_mb": 1,
    }
    return values, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.layers import PER_LAYER
    from perfbench.workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {WORKLOADS}", file=sys.stderr)
        return 2
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)

    for line in outcome.notes:
        print(line)
    for item in outcome.wrong + outcome.leaks:
        print(f"FAILED CHECK: {item}")
    for op in outcome.ops:
        if op.error is not None:
            print(f"FAILED OP: {op.error}")
    if args.trace:
        if outcome.absent:
            print("absent layer hooks: " + ", ".join(outcome.absent))
        values = outcome.layer
        units = dict(PER_LAYER)
        samples = dict.fromkeys(units, outcome.traced_ops)
    else:
        values, samples = end_to_end(outcome)
        units = dict(END_TO_END)
    for name, unit in units.items():
        print(f"{name:32s} {values[name]:>16.6g} {unit:10s} n={samples[name]}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
