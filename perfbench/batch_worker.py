"""Timed evaluations of one batch workload, in a process of their own.

The parent (``batch.py``) writes the input flat file and computes the
reference tables; this process only opens the file and calls
``SortScanEngine(optimize=True).evaluate`` until ``--seconds`` have
passed, so its peak RSS is the engine's and not the benchmark's.  Each
result is pickled to ``--out`` for the parent to verify, after the
call's numbers are taken.  With ``--trace 1`` untraced and traced calls
alternate, which gives the tracing overhead from one process.

Usage: python3 perfbench/batch_worker.py --workload NAME --data FILE
       --seconds S --trace 0|1 --scale X --out DIR
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

from repro.engine.sort_scan import SortScanEngine  # noqa: E402
from repro.storage.flatfile import FlatFileDataset  # noqa: E402
from repro.storage.sink import MemorySink  # noqa: E402

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

#: Fewest evaluations a run makes, whatever ``--seconds`` says.
MIN_EVALS = 3


class TimestampSink(MemorySink):
    """The default memory sink, noting when each result row arrives."""

    def __init__(self) -> None:
        super().__init__()
        self.times: list[float] = []

    def emit(self, name: str, key: tuple, value) -> None:
        self.times.append(time.perf_counter())
        super().emit(name, key, value)


def _proc_field(path: str, field: str) -> int:
    with open(path) as fh:
        for line in fh:
            if line.startswith(field):
                return int(line.split()[1])
    raise RuntimeError(f"{field} not in {path}")


def _reset_peak_rss() -> None:
    # Writing 5 resets VmHWM to the current RSS (Linux >= 4.0).
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = workloads.BATCH[args.workload]
    schema = spec.schema()
    dataset = FlatFileDataset(args.data, schema)
    workflow = spec.workflow(schema)
    run_size = spec.run_size(args.scale)
    tracer = layers.Tracer() if args.trace else None
    samples = []
    started = time.perf_counter()
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        gc.collect()
        if traced:
            tracer.ledger.reset()
            tracer.install()
        _reset_peak_rss()
        wchar_before = _proc_field("/proc/self/io", "wchar")
        sink = TimestampSink()
        engine = SortScanEngine(optimize=True, run_size=run_size)
        call_started = time.perf_counter()
        result = engine.evaluate(dataset, workflow, sink=sink)
        elapsed = time.perf_counter() - call_started
        peak_kb = _proc_field("/proc/self/status", "VmHWM")
        written = _proc_field("/proc/self/io", "wchar") - wchar_before
        snapshot = None
        if traced:
            snapshot = tracer.ledger.snapshot()
            tracer.uninstall()
        offsets = [t - call_started for t in sink.times]
        eval_stats = result.stats
        samples.append(
            {
                "traced": traced,
                "eval_s": elapsed,
                "peak_rss_mb": peak_kb / 1024.0,
                "emit_p50_s": (
                    stats.percentile(offsets, 50) if offsets else elapsed
                ),
                "emit_p95_s": (
                    stats.percentile(offsets, 95) if offsets else elapsed
                ),
                "sort_phase_s": eval_stats.sort_seconds,
                "bytes_written": written,
                "rows_scanned": eval_stats.rows_scanned,
                "rows_emitted": len(offsets),
                "flushed_entries": eval_stats.flushed_entries,
                "peak_entries": eval_stats.peak_entries,
                "reported_batch_size": eval_stats.batch_size,
                "layers": snapshot,
            }
        )
        with open(os.path.join(args.out, f"result-{index}.pkl"), "wb") as fh:
            pickle.dump(
                {name: table.rows for name, table in result.tables.items()},
                fh,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        del result, sink, offsets
        index += 1
        done = time.perf_counter() - started >= args.seconds
        if done and index >= MIN_EVALS and (
            not args.trace or index % 2 == 0
        ):
            break
    with open(os.path.join(args.out, "samples.json"), "w") as fh:
        json.dump(samples, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
