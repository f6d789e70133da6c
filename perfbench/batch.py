"""The batch workloads: one verified ``evaluate`` after another.

Order of a run:

1. generate the records from the seed (not timed);
2. set-up, timed several times: write the records as the flat file the
   engine reads, and open it;
3. reference tables from ``RelationalEngine``, once (not timed);
4. the timed evaluations, in ``batch_worker.py``'s own process;
5. every returned table checked against the reference with
   ``MeasureTable.equal_rows`` at the engines' 1e-9 tolerance.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import time

from repro.engine.naive import RelationalEngine
from repro.storage.flatfile import FlatFileDataset, write_flatfile
from repro.storage.table import MeasureTable

import stats
import workloads

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 9


def _verify(tables: dict, reference: dict) -> list[str]:
    """Names of the measures that differ from the reference."""
    bad = sorted(set(tables) ^ set(reference))
    for name, ref in reference.items():
        rows = tables.get(name)
        if rows is None:
            continue
        if not MeasureTable(name, ref.granularity, rows).equal_rows(ref):
            bad.append(name)
    return bad


def _corrupt(tables: dict) -> None:
    """Change one value of the largest table (self-test of the checker)."""
    name = max(tables, key=lambda n: len(tables[n]))
    key = next(iter(tables[name]))
    value = tables[name][key]
    tables[name][key] = (value if value is not None else 0) + 1


def run(args, workdir: str, info: dict):
    spec = workloads.BATCH[args.workload]
    schema = spec.schema()
    records = spec.records(args.seed, args.scale)
    info["input_rows"] = len(records)

    path = os.path.join(workdir, "input.bin")
    setup_times = []
    for __ in range(SETUP_REPEATS):
        if os.path.exists(path):
            os.remove(path)
        started = time.perf_counter()
        write_flatfile(path, schema, records)
        dataset = FlatFileDataset(path, schema)
        setup_times.append(time.perf_counter() - started)
    del records
    input_bytes = os.path.getsize(path)
    info["input_bytes"] = input_bytes
    info["setup_samples"] = len(setup_times)

    workflow = spec.workflow(schema)
    started = time.perf_counter()
    reference = RelationalEngine().evaluate(dataset, workflow).tables
    info["reference_s"] = round(time.perf_counter() - started, 3)
    info["reference_rows"] = sum(len(t) for t in reference.values())

    out = os.path.join(workdir, "results")
    os.mkdir(out)
    here = os.path.dirname(os.path.abspath(__file__))
    command = [
        sys.executable, os.path.join(here, "batch_worker.py"),
        "--workload", args.workload, "--data", path,
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", str(args.scale), "--out", out,
    ]
    subprocess.run(command, check=True, timeout=args.seconds + 120)
    with open(os.path.join(out, "samples.json")) as fh:
        samples = json.load(fh)

    failed = 0
    for index, sample in enumerate(samples):
        result_path = os.path.join(out, f"result-{index}.pkl")
        # The worker is this benchmark's own child; the bytes are ours.
        with open(result_path, "rb") as fh:
            tables = pickle.load(fh)
        os.remove(result_path)
        if args.corrupt and index == 0:
            _corrupt(tables)
        bad = _verify(tables, reference)
        sample["verified"] = not bad
        if bad:
            failed += 1
            print(f"evaluate #{index}: wrong tables {bad}", file=sys.stderr)

    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    info["evaluations"] = len(samples)
    info["eval_samples"] = len(plain)
    info["rows_per_eval"] = plain[0]["rows_scanned"]
    info["rows_emitted_per_eval"] = plain[0]["rows_emitted"]
    info["rows_per_s"] = round(
        plain[0]["rows_scanned"] / stats.median(s["eval_s"] for s in plain)
    )
    info["reported_batch_size"] = plain[0]["reported_batch_size"]
    info["eval_s_samples"] = [round(s["eval_s"], 4) for s in plain]

    end_to_end = _end_to_end(plain, setup_times, input_bytes)
    if not args.trace:
        return len(samples), failed, end_to_end
    per_layer = _per_layer(traced)
    overhead = _end_to_end(traced, setup_times, input_bytes)
    for name, value in end_to_end.items():
        if name != "setup_s":
            per_layer[f"trace.overhead.{name}"] = overhead[name] - value
    return len(samples), failed, per_layer


def _end_to_end(samples: list, setup_times: list, input_bytes: int) -> dict:
    med = stats.median
    return {
        "setup_s": med(setup_times),
        "eval_s": med(s["eval_s"] for s in samples),
        "peak_rss_mb": med(s["peak_rss_mb"] for s in samples),
        "read_p50_ms": 1000 * med(s["emit_p50_s"] for s in samples),
        "read_p95_ms": 1000 * med(s["emit_p95_s"] for s in samples),
        "ingest_p50_ms": 1000 * med(s["sort_phase_s"] for s in samples),
        "space_amp": med(
            (input_bytes + s["bytes_written"]) / input_bytes
            for s in samples
        ),
    }


def _per_layer(samples: list) -> dict:
    """Per-evaluation layer figures; the median over traced calls."""
    per_sample = []
    for sample in samples:
        snap = sample["layers"]
        layer = snap["layers"]

        def self_s(name):
            return layer.get(name, {}).get("self_s", 0.0)

        def field(name, key):
            return layer.get(name, {}).get(key, 0)

        leaf_calls = field("engine.leaf_update", "calls")
        cascade = self_s("engine.evaluate") - snap["sort_s"]
        per_sample.append(
            {
                "storage.decode_s": self_s("storage.decode"),
                "storage.external_sort_s": (
                    self_s("storage.external_sort")
                    + self_s("storage.spool_write")
                ),
                "storage.external_sort_rows": field(
                    "storage.external_sort", "items"
                ),
                "storage.sink_emit_s": self_s("storage.sink_emit"),
                "storage.rows_emitted": field("storage.sink_emit", "calls"),
                "engine.compile_s": field("engine.compile", "incl_s"),
                "optimizer.plan_s": field("optimizer.plan", "incl_s"),
                "engine.sort_s": snap["sort_s"],
                "engine.leaf_update_s": self_s("engine.leaf_update"),
                "engine.leaf_update_calls": leaf_calls,
                "engine.rows_per_leaf_call": (
                    field("engine.leaf_update", "items") / leaf_calls
                    if leaf_calls else 0.0
                ),
                "engine.cascade_s": cascade,
                "engine.flushed_entries": sample["flushed_entries"],
                "engine.peak_entries": sample["peak_entries"],
                "engine.reported_batch_size": sample["reported_batch_size"],
                # The timed call's wall time outside every traced span.
                "trace.unattributed_s": (
                    sample["eval_s"] - field("engine.evaluate", "incl_s")
                ),
            }
        )
    return {
        name: stats.median(s[name] for s in per_sample)
        for name in per_sample[0]
    }
