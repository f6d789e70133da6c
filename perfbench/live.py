"""The ``netlog-live`` workload: the measure service under live traffic.

A plain store is bootstrapped with ``repro ingest --query combined`` on
the first 80% (by time) of a network trace and served by ``repro
serve`` in its own process.  The load generator is this process, with
two keep-alive HTTP/1.1 connections, both open loop:

* reads: ``READ_RATE`` per second, 80% ``/point`` and 20% ``/range``
  over keys the bootstrap produced;
* writes: the rest of the trace, in time order, as ``DELTA_RECORDS``
  record ``POST /ingest`` deltas, one every ``INGEST_INTERVAL`` seconds.

Each request is timed from the moment it was due, so a stall delays
every request queued behind it; how late the generator ran and the
backlog left at the end of the window are reported too.

Checks: every read must equal a one-shot ``SortScanEngine`` evaluation
over the bootstrap plus the deltas that may be visible to it (those
acknowledged before it was sent, up to those sent before its reply),
every ingest must answer with the next generation, and at the end
``/table`` of every measure must equal the one-shot evaluation over
all ingested facts.  Float values are compared at the engines' 1e-9
relative tolerance, because merges reassociate sums.

With ``--trace 1`` the window is split in two: the first half against
a plain ``repro serve``, the second against ``serve_traced.py`` on a
copy of the same bootstrapped store; the difference is the tracing
overhead.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

from repro.engine.sort_scan import SortScanEngine
from repro.storage.flatfile import FlatFileDataset, write_flatfile
from repro.storage.table import MeasureTable

import stats
import workloads

READ_RATE = 8.0
POINT_SHARE = 0.8
INGEST_INTERVAL = 7.5
#: Leading key components a ``/range`` read fixes.
RANGE_PREFIX = 3
DELTA_RECORDS = 400
BOOTSTRAP_SHARE = 0.8
SETUP_REPEATS = 3
#: One-shot evaluations timed for ``eval_s``.
EVAL_REPEATS = 5
#: Seconds a server gets to start, and to stop after SIGINT.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0

_HERE = os.path.dirname(os.path.abspath(__file__))


def _rows_match(rows: dict, expected: dict) -> bool:
    """The engines' own comparison: same keys, floats within 1e-9."""
    return MeasureTable("", None, rows).equal_rows(
        MeasureTable("", None, expected)
    )


class Server:
    """One ``repro serve`` process (plain or traced) on a free port."""

    def __init__(self, store: str, workdir: str, ledger: str | None = None):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        serve_args = ["serve", "--store", store, "--port", str(self.port)]
        if ledger is None:
            command = [sys.executable, "-m", "repro"] + serve_args
        else:
            command = [
                sys.executable, os.path.join(_HERE, "serve_traced.py"),
                ledger,
            ] + serve_args
        self.ledger = ledger
        self._log = open(os.path.join(workdir, "serve.log"), "ab")
        self.proc = subprocess.Popen(
            command, stdout=self._log, stderr=self._log,
            stdin=subprocess.DEVNULL,
        )

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=STOP_TIMEOUT
        )

    def wait_healthy(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("repro serve exited during start-up")
            conn = self.connect()
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve did not become healthy")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing")

    def dump_ledger(self) -> dict:
        os.kill(self.proc.pid, signal.SIGUSR1)
        deadline = time.monotonic() + STOP_TIMEOUT
        while not os.path.exists(self.ledger):
            if time.monotonic() > deadline:
                raise RuntimeError("traced server wrote no ledger")
            time.sleep(0.01)
        with open(self.ledger) as fh:
            return json.load(fh)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _get(conn, path: str) -> dict:
    conn.request("GET", path)
    response = conn.getresponse()
    body = response.read()
    if response.status != 200:
        raise RuntimeError(f"GET {path}: HTTP {response.status}")
    return json.loads(body)


def _bootstrap(store: str, boot_path: str) -> None:
    subprocess.run(
        [sys.executable, "-m", "repro", "-q", "ingest", "--store", store,
         "--query", "combined", "--data", boot_path],
        check=True, stdin=subprocess.DEVNULL, timeout=START_TIMEOUT,
    )


class Window:
    """One open-loop load window against a running server."""

    def __init__(self, server: Server, seconds: float, deltas: list,
                 reads: list) -> None:
        self.server = server
        self.seconds = seconds
        self.deltas = deltas
        self.reads = reads  # [(due, kind, measure, key or prefix)]
        self.read_log: list[dict] = []
        self.ingest_log: list[dict] = []
        self.acked = 0
        self.sent_ingests = 0
        self.errors: list[str] = []

    def _pace(self, due: float) -> float | None:
        """Sleep until ``due``; None once the window has closed."""
        now = time.perf_counter() - self.start
        if due >= self.seconds or now >= self.seconds:
            return None
        if due > now:
            time.sleep(due - now)
        return time.perf_counter() - self.start

    def _reader(self) -> None:
        conn = self.server.connect()
        try:
            for due, kind, measure, key in self.reads:
                sent = self._pace(due)
                if sent is None:
                    break
                low = self.acked
                text = ",".join(str(part) for part in key)
                path = (
                    f"/point?measure={measure}&key={text}"
                    if kind == "point"
                    else f"/range?measure={measure}&prefix={text}"
                )
                try:
                    body = _get(conn, path)
                except (OSError, RuntimeError, ValueError) as exc:
                    body = None
                    self.errors.append(f"{path}: {exc}")
                    conn.close()
                    conn = self.server.connect()
                done = time.perf_counter() - self.start
                self.read_log.append({
                    "due": due, "sent": sent, "done": done, "kind": kind,
                    "measure": measure, "key": key, "body": body,
                    "low": low, "high": self.sent_ingests,
                })
        finally:
            conn.close()

    def _writer(self) -> None:
        conn = self.server.connect()
        try:
            for index, delta in enumerate(self.deltas):
                sent = self._pace(index * INGEST_INTERVAL)
                if sent is None:
                    break
                self.sent_ingests = index + 1
                payload = json.dumps({"records": [list(r) for r in delta]})
                try:
                    conn.request(
                        "POST", "/ingest", body=payload,
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    body = json.loads(response.read())
                    ok = (
                        response.status == 200
                        and body.get("generation") == index + 2
                        and body.get("records") == len(delta)
                    )
                except (OSError, ValueError) as exc:
                    ok = False
                    self.errors.append(f"ingest {index}: {exc}")
                done = time.perf_counter() - self.start
                if ok:
                    self.acked = index + 1
                self.ingest_log.append({
                    "due": index * INGEST_INTERVAL, "sent": sent,
                    "done": done, "ok": ok,
                })
                if not ok:
                    break
        finally:
            conn.close()

    def run(self) -> None:
        self.start = time.perf_counter()
        threads = [
            threading.Thread(target=self._reader),
            threading.Thread(target=self._writer),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def backlog(self) -> int:
        """Requests due inside the window but never sent."""
        due_reads = sum(1 for r in self.reads if r[0] < self.seconds)
        due_ingests = sum(
            1 for i in range(len(self.deltas))
            if i * INGEST_INTERVAL < self.seconds
        )
        return (due_reads - len(self.read_log)) + (
            due_ingests - len(self.ingest_log)
        )


def _read_schedule(rng: random.Random, seconds: float, keys: dict) -> list:
    measures = sorted(keys)
    schedule = []
    count = int(seconds * READ_RATE)
    for i in range(count):
        measure = rng.choice(measures)
        key = rng.choice(keys[measure])
        if rng.random() < POINT_SHARE:
            schedule.append((i / READ_RATE, "point", measure, key))
        else:
            schedule.append(
                (i / READ_RATE, "range", measure, key[:RANGE_PREFIX])
            )
    return schedule


def _check_read(entry: dict, references: list) -> bool:
    body = entry["body"]
    if body is None:
        return False
    measure, key = entry["measure"], tuple(entry["key"])
    high = min(entry["high"], len(references) - 1)
    for generation in range(entry["low"], high + 1):
        table = references[generation][measure]
        if entry["kind"] == "point":
            # An absent region reads as null, like the server's default.
            if _rows_match({key: body["value"]}, {key: table.get(key)}):
                return True
        else:
            rows = {tuple(k): v for k, v in body["rows"]}
            expected = {
                k: v for k, v in table.items() if k[: len(key)] == key
            }
            if _rows_match(rows, expected):
                return True
    return False


def _latency_figures(window: Window) -> dict:
    reads = [r["done"] - r["due"] for r in window.read_log]
    ingests = [i["done"] - i["due"] for i in window.ingest_log]
    lag = [r["sent"] - r["due"] for r in window.read_log] + [
        i["sent"] - i["due"] for i in window.ingest_log
    ]
    return {
        "read_p50_ms": 1000 * stats.percentile(reads, 50),
        "read_p95_ms": 1000 * stats.percentile(reads, 95),
        "ingest_p50_ms": 1000 * stats.percentile(ingests, 50),
        "generator_lag_p95_ms": 1000 * stats.percentile(lag, 95),
        "generator_lag_max_ms": 1000 * max(lag),
        "backlog_end": window.backlog(),
        "reads": len(reads),
        "ingests": len(ingests),
    }


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, __, files in os.walk(path)
        for name in files
    )


def run(args, workdir: str, info: dict):
    schema, trace = workloads.live_trace(args.seed, args.scale)
    cut = int(len(trace) * BOOTSTRAP_SHARE)
    boot, rest = trace[:cut], trace[cut:]
    size = max(10, int(DELTA_RECORDS * args.scale))
    deltas = [rest[i:i + size] for i in range(0, len(rest) - size + 1, size)]
    boot_path = os.path.join(workdir, "bootstrap.bin")
    write_flatfile(boot_path, schema, boot)
    info.update(
        trace_records=len(trace), bootstrap_records=len(boot),
        delta_records=size, read_rate_per_s=READ_RATE,
        point_share=POINT_SHARE, ingest_interval_s=INGEST_INTERVAL,
        connections=2,
    )

    workflow = workloads.combined_workflow(schema)
    references: list[dict] = []
    eval_times: list[float] = []

    def reference(generation: int, timed: int = 1) -> dict:
        facts = boot + [r for d in deltas[:generation] for r in d]
        path = os.path.join(workdir, f"facts-{generation}.bin")
        write_flatfile(path, schema, facts)
        dataset = FlatFileDataset(path, schema)
        for __ in range(timed):
            started = time.perf_counter()
            result = SortScanEngine().evaluate(dataset, workflow)
            if timed > 1:
                eval_times.append(time.perf_counter() - started)
        return {name: t.rows for name, t in result.tables.items()}

    references.append(reference(0))
    keys = {
        name: sorted(rows) for name, rows in references[0].items() if rows
    }
    rng = random.Random(args.seed)

    if args.trace:
        half = args.seconds / 2
        golden = os.path.join(workdir, "golden")
        _bootstrap(golden, boot_path)
        schedule = _read_schedule(rng, half, keys)
        windows = []
        for label, traced in (("plain", False), ("traced", True)):
            store = os.path.join(workdir, label)
            shutil.copytree(golden, store)
            ledger = os.path.join(workdir, "ledger.json") if traced else None
            windows.append(
                _serve_window(store, workdir, half, deltas, schedule, ledger)
            )
        setup_times = []
    else:
        schedule = _read_schedule(rng, args.seconds, keys)
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            store = os.path.join(workdir, f"store-{repeat}")
            started = time.perf_counter()
            _bootstrap(store, boot_path)
            server = Server(store, workdir)
            try:
                server.wait_healthy()
            except RuntimeError:
                server.stop()
                raise
            setup_times.append(time.perf_counter() - started)
            if repeat < SETUP_REPEATS - 1:
                server.stop()
                shutil.rmtree(store)
        windows = [
            _serve_window(
                store, workdir, args.seconds, deltas, schedule, None,
                server=server,
            )
        ]

    ingested = max(w["window"].acked for w in windows)
    for generation in range(1, ingested + 1):
        references.append(
            reference(
                generation,
                timed=EVAL_REPEATS if generation == ingested else 1,
            )
        )
    if ingested == 0:
        references[0] = reference(0, timed=EVAL_REPEATS)

    attempted = failed = 0
    for result in windows:
        window = result["window"]
        for entry in window.read_log:
            attempted += 1
            if not _check_read(entry, references):
                failed += 1
        for entry in window.ingest_log:
            attempted += 1
            failed += not entry["ok"]
        attempted += 1  # the final /table comparison
        final = references[window.acked]
        tables = result["tables"]
        if args.corrupt:
            measure = max(tables, key=lambda m: len(tables[m]))
            key = next(iter(tables[measure]))
            tables[measure][key] = (tables[measure][key] or 0) + 1
        bad = [
            m for m in final
            if not _rows_match(tables.get(m, {}), final[m])
        ]
        if bad:
            failed += 1
            print(f"/table differs from one-shot for {bad}", file=sys.stderr)
        for error in window.errors:
            print(error, file=sys.stderr)

    def space_amp(result: dict) -> float:
        facts = os.path.join(workdir, f"facts-{result['window'].acked}.bin")
        return result["store_bytes"] / os.path.getsize(facts)

    def service_figures(result: dict) -> dict:
        return {
            "peak_rss_mb": result["peak_rss_mb"],
            "read_p50_ms": result["figures"]["read_p50_ms"],
            "read_p95_ms": result["figures"]["read_p95_ms"],
            "ingest_p50_ms": result["figures"]["ingest_p50_ms"],
            "space_amp": space_amp(result),
        }

    plain = windows[0]
    info.update(
        {f"window_{k}": v for k, v in plain["figures"].items()},
        eval_samples=len(eval_times),
        setup_samples=len(setup_times),
    )
    end_to_end = {
        "setup_s": stats.median(setup_times) if setup_times else 0.0,
        "eval_s": stats.median(eval_times),
        **service_figures(plain),
    }
    if not args.trace:
        return attempted, failed, end_to_end
    traced = windows[1]
    per_layer = _per_layer(traced)
    # The one-shot evaluation runs in this process, untraced, in both.
    per_layer["trace.overhead.eval_s"] = 0.0
    for name, value in service_figures(traced).items():
        per_layer[f"trace.overhead.{name}"] = value - end_to_end[name]
    return attempted, failed, per_layer


def _serve_window(store, workdir, seconds, deltas, schedule, ledger,
                  server=None) -> dict:
    """Load one server for ``seconds``; collect what the checks need."""
    if server is None:
        server = Server(store, workdir, ledger)
    try:
        server.wait_healthy()
        window = Window(server, seconds, deltas, schedule)
        window.run()
        snapshot = server.dump_ledger() if ledger else None
        peak = server.peak_rss_mb()
        conn = server.connect()
        try:
            served = _get(conn, "/stats")
            tables = {}
            for measure in _get(conn, "/measures")["measures"]:
                name = measure["measure"]
                body = _get(conn, f"/table?measure={name}")
                tables[name] = {tuple(k): v for k, v in body["rows"]}
        finally:
            conn.close()
    finally:
        server.stop()
    return {
        "window": window,
        "figures": _latency_figures(window),
        "peak_rss_mb": peak,
        "store_bytes": _dir_bytes(store),
        "tables": tables,
        "stats": served,
        "ledger": snapshot,
    }


def _per_layer(result: dict) -> dict:
    snap = result["ledger"]
    layer = snap["layers"]
    window = result["window"]
    ingests = max(1, snap["ingests"])
    evals = max(1, snap["evals"])
    reads = max(1, len(window.read_log))

    def field(name, key):
        return layer.get(name, {}).get(key, 0)

    read_s = field("service.read", "self_s") / reads
    client_read_s = sum(
        r["done"] - r["sent"] for r in window.read_log
    ) / reads
    client_ingest_s = sum(
        i["done"] - i["sent"] for i in window.ingest_log
    ) / ingests
    served = result["stats"]
    lookups = served["cache_hits"] + served["cache_misses"]
    leaf_calls = field("engine.leaf_update", "calls")
    figures = result["figures"]
    return {
        "storage.decode_s": field("storage.decode", "self_s") / evals,
        "storage.external_sort_s": (
            field("storage.external_sort", "self_s")
            + field("storage.spool_write", "self_s")
        ) / evals,
        "storage.external_sort_rows": field(
            "storage.external_sort", "items") / evals,
        "storage.sink_emit_s": field("storage.sink_emit", "self_s") / evals,
        "storage.rows_emitted": field("storage.sink_emit", "calls") / evals,
        "engine.compile_s": field("engine.compile", "incl_s"),
        "optimizer.plan_s": field("optimizer.plan", "incl_s") / evals,
        "engine.sort_s": snap["sort_s"] / evals,
        "engine.leaf_update_s": field("engine.leaf_update", "self_s") / evals,
        "engine.leaf_update_calls": leaf_calls / evals,
        "engine.rows_per_leaf_call": (
            field("engine.leaf_update", "items") / leaf_calls
            if leaf_calls else 0.0
        ),
        "engine.cascade_s": (
            field("engine.evaluate", "self_s") - snap["sort_s"]
        ) / evals,
        "engine.flushed_entries": snap["flushed_entries"] / evals,
        "engine.peak_entries": snap["peak_entries"],
        "engine.reported_batch_size": snap["reported_batch_size"],
        "service.delta_eval_s": field("engine.evaluate", "incl_s") / ingests,
        "service.store_decode_s": (
            field("service.store_decode", "incl_s") / ingests
        ),
        "service.store_encode_s": (
            field("service.store_encode", "self_s") / ingests
        ),
        "service.fsync_s": field("service.fsync", "self_s") / ingests,
        "service.fsync_calls": field("service.fsync", "calls") / ingests,
        "service.commit_s": field("service.commit", "self_s") / ingests,
        "service.fold_self_s": field("service.ingest", "self_s") / ingests,
        "service.bytes_written_per_ingest": snap["ingest_bytes"] / ingests,
        "service.read_s": read_s,
        "service.lock_wait_ms": (
            1000 * field("service.lock_wait", "self_s") / reads
        ),
        "service.cache_hit_ratio": (
            served["cache_hits"] / lookups if lookups else 0.0
        ),
        "server.read_wait_ms": 1000 * (client_read_s - read_s),
        "bench.generator_lag_p95_ms": figures["generator_lag_p95_ms"],
        "bench.backlog_end": figures["backlog_end"],
        # Client-observed ingest time outside Ingestor.ingest: HTTP,
        # JSON and queueing for the service lock.
        "trace.unattributed_s": (
            client_ingest_s - field("service.ingest", "incl_s") / ingests
        ),
    }
