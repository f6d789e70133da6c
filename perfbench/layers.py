"""Layer tracing owned by the benchmark.

The benchmark measures layers by wrapping the public functions of each
layer from the outside; the program itself is not changed.  A wrapped
call (or one step of a wrapped generator) is a span.  Spans nest on a
per-thread stack, so each layer gets its *self* time: the span's
duration minus the part of it that nested spans cover.

Layers and the functions that stand for them:

=========================  ==============================================
``storage.decode``          ``FlatFileDataset.scan`` / ``scan_batches``
``storage.external_sort``   ``external_sort`` (also as bound by name in
                            ``repro.engine.sort_scan``)
``storage.spool_write``     ``write_flatfile`` as bound in
                            ``repro.engine.sort_scan`` (the spooled copy)
``storage.sink_emit``       ``MemorySink.emit``
``engine.evaluate``         ``Engine.evaluate``
``engine.compile``          ``compile_workflow``
``optimizer.plan``          ``best_sort_key``
``engine.leaf_update``      ``BasicBatchUpdater.apply`` / ``apply_record``
``service.ingest``          ``Ingestor.ingest``
``service.store_decode``    ``MeasureStore.read_table``
``service.store_encode``    ``StoreCommit.put_values`` / ``put_states`` /
                            ``append_facts``
``service.commit``          ``StoreCommit.commit``
``service.fsync``           ``os.fsync``
``service.read``            ``MeasureService.point`` / ``range``
``service.lock_wait``       acquiring ``MeasureService``'s lock
=========================  ==============================================

``engine.sort`` is an interval, not a span: from the end of the last
decode step to the first leaf update of an evaluation.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time

_clock = time.perf_counter


class _Acc:
    """Totals of one layer on one thread."""

    __slots__ = ("self_s", "incl_s", "calls", "items")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.incl_s = 0.0
        self.calls = 0
        self.items = 0


class _ThreadState:
    __slots__ = ("stack", "accs", "last_decode_end", "leaf_seen", "sort_s")

    def __init__(self) -> None:
        self.stack: list[float] = []
        self.accs: dict[str, _Acc] = {}
        self.last_decode_end: float | None = None
        self.leaf_seen = False
        self.sort_s = 0.0


class Ledger:
    """Per-layer totals collected from every thread that ran spans."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self.evals = 0
        self.flushed_entries = 0
        self.peak_entries = 0
        self.reported_batch_size = 0
        self.ingests = 0
        self.ingest_bytes = 0

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def acc(self, state: _ThreadState, layer: str) -> _Acc:
        acc = state.accs.get(layer)
        if acc is None:
            acc = state.accs[layer] = _Acc()
        return acc

    def snapshot(self) -> dict:
        """Totals so far: ``{"layers": {layer: {...}}, ...}``."""
        layers: dict[str, dict] = {}
        sort_s = 0.0
        with self._lock:
            states = list(self._states)
        for state in states:
            sort_s += state.sort_s
            for layer, acc in list(state.accs.items()):
                out = layers.setdefault(
                    layer,
                    {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "items": 0},
                )
                out["self_s"] += acc.self_s
                out["incl_s"] += acc.incl_s
                out["calls"] += acc.calls
                out["items"] += acc.items
        return {
            "layers": layers,
            "sort_s": sort_s,
            "evals": self.evals,
            "flushed_entries": self.flushed_entries,
            "peak_entries": self.peak_entries,
            "reported_batch_size": self.reported_batch_size,
            "ingests": self.ingests,
            "ingest_bytes": self.ingest_bytes,
        }

    def reset(self) -> None:
        with self._lock:
            states = list(self._states)
        for state in states:
            state.accs.clear()
            state.sort_s = 0.0
        self.evals = 0
        self.flushed_entries = 0
        self.peak_entries = 0
        self.reported_batch_size = 0
        self.ingests = 0
        self.ingest_bytes = 0


def _span(ledger: Ledger, layer: str, fn, items=None, before=None,
          after=None):
    """Wrap a plain function: one span per call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = ledger.state()
        stack = state.stack
        if before is not None:
            before(state, args)
        stack.append(0.0)
        started = _clock()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            elapsed = _clock() - started
            child = stack.pop()
            if stack:
                stack[-1] += elapsed
            acc = ledger.acc(state, layer)
            acc.self_s += elapsed - child
            acc.incl_s += elapsed
            acc.calls += 1
            if items is not None:
                acc.items += items(args)
            if after is not None:
                after(state, args, result)

    wrapper.__wrapped_by_perfbench__ = fn
    return wrapper


def _gen_span(ledger: Ledger, layer: str, fn, items=None, on_step=None):
    """Wrap a generator function: one span per ``next()`` step."""

    def steps(gen):
        state = ledger.state()
        stack = state.stack
        acc = ledger.acc(state, layer)
        self_s = incl_s = 0.0
        calls = count = 0
        try:
            while True:
                stack.append(0.0)
                started = _clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    ended = _clock()
                    elapsed = ended - started
                    child = stack.pop()
                    if stack:
                        stack[-1] += elapsed
                    self_s += elapsed - child
                    incl_s += elapsed
                    calls += 1
                count += 1 if items is None else items(item)
                if on_step is not None:
                    on_step(state, ended)
                yield item
        finally:
            gen.close()
            acc.self_s += self_s
            acc.incl_s += incl_s
            acc.calls += calls
            acc.items += count

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return steps(fn(*args, **kwargs))

    wrapper.__wrapped_by_perfbench__ = fn
    return wrapper


class _TimedLock:
    """Proxy for a service lock that records acquisition waits."""

    def __init__(self, ledger: Ledger, inner) -> None:
        self._ledger = ledger
        self._inner = inner

    def acquire(self, *args, **kwargs):
        state = self._ledger.state()
        started = _clock()
        got = self._inner.acquire(*args, **kwargs)
        elapsed = _clock() - started
        if not state.stack:
            # Only waits inside a traced read count; writers queue for
            # the lock outside any span.
            return got
        state.stack[-1] += elapsed
        acc = self._ledger.acc(state, "service.lock_wait")
        acc.self_s += elapsed
        acc.incl_s += elapsed
        acc.calls += 1
        return got

    def release(self):
        self._inner.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()
        return False


def _dir_sizes(path: str) -> dict[str, int]:
    sizes = {}
    for root, __, files in os.walk(path):
        for name in files:
            full = os.path.join(root, name)
            try:
                sizes[full] = os.path.getsize(full)
            except OSError:
                pass
    return sizes


class Tracer:
    """Installs and removes the layer wrappers on the program's modules."""

    def __init__(self, ledger: Ledger | None = None) -> None:
        self.ledger = ledger or Ledger()
        self._patched: list[tuple[object, str, object]] = []

    def _patch(self, owner, name: str, wrapped) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapped)

    def install(self, service: bool = False) -> None:
        """Wrap engine and storage layers; ``service`` adds the store,
        ingest and read layers of the measure service."""
        if self._patched:
            return
        ledger = self.ledger
        flatfile = importlib.import_module("repro.storage.flatfile")
        ext_sort = importlib.import_module("repro.storage.external_sort")
        sink = importlib.import_module("repro.storage.sink")
        sort_scan = importlib.import_module("repro.engine.sort_scan")
        batch = importlib.import_module("repro.engine.batch")
        compile_mod = importlib.import_module("repro.engine.compile")
        interfaces = importlib.import_module("repro.engine.interfaces")
        brute = importlib.import_module("repro.optimizer.brute_force")

        def decode_step(state, ended):
            state.last_decode_end = ended

        def batch_rows(item):
            return len(item)

        self._patch(
            flatfile.FlatFileDataset, "scan",
            _gen_span(ledger, "storage.decode",
                      flatfile.FlatFileDataset.scan, on_step=decode_step),
        )
        self._patch(
            flatfile.FlatFileDataset, "scan_batches",
            _gen_span(ledger, "storage.decode",
                      flatfile.FlatFileDataset.scan_batches,
                      items=batch_rows, on_step=decode_step),
        )
        traced_sort = _gen_span(
            ledger, "storage.external_sort", ext_sort.external_sort
        )
        self._patch(ext_sort, "external_sort", traced_sort)
        self._patch(sort_scan, "external_sort", traced_sort)
        self._patch(
            sort_scan, "write_flatfile",
            _span(ledger, "storage.spool_write", sort_scan.write_flatfile),
        )
        self._patch(
            sink.MemorySink, "emit",
            _span(ledger, "storage.sink_emit", sink.MemorySink.emit),
        )
        self._patch(
            compile_mod, "compile_workflow",
            _span(ledger, "engine.compile", compile_mod.compile_workflow),
        )
        self._patch(
            brute, "best_sort_key",
            _span(ledger, "optimizer.plan", brute.best_sort_key),
        )

        def leaf_first(state, args):
            if not state.leaf_seen:
                state.leaf_seen = True
                if state.last_decode_end is not None:
                    state.sort_s += _clock() - state.last_decode_end

        updater = batch.BasicBatchUpdater
        self._patch(
            updater, "apply",
            _span(ledger, "engine.leaf_update", updater.apply,
                  items=lambda args: len(args[1]), before=leaf_first),
        )
        self._patch(
            updater, "apply_record",
            _span(ledger, "engine.leaf_update", updater.apply_record,
                  items=lambda args: 1, before=leaf_first),
        )

        def eval_begin(state, args):
            state.last_decode_end = None
            state.leaf_seen = False

        def eval_end(state, args, result):
            if result is None:
                return
            stats = result.stats
            ledger.evals += 1
            ledger.flushed_entries += stats.flushed_entries
            ledger.peak_entries = max(
                ledger.peak_entries, stats.peak_entries
            )
            ledger.reported_batch_size = stats.batch_size

        self._patch(
            interfaces.Engine, "evaluate",
            _span(ledger, "engine.evaluate", interfaces.Engine.evaluate,
                  before=eval_begin, after=eval_end),
        )
        if service:
            self._install_service()

    def _install_service(self) -> None:
        ledger = self.ledger
        store = importlib.import_module("repro.service.store")
        ingest = importlib.import_module("repro.service.ingest")
        server = importlib.import_module("repro.service.server")

        original_ingest = ingest.Ingestor.ingest
        traced_ingest = _span(ledger, "service.ingest", original_ingest)

        @functools.wraps(original_ingest)
        def ingest_with_bytes(self_, *args, **kwargs):
            before = _dir_sizes(self_.store.path)
            report = traced_ingest(self_, *args, **kwargs)
            after = _dir_sizes(self_.store.path)
            written = sum(
                size for path, size in after.items()
                if before.get(path) != size
            )
            ledger.ingests += 1
            ledger.ingest_bytes += written
            return report

        self._patch(ingest.Ingestor, "ingest", ingest_with_bytes)
        self._patch(
            store.MeasureStore, "read_table",
            _span(ledger, "service.store_decode",
                  store.MeasureStore.read_table),
        )
        commit_cls = store.StoreCommit
        for name in ("put_values", "put_states", "append_facts"):
            self._patch(
                commit_cls, name,
                _span(ledger, "service.store_encode",
                      getattr(commit_cls, name)),
            )
        self._patch(
            commit_cls, "commit",
            _span(ledger, "service.commit", commit_cls.commit),
        )
        self._patch(os, "fsync", _span(ledger, "service.fsync", os.fsync))
        service_cls = server.MeasureService
        for name in ("point", "range"):
            self._patch(
                service_cls, name,
                _span(ledger, "service.read", getattr(service_cls, name)),
            )
        original_init = service_cls.__init__

        @functools.wraps(original_init)
        def init_with_timed_lock(self_, *args, **kwargs):
            original_init(self_, *args, **kwargs)
            self_._lock = _TimedLock(ledger, self_._lock)

        self._patch(service_cls, "__init__", init_with_timed_lock)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
