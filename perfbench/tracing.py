"""Per-layer tracing for the benchmark, installed from outside ``src/``.

:func:`install` wraps the public entry points of each ``repro`` layer at
runtime, patching every name where the code under test looks it up
(``compile_tape`` as imported into ``repro.power.acquisition``, the
``assemble`` each crypto module imported, the worker functions the
fork pool and the service call by module-global name).  Nothing in the
program changes: a wrapper times the call, adds it to its process's
:class:`Tracer` and returns the original result.

Spans are kept in memory as per-name totals (calls, nanoseconds and a
per-span item count such as traces processed).  Timings are inclusive:
``power.compile`` contains ``isa.reference_exec``, ``uarch.schedule``
and ``isa.compile_tape``.  A span nested inside a span of the same name
is not counted twice.

Worker processes inherit the wrappers because :func:`install` runs
before the fork pool or ``repro serve`` forks them.  A forked child
starts with an empty tracer writing to its own file, and each process
writes its totals (cumulative, atomically replaced) after every unit of
work it finishes: a chunk in a fork-pool worker, a job in a service
worker, a submission in the service front-end.  :func:`collect` merges
every process's file.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import pickle
import time
import uuid


class Tracer:
    """One process's span totals: ``name -> [calls, ns, items]``."""

    def __init__(self, directory: str):
        self.directory = directory
        self.spans: dict[str, list[int]] = {}
        self.gauges: dict[str, float] = {}
        self._active: set[str] = set()
        self._gauge_fns: dict[str, callable] = {}
        self.path = self._fresh_path()
        os.register_at_fork(after_in_child=self.after_fork_in_child)

    def _fresh_path(self) -> str:
        return os.path.join(
            self.directory, f"spans-{os.getpid()}-{uuid.uuid4().hex[:8]}.json"
        )

    def after_fork_in_child(self) -> None:
        self.spans = {}
        self.gauges = {}
        self._active = set()
        self.path = self._fresh_path()

    def add(self, name: str, ns: int = 0, items: int = 0) -> None:
        entry = self.spans.get(name)
        if entry is None:
            self.spans[name] = [1, int(ns), int(items)]
        else:
            entry[0] += 1
            entry[1] += int(ns)
            entry[2] += int(items)

    def gauge(self, name: str, fn) -> None:
        """Sample ``fn()`` into gauge ``name`` at every flush."""
        self._gauge_fns[name] = fn

    def flush(self) -> None:
        for name, fn in self._gauge_fns.items():
            self.gauges[name] = max(self.gauges.get(name, 0), fn())
        record = {"spans": self.spans, "gauges": self.gauges}
        temporary = f"{self.path}.tmp"
        with open(temporary, "w") as handle:
            json.dump(record, handle)
        os.replace(temporary, self.path)


def collect(directory: str) -> dict:
    """Every process's flushed totals, merged (gauges take the maximum)."""
    spans: dict[str, list[int]] = {}
    gauges: dict[str, float] = {}
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("spans-") and name.endswith(".json")):
            continue
        with open(os.path.join(directory, name)) as handle:
            record = json.load(handle)
        for span, (calls, ns, items) in record["spans"].items():
            total = spans.setdefault(span, [0, 0, 0])
            total[0] += calls
            total[1] += ns
            total[2] += items
        for gauge, value in record["gauges"].items():
            gauges[gauge] = max(gauges.get(gauge, 0), value)
    return {"spans": spans, "gauges": gauges}


def delta(before: dict, after: dict) -> dict:
    """The span totals accumulated between two :func:`collect` calls."""
    spans = {}
    for name, totals in after["spans"].items():
        base = before["spans"].get(name, [0, 0, 0])
        diff = [now - then for now, then in zip(totals, base)]
        if any(diff):
            spans[name] = diff
    return {"spans": spans, "gauges": dict(after["gauges"])}


# -- wrappers -----------------------------------------------------------


def _span(tracer: Tracer, name: str, fn, items=None, after=None):
    """Wrap ``fn`` so each call adds to span ``name``.

    ``items(args, kwargs, result)`` gives the call's item count;
    ``after(result)`` runs once the span is recorded (flushes, counters).
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if name in tracer._active:
            return fn(*args, **kwargs)
        tracer._active.add(name)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer._active.discard(name)
        elapsed = time.perf_counter_ns() - start
        tracer.add(name, elapsed, items(args, kwargs, result) if items else 0)
        if after is not None:
            after(result)
        return result

    return wrapper


def _generator_span(tracer: Tracer, name: str, fn):
    """Wrap a generator function: the span runs from first pull to exhaustion."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter_ns()
        try:
            yield from fn(*args, **kwargs)
        finally:
            tracer.add(name, time.perf_counter_ns() - start)

    return wrapper


def _patch(undo: list, owner, attr: str, make) -> None:
    """Replace ``owner.attr`` with ``make(original)``; classmethods kept.

    Appends the restoring action to ``undo``.
    """
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(original, classmethod):
        setattr(owner, attr, classmethod(make(original.__func__)))
    else:
        setattr(owner, attr, make(original))
    undo.append(lambda: setattr(owner, attr, original))


def _rows_of_result(_args, _kwargs, result) -> int:
    return int(result.shape[0])


def _rows_of_arg(index: int):
    def items(args, _kwargs, _result) -> int:
        return int(args[index].shape[0])

    return items


def _tape_traces(args, kwargs, _result) -> int:
    return int(args[1] if len(args) > 1 else kwargs["n_traces"])


def install(tracer: Tracer):
    """Wrap every layer's entry points; run before any worker is forked.

    Returns a callable that restores every original.
    """
    from importlib import import_module

    # import_module, not ``import a.b as c``: some packages re-export a
    # function under their submodule's name (``repro.corpus.workloads``)
    envelope = import_module("repro.api.envelope")
    request = import_module("repro.api.request")
    backends_base = import_module("repro.backends.base")
    pools = import_module("repro.backends.pools")
    accumulators = import_module("repro.campaigns.accumulators")
    engine = import_module("repro.campaigns.engine")
    manifest = import_module("repro.corpus.manifest")
    report = import_module("repro.corpus.report")
    store = import_module("repro.corpus.store")
    corpus_workloads = import_module("repro.corpus.workloads")
    aes_asm = import_module("repro.crypto.aes_asm")
    bitsliced = import_module("repro.crypto.bitsliced")
    masked_round = import_module("repro.crypto.masked_round")
    present = import_module("repro.crypto.present")
    primitives = import_module("repro.crypto.primitives")
    figure3 = import_module("repro.experiments.figure3")
    executor = import_module("repro.isa.executor")
    vtrace = import_module("repro.isa.vtrace")
    acquisition = import_module("repro.power.acquisition")
    scope = import_module("repro.power.scope")
    synth = import_module("repro.power.synth")
    service_runtime = import_module("repro.service.runtime")
    service_worker = import_module("repro.service.worker")
    sweep_metrics = import_module("repro.sweeps.metrics")
    pipeline = import_module("repro.uarch.pipeline")

    undo: list = []

    def patch(owner, attr, make):
        _patch(undo, owner, attr, make)

    def span(name, items=None, after=None):
        return lambda fn: _span(tracer, name, fn, items, after)

    def flush(_result=None):
        tracer.flush()

    # api
    patch(request.RunRequest, "resolve", span("api.resolve"))
    patch(request.RunRequest, "from_json", span("api.resolve"))
    patch(envelope.Envelope, "to_json", span("api.envelope"))
    patch(envelope, "validate_envelope", span("api.envelope"))

    # crypto / isa: program builders and the assembler they call
    patch(figure3, "round1_only_program", span("crypto.build_program"))
    for entry in corpus_workloads.workloads():
        corpus_workloads.register_workload(
            dataclasses.replace(entry, build_program=_span(tracer, "crypto.build_program", entry.build_program))
        )
        undo.append(functools.partial(corpus_workloads.register_workload, entry))
    for module in (aes_asm, bitsliced, masked_round, present, primitives):
        patch(module, "assemble", span("isa.assemble"))
    patch(executor.Executor, "run", span("isa.reference_exec"))
    patch(acquisition, "compile_tape", span("isa.compile_tape"))
    patch(vtrace.TraceTape, "run", span("isa.tape_execute", _tape_traces))

    # uarch
    patch(pipeline.Pipeline, "schedule", span("uarch.schedule"))

    # power
    patch(acquisition.TraceCampaign, "compile_with", span("power.compile"))
    patch(synth.LeakageSchedule, "__init__", span("power.leakage_compile"))
    patch(synth._PackedPlan, "__init__", span("power.packed_plan"))
    patch(synth.LeakageSchedule, "evaluate", span("power.evaluate", _rows_of_result))
    patch(scope.Oscilloscope, "capture", span("power.capture", _rows_of_result))

    # campaigns
    patch(accumulators.CpaAccumulator, "update", span("campaigns.fold", _rows_of_arg(1)))
    patch(accumulators.CpaAccumulator, "merge", span("campaigns.merge"))
    patch(sweep_metrics.LeakageMetricsFold, "merge", span("campaigns.merge"))
    patch(accumulators.CpaAccumulator, "result", span("campaigns.statistics"))
    patch(sweep_metrics.LeakageMetricsFold, "result", span("campaigns.statistics"))
    tracer.gauge("campaigns.schedule_cache_entries", lambda: engine.schedule_cache_info()[1])

    # backends: chunk tasks run in the workers, map_chunks in the parent
    patch(pools, "run_chunk_task", span("backends.chunk"))
    patch(backends_base, "run_chunk_task", span("backends.chunk"))

    def chunk_sent(result) -> None:
        tracer.add("backends.result_bytes", 0, len(pickle.dumps(result)))
        tracer.flush()

    patch(pools, "_fork_chunk", span("backends.worker_chunk", after=chunk_sent))
    patch(pools._PoolBackendBase, "map_chunks", lambda fn: _generator_span(tracer, "backends.map_chunks", fn))
    patch(backends_base.SerialBackend, "map_chunks", lambda fn: _generator_span(tracer, "backends.map_chunks", fn))

    # sweeps: the corpus metrics fold
    patch(sweep_metrics.LeakageMetricsFold, "update", span("sweeps.metrics_update", _rows_of_arg(1)))

    # corpus
    patch(manifest, "load_manifest", span("corpus.expand"))
    patch(manifest.Manifest, "expand", span("corpus.expand"))

    def store_lookup(record) -> None:
        tracer.add("corpus.store_misses" if record is None else "corpus.store_hits")

    patch(store.ArtifactStore, "get", span("corpus.store_get", after=store_lookup))
    patch(store.ArtifactStore, "put_cell", span("corpus.store_put"))
    patch(report.CorpusResult, "render", span("corpus.report"))
    patch(report.CorpusResult, "to_json", span("corpus.report"))

    # service: admission in the front-end, jobs in the worker
    patch(service_runtime.ServiceRuntime, "submit", span("service.admit", after=flush))
    patch(service_worker, "execute_job", span("service.worker_job", after=flush))

    def run_worker_flushing(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.flush()

        return wrapper

    patch(service_worker, "run_worker", run_worker_flushing)


    def uninstall() -> None:
        while undo:
            undo.pop()()

    return uninstall
