"""The streaming campaign engine: chunked, cached, optionally parallel.

:class:`StreamingCampaign` is the one acquisition path every experiment
driver runs through.  It compiles a program's pipeline/leakage schedule
once (through :func:`compile_cached`, a process-wide cache shared by
every campaign over an equal program), then yields traces in fixed-size
chunks: each chunk is a full :class:`~repro.power.acquisition.TraceSet`
over a slice of the inputs, produced by the vectorized executor and the
oscilloscope chain with a chunk-indexed noise seed.

Properties the rest of the stack builds on:

* **constant memory** — the trace matrix, the vectorized executor's
  page store and the value table all scale with the chunk, never with
  the campaign, so campaign size is unbounded;
* **reproducibility** — chunk ``i`` uses
  ``derive_seed(campaign_seed, i)``, so a campaign is a pure function of
  ``(seed, chunk_size)`` regardless of worker count or acquisition
  history; chunk 0 of a single-chunk stream is byte-identical to the
  historical monolithic acquisition;
* **parallelism** — chunks are independent *declarative tasks*
  (:class:`~repro.backends.base.ChunkTask`: chunk bounds, a counter
  range via ``trace_offset``, the chunk's scope seed) dispatched through
  a pluggable :class:`~repro.backends.ExecutionBackend`; results stream
  back in chunk order, and every backend is byte-identical to the
  serial reference for float32 campaigns (see ``docs/backends.md``).
"""

from __future__ import annotations

import hashlib
import pickle
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.backends import (
    BackendBroken,
    BackendContext,
    BackendDegradationWarning,
    ChunkCorruption,
    ChunkTask,
    ExecutionBackend,
    ResilienceContext,
    RetryPolicy,
    SerialBackend,
    quarantine_backend,
    resolve_backend,
)
from repro.backends.resilience import active_report
from repro.campaigns.checkpoint import Checkpointer, checkpoint_fingerprint, digest_inputs
from repro.isa.program import Program
from repro.power.acquisition import (
    BatchInputs,
    CompiledAcquisition,
    TraceCampaign,
    TraceSet,
    derive_seed,
)
from repro.power.profile import LeakageProfile
from repro.power.scope import Oscilloscope, ScopeConfig
from repro.uarch.config import PipelineConfig

#: Entry bound of the process-wide compile cache.  A figure3 entry
#: (schedule, leakage schedule with its packed plans, replay tape) is
#: about 3 MB, so a full cache stays near 100 MB.
SCHEDULE_CACHE_CAPACITY = 32

#: Process-wide compile cache: content key -> compiled acquisition, in
#: least-recently-used order.  Keys carry the program's content digest,
#: never its identity, so every run over an equal program — a fresh
#: ``Program`` per Session run, sweep, corpus cell or service job, or
#: one unpickled in a pool worker — shares one compilation.
_SCHEDULE_CACHE: OrderedDict[tuple, CompiledAcquisition] = OrderedDict()
_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def _fold_digest(fold) -> str:
    """A stable digest of a fold's recipe, for checkpoint fingerprints."""
    return hashlib.sha256(pickle.dumps(fold)).hexdigest()


def compile_cached(campaign: TraceCampaign, inputs: BatchInputs) -> CompiledAcquisition:
    """The campaign's compiled acquisition, through the shared LRU cache.

    The key is the program's content digest plus everything else the
    compilation reads: ``config.identity()`` (so renamed variants share),
    the scope's ``samples_per_cycle``, the entry label, the acquisition
    window, the input shape and whether a replay tape is compiled.
    Programs with conditionally executed non-branch instructions bypass
    the cache: their schedule depends on input values, not just shape.
    On a hit the campaign's own cache is seeded, so its next acquire
    skips the reference-executor pass (and still recompiles if the
    batch takes other branch directions).

    The cache, like the compiled objects it shares (packed plans reuse
    scratch buffers), is for one thread per process: every caller in
    the repository runs acquisition on its main thread and fans out
    over processes, each of which gets its own copy.
    """
    if not campaign._schedule_input_independent():
        return campaign.compile_with(inputs)
    signature = inputs.signature()
    key = (
        campaign.program.content_digest(),
        campaign.config.identity(),
        campaign.scope_config.samples_per_cycle,
        campaign.entry,
        campaign.window_cycles,
        signature,
        campaign.use_tape,
    )
    compiled = _SCHEDULE_CACHE.get(key)
    if compiled is None:
        _CACHE_STATS["misses"] += 1
        compiled = campaign.compile_with(inputs)
        _SCHEDULE_CACHE[key] = compiled
        while len(_SCHEDULE_CACHE) > SCHEDULE_CACHE_CAPACITY:
            _SCHEDULE_CACHE.popitem(last=False)
            _CACHE_STATS["evictions"] += 1
    else:
        _CACHE_STATS["hits"] += 1
        _SCHEDULE_CACHE.move_to_end(key)
        campaign._compiled = compiled
        campaign._compiled_signature = signature
    return compiled


def schedule_cache_info() -> tuple[int, int]:
    """(distinct programs cached, total compiled entries)."""
    return len({key[0] for key in _SCHEDULE_CACHE}), len(_SCHEDULE_CACHE)


def schedule_cache_stats() -> dict[str, int]:
    """Cumulative ``hits``, ``misses`` and ``evictions`` of the cache.

    Counters only grow, so callers measure a piece of work by the
    difference of two snapshots; the miss delta is the number of
    compilations that work performed.
    """
    return dict(_CACHE_STATS)


def clear_schedule_cache() -> None:
    """Drop every cached entry (the counters keep running)."""
    _SCHEDULE_CACHE.clear()


@dataclass
class TraceChunk:
    """One streamed slice of a campaign: a TraceSet plus its offset.

    ``replayed`` marks a chunk re-yielded from an already-complete
    checkpointed run: its statistics are part of the restored state, so
    drivers must *not* fold it again — it exists only so they still see
    a final chunk's trace-set metadata (schedule, table, path).
    """

    start: int
    index: int
    trace_set: TraceSet
    replayed: bool = field(default=False, compare=False)

    @property
    def traces(self) -> np.ndarray:
        return self.trace_set.traces

    @property
    def inputs(self) -> BatchInputs:
        return self.trace_set.inputs

    @property
    def n_traces(self) -> int:
        return self.trace_set.n_traces

    @property
    def stop(self) -> int:
        return self.start + self.n_traces


class StreamingCampaign:
    """Chunked acquisition harness for one program on one pipeline.

    A drop-in superset of :class:`~repro.power.acquisition.TraceCampaign`:
    :meth:`acquire` materializes a whole campaign exactly as the
    monolithic path does, :meth:`stream` yields it chunk by chunk in
    bounded memory, optionally fanning chunks out over worker processes.
    """

    def __init__(
        self,
        program: Program,
        config: PipelineConfig | None = None,
        profile: LeakageProfile | None = None,
        scope: ScopeConfig | None = None,
        entry: str | None = None,
        window_cycles: tuple[int, int] | None = None,
        seed: int = 0xC0FFEE,
        keep_power: bool = False,
        chunk_size: int | None = None,
        jobs: int = 1,
        backend: str | ExecutionBackend | None = None,
    ):
        self.program = program
        self.seed = seed
        self.chunk_size = chunk_size
        self.jobs = max(1, jobs)
        #: backend policy ("auto"/"serial"/"fork"/"spawn"/... or a live
        #: :class:`ExecutionBackend`); ``None`` means "auto"
        self.backend = backend
        self._campaign = TraceCampaign(
            program,
            config=config,
            profile=profile,
            scope=scope,
            entry=entry,
            window_cycles=window_cycles,
            seed=seed,
            keep_power=keep_power,
        )

    @property
    def config(self) -> PipelineConfig:
        return self._campaign.config

    @property
    def scope_config(self) -> ScopeConfig:
        return self._campaign.scope_config

    def compiled(self, inputs: BatchInputs) -> CompiledAcquisition:
        """The (path, schedule, leakage) triple, via :func:`compile_cached`."""
        return compile_cached(self._campaign, inputs)

    # -- acquisition ----------------------------------------------------

    def acquire(
        self,
        inputs: BatchInputs,
        power_transform: Callable[[np.ndarray], np.ndarray] | None = None,
        scope_seed: int | None = None,
    ) -> TraceSet:
        """One-shot (monolithic) acquisition, schedule cache included."""
        self.compiled(inputs)
        return self._campaign.acquire(
            inputs, power_transform=power_transform, scope_seed=scope_seed
        )

    def chunk_bounds(self, n_traces: int, chunk_size: int | None = None) -> list[tuple[int, int]]:
        """The ``[start, stop)`` trace ranges a stream will cover."""
        size = chunk_size if chunk_size is not None else self.chunk_size
        if size is None or size >= n_traces:
            return [(0, n_traces)]
        if size <= 0:
            raise ValueError(f"chunk size must be positive, got {size}")
        return [(lo, min(lo + size, n_traces)) for lo in range(0, n_traces, size)]

    def stream(
        self,
        inputs: BatchInputs,
        chunk_size: int | None = None,
        jobs: int | None = None,
        power_transform: Callable[[np.ndarray], np.ndarray] | None = None,
        power_transform_factory: Callable[[int], Callable[[np.ndarray], np.ndarray]]
        | None = None,
        backend: str | ExecutionBackend | None = None,
        retry: RetryPolicy | int | None = None,
        chunk_timeout: float | None = None,
        checkpoint: Checkpointer | None = None,
        transport: str | None = None,
    ) -> Iterator[TraceChunk]:
        """Yield the campaign as ordered, seed-stable trace chunks.

        ``transport`` picks how chunk results cross the process
        boundary: ``"pickle"`` (the default) serializes the slim
        ``(traces, table, power)`` payload through the pool pipe, while
        ``"shm"`` has workers write trace blocks into named
        ``multiprocessing.shared_memory`` segments and ship only a tiny
        descriptor — the parent maps each segment zero-copy (see
        ``repro.backends.shm``).  The bytes are identical either way;
        ``"shm"`` falls back to pickle, with a
        :class:`~repro.backends.BackendDegradationWarning`, on platforms
        without POSIX shared memory.

        ``power_transform`` applies one callable to every chunk's power
        matrix; ``power_transform_factory`` instead receives the chunk
        index and returns that chunk's transform — the hook that lets
        seeded environment models decorrelate their noise per chunk
        (:meth:`repro.os_sim.environment.Environment.reseeded`).

        ``backend`` picks where chunk tasks execute (a policy name or a
        live :class:`~repro.backends.ExecutionBackend`); the default
        ``"auto"`` parallelizes when ``jobs > 1``, degrading with a
        :class:`~repro.backends.BackendDegradationWarning` — never
        silently — when no parallel backend is usable.

        The resilience knobs (see ``docs/resilience.md``) are all off by
        default, in which case the historical dispatch paths run
        untouched:

        * ``retry`` — a retry count or a full
          :class:`~repro.backends.RetryPolicy`; each chunk task runs
          under it inside the backend, and retried chunks are
          byte-identical because every chunk is a pure function of its
          trace range.
        * ``chunk_timeout`` — a soft per-chunk deadline (seconds) on
          pool backends: a hung or killed worker surfaces as a
          :class:`~repro.backends.WatchdogTimeout`, the pool is rebuilt
          and the chunk re-dispatched.  A backend that exhausts its
          budget on timeouts is quarantined; under ``auto`` the stream
          then degrades to serial instead of failing.
        * ``checkpoint`` — a
          :class:`~repro.campaigns.checkpoint.Checkpointer`; completed
          chunk ranges (plus the driver's accumulator state) persist
          across kills and ``resume`` re-acquires only missing chunks.

        Any of them also enables per-chunk result validation
        (shape/dtype/finiteness on rewrap, rejected chunks raise
        :class:`~repro.backends.ChunkCorruption` and count as retryable
        failures).
        """
        if transport not in (None, "pickle", "shm"):
            raise ValueError(
                f"unknown transport {transport!r}; expected 'pickle' or 'shm'"
            )
        bounds, jobs, compiled, tasks, context = self._prepare(
            inputs,
            chunk_size,
            jobs,
            power_transform,
            power_transform_factory,
            retry,
            chunk_timeout,
            checkpoint,
        )
        codec = None
        if transport == "shm" and jobs > 1 and len(tasks) > 1:
            from repro.backends.shm import ShmCodec, shm_available

            if shm_available():
                # A fingerprint-derived token keeps segment names
                # deterministic across a kill/resume of the same run,
                # so recovery can always clean its predecessor up.
                token = self._stream_fingerprint(inputs, bounds)[:12]
                codec = ShmCodec(token=token)
                context.codec = codec
            else:
                warnings.warn(
                    "shared-memory transport requested but POSIX shared "
                    "memory is unavailable; falling back to pickle",
                    BackendDegradationWarning,
                    stacklevel=2,
                )
        run_tasks = tasks
        replay_last = False
        if checkpoint is not None:
            fingerprint = self._stream_fingerprint(inputs, bounds)
            completed = checkpoint.begin(fingerprint, n_chunks=len(tasks))
            run_tasks = [task for task in tasks if task.index not in completed]
            if not run_tasks and tasks:
                # Everything was already committed: re-acquire the last
                # chunk (pure function of its range, so free of side
                # effects on the statistics) and yield it flagged
                # ``replayed`` so drivers still see final-chunk metadata
                # without double-folding.
                run_tasks = [tasks[-1]]
                replay_last = True
        policy = backend if backend is not None else self.backend
        path, schedule, leakage = compiled
        try:
            for index, lo, payload in self._dispatch(
                context,
                run_tasks,
                policy=policy,
                jobs=jobs,
                checkpoint=checkpoint,
                replay_last=replay_last,
            ):
                if hasattr(payload, "materialize"):
                    # shm descriptor: attach, unlink, wrap zero-copy
                    # (cached — validation may have attached already).
                    payload = payload.materialize()
                if isinstance(payload, TraceSet):
                    # Rare: the chunk recompiled against a different path
                    # (data-dependent branch direction), or the backend
                    # ships whole trace sets; take it as-is.
                    trace_set = payload
                else:
                    # Common case: the worker's schedule matches the
                    # parent's compiled triple, so only the per-chunk
                    # data crossed the pipe; rewrap with shared objects.
                    traces, table, power = payload
                    trace_set = TraceSet(
                        traces=traces,
                        inputs=inputs.slice(lo, lo + traces.shape[0]),
                        schedule=schedule,
                        leakage=leakage,
                        table=table,
                        path=path,
                        power=power,
                    )
                yield TraceChunk(
                    start=lo, index=index, trace_set=trace_set, replayed=replay_last
                )
        finally:
            if codec is not None:
                # Unlink anything encoded but never consumed (a fault
                # aborting the stream, an abandoned generator, leftovers
                # of a killed previous run under this fingerprint).
                codec.cleanup(len(tasks))

    def reduce(
        self,
        inputs: BatchInputs,
        fold,
        chunk_size: int | None = None,
        jobs: int | None = None,
        power_transform: Callable[[np.ndarray], np.ndarray] | None = None,
        power_transform_factory: Callable[[int], Callable[[np.ndarray], np.ndarray]]
        | None = None,
        backend: str | ExecutionBackend | None = None,
        retry: RetryPolicy | int | None = None,
        chunk_timeout: float | None = None,
        checkpoint: Checkpointer | None = None,
    ):
        """Run the campaign comms-avoidingly: fold worker-side, merge states.

        ``fold`` is a :class:`~repro.campaigns.reduction.ChunkFold`.
        Each worker folds its chunk into a fresh accumulator and ships
        only the accumulator's compact sufficient-statistic state; the
        parent merges the states **in chunk order**, which keeps the
        merged result byte-identical to the serial fold (and keeps
        budget snapshots chunk-aligned).  Raw traces never cross the
        process boundary — statistics-only campaigns shrink their IPC
        by orders of magnitude (see ``BENCH_comms.json``).

        The resilience knobs behave exactly as for :meth:`stream`;
        per-chunk validation inspects the fold states (finiteness) and a
        retried chunk recomputes its state from scratch, so a recovered
        campaign merges each chunk exactly once.  With a ``checkpoint``,
        the *merged* accumulator state persists after every folded chunk
        (the checkpoint's ``state_fn``/``restore_fn`` default to the
        fold's ``freeze``/``thaw``); a resumed run re-acquires only
        missing chunks and merges them onto the restored state.

        Returns a :class:`~repro.campaigns.reduction.ReducedCampaign`
        whose ``value`` is the merged accumulator and whose
        ``trace_set`` is a zero-row metadata trace set over the
        compiled schedule.
        """
        from repro.campaigns.checkpoint import checkpoint_fingerprint as _fp
        from repro.campaigns.reduction import FoldCodec, ReducedCampaign

        bounds, jobs, compiled, tasks, context = self._prepare(
            inputs,
            chunk_size,
            jobs,
            power_transform,
            power_transform_factory,
            retry,
            chunk_timeout,
            checkpoint,
            validator=self._state_validator(),
        )
        context.codec = FoldCodec(fold)
        holder = {"acc": fold.create()}
        run_tasks = tasks
        if checkpoint is not None:
            if checkpoint.state_fn is None:
                checkpoint.state_fn = lambda: fold.freeze(holder["acc"])
            if checkpoint.restore_fn is None:
                checkpoint.restore_fn = lambda frozen: holder.__setitem__(
                    "acc", fold.thaw(frozen)
                )
            fingerprint = _fp(
                (
                    "repro.reduce/1",
                    self._stream_fingerprint(inputs, bounds),
                    _fold_digest(fold),
                )
            )
            completed = checkpoint.begin(fingerprint, n_chunks=len(tasks))
            run_tasks = [task for task in tasks if task.index not in completed]
        by_index = {task.index: task for task in tasks}
        policy = backend if backend is not None else self.backend
        for index, _lo, state in self._dispatch(
            context, run_tasks, policy=policy, jobs=jobs, checkpoint=checkpoint
        ):
            holder["acc"] = fold.merge_state(holder["acc"], by_index[index], state)
        path, schedule, leakage = compiled
        meta = TraceSet(
            traces=np.empty((0, leakage.n_samples), dtype=np.float32),
            inputs=inputs,
            schedule=schedule,
            leakage=leakage,
            table=None,
            path=path,
            power=None,
        )
        return ReducedCampaign(
            value=holder["acc"],
            trace_set=meta,
            n_traces=inputs.n_traces,
            n_chunks=len(tasks),
            backend={"policy": getattr(policy, "name", policy) or "auto", "jobs": jobs},
        )

    def _prepare(
        self,
        inputs: BatchInputs,
        chunk_size: int | None,
        jobs: int | None,
        power_transform,
        power_transform_factory,
        retry,
        chunk_timeout,
        checkpoint,
        validator: Callable | None = None,
    ):
        """The shared stream/reduce prelude: compile, calibrate, build tasks."""
        if power_transform is not None and power_transform_factory is not None:
            raise ValueError("pass power_transform or power_transform_factory, not both")
        inputs.validate()
        bounds = self.chunk_bounds(inputs.n_traces, chunk_size)
        jobs = self.jobs if jobs is None else max(1, jobs)
        # Compile before any fork so workers inherit the schedule, and
        # resolve the campaign's quantizer full-scale so every chunk —
        # in every worker — shares one LSB.  Calibration sees chunk 0's
        # power transform (factories must be pure functions of the
        # chunk index — parallel backends may evaluate factory(0) twice).
        compiled = self.compiled(inputs)
        transform0 = (
            power_transform_factory(0)
            if power_transform_factory is not None
            else power_transform
        )
        resilience = self._resilience_context(
            retry, chunk_timeout, checkpoint, compiled, validator=validator
        )
        # Calibration applies chunk 0's transform in the parent, so a
        # transient fault can strike here too; give it the same retry
        # budget the chunks get (index -1 in the fault report).
        self._retrying(
            resilience,
            lambda: self._calibrate_full_scale(inputs, bounds, transform0),
            "calibrate",
        )
        float32 = self._campaign.precision == "float32"
        tasks = [
            ChunkTask(
                index=index,
                lo=lo,
                hi=hi,
                scope_seed=self._chunk_scope_seed(index),
                trace_offset=lo if float32 else 0,
            )
            for index, (lo, hi) in enumerate(bounds)
        ]
        context = BackendContext(
            campaign=self._campaign,
            inputs=inputs,
            power_transform=power_transform,
            power_transform_factory=power_transform_factory,
            transform0=transform0,
            compiled=compiled,
            resilience=resilience,
        )
        return bounds, jobs, compiled, tasks, context

    def _dispatch(
        self,
        context: BackendContext,
        run_tasks: list[ChunkTask],
        *,
        policy,
        jobs: int,
        checkpoint: Checkpointer | None = None,
        replay_last: bool = False,
    ):
        """Resolve the backend and stream ``(index, lo, payload)`` results.

        Commit semantics: a chunk counts as delivered (and its
        checkpoint record is written) only once the consumer resumes
        this generator, i.e. after the driver finished folding it.
        Under an ``auto`` policy a :class:`BackendBroken` backend is
        quarantined and the undelivered chunks re-dispatched serially.
        """
        resilience = context.resilience
        degradable = policy is None or policy == "auto"
        resolved, owned = resolve_backend(
            policy, jobs=jobs, n_tasks=len(run_tasks), context=context
        )
        try:
            resolved.start()
            pending = list(run_tasks)
            delivered: set[int] = set()
            while pending:
                try:
                    for index, lo, payload in resolved.map_chunks(context, pending):
                        yield index, lo, payload
                        delivered.add(index)
                        if checkpoint is not None and not replay_last:
                            checkpoint.chunk_done(index)
                    pending = []
                except BackendBroken as error:
                    # The backend exhausted its watchdog retries.  Under
                    # an explicit policy that is the caller's problem;
                    # under auto, quarantine it and degrade to serial
                    # (loudly), re-dispatching the undelivered chunks.
                    if not degradable:
                        raise
                    quarantine_backend(error.backend, str(error))
                    message = (
                        f"backend '{error.backend}' quarantined after repeated "
                        f"failures ({error}); degrading to 'serial'"
                    )
                    warnings.warn(message, BackendDegradationWarning, stacklevel=2)
                    if resilience is not None:
                        resilience.report.record_quarantine(error.backend)
                        resilience.report.record_degradation(message)
                    if owned:
                        resolved.close()
                    resolved = SerialBackend()
                    owned = True
                    pending = [task for task in run_tasks if task.index not in delivered]
            if checkpoint is not None:
                checkpoint.finalize()
        finally:
            if owned:
                resolved.close()

    def _resilience_context(
        self,
        retry: RetryPolicy | int | None,
        chunk_timeout: float | None,
        checkpoint: Checkpointer | None,
        compiled: CompiledAcquisition,
        validator: Callable | None = None,
    ) -> ResilienceContext | None:
        """Build the stream's resilience state, or ``None`` when off.

        Any resilience knob also arms per-chunk validation (by default
        the trace-block validator; ``validator`` overrides it for
        encoded payloads such as fold states); the ambient fault report
        (a :class:`~repro.api.session.Session` collecting faults) is
        reused so events reach the result envelope.
        """
        if retry is None and chunk_timeout is None and checkpoint is None:
            return None
        if retry is None:
            policy = RetryPolicy()
        elif isinstance(retry, RetryPolicy):
            policy = retry
        else:
            policy = RetryPolicy.from_retries(int(retry))
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ValueError(f"chunk timeout must be positive, got {chunk_timeout}")
        context = ResilienceContext(
            policy=policy,
            chunk_timeout=chunk_timeout,
            validator=validator if validator is not None else self._chunk_validator(compiled),
        )
        ambient = active_report()
        if ambient is not None:
            context.report = ambient
        return context

    @staticmethod
    def _retrying(resilience: ResilienceContext | None, fn: Callable[[], None], label: str):
        """Run a parent-side step under the stream's retry policy."""
        if resilience is None:
            return fn()
        attempt = 1
        while True:
            try:
                return fn()
            except Exception as error:
                resilience.record_failure(error)
                if (
                    attempt >= resilience.policy.max_attempts
                    or not resilience.policy.retryable(error)
                ):
                    raise
                resilience.backoff(
                    task_index=-1, attempt=attempt, error=error, backend=label
                )
                attempt += 1

    def _chunk_validator(self, compiled: CompiledAcquisition):
        """Reject malformed chunk results before they reach the fold.

        Slim payloads must match the parent's compiled schedule exactly
        (row count, sample width, dtype); full trace sets may carry a
        divergent recompiled path, so only their row count and
        finiteness are checked.  Violations raise
        :class:`~repro.backends.ChunkCorruption` (retryable).
        """
        expected_samples = compiled.leakage.n_samples
        # Both precision chains store captured traces as float32 (the
        # mode governs intermediate arithmetic, not the output dtype).
        expected_dtype = np.dtype(np.float32)

        def validate(task: ChunkTask, payload) -> None:
            if hasattr(payload, "materialize"):
                # shm descriptor: attach once here; the rewrap reuses
                # the cached mapping.  A vanished segment raises
                # ChunkCorruption itself (retryable).
                payload = payload.materialize()
            slim = not isinstance(payload, TraceSet)
            traces = payload[0] if slim else payload.traces
            rows = task.hi - task.lo
            if traces.ndim != 2 or traces.shape[0] != rows:
                raise ChunkCorruption(
                    f"chunk {task.index}: trace block has shape {traces.shape}, "
                    f"expected ({rows}, n_samples)"
                )
            if slim and traces.shape[1] != expected_samples:
                raise ChunkCorruption(
                    f"chunk {task.index}: {traces.shape[1]} samples per trace, "
                    f"expected {expected_samples}"
                )
            if slim and traces.dtype != expected_dtype:
                raise ChunkCorruption(
                    f"chunk {task.index}: traces have dtype {traces.dtype}, "
                    f"expected {expected_dtype}"
                )
            if not np.isfinite(traces).all():
                raise ChunkCorruption(
                    f"chunk {task.index}: non-finite values in traces"
                )

        return validate

    @staticmethod
    def _state_validator() -> Callable:
        """Reject corrupted fold states before they reach the merge.

        Fold states are nested dicts/lists of numpy arrays and scalars;
        a corrupted chunk (non-finite traces, a poisoned transform)
        surfaces as non-finite moments.  Violations raise
        :class:`~repro.backends.ChunkCorruption` (retryable) exactly
        like the trace-block validator does for raw payloads.
        """

        def check(value) -> None:
            if isinstance(value, dict):
                for sub in value.values():
                    check(sub)
            elif isinstance(value, (list, tuple)):
                for sub in value:
                    check(sub)
            elif isinstance(value, np.ndarray):
                if value.dtype.kind == "f" and not np.isfinite(value).all():
                    raise ValueError("non-finite array in fold state")
            elif isinstance(value, float) and not np.isfinite(value):
                raise ValueError("non-finite scalar in fold state")

        def validate(task: ChunkTask, payload) -> None:
            try:
                check(payload)
            except ValueError as error:
                raise ChunkCorruption(f"chunk {task.index}: {error}") from None

        return validate

    def _stream_fingerprint(self, inputs: BatchInputs, bounds: list[tuple[int, int]]) -> str:
        """What a checkpoint must match to be resumable against this stream.

        Covers the full campaign recipe *and* the chunking (the bounds
        decide trace ranges) *and* the input content — anything that
        changes the bytes a resumed run would produce.
        """
        campaign = self._campaign
        return checkpoint_fingerprint(
            (
                "repro.stream/1",
                campaign.config.identity(),
                campaign.scope_config,
                campaign.entry,
                campaign.window_cycles,
                campaign.precision,
                campaign.keep_power,
                self.seed,
                tuple(bounds),
                inputs.signature(),
                digest_inputs(inputs),
            )
        )

    def _chunk_scope_seed(self, index: int) -> int:
        """The oscilloscope seed of chunk ``index``.

        float64-exact mode keeps the historical per-chunk derived
        streams (chunk 0 byte-identical to a monolithic run); float32
        mode shares one counter-based stream across all chunks — the
        chunk's ``trace_offset`` separates the draws, which is what
        makes a campaign's noise independent of its chunking.
        """
        if self._campaign.precision == "float32":
            return derive_seed(self.seed, 0)
        return derive_seed(self.seed, index)

    def _calibrate_full_scale(
        self,
        inputs: BatchInputs,
        bounds: list[tuple[int, int]],
        power_transform: Callable[[np.ndarray], np.ndarray] | None,
    ) -> None:
        """Pin the campaign's auto-ranged quantizer full-scale.

        With ``adc_range=None`` the historical chunked path quantized
        every chunk against its own observed spread, i.e. a different
        LSB per chunk.  Before streaming (and before any fork), this
        resolves one deterministic full-scale from the campaign's
        leading-trace power — the same rule a monolithic float32
        capture applies internally — and pins it on the inner campaign.

        Monolithic float64-exact runs (a single chunk) are left alone:
        their per-capture auto-range is part of the bit-exact contract.
        """
        campaign = self._campaign
        config = campaign.scope_config
        if config.quantize_bits is None or config.adc_range is not None:
            return
        if campaign.pinned_full_scale is not None:
            return
        if campaign.precision != "float32" and len(bounds) <= 1:
            return
        compiled = self.compiled(inputs)
        k = min(config.calibration_traces, inputs.n_traces)
        result, compiled = campaign._run_checked(
            inputs.slice(0, k), compiled, reused=True
        )
        # Evaluate the prefix in the campaign's own dtype so the pinned
        # value is bit-identical to what a monolithic float32 capture
        # would self-calibrate from.
        power = compiled.leakage.evaluate(
            result.table,
            campaign.profile,
            dtype=np.float32 if campaign.precision == "float32" else np.float64,
        )
        if power_transform is not None:
            power = power_transform(power)
            if not np.isfinite(power).all():
                # A corrupted transform must not silently poison the
                # campaign-wide LSB; raise (retryable) instead.
                raise ChunkCorruption(
                    "calibration power contains non-finite values; refusing "
                    "to pin a corrupted quantizer full-scale"
                )
        scope = Oscilloscope(config, seed=self._chunk_scope_seed(0))
        campaign.pinned_full_scale = scope.calibrate_full_scale(power)

