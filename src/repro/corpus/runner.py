"""The manifest batch executor: isolated cells, store-served re-runs.

:class:`CorpusCampaign` expands a manifest into cells and picks its
parallel grain automatically (:func:`choose_grain`, no knob):

* **Cells** — with the default execution layout (``jobs`` unset, which
  means ``cpu_count()`` workers, or above 1; no live backend instance,
  chunking, resilience knob or worker-side reduce) and at least two
  cells pending, the parent serves store hits itself, groups the
  misses by compile identity (workload, config identity, samples per
  cycle), compiles each group once, then forks a pool of at most one
  worker per group and fans the groups across it.  Corpus cells hold a
  few hundred traces, one chunk each, so this is the only fan-out that
  has work to share.
* **Chunks** — otherwise cells run one after another and ``jobs``
  parallelizes the chunk fan-out *inside* each cell; an unset ``jobs``
  then means 1.

Either way four guarantees hold, and both grains give the same bytes:

* **Per-cell isolation** — an unknown workload name, a poisoned config
  or scope override, or any execution error fails that cell alone; the
  rest of the batch completes and the error lands in the report.
* **Capability negotiation** — a cell requesting an engine knob its
  workload does not declare (e.g. worker-side reduction on a workload
  whose fold is not distributive) fails at negotiation time with a
  message naming the knob, before any trace is acquired.
* **Store-served re-runs** — completed cells persist to the
  content-addressed :class:`~repro.corpus.store.ArtifactStore`; an
  identical cell is served from disk (``force=False``) instead of
  re-executing.  Errors are never stored.
* **Checkpoint/resume** — with a ``checkpoint`` directory, finished
  cells commit as campaign chunks (the PR-style
  :class:`~repro.campaigns.checkpoint.Checkpointer` contract), so a
  killed batch restarted with ``resume=True`` re-runs only missing
  cells.  The fingerprint covers everything result-affecting and
  excludes the execution layout (jobs/backend/reduce/grain).

Every cell shares one campaign seed, so cross-workload metric
differences isolate the workload/config change, exactly as sweep points
measure paired noise realizations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from repro.api.capabilities import Capability
from repro.backends import (
    ExecutionBackend,
    PoolBackend,
    cpu_count,
    fork_available,
    is_quarantined,
    resolve_backend,
)
from repro.backends.blas import pinned_blas_threads
from repro.campaigns import engine as engine_module
from repro.campaigns.reduction import ChunkFold
from repro.corpus.manifest import CorpusCell, Manifest
from repro.corpus.report import CellResult, CorpusResult, metrics_from_json
from repro.corpus.store import DEFAULT_STORE_DIR, ArtifactStore, cell_key
from repro.corpus.workloads import Workload, workload as get_workload
from repro.power.acquisition import BatchInputs
from repro.power.scope import ScopeConfig
from repro.sweeps.metrics import LeakageMetricsFold, PointMetrics
from repro.uarch.config import PipelineConfig

#: Default acquisition chain of a corpus cell (the sweep engine's
#: low-noise-floor chain, so modest budgets stay decisive).
DEFAULT_CORPUS_SCOPE = ScopeConfig(noise_sigma=20.0, n_averages=16, quantize_bits=8)

#: Engine knob -> the capability a workload must declare for it.
_KNOB_CAPABILITIES = {
    "chunk_size": Capability.CHUNKING,
    "jobs": Capability.JOBS,
    "backend": Capability.BACKEND,
    "precision": Capability.PRECISION,
    "retries": Capability.RESILIENCE,
    "chunk_timeout": Capability.RESILIENCE,
    "reduce": Capability.REDUCE,
}


class WorkloadCapabilityError(ValueError):
    """A cell requested an engine knob its workload does not support."""

    def __init__(self, workload_name: str, knobs: tuple[str, ...]):
        self.workload = workload_name
        self.knobs = tuple(knobs)
        needed = ", ".join(
            f"{knob} (needs {_KNOB_CAPABILITIES[knob].value})" for knob in self.knobs
        )
        super().__init__(f"workload {workload_name!r} does not support: {needed}")


@dataclass(frozen=True)
class CorpusMetricsFold(ChunkFold):
    """A corpus cell's leakage metrics, folded worker-side.

    The corpus counterpart of the sweep's worker fold: evaluates the
    workload's model on each chunk's input slice, folds in deferred
    mode at the chunk's absolute offset, and ships the compact state;
    the parent's in-order merge reproduces the serial fold bit for bit.
    Guess *values* need not be byte values (PRESENT attacks nibbles),
    so the partition label column is the true key's position in the
    guess list, not the key value itself.
    """

    model_matrix: Callable[[BatchInputs, int, int], np.ndarray]
    true_key: int
    true_key_column: int
    budgets: tuple
    guesses: tuple
    t_split: tuple

    def create(self) -> LeakageMetricsFold:
        return LeakageMetricsFold(
            self.budgets, self.true_key, guesses=self.guesses, t_split=self.t_split
        )

    def fold_chunk(self, task, trace_set) -> dict:
        models = self.model_matrix(trace_set.inputs, 0, trace_set.traces.shape[0])
        labels = models[:, self.true_key_column].astype(np.int64)
        part = LeakageMetricsFold(
            self.budgets,
            self.true_key,
            guesses=self.guesses,
            t_split=self.t_split,
            start=task.lo,
            defer=True,
        )
        with pinned_blas_threads(1):
            part.update(trace_set.traces, models, labels)
        return part.state()

    def merge_state(self, accumulator, task, state):
        accumulator.merge(LeakageMetricsFold.from_state(state))
        return accumulator


def choose_grain(
    *,
    jobs: int | None,
    backend,
    chunk_size: int | None,
    retries: int | None,
    chunk_timeout: float | None,
    reduce: str | None,
    n_pending: int,
) -> int:
    """Most workers to fan whole cells across, or 0 to run cells one by one.

    Cells are the grain when the execution layout is the default:
    ``jobs`` unset (``cpu_count()`` workers) or above 1, and at least
    two workers; ``backend`` unset, ``"auto"`` or ``"fork"`` (the parent
    compiles before it forks, so the pool must fork, and fork must not
    be quarantined); no chunking, retries, chunk timeout or worker-side
    reduce, which all work per chunk; and at least two cells pending.
    The pool itself is sized later, to the compile groups that miss the
    store, so a few cells on many CPUs fork only as many workers as
    they can use.
    """
    workers = cpu_count() if jobs is None else int(jobs)
    if (
        workers < 2
        or n_pending < 2
        or isinstance(backend, ExecutionBackend)
        or backend not in (None, "auto", "fork")
        or not fork_available()
        or is_quarantined("fork")
        or chunk_size is not None
        or retries is not None
        or chunk_timeout is not None
        or reduce == "worker"
    ):
        return 0
    return workers


def _describe(error: Exception) -> str:
    return f"{type(error).__name__}: {error}"


@dataclass(frozen=True)
class _CellPlan:
    """One cell resolved for execution, before any trace is acquired."""

    index: int
    cell: CorpusCell
    workload: Workload
    config: PipelineConfig
    scope: ScopeConfig
    n_traces: int
    seed: int
    key: str

    def __reduce__(self):
        # Workloads travel by registry name: a worker forked from the
        # parent holds the same registry, whatever its builders are.
        fields = (self.index, self.cell, self.workload.name, self.config, self.scope)
        return _restore_plan, fields + (self.n_traces, self.seed, self.key)

    @property
    def compile_identity(self) -> tuple:
        """What the compile cache keys on beyond the trace count."""
        return (self.workload.name, self.config.identity(), self.scope.samples_per_cycle)

    def engine(self, **knobs):
        """``(StreamingCampaign, BatchInputs)`` for this cell."""
        from repro.campaigns.engine import StreamingCampaign

        program = self.workload.build_program()
        inputs = self.workload.build_inputs(self.n_traces, self.seed)
        engine = StreamingCampaign(
            program,
            config=self.config,
            scope=self.scope,
            entry=self.workload.entry,
            seed=self.seed,
            **knobs,
        )
        return engine, inputs

    def fold(self) -> LeakageMetricsFold:
        return LeakageMetricsFold(
            (self.n_traces,),
            self.workload.true_key,
            guesses=self.workload.guesses,
            t_split=self.workload.t_split,
        )

    def fold_chunk(self, fold: LeakageMetricsFold, inputs, traces, lo: int, hi: int) -> None:
        models = self.workload.model_matrix(inputs, lo, hi)
        labels = models[:, self.workload.true_key_column].astype(np.int64)
        # One BLAS thread in every grain and process: the CPA product's
        # last bits depend on the thread count (repro.backends.blas).
        with pinned_blas_threads(1):
            fold.update(traces, models, labels)

    def measure(self) -> PointMetrics:
        """The cell's metrics from one monolithic acquisition."""
        engine, inputs = self.engine()
        fold = self.fold()
        self.fold_chunk(fold, inputs, engine.acquire(inputs).traces, 0, self.n_traces)
        return fold.result()


def _restore_plan(index, cell, workload_name, *rest) -> _CellPlan:
    return _CellPlan(index, cell, get_workload(workload_name), *rest)


def _measure_group(plans: tuple[_CellPlan, ...]) -> list[tuple]:
    """Pool worker: ``(metrics, seconds, error)`` per cell of one group.

    Each cell is its own isolation boundary, so a failing cell never
    takes its group down.
    """
    outcomes = []
    for plan in plans:
        start = time.perf_counter()
        try:
            metrics, error = plan.measure(), None
        except Exception as exc:  # noqa: BLE001 - the isolation boundary
            metrics, error = None, _describe(exc)
        outcomes.append((metrics, time.perf_counter() - start, error))
    return outcomes


class CorpusCampaign:
    """Runs a manifest's cells and assembles the comparative result."""

    def __init__(
        self,
        manifest: Manifest,
        *,
        store: str | ArtifactStore | None = DEFAULT_STORE_DIR,
        force: bool = False,
        n_traces: int | None = None,
        seed: int | None = None,
        chunk_size: int | None = None,
        jobs: int | None = None,
        backend: str | ExecutionBackend | None = None,
        precision: str | None = None,
        retries: int | None = None,
        chunk_timeout: float | None = None,
        reduce: str | None = None,
    ):
        self.manifest = manifest
        if isinstance(store, ArtifactStore):
            self.store: ArtifactStore | None = store
        elif store is not None:
            self.store = ArtifactStore(str(store))
        else:
            self.store = None
        self.force = bool(force)
        #: global trace override; ``None`` defers to each cell's budget
        self.n_traces = n_traces
        self.seed = int(seed) if seed is not None else int(manifest.seed)
        self.chunk_size = chunk_size
        #: worker count; ``None`` is auto (see :func:`choose_grain`)
        self.jobs = None if jobs is None else max(1, jobs)
        self.backend = backend
        self.precision = precision
        self.retries = retries
        self.chunk_timeout = chunk_timeout
        if reduce not in (None, "parent", "worker"):
            raise ValueError(
                f"reduce must be 'worker', 'parent' or None, got {reduce!r}"
            )
        self.reduce = reduce

    # -- per-cell negotiation -------------------------------------------

    def _requested_knobs(self) -> tuple[str, ...]:
        requested = []
        if self.chunk_size is not None:
            requested.append("chunk_size")
        if self.jobs is not None and self.jobs > 1:
            requested.append("jobs")
        if self.backend is not None:
            requested.append("backend")
        if self.precision is not None:
            requested.append("precision")
        if self.retries is not None:
            requested.append("retries")
        if self.chunk_timeout is not None:
            requested.append("chunk_timeout")
        if self.reduce == "worker":
            requested.append("reduce")
        return tuple(requested)

    def _negotiate(self, workload: Workload) -> None:
        unsupported = tuple(
            knob
            for knob in self._requested_knobs()
            if _KNOB_CAPABILITIES[knob] not in workload.capabilities
        )
        if unsupported:
            raise WorkloadCapabilityError(workload.name, unsupported)

    # -- per-cell execution ---------------------------------------------

    def _materialize(
        self, cell: CorpusCell
    ) -> tuple[PipelineConfig, ScopeConfig]:
        config = PipelineConfig().with_overrides(**dict(cell.config.overrides))
        scope = replace(DEFAULT_CORPUS_SCOPE, **dict(cell.scope.overrides))
        if self.precision is not None:
            scope = replace(scope, precision=self.precision)
        return config, scope

    def _cell_traces(self, cell: CorpusCell, workload: Workload) -> int:
        if self.n_traces is not None:
            return int(self.n_traces)
        if cell.budget is not None:
            return int(cell.budget)
        return int(workload.default_traces)

    def _plan(self, index: int, cell: CorpusCell) -> _CellPlan:
        workload = get_workload(cell.workload)
        self._negotiate(workload)
        config, scope = self._materialize(cell)
        n_traces = self._cell_traces(cell, workload)
        key = cell_key(
            workload,
            config,
            scope,
            n_traces=n_traces,
            seed=self.seed,
            chunk_size=self.chunk_size,
        )
        return _CellPlan(index, cell, workload, config, scope, n_traces, self.seed, key)

    def _lookup(self, plan: _CellPlan, start: float) -> CellResult | None:
        """The cell served from the store, or ``None`` on a miss."""
        if self.store is None or self.force:
            return None
        record = self.store.get(plan.key)
        if record is None:
            return None
        return CellResult(
            cell=plan.cell,
            metrics=metrics_from_json(record["metrics"], plan.workload.true_key),
            seconds=time.perf_counter() - start,
            cached=True,
            key=plan.key,
            n_traces=record["cell"]["n_traces"],
            rank_tolerance=plan.workload.rank_tolerance,
        )

    def _completed(self, plan: _CellPlan, metrics: PointMetrics, seconds: float) -> CellResult:
        """Store a measured cell (if there is a store) and wrap it."""
        if self.store is not None:
            self.store.put_cell(
                plan.key,
                manifest_name=self.manifest.name,
                cell=plan.cell,
                workload=plan.workload,
                n_traces=plan.n_traces,
                seed=self.seed,
                metrics_record=metrics.to_json(),
                seconds=seconds,
            )
        return CellResult(
            cell=plan.cell,
            metrics=metrics,
            seconds=seconds,
            cached=False,
            key=plan.key,
            n_traces=plan.n_traces,
            rank_tolerance=plan.workload.rank_tolerance,
        )

    def _measure(self, plan: _CellPlan, backend: ExecutionBackend | None) -> PointMetrics:
        """The cell's metrics under the chunk grain's engine knobs."""
        resilient = self.retries is not None or self.chunk_timeout is not None
        jobs = self.jobs or 1
        if self.reduce != "worker" and self.chunk_size is None and not resilient and jobs <= 1:
            return plan.measure()
        engine, inputs = plan.engine(
            chunk_size=self.chunk_size,
            jobs=jobs,
            backend=backend if backend is not None else self.backend,
        )
        if self.reduce == "worker":
            workload = plan.workload
            reduced = engine.reduce(
                inputs,
                CorpusMetricsFold(
                    model_matrix=workload.model_matrix,
                    true_key=workload.true_key,
                    true_key_column=workload.true_key_column,
                    budgets=(plan.n_traces,),
                    guesses=workload.guesses,
                    t_split=workload.t_split,
                ),
                retry=self.retries,
                chunk_timeout=self.chunk_timeout,
            )
            return reduced.value.result()
        fold = plan.fold()
        for chunk in engine.stream(
            inputs, retry=self.retries, chunk_timeout=self.chunk_timeout
        ):
            plan.fold_chunk(fold, inputs, chunk.traces, chunk.start, chunk.stop)
        return fold.result()

    def _run_cell(self, cell: CorpusCell, backend: ExecutionBackend | None) -> CellResult:
        start = time.perf_counter()
        plan = self._plan(cell.index, cell)
        cached = self._lookup(plan, start)
        if cached is not None:
            return cached
        metrics = self._measure(plan, backend)
        return self._completed(plan, metrics, time.perf_counter() - start)

    # -- the batch ------------------------------------------------------

    def run(self, checkpoint=None, resume: bool = False) -> CorpusResult:
        """Run every cell; optionally checkpoint at cell granularity."""
        start = time.perf_counter()
        cells = self.manifest.expand()
        done_results: dict[int, CellResult] = {}
        checkpointer = self._checkpointer(checkpoint, resume, done_results)
        done: set[int] = set()
        if checkpointer is not None:
            done = checkpointer.begin(
                self._fingerprint(cells), n_chunks=len(cells)
            )
        pending = [index for index in range(len(cells)) if index not in done]

        def commit(index: int, result: CellResult) -> None:
            done_results[index] = result
            if checkpointer is not None:
                checkpointer.chunk_done(index)

        workers = choose_grain(
            jobs=self.jobs,
            backend=self.backend,
            chunk_size=self.chunk_size,
            retries=self.retries,
            chunk_timeout=self.chunk_timeout,
            reduce=self.reduce,
            n_pending=len(pending),
        )
        if workers:
            self._fan_out_cells(cells, pending, workers, commit, batched=checkpointer is not None)
        else:
            self._run_cells(cells, pending, commit)
        if checkpointer is not None:
            checkpointer.finalize()
        return CorpusResult(
            manifest_name=self.manifest.name,
            cells=tuple(done_results[index] for index in range(len(cells))),
            store_dir=self.store.directory if self.store is not None else None,
            seconds=time.perf_counter() - start,
            seed=self.seed,
            resumed=tuple(sorted(done)),
        )

    def _run_cells(self, cells: list[CorpusCell], pending: list[int], commit) -> None:
        """The chunk grain: cells one by one, ``jobs`` inside each."""
        backend: ExecutionBackend | None = None
        owned = False
        if (self.jobs or 1) > 1 or isinstance(self.backend, ExecutionBackend):
            # One pool for the whole batch: the backend fans out chunks
            # *within* each cell.
            backend, owned = resolve_backend(self.backend, jobs=self.jobs or 1)
            backend.start()
        try:
            for index in pending:
                cell = cells[index]
                cell_start = time.perf_counter()
                try:
                    result = self._run_cell(cell, backend)
                except Exception as error:  # noqa: BLE001 - the isolation boundary
                    result = CellResult.failure(
                        cell, time.perf_counter() - cell_start, _describe(error)
                    )
                commit(index, result)
        finally:
            if owned and backend is not None:
                backend.close()

    def _fan_out_cells(
        self, cells: list[CorpusCell], pending: list[int], workers: int, commit, *, batched: bool
    ) -> None:
        """The cell grain: hits in the parent, misses across forked pools.

        The misses' compile groups run in waves of at most as many
        groups as the compile cache holds: the parent compiles one
        wave, then forks a pool for it, so every group a worker runs is
        still cached when the fork copies the parent.
        """
        by_identity: dict[tuple, list[_CellPlan]] = {}
        parent_s: dict[int, float] = {}
        for index in pending:
            cell_start = time.perf_counter()
            try:
                plan = self._plan(index, cells[index])
                result = self._lookup(plan, cell_start)
            except Exception as error:  # noqa: BLE001 - the isolation boundary
                result = CellResult.failure(
                    cells[index], time.perf_counter() - cell_start, _describe(error)
                )
            if result is not None:
                commit(index, result)
                continue
            by_identity.setdefault(plan.compile_identity, []).append(plan)
            parent_s[index] = time.perf_counter() - cell_start
        groups = [tuple(group) for group in by_identity.values()]
        wave = engine_module.SCHEDULE_CACHE_CAPACITY
        for lo in range(0, len(groups), wave):
            self._fan_out_wave(groups[lo : lo + wave], parent_s, workers, commit, batched=batched)

    def _fan_out_wave(
        self, groups: list[tuple[_CellPlan, ...]], parent_s: dict, workers: int, commit, *, batched: bool
    ) -> None:
        """Compile ``groups`` in the parent, then run them in one forked pool.

        The compile time is charged to each group's first cell, as the
        chunk grain charges it.  Results commit in cell order; with a
        checkpoint, after every batch of ``workers`` groups, so a kill
        loses at most one batch.
        """
        work: dict[int, int] = {}
        for group in groups:
            warm_start = time.perf_counter()
            try:
                engine, inputs = group[0].engine()
                n_samples = engine.warm(inputs).leakage.n_samples
            except Exception:  # noqa: BLE001 - each of its cells fails alone in the worker
                n_samples = 0
            parent_s[group[0].index] += time.perf_counter() - warm_start
            work[group[0].index] = n_samples * sum(plan.n_traces for plan in group)
        # Largest first (traces x samples): the pool hands groups out in
        # this order, so no big group starts last, and each worker's first
        # task, slowed while it faults in its copy of the parent's pages,
        # is one of the long ones.
        groups = sorted(groups, key=lambda group: -work[group[0].index])
        pool = PoolBackend(min(workers, len(groups))) if len(groups) > 1 else None
        step = pool.workers if batched and pool is not None else max(1, len(groups))
        try:
            for lo in range(0, len(groups), step):
                batch = groups[lo : lo + step]
                if pool is None:
                    outcomes = [_measure_group(group) for group in batch]
                else:
                    outcomes = pool.map_items(_measure_group, batch)
                measured = sorted(
                    (
                        (plan, outcome)
                        for group, group_outcomes in zip(batch, outcomes)
                        for plan, outcome in zip(group, group_outcomes)
                    ),
                    key=lambda pair: pair[0].index,
                )
                for plan, (metrics, seconds, error) in measured:
                    seconds += parent_s[plan.index]
                    if error is None:
                        try:
                            result = self._completed(plan, metrics, seconds)
                        except Exception as failure:  # noqa: BLE001 - the isolation boundary
                            error = _describe(failure)
                    if error is not None:
                        result = CellResult.failure(plan.cell, seconds, error)
                    commit(plan.index, result)
        finally:
            if pool is not None:
                pool.close()

    # -- checkpointing ---------------------------------------------------

    def _checkpointer(self, checkpoint, resume: bool, done_results: dict):
        if checkpoint is None:
            return None
        from repro.campaigns.checkpoint import Checkpointer

        checkpointer = (
            checkpoint
            if isinstance(checkpoint, Checkpointer)
            else Checkpointer(checkpoint, resume=resume)
        )
        checkpointer.state_fn = lambda: dict(done_results)
        checkpointer.restore_fn = lambda saved: done_results.update(saved)
        return checkpointer

    def _fingerprint(self, cells: list[CorpusCell]) -> str:
        """Digest of the work a corpus checkpoint belongs to.

        Covers everything result-affecting — the expanded cell grid,
        the global trace/seed/chunking/precision overrides — and
        excludes the execution layout (jobs, backend, reduce, retries):
        results are independent of it by the backend equivalence
        contract, so a resume may change it freely.
        """
        from repro.campaigns.checkpoint import checkpoint_fingerprint

        return checkpoint_fingerprint(
            (
                "repro.corpus/1",
                self.manifest.name,
                tuple(cell.identity() for cell in cells),
                self.n_traces,
                self.seed,
                self.chunk_size,
                self.precision,
            )
        )


def run_manifest(
    manifest: Manifest, **knobs: Any
) -> CorpusResult:
    """Convenience one-shot: ``CorpusCampaign(manifest, **knobs).run()``."""
    checkpoint = knobs.pop("checkpoint", None)
    resume = bool(knobs.pop("resume", False))
    return CorpusCampaign(manifest, **knobs).run(checkpoint=checkpoint, resume=resume)
