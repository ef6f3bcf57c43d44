"""Process-pool backends: fork, spawn, and a persistent worker pool.

Three ways to put more cores behind a campaign, all byte-identical to
:class:`~repro.backends.base.SerialBackend` by construction:

* :class:`ForkBackend` — a pool forked per :meth:`map_chunks` call.  The
  live campaign (with its compiled schedule and replay tape) and the
  full input batch are inherited copy-on-write at fork time, so nothing
  campaign-sized crosses a pipe.  The fastest option where ``fork``
  exists; unavailable on spawn-only platforms.
* :class:`SpawnBackend` — a pool spawned per call.  Workers receive a
  declarative :class:`~repro.backends.base.CampaignSpec` (pickle-safe by
  contract) and recompile the schedule once per worker; chunk tasks are
  pure data.  Slower to start, but works everywhere — this is what
  ``jobs > 1`` degrades to where fork is unavailable, instead of the
  historical silent serial fallback.
* :class:`PoolBackend` — a **persistent** pool (fork- or spawn-started)
  that keeps workers alive across ``map_chunks``/``map_items`` calls.
  Tasks are fully declarative (each carries its spec and input slice);
  workers look compiled acquisitions up in the engine's content-keyed
  cache, so a sweep or a ``Session.run_all`` compiles once per campaign
  shape per worker and then pays zero pool-setup or recompile cost per
  point.  A worker that raises reports the failure (with the original
  traceback chained as ``__cause__``) without poisoning the pool.

Worker-side state lives in module globals installed by pool
initializers; results stream back in task order via ``imap`` on the
historical happy path.  When the engine attaches a
:class:`~repro.backends.resilience.ResilienceContext`, dispatch switches
to per-task ``apply_async`` with a watchdog ``get(timeout)``: a worker
that hangs *or* dies (SIGKILL included — the pool silently repopulates
the process, but the in-flight task's result never arrives) surfaces as
a :class:`~repro.backends.resilience.WatchdogTimeout`, the pool is
killed and replaced wholesale, and every not-yet-delivered chunk is
re-dispatched.  Ctrl-C always terminates and joins the children before
propagating, so an interrupted campaign leaves no orphaned workers.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.backends.base import (
    BackendContext,
    BackendUnavailable,
    CampaignSpec,
    ChunkResult,
    ChunkTask,
    ExecutionBackend,
    encode_chunk,
    run_chunk_task,
    slim_payload,
)
from repro.backends.resilience import (
    BackendBroken,
    ResilienceContext,
    WatchdogTimeout,
)
from repro.power.acquisition import BatchInputs, TraceCampaign


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _pool_size(jobs: int, n_tasks: int | None = None) -> int:
    size = max(1, int(jobs))
    if n_tasks is not None:
        size = min(size, max(1, n_tasks))
    return size


#: Backwards-compatible alias: the slim-payload helper moved to base so
#: the serial backend can share it with codec dispatch.
_slim_payload = slim_payload


# -- fork workers (state inherited copy-on-write at fork) ---------------

_FORK_STATE: dict = {}


def _fork_init(campaign, inputs, transform, factory, parent_path, codec=None) -> None:  # pragma: no cover
    _FORK_STATE["campaign"] = campaign
    _FORK_STATE["inputs"] = inputs
    _FORK_STATE["transform"] = transform
    _FORK_STATE["factory"] = factory
    _FORK_STATE["parent_path"] = parent_path
    _FORK_STATE["codec"] = codec


def _fork_chunk(task: ChunkTask):  # pragma: no cover - exercised via Pool
    campaign: TraceCampaign = _FORK_STATE["campaign"]
    factory = _FORK_STATE["factory"]
    transform = factory(task.index) if factory is not None else _FORK_STATE["transform"]
    trace_set = run_chunk_task(campaign, _FORK_STATE["inputs"], task, transform)
    payload = encode_chunk(
        _FORK_STATE.get("codec"), task, trace_set, _FORK_STATE["parent_path"]
    )
    return task.index, task.lo, payload


# -- spawn workers (state rebuilt from the pickled spec) ----------------

_SPAWN_STATE: dict = {}


def _spawn_init(spec, inputs, transform, factory, parent_path, codec=None) -> None:  # pragma: no cover
    _SPAWN_STATE["campaign"] = spec.build()
    _SPAWN_STATE["inputs"] = inputs
    _SPAWN_STATE["transform"] = transform
    _SPAWN_STATE["factory"] = factory
    _SPAWN_STATE["parent_path"] = parent_path
    _SPAWN_STATE["codec"] = codec


def _spawn_chunk(task: ChunkTask):  # pragma: no cover - exercised via Pool
    campaign: TraceCampaign = _SPAWN_STATE["campaign"]
    factory = _SPAWN_STATE["factory"]
    transform = factory(task.index) if factory is not None else _SPAWN_STATE["transform"]
    trace_set = run_chunk_task(campaign, _SPAWN_STATE["inputs"], task, transform)
    payload = encode_chunk(
        _SPAWN_STATE.get("codec"), task, trace_set, _SPAWN_STATE["parent_path"]
    )
    return task.index, task.lo, payload


# -- persistent-pool workers (fully declarative tasks) ------------------

def _pool_campaign(spec: CampaignSpec, inputs: BatchInputs) -> TraceCampaign:  # pragma: no cover
    # Rebuilding the campaign is cheap; its compiled acquisition comes
    # from the engine's content-keyed cache, which hits for an unpickled
    # program equal to one this worker (or, fork-started, its parent)
    # has compiled before.
    from repro.campaigns.engine import compile_cached

    campaign = spec.build()
    compile_cached(campaign, inputs)
    return campaign


def _pool_chunk(payload):  # pragma: no cover - exercised via Pool
    spec, chunk_inputs, transform, factory, task, parent_path, codec = payload
    campaign = _pool_campaign(spec, chunk_inputs)
    if factory is not None:
        transform = factory(task.index)
    trace_set = campaign.acquire(
        chunk_inputs,
        power_transform=transform,
        scope_seed=task.scope_seed,
        trace_offset=task.trace_offset,
    )
    return task.index, task.lo, encode_chunk(codec, task, trace_set, parent_path)


def _apply(payload):  # pragma: no cover - exercised via Pool
    fn, item = payload
    return fn(item)


# -- resilient dispatch --------------------------------------------------


def _shutdown(pool) -> None:
    """Terminate a pool and wait for its children to actually exit."""
    pool.terminate()
    pool.join()


def _await_result(future, timeout: float | None, task: ChunkTask, backend_name: str):
    """Wait for one chunk result under the watchdog deadline.

    A worker exception re-raises here with its remote traceback chained
    (unchanged from the ``imap`` path); a missed deadline — hung worker
    or a dead one whose result will never arrive — becomes a
    :class:`WatchdogTimeout`.
    """
    try:
        return future.get(timeout)
    except multiprocessing.TimeoutError as error:
        raise WatchdogTimeout(
            f"chunk {task.index} missed its {timeout:g}s soft deadline on "
            f"backend '{backend_name}' (worker hung or died)"
        ) from error


def _resilient_dispatch(
    tasks: Sequence[ChunkTask],
    resilience: ResilienceContext,
    backend_name: str,
    *,
    acquire: Callable[[], Any],
    replace: Callable[[Any], Any],
    release: Callable[[Any], None],
    submit: Callable[[Any, ChunkTask], Any],
):
    """Per-task ``apply_async`` dispatch with retries and a watchdog.

    All tasks are submitted up front (the pool's task queue provides the
    same pipelining ``imap`` did) and results are consumed in task
    order.  A failed attempt is retried per the policy: task-level
    errors re-submit just that task; a watchdog timeout means the pool
    itself is suspect (a hung or killed worker still occupies it), so
    the pool is replaced via ``replace`` and every not-yet-delivered
    task is re-submitted against the fresh one.  Exhausting the budget
    on timeouts raises :class:`BackendBroken` — the engine's cue to
    quarantine this backend and fall down the degradation ladder.
    """
    policy = resilience.policy
    pool = acquire()
    try:
        futures: dict[int, Any] = {}
        attempts: dict[int, int] = dict.fromkeys((t.index for t in tasks), 0)
        delivered: set[int] = set()

        def submit_pending(target_pool) -> None:
            for t in tasks:
                if t.index not in delivered:
                    futures[t.index] = submit(target_pool, t)

        submit_pending(pool)
        for task in tasks:
            while True:
                attempts[task.index] += 1
                resilience.report.record_attempt()
                try:
                    index, lo, data = _await_result(
                        futures[task.index], resilience.chunk_timeout, task, backend_name
                    )
                    if resilience.validator is not None:
                        resilience.validator(task, data)
                    yield index, lo, data
                    delivered.add(task.index)
                    break
                except KeyboardInterrupt:
                    raise
                except Exception as error:
                    resilience.record_failure(error)
                    timed_out = isinstance(error, WatchdogTimeout)
                    exhausted = attempts[task.index] >= policy.max_attempts
                    if exhausted or not policy.retryable(error):
                        if timed_out:
                            raise BackendBroken(
                                backend_name,
                                f"backend '{backend_name}' exhausted "
                                f"{policy.max_attempts} attempt(s) on chunk "
                                f"{task.index}: {error}",
                            ) from error
                        raise
                    resilience.backoff(
                        task_index=task.index,
                        attempt=attempts[task.index],
                        error=error,
                        backend=backend_name,
                    )
                    if timed_out:
                        pool = replace(pool)
                        futures.clear()
                        submit_pending(pool)
                    else:
                        futures[task.index] = submit(pool, task)
    finally:
        release(pool)


class _PoolBackendBase(ExecutionBackend):
    """Shared per-call pool plumbing for the fork and spawn backends."""

    def __init__(self, jobs: int = 2):
        self.jobs = max(1, int(jobs))

    @property
    def workers(self) -> int:
        return self.jobs

    def _context(self):
        return multiprocessing.get_context(self.start_method)

    def _check_available(self) -> None:
        if self.start_method not in multiprocessing.get_all_start_methods():
            raise BackendUnavailable(
                f"start method '{self.start_method}' is unavailable on this "
                f"platform (has: {multiprocessing.get_all_start_methods()})"
            )

    def map_items(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        self._check_available()
        payloads = [(fn, item) for item in items]
        if len(payloads) <= 1:
            return [fn(item) for _fn, item in payloads]
        pool = self._context().Pool(processes=_pool_size(self.jobs, len(payloads)))
        try:
            return list(pool.imap(_apply, payloads))
        finally:
            _shutdown(pool)

    def _initargs(self, context: BackendContext) -> tuple:
        raise NotImplementedError

    def _chunk_fn(self):
        raise NotImplementedError

    def _make_pool(self, context: BackendContext, n_tasks: int):
        return self._context().Pool(
            processes=_pool_size(self.jobs, n_tasks),
            initializer=self._initializer,
            initargs=self._initargs(context),
        )

    def map_chunks(
        self, context: BackendContext, tasks: Sequence[ChunkTask]
    ) -> Iterator[ChunkResult]:
        self._check_available()
        self._check_context(context)
        chunk_fn = self._chunk_fn()
        resilience = context.resilience
        if resilience is None:
            # Historical path: one pool, ordered imap.  terminate+join in
            # all cases (Ctrl-C included) so no child outlives the call.
            pool = self._make_pool(context, len(tasks))
            try:
                yield from pool.imap(chunk_fn, tasks)
            finally:
                _shutdown(pool)
            return
        yield from _resilient_dispatch(
            tasks,
            resilience,
            self.name,
            acquire=lambda: self._make_pool(context, len(tasks)),
            replace=lambda old: (_shutdown(old), self._make_pool(context, len(tasks)))[1],
            release=_shutdown,
            submit=lambda pool, task: pool.apply_async(chunk_fn, (task,)),
        )

    def _check_context(self, context: BackendContext) -> None:
        """Hook for pickle-safety checks; the fork backend needs none."""


class ForkBackend(_PoolBackendBase):
    """A fork pool per call; campaign state inherited copy-on-write."""

    name = "fork"
    start_method = "fork"
    _initializer = staticmethod(_fork_init)

    def _initargs(self, context: BackendContext) -> tuple:
        return (
            context.campaign,
            context.inputs,
            context.power_transform,
            context.power_transform_factory,
            context.compiled_path(),
            context.codec,
        )

    def _chunk_fn(self):
        return _fork_chunk


class SpawnBackend(_PoolBackendBase):
    """A spawn pool per call; campaign state rebuilt from a pickled spec."""

    name = "spawn"
    start_method = "spawn"
    _initializer = staticmethod(_spawn_init)

    def _check_context(self, context: BackendContext) -> None:
        context.assert_picklable(self.name)

    def _initargs(self, context: BackendContext) -> tuple:
        return (
            context.spec(),
            context.inputs,
            context.power_transform,
            context.power_transform_factory,
            context.compiled_path(),
            context.codec,
        )

    def _chunk_fn(self):
        return _spawn_chunk


class PoolBackend(ExecutionBackend):
    """A persistent worker pool reused across campaigns and sweeps.

    Unlike the per-call backends, ``start()`` builds the pool once and
    every subsequent :meth:`map_chunks`/:meth:`map_items` call reuses
    the warm workers: each worker keeps the campaigns it has rebuilt
    (and their compiled schedules) in a cache keyed by the spec's
    structural identity, so repeated campaigns over the same workload —
    a sweep's grid points, a session's scenario batch — compile once per
    worker and then stream pure data.

    A task that raises inside a worker surfaces the original exception
    (with the remote traceback chained) from the mapping call; the pool
    itself stays healthy and subsequent calls keep working.
    """

    name = "pool"

    def __init__(self, jobs: int = 2, start_method: str | None = None):
        self.jobs = max(1, int(jobs))
        if start_method is None:
            start_method = "fork" if fork_available() else "spawn"
        if start_method not in multiprocessing.get_all_start_methods():
            raise BackendUnavailable(
                f"start method '{start_method}' is unavailable on this platform"
            )
        self.start_method = start_method
        self._pool = None
        #: total tasks dispatched over the pool's lifetime (provenance)
        self.tasks_dispatched = 0
        #: watchdog-triggered pool replacements (provenance)
        self.pools_rebuilt = 0

    @property
    def workers(self) -> int:
        return self.jobs

    def start(self) -> "PoolBackend":
        if self._pool is None:
            self._pool = multiprocessing.get_context(self.start_method).Pool(
                processes=self.jobs
            )
        return self

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def describe(self) -> dict:
        info = super().describe()
        info["persistent"] = True
        info["tasks_dispatched"] = self.tasks_dispatched
        info["pools_rebuilt"] = self.pools_rebuilt
        return info

    def _live_pool(self):
        self.start()
        return self._pool

    def _replace_pool(self):
        """Kill and rebuild the worker pool after a watchdog timeout.

        The backend object itself stays healthy — callers keep using it
        — but the workers (and their warm compile caches) are replaced
        wholesale, since a hung or SIGKILLed worker cannot be told apart
        from the outside and must not linger.
        """
        self.pools_rebuilt += 1
        self.close()
        return self._live_pool()

    def map_chunks(
        self, context: BackendContext, tasks: Sequence[ChunkTask]
    ) -> Iterator[ChunkResult]:
        context.assert_picklable(self.name)
        spec = context.spec()
        parent_path = context.compiled_path()
        payloads = {
            task.index: (
                spec,
                context.inputs.slice(task.lo, task.hi),
                context.power_transform,
                context.power_transform_factory,
                task,
                parent_path,
                context.codec,
            )
            for task in tasks
        }
        self.tasks_dispatched += len(payloads)
        resilience = context.resilience
        if resilience is None:
            try:
                yield from self._live_pool().imap(_pool_chunk, list(payloads.values()))
            except KeyboardInterrupt:
                # Release the session-owned workers promptly: an
                # interrupted campaign must not leave orphans behind.
                self.close()
                raise
            return
        yield from _resilient_dispatch(
            tasks,
            resilience,
            self.name,
            acquire=self._live_pool,
            replace=lambda _old: self._replace_pool(),
            release=lambda _pool: None,  # persistent: the owner closes it
            submit=lambda pool, task: pool.apply_async(
                _pool_chunk, (payloads[task.index],)
            ),
        )

    def map_items(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        payloads = [(fn, item) for item in items]
        self.tasks_dispatched += len(payloads)
        try:
            return list(self._live_pool().imap(_apply, payloads))
        except KeyboardInterrupt:
            self.close()
            raise


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1
