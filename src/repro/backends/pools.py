"""Process-pool execution: one backend, per-call or persistent.

:class:`PoolBackend` puts more cores behind a campaign, byte-identical
to :class:`~repro.backends.base.SerialBackend` by construction.  Two
knobs give the four configurations the policies name:

* ``persistent=False`` — a pool per :meth:`~PoolBackend.map_chunks` /
  :meth:`~PoolBackend.map_items` call (the ``fork`` and ``spawn``
  policies).  Campaign-wide state reaches each worker once, through the
  pool initializer: under ``fork`` the live campaign (with its compiled
  schedule and replay tape) and the full input batch are inherited
  copy-on-write, so nothing campaign-sized crosses a pipe; under
  ``spawn`` workers receive a pickle-safe
  :class:`~repro.backends.base.CampaignSpec` and recompile once per
  worker.  Chunk tasks are pure data either way.
* ``persistent=True`` — one pool kept alive across calls until
  ``close()`` (the ``pool`` policy).  Tasks are fully declarative (each
  carries its spec and input slice); workers look compiled acquisitions
  up in the engine's content-keyed cache, so a sweep or a
  ``Session.run_all`` compiles once per campaign shape per worker and
  then pays zero pool-setup or recompile cost per point.  A worker that
  raises reports the failure (with the original traceback chained as
  ``__cause__``) without poisoning the pool.
* ``start_method`` — ``fork`` where available, else ``spawn``.

Results stream back in task order via ``imap`` on the historical happy
path.  When the engine attaches a
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
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.backends.base import (
    BackendContext,
    BackendUnavailable,
    CampaignSpec,
    ChunkResult,
    ChunkTask,
    ExecutionBackend,
    encode_chunk,
    run_chunk_task,
)
from repro.backends.resilience import (
    BackendBroken,
    ResilienceContext,
    WatchdogTimeout,
)

if TYPE_CHECKING:
    from repro.power.acquisition import BatchInputs, TraceCampaign


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _pool_size(jobs: int, n_tasks: int | None = None) -> int:
    size = max(1, int(jobs))
    if n_tasks is not None:
        size = min(size, max(1, n_tasks))
    return size


# -- per-call workers (campaign-wide state installed once per worker) ----

_WORKER_STATE: dict = {}


def _init_worker(source, inputs, transform, factory, parent_path, codec=None) -> None:  # pragma: no cover
    """Install one call's campaign-wide state in a fresh worker.

    ``source`` is the live campaign under ``fork`` (inherited
    copy-on-write, never pickled) or a :class:`CampaignSpec` to rebuild
    the campaign from under every other start method.
    """
    _WORKER_STATE["campaign"] = source.build() if isinstance(source, CampaignSpec) else source
    _WORKER_STATE["inputs"] = inputs
    _WORKER_STATE["transform"] = transform
    _WORKER_STATE["factory"] = factory
    _WORKER_STATE["parent_path"] = parent_path
    _WORKER_STATE["codec"] = codec


def _fork_chunk(task: ChunkTask):  # pragma: no cover - exercised via Pool
    """The per-call worker function, whatever the start method.

    ``map_chunks`` looks it up by this module-global name at dispatch,
    which is where ``perfbench/tracing.py`` wraps it.
    """
    factory = _WORKER_STATE["factory"]
    transform = factory(task.index) if factory is not None else _WORKER_STATE["transform"]
    trace_set = run_chunk_task(_WORKER_STATE["campaign"], _WORKER_STATE["inputs"], task, transform)
    payload = encode_chunk(
        _WORKER_STATE["codec"], task, trace_set, _WORKER_STATE["parent_path"]
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
    quarantine this backend and degrade to serial.
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


class PoolBackend(ExecutionBackend):
    """A process pool, built per call or kept alive across calls.

    ``persistent=True`` (the ``pool`` policy) builds the pool on
    ``start()`` and reuses the warm workers for every later call; each
    worker keeps the campaigns it has compiled in the engine's cache,
    so repeated campaigns over the same workload — a sweep's grid
    points, a session's scenario batch — compile once per worker and
    then stream pure data.  ``persistent=False`` (the ``fork`` and
    ``spawn`` policies) builds a pool per call and tears it down before
    returning.

    A task that raises inside a worker surfaces the original exception
    (with the remote traceback chained) from the mapping call; a
    persistent pool itself stays healthy and later calls keep working.
    """

    def __init__(
        self, jobs: int = 2, start_method: str | None = None, persistent: bool = True
    ):
        self.jobs = max(1, int(jobs))
        if start_method is None:
            start_method = "fork" if fork_available() else "spawn"
        if start_method not in multiprocessing.get_all_start_methods():
            raise BackendUnavailable(
                f"start method '{start_method}' is unavailable on this platform "
                f"(has: {multiprocessing.get_all_start_methods()})"
            )
        self.start_method = start_method
        self.persistent = persistent
        self.name = "pool" if persistent else start_method
        self._pool = None
        #: total tasks dispatched over the backend's lifetime (provenance)
        self.tasks_dispatched = 0
        #: watchdog-triggered pool replacements (provenance)
        self.pools_rebuilt = 0

    @property
    def workers(self) -> int:
        return self.jobs

    def start(self) -> "PoolBackend":
        if self.persistent and self._pool is None:
            self._pool = self._new_pool(self.jobs)
        return self

    def close(self) -> None:
        if self._pool is not None:
            _shutdown(self._pool)
            self._pool = None

    def describe(self) -> dict:
        info = super().describe()
        info["persistent"] = self.persistent
        info["tasks_dispatched"] = self.tasks_dispatched
        info["pools_rebuilt"] = self.pools_rebuilt
        return info

    def check_context(self, context: BackendContext) -> None:
        """Raise :class:`BackendUnavailable` if ``context`` cannot reach the workers.

        Only a per-call fork pool inherits the context; every other
        configuration ships it by pickle.
        """
        if self.persistent or self.start_method != "fork":
            context.assert_picklable(self.name)

    def _new_pool(self, processes: int, context: BackendContext | None = None):
        """A fresh pool; with ``context``, its workers hold that campaign."""
        mp_context = multiprocessing.get_context(self.start_method)
        if context is None:
            return mp_context.Pool(processes=processes)
        source = context.campaign if self.start_method == "fork" else context.spec()
        return mp_context.Pool(
            processes=processes,
            initializer=_init_worker,
            initargs=(
                source,
                context.inputs,
                context.power_transform,
                context.power_transform_factory,
                context.compiled_path(),
                context.codec,
            ),
        )

    def _live_pool(self):
        return self.start()._pool

    def _lifecycle(self, n_tasks: int, context: BackendContext | None = None):
        """``(acquire, replace, release)`` for the pool one call runs on.

        A persistent backend lends its live pool and keeps it; a
        watchdog replacement rebuilds it wholesale, since a hung or
        SIGKILLed worker cannot be told apart from the outside and must
        not linger.  A per-call backend builds a right-sized pool and
        shuts it down when the call ends.
        """
        if self.persistent:

            def replace_live(_old):
                self.pools_rebuilt += 1
                self.close()
                return self._live_pool()

            return self._live_pool, replace_live, lambda _pool: None

        def acquire():
            return self._new_pool(_pool_size(self.jobs, n_tasks), context)

        def replace(old):
            self.pools_rebuilt += 1
            _shutdown(old)
            return acquire()

        return acquire, replace, _shutdown

    def _imap(self, worker, payloads: list, context: BackendContext | None = None):
        """Ordered ``imap`` over one call's pool; no child outlives Ctrl-C."""
        acquire, _replace, release = self._lifecycle(len(payloads), context)
        pool = acquire()
        try:
            yield from pool.imap(worker, payloads)
        except KeyboardInterrupt:
            self.close()
            raise
        finally:
            release(pool)

    def map_chunks(
        self, context: BackendContext, tasks: Sequence[ChunkTask]
    ) -> Iterator[ChunkResult]:
        self.check_context(context)
        self.tasks_dispatched += len(tasks)
        if self.persistent:
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
            worker, payload_of = _pool_chunk, lambda task: payloads[task.index]
        else:
            worker, payload_of = _fork_chunk, lambda task: task
        resilience = context.resilience
        if resilience is None:
            yield from self._imap(worker, [payload_of(task) for task in tasks], context)
            return
        acquire, replace, release = self._lifecycle(len(tasks), context)
        yield from _resilient_dispatch(
            tasks,
            resilience,
            self.name,
            acquire=acquire,
            replace=replace,
            release=release,
            submit=lambda pool, task: pool.apply_async(worker, (payload_of(task),)),
        )

    def map_items(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        payloads = [(fn, item) for item in items]
        self.tasks_dispatched += len(payloads)
        if not self.persistent and len(payloads) <= 1:
            return [fn(item) for _fn, item in payloads]
        return list(self._imap(_apply, payloads))


#: ``perfbench/tracing.py`` wraps ``map_chunks`` through this name, read
#: from the class ``__dict__``; keep it while the tracer does.
_PoolBackendBase = PoolBackend


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1
