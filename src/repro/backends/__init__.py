"""Pluggable execution backends for campaigns and sweeps.

The streaming engine, the sweep engine, and the session facade all
execute fan-out work through an :class:`ExecutionBackend`.  Callers pick
one with a *policy* — a backend instance, or one of the names in
:data:`BACKEND_POLICIES`:

======== ==============================================================
policy   meaning
======== ==============================================================
auto     fork where available, else spawn; serial (with a
         :class:`BackendDegradationWarning`) when that candidate is
         quarantined or cannot ship the context; serial when
         ``jobs <= 1``
serial   the in-process reference
fork     ``PoolBackend(jobs, "fork", persistent=False)``: a fork pool
         per call (copy-on-write state sharing)
spawn    ``PoolBackend(jobs, "spawn", persistent=False)``: a spawn pool
         per call (pickle-safe declarative tasks)
pool     ``PoolBackend(jobs)``: a persistent worker pool, reused until
         ``close()``
======== ==============================================================

Every backend is byte-identical to serial for float32 campaigns; see
``docs/backends.md`` for the determinism argument and a decision guide.

``auto`` also honors the process-wide quarantine registry
(:func:`quarantine_backend` / :func:`is_quarantined`): a backend the
resilience layer declared :class:`BackendBroken` is skipped by every
later resolution, and a stream whose backend breaks mid-run degrades to
serial instead of failing — loudly, via
:class:`BackendDegradationWarning`.  See ``docs/resilience.md``.
"""

from __future__ import annotations

import warnings

from repro.backends import pools as _pools
from repro.backends.base import (
    BackendContext,
    BackendDegradationWarning,
    BackendUnavailable,
    CampaignSpec,
    ChunkResult,
    ChunkTask,
    ExecutionBackend,
    SerialBackend,
    run_chunk_task,
)
from repro.backends.pools import PoolBackend, cpu_count, fork_available
from repro.backends.resilience import (
    BackendBroken,
    ChunkCorruption,
    FaultReport,
    ResilienceContext,
    RetryPolicy,
    TransientChunkError,
    WatchdogTimeout,
    clear_quarantine,
    is_quarantined,
    quarantine_backend,
    quarantine_info,
)

#: every name ``resolve_backend`` accepts
BACKEND_POLICIES = ("auto", "serial", "fork", "spawn", "pool")

#: the subset a CLI user can ask for (pool needs an owning scope)
CLI_BACKEND_CHOICES = ("auto", "serial", "fork", "spawn")


def make_backend(policy: str, jobs: int = 1) -> ExecutionBackend:
    """Construct the named backend (no availability fallback)."""
    if policy == "serial":
        return SerialBackend()
    if policy in ("fork", "spawn"):
        return PoolBackend(jobs, start_method=policy, persistent=False)
    if policy == "pool":
        return PoolBackend(jobs)
    raise ValueError(f"unknown backend policy {policy!r}; expected one of {BACKEND_POLICIES}")


def resolve_backend(
    policy,
    jobs: int = 1,
    *,
    n_tasks: int | None = None,
    context: BackendContext | None = None,
) -> tuple[ExecutionBackend, bool]:
    """Resolve a policy to ``(backend, owned)``.

    ``owned`` tells the caller whether it created the backend (and must
    close it) or was handed a live instance to leave running.  Explicit
    names are strict — asking for ``fork`` on a spawn-only platform
    raises :class:`BackendUnavailable` — while ``auto`` (or ``None``)
    tries one parallel candidate and otherwise runs serial with a
    :class:`BackendDegradationWarning`, instead of silently.
    """
    if isinstance(policy, ExecutionBackend):
        return policy, False
    if policy is None:
        policy = "auto"
    if not isinstance(policy, str):
        raise TypeError(
            f"backend policy must be a string or ExecutionBackend, got {type(policy).__name__}"
        )
    # Nothing to fan out: spinning up a pool for one worker or one chunk
    # only adds fork/pickle overhead (BENCH_backends.json had fork at
    # jobs=1 around half the serial throughput), and serial is
    # byte-identical by contract.
    nothing_to_fan_out = jobs <= 1 or (n_tasks is not None and n_tasks <= 1)
    if policy != "auto":
        if policy not in BACKEND_POLICIES:
            raise ValueError(
                f"unknown backend policy {policy!r}; expected one of {BACKEND_POLICIES}"
            )
        # Constructed first, so availability stays strict either way.
        backend = make_backend(policy, jobs)
        return (SerialBackend() if nothing_to_fan_out else backend), True
    if nothing_to_fan_out:
        return SerialBackend(), True
    candidate = "fork" if _pools.fork_available() else "spawn"
    try:
        if is_quarantined(candidate):
            raise BackendUnavailable(
                f"the '{candidate}' backend is quarantined "
                f"({quarantine_info()[candidate]})"
            )
        backend = make_backend(candidate, jobs)
        if context is not None:
            backend.check_context(context)
    except BackendUnavailable as error:
        warnings.warn(
            f"jobs={jobs} requested but no parallel backend is usable ({error}); "
            "running serial",
            BackendDegradationWarning,
            stacklevel=2,
        )
        return SerialBackend(), True
    return backend, True


__all__ = [
    "BACKEND_POLICIES",
    "CLI_BACKEND_CHOICES",
    "BackendBroken",
    "BackendContext",
    "BackendDegradationWarning",
    "BackendUnavailable",
    "CampaignSpec",
    "ChunkCorruption",
    "ChunkResult",
    "ChunkTask",
    "ExecutionBackend",
    "FaultReport",
    "PoolBackend",
    "ResilienceContext",
    "RetryPolicy",
    "SerialBackend",
    "TransientChunkError",
    "WatchdogTimeout",
    "clear_quarantine",
    "cpu_count",
    "fork_available",
    "is_quarantined",
    "make_backend",
    "quarantine_backend",
    "quarantine_info",
    "resolve_backend",
    "run_chunk_task",
]
