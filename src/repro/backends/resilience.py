"""The resilience layer: retries, watchdogs, quarantine, fault reports.

PR 6's backends fail *cleanly* — a worker exception surfaces with its
remote traceback and nothing leaks — but not *gracefully*: one flaky
chunk, one hung worker or one corrupted result still kills the whole
campaign.  This module supplies the policy objects and bookkeeping the
backends and the streaming engine use to recover instead:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  *deterministic seeded jitter* (a retry schedule is a pure function of
  ``(seed, chunk index, attempt)``, so chaos tests replay exactly), plus
  retryable-exception classification: transient faults
  (:class:`WatchdogTimeout`, :class:`ChunkCorruption`,
  :class:`TransientChunkError`, ``OSError`` and friends) are retried,
  deterministic programming errors fail fast on the first attempt.
* :class:`WatchdogTimeout` — the soft per-chunk deadline violation a
  pool backend raises when a worker stops answering (hung *or*
  SIGKILLed: either way the chunk's result never arrives).  The backend
  responds by killing and replacing its worker pool and re-dispatching
  the chunk; the campaign's bytes are unaffected because every chunk is
  a pure function of its trace range.
* :class:`ChunkCorruption` — a chunk result that fails the engine's
  shape/dtype/finiteness validation on rewrap.
* :class:`BackendBroken` — a backend that exhausted its watchdog
  retries.  Under the ``auto`` policy the engine *quarantines* it
  (process-wide, see :func:`quarantine_backend`) and degrades to
  serial, loudly via
  :class:`~repro.backends.base.BackendDegradationWarning`.
* :class:`FaultReport` — the structured record of everything the
  resilience layer did (attempts, retries, timeouts, degradations,
  checkpoint events); the :class:`~repro.api.session.Session` attaches
  it to the result envelope as ``fault_report``.

Nothing here costs anything when unused: with no retry policy, no
timeout and no checkpoint the backends run their historical dispatch
paths untouched.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


class WatchdogTimeout(RuntimeError):
    """A chunk's result did not arrive within its soft deadline.

    Covers both hung workers and crashed (e.g. SIGKILLed) ones — a dead
    worker's task result simply never arrives, which is indistinguishable
    from a hang at the parent.  Always classified retryable.
    """


class ChunkCorruption(RuntimeError):
    """A chunk result failed shape/dtype/finiteness validation on rewrap."""


class TransientChunkError(RuntimeError):
    """A distinguished transient failure (used by the chaos injectors)."""


class BackendBroken(RuntimeError):
    """A backend exhausted its watchdog retries and is considered down.

    Raised *instead of* the final :class:`WatchdogTimeout` so the engine
    can tell 'this backend is unhealthy' (degrade to serial under ``auto``)
    from 'this task is deterministically broken' (fail the campaign).
    """

    def __init__(self, backend: str, message: str):
        super().__init__(message)
        self.backend = backend


#: Exception types retried by default.  Deterministic errors (wrong
#: shapes, assertion failures, the injectors' always-fail variants) are
#: deliberately absent: retrying them wastes the attempt budget and
#: hides real bugs.
RETRYABLE_EXCEPTIONS: tuple[type[BaseException], ...] = (
    WatchdogTimeout,
    ChunkCorruption,
    TransientChunkError,
    ConnectionError,
    BrokenPipeError,
    EOFError,
    OSError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    ``max_attempts`` counts *total* attempts (1 = no retries).  The
    delay before attempt ``k+1`` is
    ``min(backoff_max, backoff_base * backoff_factor**(k-1))`` scaled by
    a jitter factor drawn from ``random.Random((seed, index, k))`` — a
    pure function of the policy seed, the chunk index and the attempt
    number, so two runs of the same campaign back off identically.
    """

    max_attempts: int = 1
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.25
    seed: int = 0x7E51
    retry_on: tuple[type[BaseException], ...] = RETRYABLE_EXCEPTIONS

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be at least 1, got {self.max_attempts}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {self.jitter}")

    @classmethod
    def from_retries(cls, retries: int, **overrides: Any) -> "RetryPolicy":
        """The policy for "retry each chunk up to ``retries`` times"."""
        return cls(max_attempts=int(retries) + 1, **overrides)

    @property
    def retries(self) -> int:
        return self.max_attempts - 1

    def retryable(self, error: BaseException) -> bool:
        """Is ``error`` worth another attempt?

        Classified by type against ``retry_on``, with an escape hatch:
        any exception carrying a truthy ``retryable`` attribute is
        treated as transient regardless of its type.
        """
        if getattr(error, "retryable", False):
            return True
        return isinstance(error, self.retry_on)

    def delay(self, index: int, attempt: int) -> float:
        """Seconds to wait after failed attempt ``attempt`` of chunk ``index``."""
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(0, attempt - 1),
        )
        if self.jitter == 0.0 or base == 0.0:
            return base
        # Tuple-of-int hashes are stable across runs (PYTHONHASHSEED
        # only perturbs str/bytes), so this jitter replays exactly.
        rng = random.Random(hash((self.seed, int(index), int(attempt))))
        return base * (1.0 + self.jitter * rng.random())


@dataclass
class FaultReport:
    """Everything the resilience layer did during one run.

    Attached to the result envelope as the structured ``fault_report``
    payload; an untouched report (``has_events()`` false) is omitted so
    happy-path envelopes are byte-identical to pre-resilience ones.
    """

    #: total chunk attempts dispatched (including first attempts)
    attempts: int = 0
    #: one record per retry: chunk, attempt number, error, backend, delay
    retries: list[dict] = field(default_factory=list)
    #: watchdog deadline violations observed
    timeouts: int = 0
    #: chunk results rejected by rewrap validation
    corruptions: int = 0
    #: degradation messages, in the order they fired
    degradations: list[str] = field(default_factory=list)
    #: backends quarantined during the run
    quarantined: list[str] = field(default_factory=list)
    #: checkpoint lifecycle events (saved/resumed/completed)
    checkpoint: list[dict] = field(default_factory=list)

    def record_attempt(self, n: int = 1) -> None:
        self.attempts += n

    def record_retry(
        self, *, chunk: int, attempt: int, error: BaseException, backend: str, delay: float
    ) -> None:
        self.retries.append(
            {
                "chunk": int(chunk),
                "attempt": int(attempt),
                "error": f"{type(error).__name__}: {error}",
                "backend": backend,
                "delay_s": round(float(delay), 4),
            }
        )

    def record_degradation(self, message: str) -> None:
        if message not in self.degradations:
            self.degradations.append(message)

    def record_quarantine(self, backend: str) -> None:
        if backend not in self.quarantined:
            self.quarantined.append(backend)

    def record_checkpoint(self, event: str, **info: Any) -> None:
        self.checkpoint.append({"event": event, **info})

    def has_events(self) -> bool:
        """Did anything beyond plain first-attempt dispatch happen?"""
        return bool(
            self.retries
            or self.timeouts
            or self.corruptions
            or self.degradations
            or self.quarantined
            or self.checkpoint
        )

    def to_json(self) -> dict:
        record: dict[str, Any] = {
            "attempts": self.attempts,
            "retries": list(self.retries),
            "timeouts": self.timeouts,
            "corruptions": self.corruptions,
        }
        if self.degradations:
            record["degradations"] = list(self.degradations)
        if self.quarantined:
            record["quarantined"] = list(self.quarantined)
        if self.checkpoint:
            record["checkpoint"] = list(self.checkpoint)
        return record


# -- ambient report collection ------------------------------------------

_ACTIVE_REPORT: ContextVar[FaultReport | None] = ContextVar(
    "repro_fault_report", default=None
)


@contextmanager
def collecting_faults() -> Iterator[FaultReport]:
    """Collect every fault event of the enclosed run into one report.

    The :class:`~repro.api.session.Session` wraps each scenario run in
    this context; the engine's streams pick the ambient report up via
    :func:`active_report` so drivers need no report plumbing of their
    own.
    """
    report = FaultReport()
    token = _ACTIVE_REPORT.set(report)
    try:
        yield report
    finally:
        _ACTIVE_REPORT.reset(token)


def active_report() -> FaultReport | None:
    """The ambient report of an enclosing :func:`collecting_faults`."""
    return _ACTIVE_REPORT.get()


@dataclass
class ResilienceContext:
    """The per-stream resilience state a backend dispatches against.

    Built by the engine when any resilience knob is set and attached to
    the :class:`~repro.backends.base.BackendContext`; ``None`` there
    means "run the historical dispatch path".
    """

    policy: RetryPolicy = field(default_factory=RetryPolicy)
    #: soft per-chunk deadline in seconds (None: no watchdog)
    chunk_timeout: float | None = None
    report: FaultReport = field(default_factory=FaultReport)
    #: ``validator(task, payload)`` raises :class:`ChunkCorruption`
    validator: Callable[[Any, Any], None] | None = None
    #: injectable for tests (replaces real backoff sleeps)
    sleep: Callable[[float], None] = time.sleep

    def record_failure(self, error: BaseException) -> None:
        if isinstance(error, WatchdogTimeout):
            self.report.timeouts += 1
        if isinstance(error, ChunkCorruption):
            self.report.corruptions += 1

    def backoff(
        self, *, task_index: int, attempt: int, error: BaseException, backend: str
    ) -> None:
        """Record the retry and sleep its deterministic backoff delay."""
        delay = self.policy.delay(task_index, attempt)
        self.report.record_retry(
            chunk=task_index, attempt=attempt, error=error, backend=backend, delay=delay
        )
        if delay > 0:
            self.sleep(delay)


def run_attempts(
    resilience: ResilienceContext,
    task: Any,
    attempt_fn: Callable[[int], Any],
    backend_name: str,
) -> Any:
    """Run ``attempt_fn`` under the retry policy; the serial attempt loop.

    ``attempt_fn(attempt)`` produces the chunk payload (1-based attempt
    numbers); the payload is validated before it counts as success.
    Non-retryable errors and exhausted budgets re-raise the original
    exception.
    """
    policy = resilience.policy
    attempt = 1
    while True:
        resilience.report.record_attempt()
        try:
            payload = attempt_fn(attempt)
            if resilience.validator is not None:
                resilience.validator(task, payload)
            return payload
        except Exception as error:
            resilience.record_failure(error)
            if attempt >= policy.max_attempts or not policy.retryable(error):
                raise
            resilience.backoff(
                task_index=getattr(task, "index", 0),
                attempt=attempt,
                error=error,
                backend=backend_name,
            )
            attempt += 1


# -- backend quarantine ------------------------------------------------

#: Process-wide quarantine registry: backend name -> reason.  A backend
#: that exhausted its watchdog retries lands here and ``auto``
#: resolution skips it for the rest of the process (tests and services
#: lift it with :func:`clear_quarantine`).
_QUARANTINED: dict[str, str] = {}


def quarantine_backend(name: str, reason: str) -> None:
    _QUARANTINED[name] = reason


def is_quarantined(name: str) -> bool:
    return name in _QUARANTINED


def quarantine_info() -> dict[str, str]:
    return dict(_QUARANTINED)


def clear_quarantine() -> None:
    _QUARANTINED.clear()
