"""Typed run requests, validated against scenario capabilities.

A :class:`RunRequest` carries every execution knob a caller may set for
one scenario run.  A request is *validated* against the target
scenario's declared :class:`~repro.api.capabilities.Capability` set
before dispatch (an unsupported knob is an error, never silently
ignored), and per-scenario defaulting (trace budgets, microbenchmark
repetitions) happens in exactly one place — :meth:`RunRequest.resolve`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any

from repro.api.capabilities import Capability, CapabilityError, KNOB_CAPABILITIES

if TYPE_CHECKING:  # registry imports this module lazily; avoid the cycle
    from repro.campaigns.registry import Scenario

#: Accepted values of the ``precision`` knob.
PRECISIONS = ("float64-exact", "float32")

#: Accepted values of the ``reduce`` knob.
REDUCE_MODES = ("parent", "worker")


@dataclass(frozen=True)
class RunRequest:
    """Execution knobs for one scenario run.

    Every field defaults to "unset"; :meth:`resolve` fills scenario
    defaults.  ``jobs`` is requested as a count (``None`` or ``1`` both
    mean single-process and do not require the JOBS capability).
    """

    n_traces: int | None = None
    reps: int | None = None
    chunk_size: int | None = None
    jobs: int | None = None
    seed: int | None = None
    precision: str | None = None
    grid: tuple[str, ...] | None = None
    #: execution-backend policy: a name from
    #: :data:`repro.backends.BACKEND_POLICIES` or a live
    #: :class:`~repro.backends.ExecutionBackend` instance
    backend: Any = None
    #: a PipelineConfig override (API-only; no CLI flag)
    config: Any = None
    #: a ScopeConfig override (API-only; no CLI flag)
    scope: Any = None
    #: per-chunk retry budget (0 = fail fast; requires RESILIENCE)
    retries: int | None = None
    #: soft per-chunk watchdog deadline in seconds (requires RESILIENCE)
    chunk_timeout: float | None = None
    #: checkpoint directory for crash/resume (requires RESILIENCE)
    checkpoint: str | None = None
    #: resume from ``checkpoint`` instead of starting fresh
    resume: bool | None = None
    #: where campaign statistics fold: ``"parent"`` streams raw chunks
    #: back, ``"worker"`` folds worker-side and ships only sufficient
    #: statistics (comms-avoiding; requires REDUCE)
    reduce: str | None = None
    #: path of a corpus batch manifest (requires MANIFEST; the corpus
    #: scenario also *requires* one to be set — see docs/corpus.md)
    manifest: str | None = None

    def __post_init__(self) -> None:
        if self.n_traces is not None and self.n_traces <= 0:
            raise ValueError(f"n_traces must be positive, got {self.n_traces}")
        if self.reps is not None and self.reps <= 0:
            raise ValueError(f"reps must be positive, got {self.reps}")
        if self.chunk_size is not None and self.chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {self.chunk_size}")
        if self.jobs is not None and self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.precision is not None and self.precision not in PRECISIONS:
            raise ValueError(
                f"precision must be one of {PRECISIONS}, got {self.precision!r}"
            )
        if self.retries is not None and self.retries < 0:
            raise ValueError(f"retries must be non-negative, got {self.retries}")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError(
                f"chunk_timeout must be positive, got {self.chunk_timeout}"
            )
        if self.reduce is not None and self.reduce not in REDUCE_MODES:
            raise ValueError(
                f"reduce must be one of {REDUCE_MODES}, got {self.reduce!r}"
            )
        if self.manifest is not None and not isinstance(self.manifest, str):
            raise ValueError(
                f"manifest must be a path string, got {type(self.manifest).__name__}"
            )
        if self.grid is not None and not isinstance(self.grid, tuple):
            object.__setattr__(self, "grid", tuple(self.grid))
        if self.backend is not None:
            if isinstance(self.backend, str):
                from repro.backends import BACKEND_POLICIES

                if self.backend not in BACKEND_POLICIES:
                    raise ValueError(
                        f"backend must be one of {BACKEND_POLICIES} or an "
                        f"ExecutionBackend instance, got {self.backend!r}"
                    )
            elif not hasattr(self.backend, "map_chunks"):
                raise ValueError(
                    "backend must be a policy name or an ExecutionBackend "
                    f"instance, got {type(self.backend).__name__}"
                )

    # -- wire format ----------------------------------------------------

    def to_json(self) -> dict:
        """This request as a ``repro.request/1`` record (set knobs only).

        Unset knobs are omitted rather than serialized as ``null``, so a
        deserialized request resolves byte-identically to a locally
        built one — per-scenario defaulting stays in :meth:`resolve`.
        Live backend instances are not wire-serializable (pass a policy
        name).
        """
        from repro.api.wire import request_to_json

        return request_to_json(self)

    @classmethod
    def from_json(cls, record: Any, scenario: Any = None) -> "RunRequest":
        """Parse one ``repro.request/1`` record, strictly.

        Unknown fields and mistyped values raise
        :class:`~repro.api.wire.RequestSchemaError` naming every
        violation.  With ``scenario`` given, the request is
        capability-validated immediately (the service front-end maps the
        resulting :class:`~repro.api.capabilities.CapabilityError` to a
        structured 4xx body via ``cli_message()``).
        """
        from repro.api.wire import request_from_json

        return request_from_json(record, scenario)

    # -- construction ---------------------------------------------------

    def merged_defaults(self, defaults: "RunRequest") -> "RunRequest":
        """This request, with unset knobs filled from ``defaults``."""
        updates = {
            field.name: getattr(defaults, field.name)
            for field in fields(self)
            if getattr(self, field.name) is None
            and getattr(defaults, field.name) is not None
        }
        return replace(self, **updates) if updates else self

    # -- capability negotiation ----------------------------------------

    def requested_knobs(self) -> tuple[str, ...]:
        """The knob names this request actually sets."""
        knobs = []
        for name in KNOB_CAPABILITIES:
            value = getattr(self, name)
            if name == "jobs":
                if value is not None and value > 1:
                    knobs.append(name)
            elif name == "resume":
                # resume=False is indistinguishable from "not asked"
                if value:
                    knobs.append(name)
            elif name == "reduce":
                # "parent" is every scenario's implicit behavior
                if value == "worker":
                    knobs.append(name)
            elif value is not None:
                knobs.append(name)
        return tuple(knobs)

    def validate(self, scenario: "Scenario") -> None:
        """Raise :class:`CapabilityError` on any unsupported knob."""
        unsupported = [
            knob
            for knob in self.requested_knobs()
            if KNOB_CAPABILITIES[knob] not in scenario.capabilities
        ]
        if unsupported:
            raise CapabilityError(scenario.name, unsupported, scenario.capabilities)

    def narrowed_to(self, scenario: "Scenario") -> tuple["RunRequest", tuple[str, ...]]:
        """Drop unsupported knobs; return (narrowed request, dropped knobs).

        The lenient counterpart of :meth:`validate`, for batch drivers
        (``repro all``) where one knob set fans out over scenarios with
        different capabilities.
        """
        dropped = tuple(
            knob
            for knob in self.requested_knobs()
            if KNOB_CAPABILITIES[knob] not in scenario.capabilities
        )
        if not dropped:
            return self, dropped
        return replace(self, **{knob: None for knob in dropped}), dropped

    def resolve(self, scenario: "Scenario") -> "RunRequest":
        """Validate against ``scenario`` and fill its defaults.

        The single place per-scenario defaulting lives: the trace budget
        comes from ``scenario.default_traces``, the repetition count
        from ``scenario.default_reps`` (only for scenarios with the REPS
        capability — trace-only scenarios resolve ``reps=None`` rather
        than inheriting a meaningless global default), and ``jobs``
        resolves to 1.
        """
        self.validate(scenario)
        # Cross-knob coherence is checked post-merge, so a session-level
        # checkpoint default satisfies a per-run resume=True.
        if self.resume and self.checkpoint is None:
            raise ValueError(
                "resume requires a checkpoint directory (set checkpoint=...)"
            )
        updates: dict[str, Any] = {}
        if self.n_traces is None and scenario.default_traces is not None:
            updates["n_traces"] = scenario.default_traces
        if self.reps is None and Capability.REPS in scenario.capabilities:
            updates["reps"] = scenario.default_reps
        if self.jobs is None:
            updates["jobs"] = 1
        return replace(self, **updates) if updates else self
