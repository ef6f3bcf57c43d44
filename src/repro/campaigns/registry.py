"""The scenario registry: every reproducible workload, one declaration.

A :class:`Scenario` names one end-to-end workload — a program under a
pipeline configuration, an input distribution, and the analysis run over
the acquired traces — and binds it to a runner that executes it through
the streaming engine.  Experiment modules declare their scenario at
import time; the :class:`~repro.api.session.Session` façade, the CLI,
the benchmark harness and future workloads enumerate the registry
instead of hand-wiring acquisition pipelines.

Registering a new scenario::

    from repro.api import Capability, RunRequest
    from repro.campaigns.registry import Scenario, register

    register(Scenario(
        name="my-attack",
        title="CPA with my model",
        description="...",
        runner=lambda request: run_my_attack(
            n_traces=request.n_traces,
            chunk_size=request.chunk_size,
            jobs=request.jobs,
        ),
        default_traces=1000,
        capabilities=frozenset({
            Capability.TRACES, Capability.CHUNKING, Capability.JOBS,
        }),
    ))

The runner receives a *resolved* :class:`~repro.api.request.RunRequest`
(scenario defaults already applied, every knob validated against the
declared capability set) and returns any object implementing the
:class:`~repro.api.envelope.ResultEnvelope` protocol — ``render()``,
``to_json()``, ``artifacts()`` and a ``matches_paper`` property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.api.capabilities import Capability


@dataclass(frozen=True)
class Scenario:
    """One registered workload."""

    name: str
    title: str
    description: str
    runner: Callable[[Any], Any]
    #: trace budget used when the caller does not override it (None for
    #: timing-only scenarios that do not acquire traces)
    default_traces: int | None = None
    #: microbenchmark repetitions for REPS-capable (CPI) scenarios
    default_reps: int = 200
    #: the execution knobs this scenario's runner honors; a RunRequest
    #: setting anything else raises CapabilityError before dispatch
    capabilities: frozenset[Capability] = field(default_factory=frozenset)
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.capabilities, frozenset):
            object.__setattr__(self, "capabilities", frozenset(self.capabilities))

    def has(self, capability: Capability) -> bool:
        return capability in self.capabilities

    def run(self, request: Any = None) -> Any:
        """Resolve ``request`` against this scenario and execute it.

        ``request`` is a :class:`repro.api.RunRequest` (validated
        strictly: unsupported knobs raise
        :class:`~repro.api.capabilities.CapabilityError`) or ``None``
        (scenario defaults).  Defaulting lives in
        :meth:`RunRequest.resolve` — not here — so per-scenario defaults
        (``default_traces``, ``default_reps``) exist in exactly one
        place.
        """
        from repro.api.request import RunRequest

        if request is None:
            request = RunRequest()
        return self.runner(request.resolve(self))


_REGISTRY: dict[str, Scenario] = {}
_BUILTINS_LOADED = False

#: The scenarios the experiment drivers register, known statically so
#: callers (the CLI parser, shell completion) can enumerate names
#: without importing the numpy/scipy-heavy driver modules.
BUILTIN_NAMES = (
    "ablations",
    "baselines",
    "corpus",
    "figure2",
    "figure3",
    "figure4",
    "success-curves",
    "sweep",
    "table1",
    "table2",
)


def known_names() -> list[str]:
    """Registered + builtin scenario names, with no import side effects."""
    return sorted(set(BUILTIN_NAMES) | set(_REGISTRY))


def register(scenario: Scenario) -> Scenario:
    """Add (or replace, idempotently by name) a scenario."""
    _REGISTRY[scenario.name] = scenario
    return scenario


def load_builtin_scenarios() -> None:
    """Import the experiment drivers so their scenarios register."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    # Imported for their registration side effect only.
    from repro.experiments import (  # noqa: F401
        ablations,
        baseline_models,
        figure2,
        figure3,
        figure4,
        success_curves,
        table1,
        table2,
    )
    from repro.corpus import scenario as corpus_scenario  # noqa: F401
    from repro.sweeps import scenario  # noqa: F401

    _BUILTINS_LOADED = True


def get(name: str) -> Scenario:
    load_builtin_scenarios()
    scenario = _REGISTRY.get(name)
    if scenario is None:
        known = ", ".join(names())
        raise KeyError(f"unknown scenario {name!r}; registered: {known}")
    return scenario


def names() -> list[str]:
    load_builtin_scenarios()
    return sorted(_REGISTRY)


def scenarios() -> Iterable[Scenario]:
    load_builtin_scenarios()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def run(name: str, request: Any = None) -> Any:
    """Look a scenario up and execute it."""
    return get(name).run(request)
