"""Streaming campaign subsystem: engine, accumulators, scenario registry.

The shared acquisition→attack path of every experiment in the repo:

* :mod:`repro.campaigns.engine` — :class:`StreamingCampaign`, chunked
  constant-memory acquisition with a compiled-schedule cache and
  optional multiprocessing fan-out;
* :mod:`repro.campaigns.accumulators` — online sufficient statistics
  (Pearson, SNR, Welch-t, CPA) that fold chunks into the same results
  the monolithic two-pass code produces;
* :mod:`repro.campaigns.checkpoint` — atomic, versioned
  checkpoint/resume state for killed-and-restarted campaigns;
* :mod:`repro.campaigns.registry` — the declarative scenario registry
  the CLI and benchmarks enumerate.

Attribute access is lazy (PEP 562) so that import-light consumers —
the CLI parser enumerating scenario names, shell completion — do not
pull numpy/scipy through the engine and accumulator modules.
"""

from typing import Any

_EXPORTS = {
    "CheckpointError": "repro.campaigns.checkpoint",
    "CheckpointMismatch": "repro.campaigns.checkpoint",
    "CheckpointStore": "repro.campaigns.checkpoint",
    "Checkpointer": "repro.campaigns.checkpoint",
    "BudgetSplitter": "repro.campaigns.accumulators",
    "CpaAccumulator": "repro.campaigns.accumulators",
    "CpaBudgetSnapshots": "repro.campaigns.accumulators",
    "OnlineCorrAccumulator": "repro.campaigns.accumulators",
    "OnlineMeanVar": "repro.campaigns.accumulators",
    "OnlineSnrAccumulator": "repro.campaigns.accumulators",
    "OnlineTTestAccumulator": "repro.campaigns.accumulators",
    "StreamingCampaign": "repro.campaigns.engine",
    "TraceChunk": "repro.campaigns.engine",
    "Scenario": "repro.campaigns.registry",
    "register": "repro.campaigns.registry",
    "registry": "repro.campaigns",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    import importlib

    if name == "registry":
        return importlib.import_module("repro.campaigns.registry")
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module_name), name)
