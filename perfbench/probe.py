"""Set-up probe: a fresh process that gets one workload's first operation ready.

Run by ``run.py`` several times per benchmark run; the parent times it
from process launch until the ``ready`` line, so the figure covers the
interpreter start, the imports and the scenario-registry load.  The
line also carries the registry load alone (``api.registry_load_s``).

Usage: ``python3 perfbench/probe.py bulk-acquire|corpus-batch MANIFEST``
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import time  # noqa: E402


def main(argv: list[str]) -> int:
    workload, manifest_path = argv
    from repro.api import RunRequest, Session
    from repro.campaigns import registry

    start = time.perf_counter()
    registry.load_builtin_scenarios()
    registry_load_s = time.perf_counter() - start
    if workload == "bulk-acquire":
        session = Session()
        scenario = session.scenario("figure3")
        RunRequest(n_traces=32, precision="float32").resolve(scenario)
    else:
        from repro.corpus.manifest import load_manifest

        load_manifest(manifest_path).expand()
    print(json.dumps({"ready": True, "registry_load_s": registry_load_s}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
