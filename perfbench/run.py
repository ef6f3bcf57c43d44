"""The repository's benchmark of record: three workloads, one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bulk-acquire|corpus-batch|service-mix \
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` installs the per-layer wrappers (``tracing.py``) and
reports the per-layer metrics plus the tracing overhead.  Either way
the workload's outputs are checked, a human-readable report (host
record, every metric with its unit, every check) goes to standard
output, and the last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is 1 when any output check fails and 2 when the
benchmark cannot run at all (for instance without ``src/repro``).
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space for spools, stores and span files; removed at exit
TMP_ROOT = ROOT / ".perfbench-tmp"

WORKLOADS = ("bulk-acquire", "corpus-batch", "service-mix")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

    from harness import Context, HostRecord, report

    # A terminated run still unwinds, so it stops and reaps its children.
    # Forked children (the engine's fork-pool workers) get the default
    # action back: their pool stops them with SIGTERM.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    os.register_at_fork(after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL))
    from workloads import RUNNERS

    TMP_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT)
    try:
        context = Context(
            root=ROOT,
            workdir=workdir,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
        )
        host = HostRecord.start(ROOT)
        try:
            outcome = RUNNERS[args.workload](context)
        finally:
            context.stop_processes()
        host.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run's scratch is still there
    return report(args, host, outcome)


if __name__ == "__main__":
    sys.exit(main())
