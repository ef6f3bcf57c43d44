"""Shared plumbing of the benchmark: run context, host record, statistics, report."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: the end-to-end metrics every workload reports, with their units
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
}

#: fresh-process set-up probes per run; ``setup_s`` is their median
SETUP_PROBES = 5

#: seconds a child process may take to report ready before the run fails
READY_TIMEOUT_S = 120.0


class BenchmarkError(RuntimeError):
    """The benchmark could not run a workload to completion."""


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: end-to-end metric name -> value (keys of :data:`END_TO_END_UNITS`)
    end_to_end: dict[str, float] = field(default_factory=dict)
    #: the end-to-end metrics under the workload's own names: (name, value, unit, note)
    named: list[tuple[str, float, str, str]] = field(default_factory=list)
    #: per-layer metric name -> (value, unit); filled by traced runs
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: (description, passed, detail)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def check(self, description: str, passed: bool, detail: str = "") -> None:
        self.checks.append((description, bool(passed), detail))

    @property
    def correct(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


@dataclass
class Context:
    """One benchmark run: its inputs, scratch space and child processes."""

    root: Path
    workdir: str
    seed: int
    seconds: float
    trace: bool
    processes: list[subprocess.Popen] = field(default_factory=list)
    tracer: object = None

    def tempdir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.workdir)

    def spawn(self, argv: list[str], **kwargs) -> subprocess.Popen:
        process = subprocess.Popen(argv, cwd=str(self.root), **kwargs)
        self.processes.append(process)
        return process

    def reap(self, process: subprocess.Popen, timeout: float = 30.0) -> int:
        """Wait for ``process`` (terminating it if it hangs) and forget it."""
        try:
            code = process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            code = process.wait()
        for stream in (process.stdout, process.stderr):
            if stream is not None:
                stream.close()
        self.processes.remove(process)
        return code

    def stop_processes(self) -> None:
        """Terminate and wait for every child still running."""
        for process in list(self.processes):
            if process.poll() is None:
                process.terminate()
            self.reap(process)

    # -- tracing ---------------------------------------------------------

    @property
    def span_dir(self) -> str:
        path = os.path.join(self.workdir, "spans")
        os.makedirs(path, exist_ok=True)
        return path

    @contextlib.contextmanager
    def tracing(self):
        """Install the layer wrappers for the duration of the block."""
        from tracing import Tracer, install

        if self.tracer is None:
            self.tracer = Tracer(self.span_dir)
        uninstall = install(self.tracer)
        try:
            yield
        finally:
            uninstall()

    def collect(self) -> dict:
        from tracing import collect

        if self.tracer is not None:
            self.tracer.flush()
        return collect(self.span_dir)

    # -- set-up probes -----------------------------------------------------

    def probe_setup(self, workload: str, manifest: str, count: int = SETUP_PROBES) -> list[dict]:
        """Time ``count`` fresh processes getting ``workload`` ready."""
        samples = []
        for _ in range(count):
            start = time.perf_counter()
            process = self.spawn(
                [sys.executable, str(HERE / "probe.py"), workload, manifest],
                stdout=subprocess.PIPE,
                text=True,
            )
            line = read_line(process, READY_TIMEOUT_S)
            setup_s = time.perf_counter() - start
            if self.reap(process) != 0 or not line:
                raise BenchmarkError(f"set-up probe for {workload} failed")
            record = json.loads(line)
            samples.append({"setup_s": setup_s, "registry_load_s": record["registry_load_s"]})
        return samples

    def repeat(self, unit, nominal_s: float, minimum: int) -> list:
        """Call ``unit(i)`` for a number of units fixed by ``--seconds``.

        The count is ``--seconds / nominal_s`` rounded (at least
        ``minimum``), where ``nominal_s`` is the unit's duration on the
        reference host.  The work per run depends on the arguments
        alone, never on how fast the code under test is, so two commits
        are measured on identical work: the process-wide caches and
        heap a unit leaves behind affect the next unit the same way on
        both.
        """
        count = max(minimum, int(self.seconds / nominal_s + 0.5))
        return [unit(index) for index in range(count)]


def read_line(process: subprocess.Popen, timeout: float) -> str:
    """One line of the child's stdout, or ``""`` if it exits or times out first."""
    ready, _, _ = select.select([process.stdout], [], [], timeout)
    if not ready:
        return ""
    return process.stdout.readline()


# -- statistics -----------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """The nearest-rank ``q`` percentile (``0 < q < 1``)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_supported(n: int, q: float) -> bool:
    """At least ten samples lie beyond the ``q`` percentile of ``n``."""
    return n * (1.0 - q) >= 10


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def digest(record) -> str:
    """A content hash of a JSON record, ignoring every ``seconds`` field."""

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k != "seconds"}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    canonical = json.dumps(strip(record), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Own peak RSS plus the largest peak RSS among reaped descendants."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- host record ------------------------------------------------------------


def _cpu_jiffies() -> tuple[int, int]:
    """(total, steal) jiffies of the aggregate ``cpu`` line of /proc/stat."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()[1:]
    except OSError:
        return 0, 0
    values = [int(v) for v in fields]
    steal = values[7] if len(values) > 7 else 0
    # guest time is already counted in user/nice
    return sum(values[:8]), steal


def _loadavg() -> str:
    try:
        with open("/proc/loadavg") as handle:
            return " ".join(handle.read().split()[:3])
    except OSError:
        return "unavailable"


def _version(package: str) -> str:
    from importlib import metadata

    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def _commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        return (root / ".git" / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({name})"


@dataclass
class HostRecord:
    """The host facts printed with every run, so noisy runs are visible."""

    cpu_count: int
    python: str
    numpy: str
    scipy: str
    commit: str
    loadavg_start: str
    loadavg_end: str = ""
    steal_share: float = 0.0
    _jiffies: tuple[int, int] = (0, 0)

    @classmethod
    def start(cls, root: Path) -> "HostRecord":
        return cls(
            cpu_count=os.cpu_count() or 1,
            python=platform.python_version(),
            numpy=_version("numpy"),
            scipy=_version("scipy"),
            commit=_commit(root),
            loadavg_start=_loadavg(),
            _jiffies=_cpu_jiffies(),
        )

    def finish(self) -> None:
        total, steal = _cpu_jiffies()
        elapsed = total - self._jiffies[0]
        self.steal_share = (steal - self._jiffies[1]) / elapsed if elapsed > 0 else 0.0
        self.loadavg_end = _loadavg()

    def lines(self) -> list[str]:
        return [
            f"host: cpu_count={self.cpu_count} python={self.python} "
            f"numpy={self.numpy} scipy={self.scipy}",
            f"host: commit={self.commit}",
            f"host: loadavg start=[{self.loadavg_start}] end=[{self.loadavg_end}] "
            f"cpu_steal={100 * self.steal_share:.2f}% over the run",
        ]


# -- the report -----------------------------------------------------------


def _format(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"


def report(args, host: HostRecord, outcome: Outcome) -> int:
    """Print the human-readable report and the result line; the exit code."""
    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload}: seed={args.seed} seconds={args.seconds:g} ({mode})")
    for line in host.lines():
        print(line)
    if args.trace:
        print("per-layer metrics (per unit of work; see perfbench/README.md):")
        for name, (value, unit) in outcome.layers.items():
            print(f"  {name:40s} {_format(value):>14s} {unit}")
    else:
        print("end-to-end metrics:")
        for name, value, unit, note in outcome.named:
            print(f"  {name:24s} {_format(value):>14s} {unit:6s} {note}")
    failed_share = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(
        f"  {'failed_share':24s} {_format(failed_share):>14s} {'share':6s} "
        f"{outcome.failed} failed or refused of {outcome.attempted} attempted"
    )
    print("checks:")
    for description, passed, detail in outcome.checks:
        suffix = f" ({detail})" if detail else ""
        print(f"  [{'ok' if passed else 'FAIL'}] {description}{suffix}")
    for note in outcome.notes:
        print(f"note: {note}")
    if args.trace:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.layers.items()
        }
    else:
        metrics = {
            name: {"value": outcome.end_to_end[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if outcome.correct else 1
