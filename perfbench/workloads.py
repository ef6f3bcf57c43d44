"""The three workloads of the benchmark and the metrics each one yields.

Each runner takes a :class:`~harness.Context` and returns an
:class:`~harness.Outcome`.  A *unit of work* is what a runner repeats:
one ``figure3`` campaign (bulk-acquire), one cold plus one warm
manifest pass (corpus-batch), or one 300-request pass of the service mix
(service-mix).  Per-layer times and counts are reported per unit, so
they compare directly with the end-to-end figures of the same workload.

A traced run alternates untraced and traced units (two servers for the
service), so both halves see the same process history; the difference
of their median unit times is the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
import threading
import time
from collections import Counter
from importlib import import_module

from harness import (
    HERE,
    READY_TIMEOUT_S,
    BenchmarkError,
    Context,
    Outcome,
    digest,
    median,
    peak_rss_mb,
    percentile,
    read_line,
    tail_supported,
)
from tracing import delta

MANIFEST = str(HERE / "corpus-batch.yaml")

#: the bulk-acquire campaign: tens of thousands of traces, chunked,
#: two fork workers (the default ``auto`` backend picks fork)
BULK_REQUEST = {"n_traces": 24000, "chunk_size": 2000, "jobs": 2, "precision": "float32"}
BULK_JOBS = BULK_REQUEST["jobs"]

#: nominal seconds of one unit of work on the reference host (2 CPUs);
#: ``--seconds`` divided by it gives the number of units a run measures
BULK_UNIT_S = 4.0
CORPUS_UNIT_S = 9.0
SERVICE_UNIT_S = 10.0

#: service-mix: zipf-weighted requests over distinct 32-trace variants
SERVICE_VARIANTS = 50
SERVICE_REQUESTS = 300
SERVICE_ZIPF_S = 1.0
SERVICE_CLIENTS = 2
SERVICE_POLL_S = 0.01
SERVICE_TRACES = 32
#: server starts per service-mix run; ``setup_s`` is their median
SERVICE_SETUPS = 5

#: margin confidence above which the CPA's top-two order counts as decided
DECIDED = 0.95

#: span counts that must repeat exactly from one unit of work to the next
EXACT_COUNTS = (
    ("power.compile_calls", "power.compile"),
    ("uarch.schedule_calls", "uarch.schedule"),
    ("isa.compile_tape_calls", "isa.compile_tape"),
    ("backends.chunks", "backends.chunk"),
    ("corpus.store_hits", "corpus.store_hits"),
    ("corpus.store_misses", "corpus.store_misses"),
)

#: every per-layer metric, in report order, with its unit
LAYER_UNITS = {
    "api.registry_load_s": "s",
    "api.resolve_ms": "ms",
    "api.envelope_ms": "ms",
    "crypto.build_program_ms": "ms",
    "isa.assemble_ms": "ms",
    "isa.reference_exec_ms": "ms",
    "isa.compile_tape_ms": "ms",
    "isa.compile_tape_calls": "count",
    "isa.tape_execute_ns_per_trace": "ns",
    "uarch.schedule_ms": "ms",
    "uarch.schedule_calls": "count",
    "power.compile_calls": "count",
    "power.compile_ms": "ms",
    "power.leakage_compile_ms": "ms",
    "power.packed_plan_ms": "ms",
    "power.evaluate_ns_per_trace": "ns",
    "power.capture_ns_per_trace": "ns",
    "campaigns.fold_ns_per_trace": "ns",
    "campaigns.merge_ms": "ms",
    "campaigns.statistics_ms": "ms",
    "campaigns.schedule_cache_entries": "count",
    "backends.map_chunks_s": "s",
    "backends.chunks": "count",
    "backends.retries": "count",
    "backends.result_bytes": "B",
    "backends.parallel_efficiency": "ratio",
    "sweeps.metrics_update_ns_per_trace": "ns",
    "corpus.expand_ms": "ms",
    "corpus.store_put_ms": "ms",
    "corpus.store_misses": "count",
    "corpus.store_get_ms": "ms",
    "corpus.store_hits": "count",
    "corpus.warm_pass_ms": "ms",
    "corpus.report_ms": "ms",
    "service.admit_ms": "ms",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p90_ms": "ms",
    "service.execute_p50_ms": "ms",
    "service.worker_idle_share": "ratio",
    "service.result_polls_per_run": "ratio",
    "service.hit_latency_p50_ms": "ms",
    "service.hits": "count",
    "service.misses": "count",
    "service.coalesced": "count",
    "service.dedup_rate": "ratio",
    "service.max_queue_depth": "count",
    "service.rejected_429": "count",
    "tracing.overhead_s": "s",
    "tracing.overhead_share": "ratio",
}


# -- traced runs ---------------------------------------------------------------


def _span(spans: dict, name: str) -> list[int]:
    return spans.get(name, [0, 0, 0])


def _sum(deltas: list[dict]) -> dict:
    spans: dict[str, list[int]] = {}
    gauges: dict[str, float] = {}
    for d in deltas:
        for name, values in d["spans"].items():
            total = spans.setdefault(name, [0, 0, 0])
            for i, value in enumerate(values):
                total[i] += value
        for name, value in d["gauges"].items():
            gauges[name] = max(gauges.get(name, 0), value)
    return {"spans": spans, "gauges": gauges}


def span_layers(totals: dict, units: int) -> dict[str, float]:
    """Per-layer metrics from span totals accumulated over ``units`` units."""
    spans = totals["spans"]

    def per_unit_ms(name: str) -> float:
        return _span(spans, name)[1] / 1e6 / units

    def per_unit_calls(name: str) -> float:
        return _span(spans, name)[0] / units

    def ns_per_item(name: str, minus: str | None = None) -> float:
        _calls, ns, items = _span(spans, name)
        if minus is not None:
            ns -= _span(spans, minus)[1]
        return ns / items if items else 0.0

    map_chunks_ns = _span(spans, "backends.map_chunks")[1]
    worker_ns = _span(spans, "backends.worker_chunk")[1]
    return {
        "api.resolve_ms": per_unit_ms("api.resolve"),
        "api.envelope_ms": per_unit_ms("api.envelope"),
        "crypto.build_program_ms": per_unit_ms("crypto.build_program"),
        "isa.assemble_ms": per_unit_ms("isa.assemble"),
        "isa.reference_exec_ms": per_unit_ms("isa.reference_exec"),
        "isa.compile_tape_ms": per_unit_ms("isa.compile_tape"),
        "isa.compile_tape_calls": per_unit_calls("isa.compile_tape"),
        "isa.tape_execute_ns_per_trace": ns_per_item("isa.tape_execute"),
        "uarch.schedule_ms": per_unit_ms("uarch.schedule"),
        "uarch.schedule_calls": per_unit_calls("uarch.schedule"),
        "power.compile_calls": per_unit_calls("power.compile"),
        "power.compile_ms": per_unit_ms("power.compile"),
        "power.leakage_compile_ms": per_unit_ms("power.leakage_compile"),
        "power.packed_plan_ms": per_unit_ms("power.packed_plan"),
        # the packed plan is built inside the first evaluate on a layout
        "power.evaluate_ns_per_trace": ns_per_item("power.evaluate", minus="power.packed_plan"),
        "power.capture_ns_per_trace": ns_per_item("power.capture"),
        "campaigns.fold_ns_per_trace": ns_per_item("campaigns.fold"),
        "campaigns.merge_ms": per_unit_ms("campaigns.merge"),
        "campaigns.statistics_ms": per_unit_ms("campaigns.statistics"),
        "campaigns.schedule_cache_entries": totals["gauges"].get(
            "campaigns.schedule_cache_entries", 0
        ),
        "backends.map_chunks_s": map_chunks_ns / 1e9 / units,
        "backends.chunks": per_unit_calls("backends.chunk"),
        "backends.result_bytes": _span(spans, "backends.result_bytes")[2] / units,
        "backends.parallel_efficiency": (
            worker_ns / (BULK_JOBS * map_chunks_ns) if map_chunks_ns else 0.0
        ),
        "sweeps.metrics_update_ns_per_trace": ns_per_item("sweeps.metrics_update"),
        "corpus.expand_ms": per_unit_ms("corpus.expand"),
        "corpus.store_put_ms": per_unit_ms("corpus.store_put"),
        "corpus.store_misses": per_unit_calls("corpus.store_misses"),
        "corpus.store_get_ms": per_unit_ms("corpus.store_get"),
        "corpus.store_hits": per_unit_calls("corpus.store_hits"),
        "corpus.report_ms": per_unit_ms("corpus.report"),
        "service.admit_ms": per_unit_ms("service.admit"),
    }


def alternate(context: Context, unit, nominal_s: float) -> tuple[list, list, list]:
    """Untraced and traced units in turn: (untraced, traced, span deltas)."""
    plain, traced, deltas = [], [], []

    def pair(index: int) -> None:
        plain.append(unit(index))
        with context.tracing():
            before = context.collect()
            traced.append(unit(index))
            deltas.append(delta(before, context.collect()))

    context.repeat(pair, 2 * nominal_s, minimum=2)
    return plain, traced, deltas


def report_layers(
    outcome: Outcome,
    probes: list[dict],
    plain: list[dict],
    traced: list[dict],
    deltas: list[dict],
    unit_name: str,
    extra: dict[str, float] | None = None,
) -> None:
    """The traced run's checks and every per-layer metric.

    Layers a workload never enters read 0.
    """
    outcome.check(
        "traced output equals untraced output",
        [u["digest"] for u in traced] == [u["digest"] for u in plain],
    )
    per_unit = {
        json.dumps({m: _span(d["spans"], s)[0] for m, s in EXACT_COUNTS}, sort_keys=True)
        for d in deltas
    }
    outcome.check(
        f"exact counts repeat across every {unit_name}", len(per_unit) == 1, "; ".join(sorted(per_unit))
    )
    layers = span_layers(_sum(deltas), len(deltas))
    layers.update(extra or {})
    layers["api.registry_load_s"] = median([p["registry_load_s"] for p in probes])
    plain_s = median([u["seconds"] for u in plain])
    traced_s = median([u["seconds"] for u in traced])
    layers["tracing.overhead_s"] = traced_s - plain_s
    layers["tracing.overhead_share"] = (traced_s - plain_s) / plain_s
    outcome.layers = {name: (layers.get(name, 0), unit) for name, unit in LAYER_UNITS.items()}
    outcome.notes.append(
        f"{len(traced)} traced and {len(plain)} untraced units ({unit_name}); tracing "
        f"overhead = median traced {traced_s:.3f} s - median untraced {plain_s:.3f} s"
    )


# -- bulk-acquire --------------------------------------------------------------


def bulk_acquire(context: Context) -> Outcome:
    outcome = Outcome()
    probes = context.probe_setup("bulk-acquire", MANIFEST)
    envelope_module = import_module("repro.api.envelope")
    from repro.api import Session

    validate = envelope_module.validate_envelope  # the unwrapped check
    session = Session()
    # First fork pool, lazy imports, allocator warm-up: paid once per
    # process, so kept out of the timed campaigns.
    session.run("figure3", seed=context.seed, **{**BULK_REQUEST, "n_traces": 2000})

    def campaign(_index: int) -> dict:
        start = time.perf_counter()
        record = session.run("figure3", seed=context.seed, **BULK_REQUEST).to_json()
        seconds = time.perf_counter() - start
        problems = []
        try:
            validate(record)
        except envelope_module.EnvelopeSchemaError as error:
            problems.append(f"schema: {error}")
        if record.get("matches_paper") is not True:
            problems.append("matches_paper is not true")
        rank = record.get("data", {}).get("rank_of_true_key")
        if rank != 0:
            problems.append(f"true key rank {rank}")
        return {"seconds": seconds, "digest": digest(record), "problems": problems}

    if context.trace:
        plain, traced, deltas = alternate(context, campaign, BULK_UNIT_S)
        units = plain + traced
    else:
        units = context.repeat(campaign, BULK_UNIT_S, minimum=3)
    peak = peak_rss_mb()

    n_traces = BULK_REQUEST["n_traces"]
    bad = [u for u in units if u["problems"]]
    outcome.attempted = len(units)
    outcome.failed = len(bad)
    outcome.check(
        "every envelope is schema-valid, matches the paper and ranks the true key byte first",
        not bad,
        "; ".join(p for u in bad for p in u["problems"]) or f"{len(units)} campaigns",
    )
    outcome.check(
        "every campaign of the run produced the same output (same seed)",
        len({u["digest"] for u in units}) == 1,
    )
    if context.trace:
        report_layers(outcome, probes, plain, traced, deltas, "campaign")
        outcome.notes.append(
            f"campaigns of {n_traces} traces, jobs={BULK_JOBS}; fork-worker spans "
            "written after every chunk"
        )
        return outcome

    seconds = [u["seconds"] for u in units]
    setup_s = median([p["setup_s"] for p in probes])
    traces_per_s = median([n_traces / s for s in seconds])
    campaign_ms = median(seconds) * 1000
    outcome.end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "throughput_per_s": traces_per_s,
        "latency_p50_ms": campaign_ms,
    }
    outcome.named = [
        ("setup_s", setup_s, "s", f"median of {len(probes)} fresh-process set-ups"),
        ("peak_rss_mb", peak, "MB", "own peak + largest reaped child peak"),
        ("traces_per_s", traces_per_s, "1/s", f"median of {len(units)} campaigns of {n_traces} traces"),
        ("campaign_p50_ms", campaign_ms, "ms", f"median wall time of {len(units)} campaigns"),
    ]
    return outcome


# -- corpus-batch --------------------------------------------------------------


def _verdicts(result) -> tuple[list[str], list[str]]:
    """Each workload's expected key-recovery verdict at its largest budget.

    Returns (contradictions, ties).  A verdict is contradicted only when
    the CPA decides against it: an expected recovery whose true key
    ranks two or more places beyond the workload's tolerance, or one
    place beyond with the winner's margin confidence at least
    :data:`DECIDED`; an expected non-recovery whose true key ranks first
    with a decided margin.  A true key one place beyond tolerance with
    an undecided margin is a tie between the top two guesses; it is
    reported, not failed.
    """
    from repro.corpus.workloads import workload

    contradictions, ties = [], []
    largest = max(cell.n_traces for cell in result.cells if cell.ok)
    for cell in result.cells:
        if not cell.ok or cell.n_traces != largest:
            continue
        entry = workload(cell.cell.workload)
        final = cell.metrics.final
        rank, decided = final.cpa_rank, final.cpa_margin >= DECIDED
        label = f"{cell.cell.name}: true key rank {rank}, margin {final.cpa_margin:.3f}"
        if entry.recovers_key:
            if rank > entry.rank_tolerance + 1 or (rank > entry.rank_tolerance and decided):
                contradictions.append(f"{label}, expected recovery")
            elif rank > entry.rank_tolerance:
                ties.append(label)
        elif rank == 0 and decided:
            contradictions.append(f"{label}, expected no recovery")
    return contradictions, ties


def _cell_records(result) -> list[dict]:
    return [
        {"cell": c.cell.name, "key": c.key, "n_traces": c.n_traces, "metrics": c.metrics.to_json()}
        for c in result.cells
        if c.ok
    ]


def corpus_batch(context: Context) -> Outcome:
    outcome = Outcome()
    probes = context.probe_setup("corpus-batch", MANIFEST)
    manifest_module = import_module("repro.corpus.manifest")
    from repro.corpus.runner import CorpusCampaign

    # Lazy imports and allocator warm-up on one tiny uncached cell.
    warmup = dataclasses.replace(
        manifest_module.load_manifest(MANIFEST), workloads=("memcpy",), budgets=(50,)
    )
    CorpusCampaign(warmup, store=None, seed=context.seed).run()

    def batch(_index: int) -> dict:
        store = context.tempdir("store-")
        start = time.perf_counter()
        cold = CorpusCampaign(
            manifest_module.load_manifest(MANIFEST), store=store, seed=context.seed
        ).run()
        cold.render()
        cold.to_json()
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm = CorpusCampaign(
            manifest_module.load_manifest(MANIFEST), store=store, seed=context.seed
        ).run()
        warm.render()
        warm.to_json()
        warm_s = time.perf_counter() - start
        problems = [f"{c.cell.name}: {c.error}" for r in (cold, warm) for c in r.cells if not c.ok]
        contradictions, ties = _verdicts(cold)
        problems += contradictions
        if warm.store_hits != len(warm.cells):
            problems.append(f"warm pass served {warm.store_hits} of {len(warm.cells)} cells from the store")
        records = _cell_records(cold)
        if _cell_records(warm) != records:
            problems.append("warm records differ from cold records")
        return {
            "seconds": cold_s + warm_s,
            "cold_s": cold_s,
            "warm_s": warm_s,
            "cells": len(cold.cells),
            "failed": cold.failed + warm.failed,
            "cell_s": [c.seconds for c in cold.cells if c.ok],
            "digest": digest(records),
            "problems": problems,
            "ties": ties,
        }

    if context.trace:
        plain, traced, deltas = alternate(context, batch, CORPUS_UNIT_S)
        units = plain + traced
    else:
        units = context.repeat(batch, CORPUS_UNIT_S, minimum=2)
    peak = peak_rss_mb()

    outcome.attempted = sum(2 * u["cells"] for u in units)
    outcome.failed = sum(u["failed"] for u in units)
    problems = [p for u in units for p in u["problems"]]
    outcome.check(
        "every cell ok, key-recovery verdicts hold, warm pass fully store-served and equal to cold",
        not problems,
        "; ".join(problems) or f"{len(units)} cold+warm passes of {units[0]['cells']} cells",
    )
    outcome.check(
        "every pass of the run produced the same records (same seed)",
        len({u["digest"] for u in units}) == 1,
    )
    for tie in units[0]["ties"]:
        outcome.notes.append(f"key-recovery tie between the top two guesses: {tie}")
    if context.trace:
        report_layers(
            outcome, probes, plain, traced, deltas, "cold+warm pass",
            extra={"corpus.warm_pass_ms": median([u["warm_s"] for u in traced]) * 1000},
        )
        return outcome

    setup_s = median([p["setup_s"] for p in probes])
    cells_per_s = median([u["cells"] / u["cold_s"] for u in units])
    cell_ms = [s * 1000 for u in units for s in u["cell_s"]]
    cell_p50 = median(cell_ms)
    outcome.end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "throughput_per_s": cells_per_s,
        "latency_p50_ms": cell_p50,
    }
    outcome.named = [
        ("setup_s", setup_s, "s", f"median of {len(probes)} fresh-process set-ups"),
        ("peak_rss_mb", peak, "MB", "own peak + largest reaped child peak"),
        ("cells_per_min", cells_per_s * 60, "1/min", f"cold pass, median of {len(units)} passes"),
        ("cell_p50_ms", cell_p50, "ms", f"cold cells, n={len(cell_ms)}"),
        ("warm_pass_ms", median([u["warm_s"] for u in units]) * 1000, "ms",
         f"store-served re-run, median of {len(units)}"),
    ]
    return outcome


# -- service-mix ---------------------------------------------------------------


class Server:
    """One ``repro serve --workers 1`` process on a fresh spool."""

    def __init__(self, context: Context, trace_dir: str | None = None):
        self.context = context
        self.spool = context.tempdir("spool-")
        argv = [sys.executable, str(HERE / "serve.py")]
        if trace_dir is not None:
            argv += ["--trace-dir", trace_dir]
        argv += ["--", "--port", "0", "--workers", "1", "--spool", self.spool]
        self.process = context.spawn(argv, stdout=subprocess.PIPE, text=True)
        line = read_line(self.process, READY_TIMEOUT_S)
        if "listening on http://" not in line:
            self.stop()
            raise BenchmarkError(f"repro serve did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
        self.context.reap(self.process)


def _request_record(seed: int) -> dict:
    return {
        "schema": "repro.request/1",
        "n_traces": SERVICE_TRACES,
        "seed": seed,
        "precision": "float32",
    }


class Mix:
    """The seeded request mix: one pick order, fresh variants per pass.

    Variant ``k`` appears in proportion to ``1 / (k + 1) ** s`` (counts
    rounded by largest remainder, at least one each), so every variant
    is requested and the number of distinct requests is fixed; the seed
    sets the order and the request seeds.
    """

    def __init__(self, seed: int):
        rng = random.Random(seed)
        weights = [1.0 / (rank + 1) ** SERVICE_ZIPF_S for rank in range(SERVICE_VARIANTS)]
        shares = [SERVICE_REQUESTS * w / sum(weights) for w in weights]
        counts = [max(1, int(share)) for share in shares]
        by_remainder = sorted(range(SERVICE_VARIANTS), key=lambda k: int(shares[k]) - shares[k])
        for k in by_remainder[: SERVICE_REQUESTS - sum(counts)]:
            counts[k] += 1
        self.order = [k for k, count in enumerate(counts) for _ in range(count)]
        rng.shuffle(self.order)
        self.base = rng.randrange(1 << 30)

    def variant_seed(self, pass_index: int, variant: int) -> int:
        """Distinct per (pass, variant), so every pass starts with a cold cache."""
        return self.base + 1000 * (pass_index + 1) + variant

    def warm_seed(self, index: int) -> int:
        return self.base + index


def _one_request(client, record: dict) -> dict:
    start = time.perf_counter()
    status, body, headers = client.request(
        "POST", "/v1/runs", {"scenario": "figure3", "request": record}
    )
    if status == 429:
        return {"disposition": "rejected", "latency": time.perf_counter() - start, "polls": 0}
    if status not in (200, 201):
        return {"disposition": "error", "latency": time.perf_counter() - start, "polls": 0,
                "error": f"submit HTTP {status}: {body}"}
    job_id = body["id"]
    disposition = headers.get("x-repro-cache", "miss")
    polls = 0
    while True:
        status, envelope, _ = client.request("GET", f"/v1/runs/{job_id}/result")
        if status != 202:
            break
        polls += 1
        time.sleep(SERVICE_POLL_S)
    result = {
        "disposition": disposition,
        "latency": time.perf_counter() - start,
        "polls": polls,
        "job": job_id,
        "envelope": envelope,
    }
    if status != 200:
        result["error"] = f"result HTTP {status}"
    return result


def _run_pass(server: Server, mix: Mix, pass_index: int) -> dict:
    """One pass: two keep-alive clients in lock-step rounds over the mix.

    Both clients start round ``r`` together and the next round starts
    when both replies are in, so whether a request is a miss, a hit or
    coalesced onto its twin depends only on the mix, never on timing:
    the disposition counts repeat exactly at a fixed seed.
    """
    from repro.service.client import ServiceClient

    barrier = threading.Barrier(SERVICE_CLIENTS, timeout=READY_TIMEOUT_S)
    results: list[list[dict]] = [[] for _ in range(SERVICE_CLIENTS)]
    errors: list[BaseException] = []

    def client_loop(index: int) -> None:
        with ServiceClient("127.0.0.1", server.port, timeout=READY_TIMEOUT_S) as client:
            try:
                for start in range(0, len(mix.order), SERVICE_CLIENTS):
                    barrier.wait()
                    variant = mix.order[start + index]
                    record = _request_record(mix.variant_seed(pass_index, variant))
                    result = _one_request(client, record)
                    result["variant"] = variant
                    results[index].append(result)
                barrier.wait()
            except BaseException as error:  # noqa: BLE001 - re-raised by the caller
                errors.append(error)
                barrier.abort()

    threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(SERVICE_CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise BenchmarkError(f"service client failed: {errors[0]!r}") from errors[0]
    requests = [r for per_client in results for r in per_client]
    responses = sorted(
        (r["variant"], digest(r["envelope"])) for r in requests if "envelope" in r
    )
    return {
        "seconds": elapsed,
        "requests": requests,
        "dispositions": dict(Counter(r["disposition"] for r in requests)),
        "digest": digest(responses),
        "spool": server.spool,
    }


def _start_server(context: Context, mix: Mix, index: int, trace_dir: str | None = None):
    """Start a server and complete one warm request; returns (server, seconds)."""
    from repro.service.client import ServiceClient

    start = time.perf_counter()
    server = Server(context, trace_dir)
    with ServiceClient("127.0.0.1", server.port, timeout=READY_TIMEOUT_S) as client:
        warm = _one_request(client, _request_record(mix.warm_seed(index)))
    seconds = time.perf_counter() - start
    if "error" in warm or warm["disposition"] != "miss":
        server.stop()
        raise BenchmarkError(f"warm request failed: {warm.get('error', warm['disposition'])}")
    return server, seconds


def _job_timings(passes: list[dict]) -> dict:
    """Queue wait, execution time and queue depth from the spools' job records."""
    from repro.service.queue import JobQueue

    jobs, depths = [], []
    for pass_result in passes:
        queue = JobQueue(pass_result["spool"])
        ids = sorted({r["job"] for r in pass_result["requests"] if r["disposition"] == "miss"})
        executed = [queue.load_job(job_id) for job_id in ids]
        events = sorted(
            [(job["created"], 1) for job in executed] + [(job["started"], -1) for job in executed]
        )
        depth = max_depth = 0
        for _when, change in events:
            depth += change
            max_depth = max(max_depth, depth)
        depths.append(max_depth)
        jobs += executed
    busy = sum(job["finished"] - job["started"] for job in jobs)
    return {
        "waits": [(job["started"] - job["created"]) * 1000 for job in jobs],
        "runs": [(job["finished"] - job["started"]) * 1000 for job in jobs],
        "max_depth": max(depths),
        "idle_share": 1.0 - busy / sum(p["seconds"] for p in passes),
    }


def _service_checks(outcome: Outcome, passes: list[dict]) -> None:
    from repro.api.envelope import EnvelopeSchemaError, validate_envelope

    requests = [r for p in passes for r in p["requests"]]
    errors = [r for r in requests if "error" in r or r["disposition"] in ("rejected", "error")]
    outcome.attempted += len(requests)
    outcome.failed += len(errors)
    outcome.check(
        "no failed jobs and no refused submissions",
        not errors,
        "; ".join(sorted({r.get("error", r["disposition"]) for r in errors})) or f"{len(requests)} requests",
    )
    invalid = 0
    for r in requests:
        if "envelope" in r:
            try:
                validate_envelope(r["envelope"])
            except EnvelopeSchemaError:
                invalid += 1
    outcome.check("every envelope is schema-valid", invalid == 0, f"{invalid} invalid")
    mismatched = []
    for p in passes:
        by_variant: dict[int, set[str]] = {}
        for r in p["requests"]:
            if "envelope" in r:
                by_variant.setdefault(r["variant"], set()).add(digest(r["envelope"]))
        mismatched += [v for v, digests in by_variant.items() if len(digests) > 1]
    outcome.check(
        "all responses for one variant are identical except for seconds",
        not mismatched,
        f"variants with differing responses: {sorted(set(mismatched))}" if mismatched else "",
    )
    counts = {json.dumps(p["dispositions"], sort_keys=True) for p in passes}
    outcome.check(
        "disposition counts repeat exactly across passes", len(counts) == 1, "; ".join(sorted(counts))
    )


def service_mix(context: Context) -> Outcome:
    outcome = Outcome()
    mix = Mix(context.seed)
    if context.trace:
        return _service_traced(context, mix, outcome)

    setups = []
    server = None
    for index in range(SERVICE_SETUPS):
        if server is not None:
            server.stop()
        server, seconds = _start_server(context, mix, index)
        setups.append(seconds)
    try:
        passes = context.repeat(lambda i: _run_pass(server, mix, i), SERVICE_UNIT_S, minimum=2)
    finally:
        server.stop()
    peak = peak_rss_mb()
    _service_checks(outcome, passes)

    # One sampled variant against an in-process run of the same request.
    from repro.api import RunRequest, Session
    from repro.campaigns import registry

    sample = passes[0]["requests"][0]
    record = _request_record(mix.variant_seed(0, sample["variant"]))
    envelope = Session().run("figure3", RunRequest.from_json(record, registry.get("figure3")))
    outcome.check(
        "a sampled service response equals an in-process Session.run of the same request",
        digest(json.loads(json.dumps(envelope.to_json()))) == digest(sample["envelope"]),
        f"variant seed {record['seed']}",
    )

    requests = [r for p in passes for r in p["requests"]]
    latencies = [r["latency"] * 1000 for r in requests]
    misses = [r["latency"] * 1000 for r in requests if r["disposition"] == "miss"]
    hits = [r["latency"] * 1000 for r in requests if r["disposition"] == "hit"]
    runs_per_s = median([len(p["requests"]) / p["seconds"] for p in passes])
    setup_s = median(setups)
    miss_p50 = median(misses)
    outcome.end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "throughput_per_s": runs_per_s,
        "latency_p50_ms": miss_p50,
    }
    outcome.named = [
        ("setup_s", setup_s, "s", f"median of {len(setups)} server starts + one warm request"),
        ("peak_rss_mb", peak, "MB", "own peak + largest reaped child peak"),
        ("runs_per_s", runs_per_s, "1/s", f"median of {len(passes)} passes of {SERVICE_REQUESTS} requests"),
        ("miss_latency_p50_ms", miss_p50, "ms", f"n={len(misses)}"),
    ]
    if tail_supported(len(latencies), 0.95):
        outcome.named.append(
            ("latency_p95_ms", percentile(latencies, 0.95), "ms", f"all requests, n={len(latencies)}")
        )
    outcome.named.append(("hit_latency_p50_ms", median(hits), "ms", f"n={len(hits)}"))
    timings = _job_timings(passes)
    outcome.notes.append(
        f"job records: queue wait p50 {median(timings['waits']):.1f} ms, execute p50 "
        f"{median(timings['runs']):.1f} ms, max queue depth {timings['max_depth']}, "
        f"worker idle share {timings['idle_share']:.3f}"
    )
    return outcome


def _wait_for_worker(context: Context, before: dict, jobs: int) -> dict:
    """Collect spans once the worker has written ``jobs`` more executed jobs."""
    deadline = time.perf_counter() + READY_TIMEOUT_S
    while True:
        now = context.collect()
        done = delta(before, now)["spans"].get("service.worker_job", [0])[0]
        if done >= jobs or time.perf_counter() > deadline:
            return now
        time.sleep(0.01)


def _service_traced(context: Context, mix: Mix, outcome: Outcome) -> Outcome:
    """An untraced server, then a traced one, each running the same passes."""
    probes = context.probe_setup("bulk-acquire", MANIFEST, count=SERVICE_SETUPS)
    server, _ = _start_server(context, mix, 0)
    try:
        plain = context.repeat(lambda i: _run_pass(server, mix, i), SERVICE_UNIT_S, minimum=2)
    finally:
        server.stop()

    server, _ = _start_server(context, mix, 1, trace_dir=context.span_dir)
    traced, deltas = [], []
    try:
        baseline = _wait_for_worker(context, {"spans": {}, "gauges": {}}, 1)
        for index in range(len(plain)):
            traced.append(_run_pass(server, mix, index))
            now = _wait_for_worker(context, baseline, traced[-1]["dispositions"].get("miss", 0))
            deltas.append(delta(baseline, now))
            baseline = now
    finally:
        server.stop()
    passes = plain + traced
    _service_checks(outcome, passes)

    requests = [r for p in traced for r in p["requests"]]
    counts = Counter(r["disposition"] for r in requests)
    completed = [r for r in requests if "envelope" in r]
    timings = _job_timings(passes)
    waits = timings["waits"]
    extra = {
        "service.queue_wait_p50_ms": median(waits),
        "service.execute_p50_ms": median(timings["runs"]),
        "service.worker_idle_share": timings["idle_share"],
        "service.result_polls_per_run": sum(r["polls"] for r in completed) / len(completed),
        "service.hit_latency_p50_ms": median(
            [r["latency"] * 1000 for r in requests if r["disposition"] == "hit"]
        ),
        "service.hits": counts["hit"] / len(traced),
        "service.misses": counts["miss"] / len(traced),
        "service.coalesced": counts["coalesced"] / len(traced),
        "service.dedup_rate": (counts["hit"] + counts["coalesced"]) / len(requests),
        "service.max_queue_depth": timings["max_depth"],
        "service.rejected_429": counts["rejected"] / len(traced),
    }
    if tail_supported(len(waits), 0.90):
        extra["service.queue_wait_p90_ms"] = percentile(waits, 0.90)
    else:
        outcome.notes.append(
            f"service.queue_wait_p90_ms not reported: {len(waits)} executed jobs "
            "leave fewer than 10 samples beyond p90"
        )
    report_layers(outcome, probes, plain, traced, deltas, "service pass", extra)
    outcome.notes.append(
        "job-record metrics cover the passes of both servers; server and worker spans "
        "are written after every submission and job"
    )
    return outcome


RUNNERS = {
    "bulk-acquire": bulk_acquire,
    "corpus-batch": corpus_batch,
    "service-mix": service_mix,
}
