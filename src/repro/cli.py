"""Command-line interface: a thin shell client of :mod:`repro.api`.

The CLI only parses arguments into a
:class:`~repro.api.request.RunRequest`, dispatches it through a
:class:`~repro.api.session.Session`, and prints the returned
:class:`~repro.api.envelope.Envelope` — there is no per-experiment
wiring and no scenario-specific logic here.

Usage::

    python -m repro table1
    python -m repro figure3   [--traces 3000] [--chunk-size 500] [--jobs 4]
    python -m repro table2    [--traces 3000] [--seed 7]
    python -m repro all       [--format json]
    python -m repro serve     [--port 8737] [--workers 2] [--spool DIR]
    python -m repro corpus run manifest.yaml [--store DIR] [--force]

``repro serve`` starts the HTTP/JSON leakage-evaluation service (its
own flag set; see :mod:`repro.service.cli` and ``docs/service.md``).
``repro corpus run``/``repro corpus list`` are the batch front-end of
the workload corpus (their own flag set; see :mod:`repro.corpus.cli`
and ``docs/corpus.md``); ``repro corpus --manifest PATH`` runs the same
batch through the generic scenario path below.

Flags:

``--traces N``
    Trace-budget override for statistical scenarios (each scenario has
    its own default).
``--reps N``
    Microbenchmark repetitions for the CPI scenarios (table1, figure2).
``--chunk-size N``
    Stream the campaign through the engine in chunks of ``N`` traces
    (constant memory).  Default: one monolithic chunk.
``--jobs N``
    Fan chunks out over ``N`` worker processes.
``--backend serial|fork|spawn|auto``
    Execution backend for the fan-out (see ``docs/backends.md``).
    ``fork`` and ``spawn`` build a worker pool per call.  The default
    ``auto`` forks where available (spawn otherwise) and runs serial,
    with a warning, when that one backend is quarantined or cannot
    ship the run's state; every backend is byte-identical to
    ``serial`` for float32 campaigns.
``--seed N``
    Campaign seed override, for independent re-runs of a scenario.
``--precision float64-exact|float32``
    Acquisition-chain precision: ``float32`` runs the counter-based
    high-throughput capture chain; ``float64-exact`` (each scenario's
    default) keeps the bit-exact historical chain.
``--grid key=val[,val...]``
    One design-space axis for grid-aware scenarios (``sweep``); repeat
    the flag for a multi-axis grid, or pass a curated grid name
    (``--grid noise-floor``).  See ``docs/sweeps.md``.
``--retries N``
    Per-chunk retry budget for transient worker faults (0 = fail fast).
    Retried chunks are pure functions of their trace range, so retries
    never change results.  See ``docs/resilience.md``.
``--chunk-timeout SECONDS``
    Soft per-chunk watchdog deadline: a hung or killed worker is
    detected, the pool is rebuilt, and the chunk re-dispatched (counts
    against ``--retries``).
``--checkpoint DIR``
    Persist accumulator state and completed chunk ranges to ``DIR``
    after every folded chunk (atomic write-rename).
``--resume``
    Resume a killed run from ``--checkpoint DIR`` instead of starting
    fresh; the finished run is byte-identical to an uninterrupted one.
``--manifest PATH``
    Batch manifest for the ``corpus`` scenario (which *requires* one;
    see ``docs/corpus.md``).  Under ``all``, the corpus joins the batch
    only when a manifest is supplied.
``--reduce parent|worker``
    Where campaign statistics fold.  ``worker`` is the comms-avoiding
    mode: each worker folds its chunk locally and ships only compact
    sufficient statistics, merged in chunk order — byte-identical to
    the parent fold at a fraction of the IPC bytes (see
    ``docs/backends.md``, "Reduction modes").
``--format json|text``
    ``text`` (default) prints each scenario's rendered report;
    ``json`` emits an array of schema-versioned result envelopes
    (``repro.envelope/1``, see ``docs/api.md``).  A scenario that
    crashes contributes an error envelope instead of silencing the
    reports collected before it; the exit status stays non-zero.

A knob the chosen scenario cannot honor is a hard usage error (exit
status 2) — the scenario's declared capabilities decide, not a
hand-maintained flag table.  Malformed knob *values* (``--jobs 0``,
``--chunk-size 0``, ``--traces 0``, a negative ``--retries``) are
likewise rejected at parse time with the offending flag named, before
any scenario code loads.  Only ``all`` narrows the knob set per
scenario (with a note on stderr), since one flag set fans out over
scenarios with different capabilities.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _int_at_least(flag: str, minimum: int):
    """An argparse ``type`` rejecting out-of-range values flag-by-name.

    Validating inside the parser (rather than letting RunRequest throw
    later) keeps the contract uniform with capability errors: a bad
    value is a usage error — exit status 2, message naming the flag —
    not a stack trace.
    """

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < minimum:
            bound = "positive" if minimum == 1 else f"at least {minimum}"
            if minimum == 0:
                bound = "non-negative"
            raise argparse.ArgumentTypeError(f"{flag} must be {bound}, got {value}")
        return value

    parse.__name__ = "int"  # argparse error prefix: "invalid int value"
    return parse


def _positive_float(flag: str):
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
        if not value > 0:
            raise argparse.ArgumentTypeError(f"{flag} must be positive, got {value}")
        return value

    parse.__name__ = "float"
    return parse


def build_parser() -> argparse.ArgumentParser:
    # known_names() is import-light: the numpy/scipy-heavy experiment
    # modules only load once a scenario actually runs (in main()).
    from repro.campaigns.registry import known_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of Barenghi & Pelosi (DAC 2018).",
    )
    parser.add_argument(
        "experiment",
        choices=known_names() + ["all"],
        help=(
            "which scenario to run, or 'all' for every registered scenario "
            "('repro serve' starts the HTTP service; see repro serve --help)"
        ),
    )
    parser.add_argument(
        "--traces",
        type=_int_at_least("--traces", 1),
        default=None,
        help="trace count override (statistical experiments)",
    )
    parser.add_argument(
        "--reps",
        type=_int_at_least("--reps", 1),
        default=None,
        help="microbenchmark repetitions (CPI experiments)",
    )
    parser.add_argument(
        "--chunk-size",
        type=_int_at_least("--chunk-size", 1),
        default=None,
        help="stream campaigns in chunks of this many traces (constant memory)",
    )
    parser.add_argument(
        "--jobs",
        type=_int_at_least("--jobs", 1),
        default=None,
        help="worker processes for chunk fan-out (with --chunk-size)",
    )
    parser.add_argument(
        "--backend",
        choices=("auto", "serial", "fork", "spawn"),
        default=None,
        help="execution backend for the worker fan-out (default: auto)",
    )
    parser.add_argument(
        "--seed",
        type=_int_at_least("--seed", 0),
        default=None,
        help="campaign seed override",
    )
    parser.add_argument(
        "--precision",
        choices=("float64-exact", "float32"),
        default=None,
        help="acquisition-chain precision (default: the scenario's own)",
    )
    parser.add_argument(
        "--grid",
        action="append",
        default=None,
        metavar="KEY=VAL[,VAL...]",
        help=(
            "design-space axis for grid-aware scenarios (repeatable), "
            "or a curated grid name"
        ),
    )
    parser.add_argument(
        "--retries",
        type=_int_at_least("--retries", 0),
        default=None,
        metavar="N",
        help="per-chunk retry budget for transient worker faults (0 = fail fast)",
    )
    parser.add_argument(
        "--chunk-timeout",
        type=_positive_float("--chunk-timeout"),
        default=None,
        metavar="SECONDS",
        help="soft per-chunk watchdog deadline (hung workers re-dispatched)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="checkpoint accumulator state + completed chunks to DIR",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume a killed run from --checkpoint DIR (byte-identical finish)",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="batch manifest for the corpus scenario (see docs/corpus.md)",
    )
    parser.add_argument(
        "--reduce",
        choices=("parent", "worker"),
        default=None,
        help=(
            "where campaign statistics fold: 'worker' ships only "
            "sufficient statistics between processes (comms-avoiding, "
            "byte-identical); default: 'parent'"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    return parser


def _build_request(parser: argparse.ArgumentParser, args: argparse.Namespace):
    from repro.api import RunRequest

    if args.resume and args.checkpoint is None:
        parser.error("--resume requires --checkpoint DIR")
    try:
        return RunRequest(
            n_traces=args.traces,
            reps=args.reps,
            chunk_size=args.chunk_size,
            jobs=args.jobs,
            backend=args.backend,
            seed=args.seed,
            precision=args.precision,
            grid=tuple(args.grid) if args.grid else None,
            retries=args.retries,
            chunk_timeout=args.chunk_timeout,
            checkpoint=args.checkpoint,
            resume=True if args.resume else None,
            reduce=args.reduce,
            manifest=args.manifest,
        )
    except ValueError as error:
        parser.error(str(error))


def main(argv: list[str] | None = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "serve":
        # The service front-end has its own flag set (host/port/spool/
        # tenants); scenario knobs never leak into it and vice versa.
        from repro.service.cli import main as serve_main

        return serve_main(arguments[1:])
    if (
        len(arguments) >= 2
        and arguments[0] == "corpus"
        and arguments[1] in ("run", "list")
    ):
        # The batch front-end (store/force control, workload listing);
        # `repro corpus --manifest PATH` without a verb still dispatches
        # through the generic scenario path below.
        from repro.corpus.cli import main as corpus_main

        return corpus_main(arguments[1:])
    parser = build_parser()
    args = parser.parse_args(arguments)
    request = _build_request(parser, args)

    from repro.api import CapabilityError, Envelope, Session
    from repro.api.capabilities import KNOB_FLAGS
    from repro.campaigns import registry

    session = Session()
    run_all = args.experiment == "all"
    chosen = registry.names() if run_all else [args.experiment]
    if run_all and request.manifest is None:
        from repro.api.capabilities import Capability

        for name in [n for n in chosen]:
            if Capability.MANIFEST in registry.get(name).capabilities:
                chosen.remove(name)
                print(
                    f"note: skipping {name} (requires --manifest PATH; "
                    "see docs/corpus.md)",
                    file=sys.stderr,
                )
    if not run_all:
        scenario = registry.get(args.experiment)
        try:
            request.validate(scenario)
        except CapabilityError as error:
            parser.error(error.cli_message())
        from repro.api.capabilities import Capability, ManifestRequiredError

        if Capability.MANIFEST in scenario.capabilities and request.manifest is None:
            # Manifest-required scenarios fail at parse time (a usage
            # error, exit 2), not as a runtime failure envelope.
            parser.error(
                ManifestRequiredError(
                    scenario.name, scenario.capabilities
                ).cli_message()
            )

    records = []
    failures = 0
    for name in chosen:
        scenario = registry.get(name)
        scenario_request = request
        if run_all:
            scenario_request, dropped = request.narrowed_to(scenario)
            for knob in dropped:
                print(
                    f"note: {name} does not support {KNOB_FLAGS[knob]}; ignoring it",
                    file=sys.stderr,
                )
        start = time.time()
        try:
            envelope = session.run(name, scenario_request)
            record = envelope.to_json()
        except Exception as error:  # noqa: BLE001 - isolate per scenario
            # One crashing scenario must not lose every report collected
            # before it (historically --format json buffered everything
            # and the traceback replaced the output entirely).
            failures += 1
            message = f"{type(error).__name__}: {error}"
            envelope = Envelope.failure(
                scenario=name,
                title=scenario.title,
                seconds=time.time() - start,
                error=message,
            )
            record = envelope.to_json()
            print(f"error: scenario {name} failed: {message}", file=sys.stderr)
        if args.format == "json":
            records.append(record)
        else:
            print(f"==== {name} ({envelope.seconds:.1f}s) ====")
            print(envelope.render())
            print()
    if args.format == "json":
        print(json.dumps(records, indent=2))
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
