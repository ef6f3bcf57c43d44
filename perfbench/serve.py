"""Run ``repro serve`` in this process, optionally with the layer tracing.

``run.py`` starts the service-mix server through this launcher so a
traced run can install the wrappers before the server forks its
worker; the worker inherits them.  Without ``--trace-dir`` this is
exactly ``python -m repro serve ARGS``.

Usage: ``python3 perfbench/serve.py [--trace-dir DIR] -- ARGS``
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True


def main(argv: list[str]) -> int:
    split = argv.index("--")
    options, serve_args = argv[:split], argv[split + 1 :]
    tracer = None
    if options[:1] == ["--trace-dir"]:
        from tracing import Tracer, install

        tracer = Tracer(options[1])
        install(tracer)
    from repro.service.cli import main as serve_main

    try:
        return serve_main(serve_args)
    finally:
        if tracer is not None:
            tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
