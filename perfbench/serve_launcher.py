"""Run ``repro serve`` in this process, optionally with span tracing.

    python3 perfbench/serve_launcher.py [--trace-out FILE] serve ARGS...

With ``--trace-out`` the layer wrappers of ``tracing.py`` are installed
before ``repro.cli`` is imported, and the spans are written to FILE
when the server exits (SIGINT stops it cleanly).  Span durations are
process CPU time, the clock of the server's end-to-end figure (CPU per
event), so the CPU under no span is their difference.  Without it the
program runs unmodified, exactly as ``python -m repro.cli`` would.
"""

import atexit
import sys
from time import process_time

import common


def main() -> int:
    argv = sys.argv[1:]
    common.use_repo()
    if argv[:1] == ["--trace-out"]:
        import tracing

        tracer = tracing.install(tracing.Tracer(clock=process_time))
        atexit.register(tracer.dump, argv[1])
        argv = argv[2:]
    from repro.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
