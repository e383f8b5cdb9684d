"""Start ``repro-paper serve`` with spans around each layer's calls.

Usage: ``python3 perfbench/launcher.py --spans FILE serve [options]``.

The wrappers cover the wire (``read_request``/``write_response``), the
app (``ServiceApp.handle``), the compute pool (``ComputePool.fetch``),
sessions (``parse_ndjson_events``, ``SessionTable.feed``/``close``),
the store (``ResultStore.load_entry``/``store``), point execution and
every compute layer below it.  They call straight through until the
process receives SIGUSR1; the recorded spans are written to FILE when
the server stops.
"""

from __future__ import annotations

import signal
import sys

from benchlib import require_source


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        raise SystemExit(__doc__)
    path, serve_args = argv[1], argv[2:]
    require_source()
    from repro.eval.cli import main as cli_main

    from spans import Tracer, install_compute, install_service

    tracer = Tracer()
    install_compute(tracer)
    install_service(tracer)
    signal.signal(signal.SIGUSR1, lambda *_: tracer.enable())
    try:
        return cli_main(serve_args)
    finally:
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
