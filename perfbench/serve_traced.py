"""Run ``repro serve`` with the benchmark's layer wrappers installed.

Usage: python3 perfbench/serve_traced.py LEDGER.json serve --store DIR ...

Everything after the ledger path is passed to the ``repro`` command
line unchanged.  On SIGUSR1 the process writes the layer totals
collected so far to LEDGER.json (written to a temporary name, then
renamed, so a reader never sees half a file); SIGINT stops the server
as it stops ``repro serve``.
"""

from __future__ import annotations

import json
import os
import signal
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

import layers  # noqa: E402


def main(argv: list[str]) -> int:
    ledger_path, cli_args = argv[0], argv[1:]
    tracer = layers.Tracer()
    tracer.install(service=True)

    def dump(signum, frame):
        tmp = ledger_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(tracer.ledger.snapshot(), fh)
        os.replace(tmp, ledger_path)

    signal.signal(signal.SIGUSR1, dump)
    from repro.cli import main as repro_main

    return repro_main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
