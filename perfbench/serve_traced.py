"""Run ``repro serve`` with the benchmark's timing wrappers installed.

Usage: ``python3 perfbench/serve_traced.py SPANS_OUT serve [serve options]``

The wrappers from :mod:`spans` go around the layers' entry points before the
CLI starts; when the server exits (after a ``shutdown`` request) the span
summary is written to ``SPANS_OUT`` as JSON.  Nothing under ``src/`` is
edited.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        installed.uninstall()
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(tracer.summary(), handle)


if __name__ == "__main__":
    sys.exit(main())
