"""Run the yamabe-lab CLI with the benchmark's tracer installed.

Usage: python3 perfbench/cli_child.py SPANS_JSON COMMAND [CLI ARGS...]

Used by the traced run of the ``cold_cli`` workload in place of
``python3 -m yamabe_lab.cli``; the spans are written to SPANS_JSON when
the command returns.  The tracer is installed before the package is
imported and patches each module as it is imported, so the child loads
only the modules the command itself loads, and the command's own lazy
imports fall inside the ``cli.main`` span as they do on the cold path.
"""

import importlib
import sys

import tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.Tracer()
    recorder.install()
    try:
        cli = importlib.import_module("yamabe_lab.cli")
        return cli.main(argv)
    finally:
        recorder.uninstall()
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
