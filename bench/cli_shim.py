"""Traced ``qblotto`` CLI child.

    python3 bench/cli_shim.py SPANS_JSON SUBCOMMAND [ARGS...]

Runs ``qblotto.cli.main`` with the benchmark's layer spans installed and
writes them to SPANS_JSON on exit, for the parent to merge under the
op's span. Used only by the traced run of the ``cli`` workload.
"""

import sys
from pathlib import Path

import harness


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = harness.Tracer()
    with tracer.span("import.qblotto"):
        from qblotto import cli
    try:
        with tracer.installed():
            return cli.main(argv)
    finally:
        harness.dump_spans(tracer, spans_path)


if __name__ == "__main__":
    sys.exit(main())
