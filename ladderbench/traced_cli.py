"""Run the ``empcouple`` command line with spans around the layers it calls.

Usage: python3 traced_cli.py SPANS_JSON <empcouple arguments...>

The spans are written to SPANS_JSON when the command ends.  Worker processes
of the command run untraced.
"""

import sys

import bench_trace as bt
from empcouple import cli


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = bt.Tracer()
    with bt.instrumented_cli(tracer), tracer.span("cli.main"):
        code = cli.main(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
