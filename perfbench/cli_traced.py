"""Run one biphoton CLI command under the outside-in tracer and write its
spans as JSON.  Used by the traced phase of the `cli` workload.

    PYTHONPATH=src python3 perfbench/cli_traced.py SPANS.json pc --state ...
"""

import sys

import biphoton.cli
import tracing


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            return biphoton.cli.main(argv)
    finally:
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
