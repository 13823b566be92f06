"""Run one kleinlab command in this process with the layer spans recorded,
then save the spans for the parent benchmark process.

    python perfbench/child.py SPANS_JSON COMMAND [ARGS...]

Exits with the command's exit code.  Needs `src` on PYTHONPATH.
"""

import sys

from layers import instrument
from spans import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import kleinlab.cli

    tracer = Tracer()
    instrument(tracer)
    rc = kleinlab.cli.main(argv)
    tracer.dump(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
