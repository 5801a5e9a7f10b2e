"""Traced stand-in for `python -m hypflow.cli`, one process per operation.

    python bench/cli_probe.py OUT.json CLI-ARGS...

Imports hypflow's CLI exactly as `-m hypflow.cli` would, wraps the layers
(see tracer.py), runs `hypflow.cli.main(CLI-ARGS)` inside one root span and
writes to OUT.json when it started, when the import finished and the
aggregated spans.  Times are `time.perf_counter`, a system-wide monotonic
clock on Linux, so the parent places them on its own timeline.  Exits with
the CLI's exit code.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import hypflow.cli  # noqa: E402

IMPORTED = time.perf_counter()

from tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.max_spans = 0  # the parent keeps aggregates only
    tracer.install(sys.modules["hypflow"])
    with tracer.root("op", "cli"):
        code = hypflow.cli.main(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"started": STARTED, "imported": IMPORTED, "trace": tracer.state()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
