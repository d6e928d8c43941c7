"""Run one ``couplerkit`` command with the boundary tracer installed.

Used by the traced run of the cli-cold workload in place of
``python -m couplerkit.cli``.  Stdout and the exit code are the command's own;
the spans, the tracer's aggregates, the interpreter start-up time (from
``PERFBENCH_SPAWNED_AT``, the parent's wall clock at spawn) and the import
time go to the JSON file named by ``PERFBENCH_TRACE_OUT``.
"""

import time

STARTED = time.time()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    t0 = time.perf_counter()
    import couplerkit.cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = couplerkit.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        Path(os.environ["PERFBENCH_TRACE_OUT"]).write_text(json.dumps({
            "interpreter_s": STARTED - float(os.environ["PERFBENCH_SPAWNED_AT"]),
            "import_s": import_s,
            "aggregates": tracer.aggregates(),
            "spans": tracer.spans,
        }))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
