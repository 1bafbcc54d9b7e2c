"""One traced CLI invocation in a fresh interpreter.

    python bench/mirror.py traced|heap REPORT INDEX COMMAND ARGS...

Runs COMMAND ARGS (the arguments the `ransomecon` CLI was given)
through tracing.Pipeline, in the current directory, and exits with the
exit code the CLI would. Stdout and output files are the CLI's, so the
caller can check them against the CLI child's. REPORT receives the
spans and the tracer's own overhead as JSON. In `heap` mode tracemalloc
runs too, so its spans carry heap peaks but their times are inflated.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import tracing


def main(argv: list[str]) -> int:
    mode, report, index, cli_args = argv[0], Path(argv[1]), int(argv[2]), argv[3:]
    pipeline = tracing.Pipeline()
    tracer = tracing.Tracer(heap=mode == "heap")
    tracer.invocation = index
    if mode == "heap":
        tracemalloc.start()
    code, stdout = pipeline.run(tracer, cli_args)
    tracemalloc.stop()
    sys.stdout.write(stdout)
    report.write_text(json.dumps({
        "spans": [asdict(span) for span in tracer.spans],
        "overhead_s": tracer.overhead,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
