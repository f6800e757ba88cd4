"""`dynqf` with its layers traced: one CLI invocation of the traced cli-batch.

    PERFBENCH_TRACE_OUT=agg.json PERFBENCH_JOB=3 python3 perfbench/cli_shim.py verify ...

Times the import of `dynqf.cli`, installs the wrappers, runs `dynqf.cli.main`
with the given arguments, writes the span aggregate to PERFBENCH_TRACE_OUT
and the raw spans beside the other span files, and exits with main's code.
"""
from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    tracer.job = int(os.environ.get("PERFBENCH_JOB", "0"))
    start = time.perf_counter()
    import dynqf.cli
    tracer.add_span("cli.import", start, time.perf_counter())
    missing = tracing.install(tracer)
    try:
        code = dynqf.cli.main(sys.argv[1:])
    finally:
        tracing.uninstall(tracer)
        agg = tracing.aggregate(tracer)
        agg["missing"] = missing
        Path(os.environ["PERFBENCH_TRACE_OUT"]).write_text(json.dumps(agg))
        tracing.write_spans(tracer, HERE / "out" / "spans" / f"cli-batch-{tracer.job}.spans")
    return code


if __name__ == "__main__":
    sys.exit(main())
