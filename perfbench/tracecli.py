"""Run the ``rspho`` console script with spans recorded around the calls
into each module, then print the span summary to standard error.

    python3 perfbench/tracecli.py <rspho arguments>

Used by the traced passes of the cli_cold workload; standard output and the
exit code are the command's own.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
import workloads  # noqa: E402

tracer = spans.Tracer()
tracer.install()
code_text = workloads.entry_point_code()
sys.argv = ["rspho"] + sys.argv[1:]
try:
    tracer.run_op("cli", exec, code_text, {"__name__": "rspho_entry"})
    code = 0
except SystemExit as exc:
    code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
sys.stdout.flush()
summary = tracer.summary()
summary["span_records"] = tracer.spans
sys.stderr.write("perfbench-trace " + json.dumps(summary) + "\n")
sys.exit(code)
