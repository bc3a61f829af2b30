"""Run one freqcrowd command in this fresh process, as the console script does.

Usage: python cli_child.py REPORT.json TRACE ARG [ARG ...]

Calls ``freqcrowd.cli.main(ARGS)`` and exits with its code.  REPORT.json
receives the exit code, the seconds spent importing ``freqcrowd.cli``, this
process's peak RSS in KiB and, when TRACE is 1, the spans of the run.
"""
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
start = time.perf_counter()
from freqcrowd import cli  # noqa: E402

import_s = time.perf_counter() - start

report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
tracer = None
code = 1
try:
    if trace:
        sys.path.insert(0, str(ROOT))
        from perfbench.tracer import Tracer
        tracer = Tracer()
        with tracer.active():
            code = cli.main(argv)
    else:
        code = cli.main(argv)
except SystemExit as exc:  # argparse rejects bad usage this way
    code = exc.code if isinstance(exc.code, int) else 2
finally:
    with open(report_path, "w") as fh:
        json.dump({"code": code, "import_s": import_s,
                   "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   "spans": tracer.spans if tracer else []}, fh)
sys.exit(code)
