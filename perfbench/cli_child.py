"""Run the owcrelay CLI in this process, with the host-speed kernel timed on
the same core just before it starts and just after it ends (twice each, as
one pass is short next to the host's changes of speed).

    python3 perfbench/cli_child.py REPORT.json simulate --seed 1 ...

is ``python3 -m owcrelay simulate --seed 1 ...`` plus the kernel runs,
whose times go to REPORT.json together with the wall time they took, so the
caller can subtract it.
"""

import atexit
import json
import runpy
import sys
import time

import numpy  # noqa: F401  (the CLI imports it too; imported first so it is not charged to the kernel)

import hostspeed

_report_path = sys.argv[1]
_start = time.perf_counter()
_before = (hostspeed.kernel_seconds() + hostspeed.kernel_seconds()) / 2.0
_own = time.perf_counter() - _start


def _report():
    start = time.perf_counter()
    after = (hostspeed.kernel_seconds() + hostspeed.kernel_seconds()) / 2.0
    own = _own + time.perf_counter() - start
    with open(_report_path, "w", encoding="utf-8") as fh:
        json.dump({"before": _before, "after": after, "own": own}, fh)


atexit.register(_report)
sys.argv = ["owcrelay", *sys.argv[2:]]
runpy.run_module("owcrelay", run_name="__main__", alter_sys=True)
