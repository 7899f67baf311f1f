"""One set-up measurement in a fresh interpreter.

Usage: python3 perfbench/probe.py WORKLOAD SEED WORKDIR

Times the import of ``lrn_detect`` and ``lrn_detect.cli`` plus the
workload's warm-up op; the benchmark's own input generation in between is
not timed.  Prints one JSON object: ``setup_s`` and the warm-up failures.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import lrn_detect  # noqa: E402,F401
import lrn_detect.cli  # noqa: E402,F401

T_IMPORT = time.perf_counter() - T0

import workloads  # noqa: E402


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    ops = workloads.WORKLOADS[name][1](seed, workdir)
    failures = []
    t_ops = 0.0
    for op in ops:
        t = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # reported as a failure of this op
            t_ops += time.perf_counter() - t
            failures.append([op.op_id, type(exc).__name__, str(exc)])
            continue
        t_ops += time.perf_counter() - t
        try:
            op.check(out)
        except Exception as exc:
            failures.append([op.op_id, type(exc).__name__, str(exc)])
    print(json.dumps({"setup_s": T_IMPORT + t_ops, "attempted": len(ops),
                      "failures": failures, "lrn_detect": lrn_detect.__file__}))


if __name__ == "__main__":
    main()
