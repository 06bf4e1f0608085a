"""Self-test of the tracer against counts known at the default inputs.

Usage (from the repository root): PYTHONPATH=src python3 perfbench/selftest.py

Checks that the wrappers reach every liftsim namespace (no module or class
still holds an original function), that a traced lift gives the pinned
output digest, and that the traced call counts equal the counts below.  The
counts describe the algorithms as they are when the benchmark was defined: a
change that alters one (for example fewer dangerous-value scans) updates it
here and says so.  Runs in about two seconds.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer, install
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

# (workload, unit) -> pinned call counts under tracing.
KNOWN_CALLS = {
    ("lift_det_n3", '{"z": 0}'): {"simulate.lift_deterministic": 1,
                                  "structure.is_dangerous": 64,
                                  "dtrees.brute_force_Ddt": 1,
                                  "protocols.canonical_protocol": 1},
    ("gadget_disc_b4", '{"s": 0}'): {"gadgets.discrepancy": 1,
                                     "dist.DistributionTable.init": 0},
}


def main() -> int:
    tracer = Tracer()
    problems = list(install(tracer))
    golden = json.loads((HERE / "golden.json").read_text())
    for (name, unit_text), expected in KNOWN_CALLS.items():
        work, unit = WORKLOADS[name], json.loads(unit_text)
        for stat in tracer.stats.values():
            stat[:] = [0, 0.0, 0.0, 0, 0]
        result = work.run(work.setup(unit))
        _, found, _ = work.check(result, unit, golden[name])
        problems.extend(f"{name} {unit_text}: {p}" for p in found)
        for func, count in expected.items():
            if tracer.stats[func][0] != count:
                problems.append(f"{name} {unit_text}: {func} made {tracer.stats[func][0]} "
                                f"calls, expected {count}")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
