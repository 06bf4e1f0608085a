"""Regenerate golden.json: the pinned output digests of every workload.

Usage (from the repository root): PYTHONPATH=src python3 perfbench/make_golden.py

Pins the verify report at the default seed, the trace of every z of
lift_det_n3 and the (value, witness) of every gadget in the gadget_disc_b4
pool.  Takes about a minute.  Run it only when an output is meant to
change, and say so.
"""

import json
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> None:
    golden = {}
    for work in WORKLOADS.values():
        golden[work.name] = {work.key(unit): work.pin(work.run(work.setup(unit)))
                             for unit in work.golden_units()}
        print(work.name, len(golden[work.name]), "pinned")
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
