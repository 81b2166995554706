"""Record the serial inline reference that every benchmark run is checked against.

    PYTHONPATH=src python3 refbench/make_reference.py

Runs each batch workload's grid at seed 0 with ``workers=0`` and stores
the sha256 of its normalised rows, and runs every service cell once to
store its row.  Rerun it only when the program's rows are meant to change.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import check  # noqa: E402
from harness.workloads import WORKLOADS, BatchWorkload  # noqa: E402


def main() -> None:
    from repro import api

    reference = {"batch": {}, "service": {}}
    for name, workload in WORKLOADS.items():
        if isinstance(workload, BatchWorkload):
            report = api.sweep(workload.grid(0), workers=0)
            rows = check.normalise(report.rows, workload.seeds(0))
            reference["batch"][name] = check.checksum(rows)
        else:
            algorithms = sorted({a for a, _ in workload.deck()})
            deltas = sorted({d for _, d in workload.deck()})
            report = api.sweep({"algorithms": algorithms, "deltas": deltas, "seeds": [0]}, workers=0)
            for row in report.rows:
                reference["service"][f"{row['algorithm']}/d{row['delta']}"] = dict(row)
    with open(check.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
