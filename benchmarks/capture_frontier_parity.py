"""Capture the scenario golden file, ``frontier_parity_reference.json``.

This file is one of the repo's two golden fingerprint files (the other is
``service_parity_reference.json``, written by ``capture_service_parity.py``).
Per registered scenario x placement {FirstFit, LeastSlowdown} at seed 0 it
stores the fingerprint of
:func:`repro.evaluation.contention.scenario_fingerprint`: the full summary
dict (every float verbatim), each tenant's order-sensitive hardware
decision stream, the accounting row count and a SHA-256 digest of the
rows' canonical JSON (every per-completion float, pinned without storing
megabytes of rows).  ``tests/test_cluster_frontier.py`` and the benchmark's
output check (``perfbench/``) require the current engine to reproduce it
bit for bit.

The rule for regenerating it: run this script only with the parent
commit's engine, only to add a surface (a new scenario or placement),
never to absorb drift.  A change that moves a fingerprint is a behaviour
change, not a reason to re-capture.

Run from the repository root::

    PYTHONPATH=src python benchmarks/capture_frontier_parity.py
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "frontier_parity_reference.json"

PLACEMENTS = ("first-fit", "least-slowdown")


def main() -> int:
    from repro.evaluation.contention import CONTENTION_SCENARIOS, scenario_fingerprint

    reference = {
        "seed": 0,
        "placements": list(PLACEMENTS),
        "scenarios": {
            name: {
                placement: scenario_fingerprint(name, placement)
                for placement in PLACEMENTS
            }
            for name in sorted(CONTENTION_SCENARIOS)
        },
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n")
    print(
        f"captured {len(reference['scenarios'])} scenarios x "
        f"{len(PLACEMENTS)} placements -> {REFERENCE_PATH}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
