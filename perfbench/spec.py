"""What the benchmark measures, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the only declaration of the
workloads and metrics; this module exposes it as dictionaries, beside the
paper's published figures the fidelity metrics compare against.
"""

from __future__ import annotations

import json
import os

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(_ROOT, "BENCHMARK.json")) as _handle:
    DOCUMENT = json.load(_handle)

#: Seconds one run measures: reports follow one another until the next
#: would end more than half a report past this.
RUN_SECONDS = DOCUMENT["run_seconds"]

#: Workload name -> why it was chosen.
WORKLOADS = {w["name"]: w["why"] for w in DOCUMENT["workloads"]}

#: End-to-end metrics: name -> (unit, better, bound).  Every one is
#: measured with tracing off.
END_TO_END = {
    m["name"]: (m["unit"], m["better"], m["bound"])
    for m in DOCUMENT["end_to_end"]
}

#: Per-layer metrics from the traced run: name -> (unit, better).
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in DOCUMENT["per_layer"]}

#: The eight Fig. 6 gem5/HW ratios the paper quotes (PMU event -> ratio).
PAPER_FIG6_RATIOS = {
    0x08: 1.0,
    0x02: 0.06,
    0x05: 1.7,
    0x12: 1.1,
    0x10: 21.0,
    0x14: 2.0,
    0x43: 9.9,
    0x15: 19.0,
}

#: The paper's A15 execution-time MPE at 1 GHz, in percent.
PAPER_A15_MPE_PCT = -51.0
