#!/usr/bin/env python
"""Regenerate the committed golden trace and its JSONL export.

Run from the repo root when a change *intentionally* alters the event
stream (and say so in the commit message)::

    PYTHONPATH=src python tools/regen_goldens.py

Records the golden scenario once and writes the trace and its JSONL
export side by side under ``tests/golden/``, verifying that the trace
loads back to the same fingerprint before reporting it.  The fingerprint it
prints is what ``tests/test_golden_trace.py::GOLDEN_FINGERPRINT`` must
be updated to.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def _write_report_goldens() -> None:
    """Regenerate the committed contract-report goldens.

    Two pinned reports: the universal catalogue folded over the golden
    echo trace, and the KV scenario's own set over its split-brain run
    (see ``tests/test_contracts.py``).
    """
    import json

    from repro.campaign.scenarios import get_plan, get_scenario
    from repro.contracts import UNIVERSAL_SET, check_trace
    from repro.replay import Trace
    from repro.replay.replay import record_run
    from tests.test_contracts import ECHO_REPORT_GOLDEN, KV_REPORT_GOLDEN
    from tests.golden_scenario import GOLDEN_BINARY_PATH

    echo = check_trace(Trace.load(GOLDEN_BINARY_PATH), UNIVERSAL_SET)
    scenario = get_scenario("kv")
    trace = record_run(scenario.build, list(scenario.names), seed=0,
                       run_until=scenario.run_until,
                       plan=get_plan("leader_partition"))
    kv = check_trace(trace, scenario.contracts)
    for path, report in ((ECHO_REPORT_GOLDEN, echo), (KV_REPORT_GOLDEN, kv)):
        path.write_text(json.dumps(json.loads(report.canonical()),
                                   sort_keys=True, indent=2) + "\n")
        print(f"wrote {path} ({len(report.verdicts)} verdicts, "
              f"{len(report.violations)} violations)")


def main() -> int:
    """Record the golden scenario; write the trace and its JSONL export."""
    from repro.replay import Trace
    from repro.replay.format import export_jsonl
    from tests.golden_scenario import GOLDEN_BINARY_PATH, GOLDEN_PATH, record

    trace = record()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    trace.save(GOLDEN_BINARY_PATH)
    export_jsonl(trace, GOLDEN_PATH)
    fingerprint = trace.fingerprint()
    reread = Trace.load(GOLDEN_BINARY_PATH)
    if reread.fingerprint() != fingerprint:
        print(f"error: {GOLDEN_BINARY_PATH} re-reads with fingerprint "
              f"{reread.fingerprint()}, expected {fingerprint}",
              file=sys.stderr)
        return 1
    for path in (GOLDEN_BINARY_PATH, GOLDEN_PATH):
        print(f"wrote {path} ({len(reread.events)} events, "
              f"{path.stat().st_size} bytes)")
    _write_report_goldens()
    print(f"fingerprint {fingerprint}")
    print("update tests/test_golden_trace.py::GOLDEN_FINGERPRINT if it changed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
