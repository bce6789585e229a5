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

``--check`` (run after tier-1 on every CI hash-seed leg) regenerates
into a scratch directory instead and exits 1 if any committed file
differs: the committed container is always what the current writer
writes.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def _write_report_goldens(out_dir: Path) -> None:
    """Regenerate the contract-report goldens into ``out_dir``.

    Two pinned reports: the universal catalogue folded over the golden
    echo trace (the one just written to ``out_dir``), and the KV
    scenario's own set over its split-brain run (see
    ``tests/test_contracts.py``).
    """
    import json

    from repro.campaign.scenarios import get_plan, get_scenario
    from repro.contracts import UNIVERSAL_SET, check_trace
    from repro.replay import Trace
    from repro.replay.replay import record_run
    from tests.test_contracts import ECHO_REPORT_GOLDEN, KV_REPORT_GOLDEN
    from tests.golden_scenario import GOLDEN_BINARY_PATH

    echo = check_trace(Trace.load(out_dir / GOLDEN_BINARY_PATH.name),
                       UNIVERSAL_SET)
    scenario = get_scenario("kv")
    trace = record_run(scenario.build, list(scenario.names), seed=0,
                       run_until=scenario.run_until,
                       plan=get_plan("leader_partition"))
    kv = check_trace(trace, scenario.contracts)
    for golden, report in ((ECHO_REPORT_GOLDEN, echo), (KV_REPORT_GOLDEN, kv)):
        path = out_dir / golden.name
        path.write_text(json.dumps(json.loads(report.canonical()),
                                   sort_keys=True, indent=2) + "\n")
        print(f"wrote {path} ({len(report.verdicts)} verdicts, "
              f"{len(report.violations)} violations)")


def regenerate(out_dir: Path) -> None:
    """Record the golden scenario; write the trace, its JSONL export
    and the report goldens into ``out_dir``."""
    from repro.replay import Trace
    from repro.replay.format import export_jsonl
    from tests.golden_scenario import GOLDEN_BINARY_PATH, GOLDEN_PATH, record

    trace = record()
    out_dir.mkdir(parents=True, exist_ok=True)
    binary, jsonl = (out_dir / GOLDEN_BINARY_PATH.name,
                     out_dir / GOLDEN_PATH.name)
    trace.save(binary)
    export_jsonl(trace, jsonl)
    fingerprint = trace.fingerprint()
    reread = Trace.load(binary)
    if reread.fingerprint() != fingerprint:
        raise SystemExit(f"error: {binary} re-reads with fingerprint "
                         f"{reread.fingerprint()}, expected {fingerprint}")
    for path in (binary, jsonl):
        print(f"wrote {path} ({len(reread.events)} events, "
              f"{path.stat().st_size} bytes)")
    _write_report_goldens(out_dir)
    print(f"fingerprint {fingerprint}")


def main(argv=None) -> int:
    """Regenerate ``tests/golden/`` in place, or with ``--check`` into a
    scratch directory and compare byte for byte with what is committed."""
    import argparse
    import filecmp
    import tempfile

    from tests.golden_scenario import GOLDEN_PATH

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="write nothing under tests/golden/; exit 1 if the committed "
             "files are not what this tree generates")
    args = parser.parse_args(argv)
    golden_dir = GOLDEN_PATH.parent
    if not args.check:
        regenerate(golden_dir)
        print("update tests/test_golden_trace.py::GOLDEN_FINGERPRINT "
              "if it changed")
        return 0
    with tempfile.TemporaryDirectory() as scratch:
        regenerate(Path(scratch))
        drifted = [path.name for path in sorted(Path(scratch).iterdir())
                   if not (golden_dir / path.name).is_file()
                   or not filecmp.cmp(path, golden_dir / path.name,
                                      shallow=False)]
    for name in drifted:
        print(f"error: tests/golden/{name} differs from what this tree "
              "generates (rerun tools/regen_goldens.py)", file=sys.stderr)
    return 1 if drifted else 0


if __name__ == "__main__":
    raise SystemExit(main())
