"""Replay the committed golden trace: a cross-commit determinism guard.

The trace file was recorded once (see ``tests/golden_scenario.py``) and
is committed; replaying it here catches any change that perturbs the
simulation's event stream — scheduler ordering, RNG consumption, packet
timing, normalization format — as a first-divergent-event report rather
than a silent break.  If a change alters the stream *on purpose*,
regenerate with ``python -m tests.golden_scenario`` and say so in the
commit.
"""

from repro import Trace, replay_trace
from repro.replay.cli import main as replay_cli
from tests.golden_scenario import (
    GOLDEN_BINARY_PATH,
    GOLDEN_PATH,
    GOLDEN_SEED,
    build,
)

GOLDEN_FINGERPRINT = (
    "47ca287c48c83655b4c20871b4aac199e4bc5e67fd3c38be28e6baff1304ecee"
)


def test_golden_trace_replays_byte_identically():
    trace = Trace.load(GOLDEN_BINARY_PATH)
    assert trace.seed == GOLDEN_SEED
    assert trace.fingerprint() == GOLDEN_FINGERPRINT
    assert trace.footer["fingerprint"] == GOLDEN_FINGERPRINT
    report = replay_trace(trace, build)
    assert report.identical
    assert report.fingerprint == GOLDEN_FINGERPRINT
    assert report.checkpoints_verified == len(trace.checkpoints)


def test_golden_jsonl_is_the_export_of_the_golden_trace(tmp_path):
    """The committed JSONL is the byte-exact ``convert --to jsonl`` of
    the committed trace (both dump JSON in canonical sorted-keys form),
    and re-saving the loaded trace reproduces the committed container."""
    out_jsonl = tmp_path / "golden.trace.jsonl"
    assert replay_cli(["convert", str(GOLDEN_BINARY_PATH), "--to", "jsonl",
                       "-o", str(out_jsonl)]) == 0
    assert out_jsonl.read_bytes() == GOLDEN_PATH.read_bytes()
    out_binary = tmp_path / "golden.trace.bin"
    Trace.load(GOLDEN_BINARY_PATH).save(out_binary)
    assert out_binary.read_bytes() == GOLDEN_BINARY_PATH.read_bytes()
