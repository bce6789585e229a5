"""Smoke test of the ledger at reduced block counts.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger -q`` (not
part of tier-1: ``testpaths`` is ``tests``).  Block *sizes* are never
reduced — the exact metrics depend on them — only how many blocks and
probe rounds run.
"""

from __future__ import annotations

import gc
import json
import re

import pytest

from benchmarks.ledger import cli, harness

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
ONE_ROUND = {"rpc_record_check": 1, "world_churn": 2,
             "trace_postmortem": 1, "campaign_pooled": 1}
WORKLOADS = [w["name"] for w in cli.contract()["workloads"]]


def test_benchmark_json_schema():
    doc = cli.contract()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/ledger"]
    assert all(part.startswith("benchmarks/ledger") or "/" not in part
               for part in doc["command"])
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    names = []
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    assert 1 <= len(doc["per_layer"]) <= 128
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_ref_kernel_triggers_no_gc():
    harness.ref_kernel()
    gc.collect()
    before = gc.get_stats()
    seconds = harness.ref_kernel()
    assert gc.get_stats() == before
    assert seconds > 0


def test_failed_block_counts_all_its_ops():
    class Flaky(harness.Workload):
        def __init__(self, seed, tracer):
            super().__init__(seed, tracer)
            self.blocks = 0

        def block(self) -> int:
            self.blocks += 1
            return 10

        def verify(self) -> bool:
            return self.blocks != 2

    blocks = harness.run_blocks(Flaky(0, harness.Tracer()), harness.Meter(), 0)
    layers = harness.harness_metrics(blocks, 0.0)
    assert len(blocks) == 3
    assert layers["harness.ops_attempted"].value == 30
    assert layers["harness.ops_failed"].value == 10
    result = cli._result("flaky", 0, False, True, blocks, {}, layers, {})
    assert result["failed"] == 10 and not result["correct"]


def test_self_time_subtracts_child_spans():
    tracer = harness.Tracer(enabled=True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    totals = harness.self_times(tracer.spans)
    assert totals["outer"] == pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"]))


@pytest.fixture(scope="module")
def untraced():
    """Every workload at two seeds: one set-up, three blocks."""
    return {(name, seed): cli.run_untraced(name, seed, 0, setups=1)
            for name in WORKLOADS for seed in (1, 2)}


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of one seed (on different workloads: every traced
    run takes every probe group)."""
    return [cli.run_traced(name, 1, 0, rounds=ONE_ROUND)
            for name in (WORKLOADS[0], WORKLOADS[-1])]


def test_untraced_runs_emit_the_end_to_end_metrics(untraced):
    want = {m["name"]: m["unit"] for m in cli.contract()["end_to_end"]}
    for result in untraced.values():
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        line = json.loads(cli.contract_line(result))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == want
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_facts_repeat_for_a_seed_and_differ_for_another(untraced, traced):
    for name in WORKLOADS:
        assert untraced[name, 1]["facts"] != untraced[name, 2]["facts"], name
    for result in traced:
        assert result["facts"] == untraced[result["workload"], 1]["facts"]


def test_traced_runs_emit_every_per_layer_metric(traced):
    want = {m["name"]: m["unit"] for m in cli.contract()["per_layer"]}
    for result in traced:
        assert result["correct"]
        have = {k: m.unit for k, m in result["per_layer"].items()}
        assert have == want
        cli.check_names(result)
        assert result["per_layer"]["harness.ops_failed"].value == 0
        assert result["per_layer"]["fleet.worker_deaths"].value == 0


def test_exact_metrics_repeat(traced):
    first, second = ({k: m.value for k, m in r["per_layer"].items() if m.exact}
                     for r in traced)
    assert {"rpc.virtual_latency_us", "kernel.stored_entries",
            "replay.trace_bytes", "campaign.events_per_cell"} <= set(first)
    assert first == second


def test_spans_are_written_with_parents_and_blocks(traced):
    path = cli.OUT_DIR / f"spans-{WORKLOADS[0]}.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans and all(
        set(span) == {"id", "name", "start", "end", "parent", "block"}
        for span in spans)
    assert all(span["end"] >= span["start"] for span in spans)
    assert any(span["parent"] is not None for span in spans)
