"""Command-line front end: ``python -m repro.campaign <subcommand>``.

Four subcommands cover the campaign loop end to end:

* ``run`` — build a (scenario x seed x plan) grid, feed it to the
  fault-tolerant fleet, print the human summary, optionally write the
  canonical JSON report, per-failure golden traces, a resumable
  checkpoint journal (``--checkpoint`` / ``--resume``), and a
  persistent reproducer corpus (``--corpus``);
* ``repro`` — re-execute a golden trace emitted by the shrinker, verify
  byte-identity against the recording, and re-check the scenario's
  invariants (the one-liner the shrink summary hands you);
* ``corpus`` — ``list`` or ``replay`` a reproducer corpus: replay
  re-verifies every banked reproducer as a regression suite;
* ``scenarios`` — list the shipped scenario and fault-plan catalogues.
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.campaign.corpus import Corpus
from repro.campaign.fleet import DEFAULT_CELL_TIMEOUT, DEFAULT_RETRIES
from repro.campaign.runner import build_grid, run_campaign
from repro.campaign.scenarios import PLANS, SCENARIOS, get_plan, get_scenario


def _build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for the three subcommands."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="parallel chaos campaigns with failure minimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run a scenario x seed x plan grid and summarize it"
    )
    run.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="scenario to include (repeatable; default: echo)",
    )
    run.add_argument(
        "--seeds", default="0,1", metavar="N,N,...",
        help="comma-separated seeds (default: 0,1)",
    )
    run.add_argument(
        "--plans", default="calm,crash,partition,jitter", metavar="NAME,...",
        help="comma-separated fault-plan presets "
             "(default: calm,crash,partition,jitter)",
    )
    run.add_argument(
        "--topologies", default="ring", metavar="NAME,...",
        help="comma-separated transport fabrics to sweep "
             "(ring, mesh; default: ring)",
    )
    run.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="process-pool width; 1 runs inline (default: 1)",
    )
    run.add_argument(
        "--no-shrink", action="store_true",
        help="skip failure minimization",
    )
    run.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the canonical JSON report here",
    )
    run.add_argument(
        "--traces-dir", default=None, metavar="DIR",
        help="write one golden trace per shrunk failure here",
    )
    run.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="journal progress here (atomic, content-addressed) so an "
             "interrupted campaign can be resumed",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="reuse journaled results whose cell keys still match; "
             "requires --checkpoint",
    )
    run.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="bank every shrunken reproducer in this persistent corpus",
    )
    run.add_argument(
        "--from-corpus", default=None, metavar="DIR",
        help="append this corpus's reproducers to the grid as extra "
             "cells (seeded regression coverage)",
    )
    run.add_argument(
        "--timeout", type=float, default=DEFAULT_CELL_TIMEOUT, metavar="SEC",
        help=f"wall-clock budget per cell attempt "
             f"(default: {DEFAULT_CELL_TIMEOUT:g}s)",
    )
    run.add_argument(
        "--retries", type=int, default=DEFAULT_RETRIES, metavar="N",
        help=f"retry budget for worker deaths/timeouts "
             f"(default: {DEFAULT_RETRIES})",
    )

    corpus = sub.add_parser(
        "corpus", help="list or replay a persistent reproducer corpus"
    )
    corpus.add_argument(
        "action", choices=("list", "replay"),
        help="list the banked reproducers, or replay them all as a "
             "regression suite",
    )
    corpus.add_argument(
        "dir", nargs="?", default="corpus",
        help="corpus directory (default: ./corpus)",
    )

    repro = sub.add_parser(
        "repro", help="re-execute and verify a shrunk golden trace"
    )
    repro.add_argument("trace", help="path to a shrunk trace (.trace.bin)")

    sub.add_parser(
        "scenarios", help="list shipped scenarios and fault-plan presets"
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    """Execute the ``run`` subcommand; exit 1 if any cell failed."""
    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint")
        return 2
    scenarios = args.scenario or ["echo"]
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    plan_names = [p.strip() for p in args.plans.split(",") if p.strip()]
    topologies = [t.strip() for t in args.topologies.split(",") if t.strip()]
    plans = [(name, get_plan(name)) for name in plan_names]
    cells = build_grid(scenarios, seeds, plans, topologies=topologies)
    if args.from_corpus:
        seeded = Corpus.open(args.from_corpus).cells(start_index=len(cells))
        cells = cells + seeded
    report = run_campaign(
        cells,
        workers=args.workers,
        shrink=not args.no_shrink,
        out_dir=args.traces_dir,
        journal_path=args.checkpoint,
        resume=args.resume,
        corpus_dir=args.corpus,
        cell_timeout=args.timeout,
        retries=args.retries,
    )
    print(report.summary())
    if args.report:
        report.save(args.report)
        print(f"\nreport written to {args.report}")
    return 1 if (report.failed or report.errored) else 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    """Execute the ``corpus`` subcommand (list / replay-as-regression)."""
    corpus = Corpus.open(args.dir)
    if corpus.recovered:
        print(f"warning: corrupt corpus index in {args.dir}; "
              "treating the corpus as empty")
    if args.action == "list":
        print(f"corpus {args.dir}: {len(corpus)} reproducer"
              f"{'s' if len(corpus) != 1 else ''}")
        for entry in corpus.entries():
            actions = len(entry.minimal_plan.get("actions", []))
            print(f"  {entry.label():<28} {actions} action"
                  f"{'s' if actions != 1 else ''}, horizon {entry.horizon} us"
                  f" -> {entry.trace}")
        return 0
    outcomes = corpus.replay_all()
    failed = 0
    for entry, ok, detail in outcomes:
        status = "REPRODUCED" if ok else "FAILED"
        print(f"  {entry.label():<28} {status}: {detail}")
        failed += 0 if ok else 1
    print(f"corpus replay: {len(outcomes) - failed}/{len(outcomes)} "
          f"reproduced")
    if corpus.recovered:
        return 2
    return 1 if failed else 0


def _cmd_repro(args: argparse.Namespace) -> int:
    """Execute the ``repro`` subcommand against a golden trace."""
    from repro.replay.trace import Trace

    trace = Trace.load(args.trace)
    meta = trace.header.get("meta") or {}
    campaign = meta.get("campaign")
    if not campaign:
        print(f"{args.trace}: not a campaign golden trace "
              "(missing campaign metadata)")
        return 2
    verify, violations = get_scenario(campaign["scenario"]).reproduce(trace)
    recorded = meta.get("violations", [])
    print(f"trace:       {args.trace}")
    print(f"scenario:    {campaign['scenario']} seed={campaign['seed']} "
          f"plan={campaign['plan_name']} topology={trace.topology}")
    if meta.get("contract"):
        print(f"contract:    {meta['contract']} (shrink target)")
    print(f"replay:      {verify.events} events byte-identical, "
          f"{verify.checkpoints_verified} checkpoints verified, "
          f"final_time={verify.final_time}")
    print(f"fingerprint: {verify.fingerprint}")
    if violations:
        print("reproduced violations:")
        for violation in violations:
            print(f"  - {violation}")
    if violations == recorded:
        print("verdict:     REPRODUCED (violations match the recording)")
        return 0
    print("verdict:     DIVERGED from recorded violations:")
    for violation in recorded:
        print(f"  recorded: {violation}")
    return 1


def _cmd_scenarios(_args: argparse.Namespace) -> int:
    """Execute the ``scenarios`` subcommand (catalogue listing)."""
    print("scenarios:")
    for name in sorted(SCENARIOS):
        scenario = SCENARIOS[name]
        print(f"  {name:<12} {scenario.description}")
        print(f"  {'':<12} contracts[{scenario.contracts.name}]: "
              + ", ".join(scenario.contracts.names()))
    print("fault plans:")
    for name in sorted(PLANS):
        plan = get_plan(name)
        print(f"  {name:<12} {len(plan)} actions - {PLANS[name].summary}")
    return 0


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "repro": _cmd_repro,
        "corpus": _cmd_corpus,
        "scenarios": _cmd_scenarios,
    }[args.command]
    return handler(args)
