"""``python -m repro.replay`` — trace file tooling.

Subcommands:

* ``convert <trace> --to jsonl [-o OUT]`` — export a trace as JSONL, one
  record per line, for ``grep``/``jq`` and diffs.  Output defaults to
  the input path with ``.trace.bin`` swapped for ``.trace.jsonl``.  The
  export is one-way: nothing loads JSONL back;
* ``info <trace>`` — one-paragraph summary (seed, topology, events per
  type, container bytes per event, raw record-stream bytes by kind of
  record, checkpoints and their mean interval, fingerprint) for quick
  triage; exits 1 when the recomputed stream fingerprint differs from
  the footer's.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.replay.format import TraceFormatError, export_jsonl, record_bytes
from repro.replay.trace import Trace


def _load(source: Path):
    """Load ``source`` or print the one-line reason and return None."""
    try:
        return Trace.load(source)
    except (TraceFormatError, OSError) as exc:
        print(f"error: cannot load {source}: {exc}", file=sys.stderr)
        return None


def _cmd_convert(args: argparse.Namespace) -> int:
    """Execute ``convert``: load, export as JSONL."""
    source = Path(args.trace)
    trace = _load(source)
    if trace is None:
        return 1
    if args.output:
        out = Path(args.output)
    else:
        out = source.with_name(
            source.name.removesuffix(".trace.bin") + ".trace.jsonl")
    if out.resolve() == source.resolve():
        print(f"error: refusing to overwrite the input ({source}); "
              f"pass -o to pick an output path", file=sys.stderr)
        return 1
    export_jsonl(trace, out)
    print(f"{source} -> {out} (jsonl): "
          f"{len(trace.events)} events, fingerprint {trace.fingerprint()}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    """Execute ``info``: print a summary of one trace."""
    source = Path(args.trace)
    trace = _load(source)
    if trace is None:
        return 1
    fingerprint = trace.fingerprint()
    print(f"trace:        {source}")
    print(f"seed:         {trace.seed}  topology: {trace.topology}")
    print(f"nodes:        {', '.join(trace.header.get('names', []))}")
    events, size = len(trace.events), source.stat().st_size
    print(f"events:       {events}")
    for kind, seen in sorted(trace.events.tally().items()):
        print(f"  {kind:<18}{seen}")
    print(f"container:    {size} bytes  ({size / max(events, 1):.1f} per event)")
    stream = record_bytes(source)
    print(f"stream:       {sum(stream.values())} raw bytes")
    for kind, raw in stream.items():
        print(f"  {kind:<22}{raw}")
    print(f"checkpoints:  {len(trace.checkpoints)}  "
          f"(one per {events / len(trace.checkpoints):.1f} events)")
    print(f"final time:   {trace.final_time} us  "
          f"(drive: {trace.drive.get('mode', 'manual')})")
    print(f"fingerprint:  {fingerprint}")
    if fingerprint != trace.footer.get("fingerprint"):
        print(f"error: {source}: stream fingerprint {fingerprint} does not "
              f"match the footer's {trace.footer.get('fingerprint')}",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    """Entry point for ``python -m repro.replay``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.replay",
        description="Trace file tooling (summarize, export as JSONL).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser(
        "convert", help="export a trace as JSONL (one-way)")
    convert.add_argument("trace", help="path to a trace file")
    convert.add_argument(
        "--to", choices=["jsonl"], required=True,
        help="target encoding (JSONL is the only export)")
    convert.add_argument(
        "-o", "--output", default=None,
        help="output path (default: input with the extension swapped)")
    convert.set_defaults(func=_cmd_convert)

    info = sub.add_parser("info", help="summarize a trace file")
    info.add_argument("trace", help="path to a trace file")
    info.set_defaults(func=_cmd_info)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
