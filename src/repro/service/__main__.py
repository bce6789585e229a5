"""Command-line front end: ``python -m repro.service <command>``.

The daemon plus a small client toolbox::

    python -m repro.service start                     # run a daemon (foreground)
    python -m repro.service open w1 --kind world --scenario counter
    python -m repro.service open t1 --kind trace --path run.trace.bin
    python -m repro.service open b1 --kind branch --path run.trace.bin \\
        --builder scenario:echo --checkpoint 1 \\
        --perturbation '{"kind": "crash", "actions": [...]}'
    python -m repro.service call w1 connect app
    python -m repro.service script w1 "break app app 4" "wait" "bt app 3"
    python -m repro.service repl w1                   # interactive REPL
    python -m repro.service sessions                  # who is attached where
    python -m repro.service stop

Every client command talks to the socket (``--socket``, or the
``REPRO_SERVICE_SOCKET`` environment variable, or the per-user default)
— sessions live in the daemon, so state survives between invocations:
``call w1 connect app`` in one shell and ``call w1 status`` in another
address the same world.  ``--client`` sets the holder identity; it
defaults to a stable per-user name so consecutive CLI invocations
reattach to their held sessions without force.
"""

from __future__ import annotations

import argparse
import getpass
import json
import sys
from typing import Optional

from repro.debugger.errors import DebuggerError
from repro.debugger.repl import PilgrimRepl, parse_value
from repro.service.client import ServiceClient
from repro.service.daemon import default_socket_path, serve


def _default_client_id() -> str:
    try:
        user = getpass.getuser()
    except (KeyError, OSError):
        user = "cli"
    return f"cli-{user}"


def _client(options) -> ServiceClient:
    return ServiceClient(options.socket, timeout=options.timeout,
                         client=options.client)


def _parse_call_args(tokens: list[str]) -> tuple[list, dict]:
    """``k=v`` tokens become kwargs, the rest positional literals."""
    args: list = []
    kwargs: dict = {}
    for token in tokens:
        if "=" in token and not token.startswith("="):
            key, _, value = token.partition("=")
            kwargs[key] = parse_value(value)
        else:
            args.append(parse_value(token))
    return args, kwargs


def _spec_from(options) -> dict:
    """Collect the session spec flags that were actually given."""
    spec = {}
    for key in ("scenario", "seed", "topology", "path", "root",
                "entry", "host", "port", "builder", "checkpoint",
                "perturbation", "run_until"):
        value = getattr(options, key, None)
        if value is not None:
            spec[key] = value
    return spec


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Pilgrim session daemon and client",
    )
    parser.add_argument("--socket", default=default_socket_path(),
                        help="daemon socket path")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="per-request host-time budget (seconds)")
    parser.add_argument("--client", default=_default_client_id(),
                        help="client identity for holder semantics")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("start", help="run a daemon on the socket (foreground)")
    sub.add_parser("stop", help="ask the daemon to exit")
    sub.add_parser("ping", help="liveness / protocol check")
    sub.add_parser("sessions", help="list sessions and their holders")
    sub.add_parser("methods", help="list wire methods (the session-op registry)")
    sub.add_parser("metrics", help="daemon metrics snapshot")

    open_cmd = sub.add_parser("open", help="register a named session")
    open_cmd.add_argument("name")
    open_cmd.add_argument("--kind", default="world",
                          choices=("world", "trace", "corpus", "live",
                                   "branch"))
    open_cmd.add_argument("--scenario", help="world: scenario name")
    open_cmd.add_argument("--seed", type=int, help="world: RNG seed")
    open_cmd.add_argument("--topology", help="world: ring|mesh")
    open_cmd.add_argument("--path", help="trace/branch: parent trace file")
    open_cmd.add_argument("--root", help="corpus: corpus directory")
    open_cmd.add_argument("--entry", help="corpus: entry label or key")
    open_cmd.add_argument("--host", help="live: agent host")
    open_cmd.add_argument("--port", type=int, help="live: agent port")
    open_cmd.add_argument("--builder",
                          help="trace/branch: scenario builder reference "
                               "('scenario:NAME' or 'module:function')")
    open_cmd.add_argument("--checkpoint", type=int,
                          help="branch: fork checkpoint index")
    open_cmd.add_argument("--perturbation",
                          help="branch: perturbation spec as JSON")
    open_cmd.add_argument("--run-until", type=int, dest="run_until",
                          help="branch: drive override (us of virtual time)")

    close_cmd = sub.add_parser("close", help="drop a named session")
    close_cmd.add_argument("name")

    call_cmd = sub.add_parser("call", help="invoke one wire method")
    call_cmd.add_argument("name", help="session name")
    call_cmd.add_argument("method")
    call_cmd.add_argument("arg", nargs="*",
                          help="positional literals and k=v kwargs")

    script_cmd = sub.add_parser("script",
                                help="run REPL commands against a session")
    script_cmd.add_argument("name")
    script_cmd.add_argument("commands", nargs="+",
                            help="REPL command lines, in order")

    repl_cmd = sub.add_parser("repl", help="interactive REPL on a session")
    repl_cmd.add_argument("name")

    options = parser.parse_args(argv)

    if options.command == "start":
        print(f"repro.service: listening on {options.socket}", flush=True)
        serve(options.socket)
        return 0

    try:
        with _client(options) as client:
            return _run_client_command(client, options)
    except DebuggerError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1


def _run_client_command(client: ServiceClient, options) -> int:
    if options.command == "stop":
        client.shutdown()
        print("daemon stopped")
    elif options.command == "ping":
        print(json.dumps(client.ping()))
    elif options.command in ("sessions", "methods", "metrics"):
        print(client.text(options.command))
    elif options.command == "open":
        info = client.request("open", kwargs={
            "name": options.name, "kind": options.kind,
            "spec": _spec_from(options),
        })
        print(f"session {info['name']} ({info['kind']}) {info['state']}")
    elif options.command == "close":
        client.close_session(options.name)
        print(f"closed {options.name}")
    elif options.command == "call":
        args, kwargs = _parse_call_args(options.arg)
        response = client.request(options.method, session=options.name,
                                  args=tuple(args), kwargs=kwargs, raw=True)
        print(response.get("text", ""))
    elif options.command == "script":
        repl = PilgrimRepl(client.session(options.name), output=print)
        repl.run_script(options.commands)
    elif options.command == "repl":
        repl = PilgrimRepl(client.session(options.name), output=print)
        print(f"pilgrim service repl on session {options.name!r} "
              f"('help' lists commands, 'quit' leaves)")
        while not repl.done:
            try:
                line = input("(pilgrim) ")
            except EOFError:
                break
            repl.execute(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
