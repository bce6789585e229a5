"""Reproduction of "Pilgrim: A Debugger for Distributed Systems"
(Robert Cooper, ICDCS 1987).

Quick start::

    from repro import Cluster, Pilgrim, MS

    cluster = Cluster(names=["app", "server", "debugger"])
    image = cluster.load_program(SOURCE, "app")
    cluster.spawn_vm("app", image, "main")

    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("app", "server")
    bp = dbg.set_breakpoint("app", "main", line=4)
    hit = dbg.wait_for_breakpoint()
    print(dbg.backtrace("app", hit["pid"]))
    dbg.resume("app")
    dbg.disconnect()

Layers (bottom up): :mod:`repro.sim` (event kernel), :mod:`repro.mayflower`
(supervisor), :mod:`repro.net` (network), :mod:`repro.cvm` +
:mod:`repro.cclu` (language and VM), :mod:`repro.rpc`, :mod:`repro.agent`,
:mod:`repro.debugger`, :mod:`repro.servers` (debug-aware shared services),
:mod:`repro.replay` (deterministic record/replay and time travel),
:mod:`repro.campaign` (parallel chaos campaigns with failure
minimization).  The full tour lives in ``docs/architecture.md``.
"""

from repro.campaign import CampaignReport, run_grid
from repro.cluster import Cluster
from repro.debugger.api import (
    Breakpoint,
    DebuggerSession,
    Frame,
    ProcessInfo,
    SessionStatus,
)
from repro.debugger.errors import (
    AgentError,
    DebuggerError,
    SessionHeldError,
    SessionTakenError,
    UnreachableNodeError,
)
from repro.debugger.pilgrim import Pilgrim
from repro.faults import FaultPlan, Nemesis
from repro.params import DEFAULT_PARAMS, Params
from repro.replay import Trace, record_run, replay_trace
from repro.sim.units import MS, SEC, US

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "Pilgrim",
    "DebuggerSession",
    "ProcessInfo",
    "Breakpoint",
    "Frame",
    "SessionStatus",
    "SessionHeldError",
    "SessionTakenError",
    "Trace",
    "record_run",
    "replay_trace",
    "AgentError",
    "DebuggerError",
    "UnreachableNodeError",
    "FaultPlan",
    "Nemesis",
    "CampaignReport",
    "run_grid",
    "Params",
    "DEFAULT_PARAMS",
    "US",
    "MS",
    "SEC",
    "__version__",
]
