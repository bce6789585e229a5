"""The instrumentation bus (observability layer).

One typed event/metrics layer under the ring, RPC runtime, supervisor,
agent, and debugger.  The design mirrors the paper's central trade-off —
*what instrumentation costs when nobody is watching* (the dormant agent,
the +400 µs/RPC info blocks, the rejected packet monitor):

* :mod:`repro.obs.events` — immutable tuple event types, a common
  header (virtual time, node, bus sequence number) first;
* :mod:`repro.obs.bus` — a per-:class:`~repro.sim.world.World` pub/sub bus
  whose dormant fast path (no subscribers for an event type) is a single
  dict lookup plus a truthiness check, and allocates no event object;
* :mod:`repro.obs.metrics` — counters/gauges/histograms built as bus
  subscribers, the counted event types named once in ``COUNTED``
  (which a recording's checkpoint counts read too);
* :mod:`repro.obs.report` — the per-run summary table the benchmarks
  print instead of reaching into private attributes.

Debug-only event types (``BreakpointHit``, ``ProcessHalted/Resumed``,
``TimerFrozen/Thawed``) ship with **zero** subscribers; they stay on the
dormant path until a debugger attaches — exactly the dormant-agent story.
"""

from repro.obs import events
from repro.obs.bus import Bus
from repro.obs.metrics import (
    FLEET_COUNTERS,
    Metrics,
    fleet_metrics,
    install_default_metrics,
    merge_snapshots,
)
from repro.obs.report import render_report, summary_rows

__all__ = [
    "events",
    "Bus",
    "FLEET_COUNTERS",
    "Metrics",
    "fleet_metrics",
    "install_default_metrics",
    "merge_snapshots",
    "render_report",
    "summary_rows",
]
