"""Metric primitives built as bus subscribers.

Each layer's counts are series in a per-World :class:`Metrics`
registry, incremented by subscribers installed at world creation
(:func:`install_default_metrics`) from one table, :data:`COUNTED`, which
also names the count a recording's checkpoints keep of each type: the
live series and a trace's counts are two folds of one definition.

Only *shipped* instrumentation subscribes by default — the analogue of
the paper's always-on §4.3 RPC debug support.  Debug-session events
(``BreakpointHit``, ``ProcessHalted/Resumed``, ``TimerFrozen/Thawed``)
get no default subscribers and ride the dormant fast path until a
debugger attaches.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from repro.obs import events as ev
from repro.obs.bus import Bus

Label = Union[int, str, None]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class LabeledCounter:
    """A counter with a per-label breakdown (labels are node ids here)."""

    __slots__ = ("name", "total", "_by_label")

    def __init__(self, name: str):
        self.name = name
        self.total = 0
        self._by_label: dict = {}

    def inc(self, label: Label, amount: int = 1) -> None:
        self.total += amount
        self._by_label[label] = self._by_label.get(label, 0) + amount

    def get(self, label: Label) -> int:
        return self._by_label.get(label, 0)

    def by_label(self) -> dict:
        return dict(self._by_label)

    @property
    def value(self) -> int:
        return self.total

    def __repr__(self) -> str:
        return f"<LabeledCounter {self.name} total={self.total}>"


class Gauge:
    """A value that can go up and down (e.g. in-flight calls)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def dec(self, amount: int = 1) -> None:
        self.value -= amount

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Streaming summary of an observed distribution (count/sum/min/max)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, value: int) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.0f}>"


Series = Union[Counter, LabeledCounter, Gauge, Histogram]


class Metrics:
    """Registry of named metric series for one world."""

    __slots__ = ("_series",)

    def __init__(self) -> None:
        self._series: dict[str, Series] = {}

    def _get(self, name: str, cls) -> Series:
        series = self._series.get(name)
        if series is None:
            series = cls(name)
            self._series[name] = series
        elif not isinstance(series, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(series).__name__}, not {cls.__name__}"
            )
        return series

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def labeled(self, name: str) -> LabeledCounter:
        return self._get(name, LabeledCounter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def series(self) -> dict[str, Series]:
        return dict(self._series)

    def snapshot(self) -> dict[str, object]:
        """Name -> plain value (ints for counters/gauges, dict for
        histograms), convenient for assertions and reports."""
        out: dict[str, object] = {}
        for name, series in sorted(self._series.items()):
            if isinstance(series, Histogram):
                out[name] = {
                    "count": series.count,
                    "mean": series.mean,
                    "min": series.min,
                    "max": series.max,
                }
            else:
                out[name] = series.value
        return out

    def __repr__(self) -> str:
        return f"<Metrics series={sorted(self._series)}>"


def merge_snapshots(snapshots) -> dict[str, object]:
    """Combine :meth:`Metrics.snapshot` dicts from several worlds.

    The campaign runner executes every grid cell in an isolated world;
    this folds their per-cell snapshots into one aggregate: counter and
    gauge values sum, histogram summaries merge exactly (count and total
    are additive; the mean is recomputed from the merged totals, not
    averaged-of-averages; min/max combine).  Input order does not affect
    the result, so the merge is reproducible regardless of which worker
    produced which snapshot.
    """
    merged: dict[str, object] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            if isinstance(value, dict):
                slot = merged.setdefault(
                    name, {"count": 0, "total": 0, "min": None, "max": None}
                )
                count = value.get("count", 0)
                # Snapshots carry the mean; recover the sum so merged
                # means are exact rather than means-of-means.
                total = value.get(
                    "total", int(round(value.get("mean", 0) * count))
                )
                slot["count"] += count
                slot["total"] += total
                for key, pick in (("min", min), ("max", max)):
                    incoming = value.get(key)
                    if incoming is None:
                        continue
                    slot[key] = (
                        incoming if slot[key] is None else pick(slot[key], incoming)
                    )
            else:
                merged[name] = merged.get(name, 0) + value
    for value in merged.values():
        if isinstance(value, dict):
            value["mean"] = value["total"] / value["count"] if value["count"] else 0.0
    return merged


class Counted(NamedTuple):
    """A counted event type, its series (``per_node`` or not) and view count key."""

    type: type
    series: str
    per_node: bool
    key: str


#: Every counted event type, once, in the order a trace file stores a
#: checkpoint's counts (positionally: reordering rows changes the format).
COUNTED = (
    Counted(ev.PacketSent, "ring.packets_sent", True, "packets_sent"),
    Counted(ev.PacketDelivered, "ring.packets_delivered", True, "packets_delivered"),
    Counted(ev.PacketDropped, "ring.packets_dropped", False, "packets_dropped"),
    Counted(ev.PacketNacked, "ring.packets_nacked", False, "packets_nacked"),
    Counted(ev.RpcCallStarted, "rpc.calls_started", True, "rpc_started"),
    Counted(ev.RpcCallCompleted, "rpc.calls_completed", True, "rpc_completed"),
    Counted(ev.RpcCallFailed, "rpc.calls_failed", True, "rpc_failed"),
    Counted(ev.RpcCallRetried, "rpc.retransmits", False, "rpc_retried"),
    Counted(ev.ProcessCreated, "proc.created", True, "proc_created"),
    Counted(ev.ProcessDeleted, "proc.deleted", True, "proc_deleted"),
    Counted(ev.ProcessFailed, "proc.failed", True, "proc_failed"),
    Counted(ev.FaultInjected, "faults.injected", False, "faults_injected"),
    Counted(ev.FaultHealed, "faults.healed", False, "faults_healed"),
    Counted(ev.NodeRebooted, "node.reboots", True, "node_reboots"),
    Counted(ev.RpcStaleRejected, "rpc.stale_rejected", False, "rpc_stale_rejected"),
)


def install_default_metrics(bus: Bus, metrics: Metrics) -> None:
    """Subscribe one counter per :data:`COUNTED` row to ``bus`` (the RPC
    call events' also feed the in-flight gauge and latency histogram).
    Called once per world."""
    series = {row.type: (metrics.labeled if row.per_node else metrics.counter)(row.series)
              for row in COUNTED}
    started, completed, failed = (series[kind].inc for kind in (
        ev.RpcCallStarted, ev.RpcCallCompleted, ev.RpcCallFailed))
    in_flight = metrics.gauge("rpc.calls_in_flight")
    latency = metrics.histogram("rpc.latency_us")

    def _on_started(e: ev.RpcCallStarted) -> None:
        started(e.node)
        in_flight.inc()

    def _on_completed(e: ev.RpcCallCompleted) -> None:
        completed(e.node)
        in_flight.dec()
        latency.observe(e.latency)

    def _on_failed(e: ev.RpcCallFailed) -> None:
        failed(e.node)
        in_flight.dec()

    calls = {ev.RpcCallStarted: _on_started, ev.RpcCallCompleted: _on_completed,
             ev.RpcCallFailed: _on_failed}
    for row in COUNTED:
        inc = series[row.type].inc
        bus.subscribe(row.type, calls.get(row.type) or (
            (lambda e, inc=inc: inc(e.node)) if row.per_node else (lambda e, inc=inc: inc())))
    # Deliberately NOT subscribed: BreakpointHit, ProcessHalted/Resumed,
    # TimerFrozen/Thawed — dormant until a debugger attaches.


#: Coordinator-side campaign-fleet counters (see
#: :mod:`repro.campaign.fleet`).  These describe how a particular run
#: was *executed* — retries, wall-clock timeouts, worker deaths, work
#: steals, pipe messages in both directions, microseconds workers sat
#: waiting for one — and are therefore reported next to ``workers`` and
#: ``wall_seconds``, never inside the canonical (schedule-independent)
#: campaign report.
FLEET_COUNTERS = (
    "fleet.cells_executed",
    "fleet.cells_resumed",
    "fleet.retries",
    "fleet.timeouts",
    "fleet.worker_deaths",
    "fleet.steals",
    "fleet.quarantined",
    "fleet.messages",
    "fleet.worker_wait_us",
)


def fleet_metrics() -> Metrics:
    """A registry with every :data:`FLEET_COUNTERS` series pre-created.

    Pre-registration means a fleet snapshot always carries the full
    counter set (zeros included), so summaries and tests can read any
    counter without guarding for its absence.
    """
    metrics = Metrics()
    for name in FLEET_COUNTERS:
        metrics.counter(name)
    return metrics
