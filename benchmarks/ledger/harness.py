"""Measurement core of the ledger: reference kernel, host-speed
normalisation, the block loop, the span tracer and summary statistics.

Nothing here imports ``repro``: the reference kernel must not change
when the program under test does.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

#: The only directory a run writes to (spans, results, scratch traces).
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Iterations of one reference-kernel call (~13 ms on the pinned host).
REF_ITERS = 80_000

#: Reference-kernel iterations per second on a quiet run of the host the
#: first ledger was taken on (2 cores, CPython 3.11.7).  It only fixes
#: the scale of ``host_speed_index``; changing it, ``ref_kernel`` or any
#: block size is a benchmark change, never part of a perf PR.
REF_ITERS_PER_S = 6.1e6

#: A reference sample older than this is taken again before a region.
_STALE_S = 0.05


class _RefCell:
    """The object whose method the reference kernel calls."""

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def bump(self, k: int) -> int:
        self.n = (self.n + k) & 1023
        return self.n


# The kernel's whole working set, built once: the bound method is
# created here so that a call allocates nothing the collector tracks.
_REF_BUMP = _RefCell().bump
_REF_TABLE = {i: i for i in range(64)}
_REF_RING = list(range(16))


def ref_kernel() -> float:
    """Run the fixed reference loop; return its ``perf_counter`` seconds.

    One method call, one dict get/set and one list index per iteration,
    over ints and a 64-entry dict: the instruction mix of the simulator's
    hot paths without any of its code.  It allocates no GC-tracked
    object, so no collection can fire inside it.
    """
    bump, table, ring = _REF_BUMP, _REF_TABLE, _REF_RING
    start = time.perf_counter()
    for i in range(REF_ITERS):
        k = bump(i)
        table[k & 63] = (table.get(k & 63, 0) + ring[k & 15]) & 0xFFFF
    return time.perf_counter() - start


@dataclass(frozen=True)
class Timed:
    """One timed region: raw seconds and the host-speed index around it."""

    raw_s: float
    index: float

    @property
    def norm_s(self) -> float:
        """Seconds the region would have taken on the pinned host."""
        return self.raw_s * self.index


class Meter:
    """Times regions, each bracketed by two reference-kernel samples.

    ``host_speed_index`` is the mean of the two bracketing reference
    rates over ``REF_ITERS_PER_S``: below 1 when the host is slow, so a
    region's normalised seconds are its raw seconds times the index.
    The sample taken after one region serves as the one before the next
    unless more than ``_STALE_S`` passed in between.
    """

    def __init__(self) -> None:
        self._rate = 0.0
        self._at = float("-inf")

    def _sample(self) -> float:
        self._rate = REF_ITERS / ref_kernel()
        self._at = time.perf_counter()
        return self._rate

    def time(self, fn: Callable, *args):
        """Run ``fn(*args)``; return ``(result, Timed)``."""
        fresh = time.perf_counter() - self._at < _STALE_S
        before = self._rate if fresh else self._sample()
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start
        after = self._sample()
        return result, Timed(raw, (before + after) / 2 / REF_ITERS_PER_S)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class _NoSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        stack = tracer._stack
        self.record = {"id": len(tracer.spans), "name": name,
                       "start": 0.0, "end": 0.0,
                       "parent": stack[-1] if stack else None,
                       "block": tracer.block}

    def __enter__(self) -> None:
        tracer, record = self.tracer, self.record
        tracer.spans.append(record)
        tracer._stack.append(record["id"])
        record["start"] = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    """In-memory spans around the calls the ledger makes into each layer.

    ``span(name)`` costs one attribute test while ``enabled`` is false,
    so the workloads carry their span sites in untraced runs too.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        #: Label stamped on new spans (which block or probe they belong to).
        self.block: Optional[str] = None

    def span(self, name: str):
        """Context manager recording one span (a no-op when disabled)."""
        return _Span(self, name) if self.enabled else _NO_SPAN


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name, total seconds not covered by child spans."""
    children = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"] - children[span["id"]]
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


# ----------------------------------------------------------------------
# Metrics and statistics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Metric:
    """One reported number: value, unit, and where a sample backs it,
    its quartiles and sample count.  ``exact`` marks counts and
    virtual-time results that must repeat bit for bit."""

    value: float
    unit: str
    q1: Optional[float] = None
    q3: Optional[float] = None
    n: int = 1
    exact: bool = False

    def to_dict(self) -> dict:
        """JSON form (quartiles only where there is a sample)."""
        out = {"value": self.value, "unit": self.unit, "n": self.n,
               "exact": self.exact}
        if self.q1 is not None:
            out["q1"], out["q3"] = self.q1, self.q3
        return out


def exact(value: float, unit: str) -> Metric:
    """A metric that must be identical across runs of one seed."""
    return Metric(value, unit, exact=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a lone value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def sampled(values: list[float], unit: str, scale: float = 1.0) -> Metric:
    """Median of ``values`` (times ``scale``) with quartiles and count."""
    q1, q2, q3 = quartiles([v * scale for v in values])
    return Metric(q2, unit, q1, q3, len(values))


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def peak_rss_mb() -> float:
    """High-water resident set of this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------------
# Workloads and the block loop
# ----------------------------------------------------------------------

class Workload:
    """One closed-loop, single-client workload of fixed-size blocks.

    A subclass builds its inputs from ``seed`` in :meth:`prepare`, runs
    one block in :meth:`block` (returning the operations it attempted)
    and checks that block's output in :meth:`verify`, which runs outside
    the timed region.  ``facts`` collects what must be identical for one
    seed and differ for another (fingerprints, digests).
    """

    name = ""
    #: Blocks run (and verified) during set-up, shaped like measured ones.
    warmup_blocks = 2

    def __init__(self, seed: int, tracer: Tracer):
        self.seed = seed
        self.tracer = tracer
        self.facts: dict[str, object] = {}

    def prepare(self) -> None:
        """Build the inputs every block consumes."""

    def block(self) -> int:
        """Run one block; return the operations attempted."""
        raise NotImplementedError

    def verify(self) -> bool:
        """Check the last block's output."""
        raise NotImplementedError

    def close(self) -> None:
        """Release files, worlds and processes."""


@dataclass(frozen=True)
class Block:
    """One measured block."""

    ops: int
    timed: Timed
    ok: bool
    traced: bool = False

    @property
    def rate_norm(self) -> float:
        return self.ops / self.timed.norm_s


def set_up(cls, seed: int, meter: Meter, tracer: Tracer):
    """One full set-up: build inputs, then the warm-up blocks.

    Returns ``(workload, phases, ok)`` — the :class:`Timed` of every
    set-up phase, and whether every warm-up block verified.
    """
    workload = cls(seed, tracer)
    tracer.block = "setup"
    with tracer.span("setup.prepare"):
        _, timed = meter.time(workload.prepare)
    phases = [timed]
    ok = True
    for _ in range(cls.warmup_blocks):
        gc.collect()
        with tracer.span("setup.warmup_block"):
            _, timed = meter.time(workload.block)
        phases.append(timed)
        ok = workload.verify() and ok
    return workload, phases, ok


def run_blocks(workload: Workload, meter: Meter, seconds: float) -> list[Block]:
    """Measure blocks until ``seconds`` have passed (at least three).

    ``gc.collect()`` runs before each block outside the timed region;
    the collector stays enabled inside.  In a traced run every other
    block runs with the tracer off, so one run yields the traced and the
    untraced rate under the same host conditions.
    """
    tracer = workload.tracer
    tracing = tracer.enabled
    blocks: list[Block] = []
    deadline = time.perf_counter() + seconds
    while len(blocks) < 3 or time.perf_counter() < deadline:
        tracer.enabled = tracing and len(blocks) % 2 == 0
        tracer.block = f"block-{len(blocks)}"
        gc.collect()
        with tracer.span("block"):
            ops, timed = meter.time(workload.block)
        with tracer.span("verify"):
            ok = workload.verify()
        blocks.append(Block(ops, timed, ok, tracer.enabled))
    tracer.enabled = tracing
    return blocks


def interleave(rungs: dict[str, Callable[[], object]], rounds: int,
               tracer: Tracer) -> dict[str, list]:
    """Run every rung once per round, rotating the order each round.

    Differential rungs measured back to back see the same host
    conditions; rotating removes any fixed-position effect.
    """
    names = list(rungs)
    results: dict[str, list] = {name: [] for name in names}
    for round_ in range(rounds):
        shift = round_ % len(names)
        for name in names[shift:] + names[:shift]:
            tracer.block = f"probe-{round_}"
            gc.collect()
            with tracer.span(f"rung.{name}"):
                results[name].append(rungs[name]())
    return results


def deltas(upper: list[float], lower: list[float]) -> list[float]:
    """Per-round differences between two interleaved rungs."""
    return [a - b for a, b in zip(upper, lower)]


def harness_metrics(blocks: list[Block], setup_raw_s: float) -> dict[str, Metric]:
    """The ``harness.*`` per-layer metrics of one run's blocks.

    Rates and block times come from the traced blocks of a traced run
    (all blocks of an untraced one); ``trace_overhead_pct`` compares
    them with the alternate, untraced blocks of the same run and is 0
    where there are none.
    """
    untraced = [b for b in blocks if not b.traced]
    main = [b for b in blocks if b.traced] or untraced
    rates = [b.rate_norm for b in main]
    q1, q2, q3 = quartiles(rates)
    block_ms = [b.timed.norm_s * 1e3 for b in main]
    overhead, compared = 0.0, 0
    if main is not untraced and untraced:
        compared = len(untraced)
        overhead = 100.0 * (
            statistics.median(b.rate_norm for b in untraced) / q2 - 1.0)
    attempted = sum(b.ops for b in blocks)
    failed = sum(b.ops for b in blocks if not b.ok)
    return {
        "harness.host_speed_index": sampled(
            [b.timed.index for b in blocks], "ratio"),
        "harness.ops_per_s_raw": sampled(
            [b.ops / b.timed.raw_s for b in main], "1/s"),
        "harness.setup_s_raw": Metric(setup_raw_s, "s"),
        "harness.block_p90_ms_norm": Metric(
            percentile(block_ms, 0.9), "ms", n=len(block_ms)),
        "harness.block_iqr_pct": Metric(100.0 * (q3 - q1) / q2, "%",
                                        n=len(rates)),
        "harness.blocks": Metric(len(blocks), "count"),
        "harness.ops_attempted": Metric(attempted, "count"),
        "harness.ops_failed": Metric(failed, "count"),
        "harness.trace_overhead_pct": Metric(overhead, "%", n=compared),
    }
