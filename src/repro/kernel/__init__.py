"""The pure event-kernel core: the hot path of the whole reproduction.

Everything above this package — supervisor slices, transports, RPC,
agents, the debugger, record/replay — is expressed as events pushed
through the one engine here.  The package holds no simulation policy:
no clock, no RNG, no bus.  That lives in :class:`repro.sim.world.World`,
which is a thin facade over an :class:`EventCore`.

* :mod:`repro.kernel.core` — :class:`EventCore`, one class: a timing
  wheel (dict buckets ahead of the cursor, a sorted cursor heap, an
  overflow heap beyond the horizon) whose cancel removes the entry,
  plus the per-node/global window indexes and their memo;
* :mod:`repro.kernel.profile` — the ``REPRO_PROFILE=1`` cProfile hook.

The engine's contract is the total order on ``(time, seq)``.  The tests
check it against a single-``heapq`` reference engine
(``tests/heap_core.py``); the ledger's ``world_churn`` workload owns its
cost (``kernel.core_us_per_event``, ``kernel.stored_entries``).
"""

from repro.kernel.core import (
    EventCore,
    EventHandle,
    SimulationError,
    make_core,
)

__all__ = [
    "EventCore",
    "EventHandle",
    "SimulationError",
    "make_core",
]
