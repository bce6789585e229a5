"""Deterministic fault injection (the nemesis layer).

Three pieces, layered on the existing simulation machinery:

* :class:`~repro.faults.shaper.LinkShaper` — the transport's one fault
  mechanism, on every fabric: partitions (hardware NACK, the sender's
  interface learns of non-receipt), loss rules (silent software loss,
  invisible to the sender), NACK rules, delay with seeded jitter,
  duplication, and reordering.  A :class:`~repro.faults.shaper.FaultRule`
  scopes by ``src``/``dst`` and an optional ``match`` packet predicate,
  so a targeted fault ("lose every ``rpc_reply``") is a rule too.  The
  shaper preserves the paper's taxonomy: a fault is either
  *hardware-visible* (NACK, drives §5.2-style retransmission) or
  *silent* (what makes the maybe protocol interesting to debug, §4.1).
* :class:`~repro.faults.plan.FaultPlan` — a declarative, seeded schedule
  of fault actions at absolute virtual times.
* :class:`~repro.faults.plan.Nemesis` — the driver that applies a plan
  to a cluster by scheduling world events, emitting
  ``FaultInjected``/``FaultHealed``/``NodeRebooted`` on the obs bus.

Determinism: all randomness flows through ``world.rng``; the same seed
and plan produce the identical event stream (compare two
:class:`repro.replay.trace.TraceWriter` recordings by fingerprint).
"""

from repro.faults.plan import FaultAction, FaultPlan, Nemesis
from repro.faults.shaper import LinkShaper

__all__ = ["FaultAction", "FaultPlan", "LinkShaper", "Nemesis"]
