"""The per-World instrumentation bus.

Design constraints, in order:

1. **Zero cost when dormant.**  The paper rejected the packet-monitor RPC
   debugging design because "RPCs might take twice as long"; the entire
   reproduction follows the same discipline.  ``emit`` for an event type
   with no subscribers is a single dict lookup plus a truthiness check —
   the event object is *never constructed* (its cells are passed
   positionally, not as a pre-built event).  Experiment E11 measures
   this against the null-RPC cost.
2. **Deterministic.**  Subscribers run synchronously, in subscription
   order, on the emitter's stack.  No queues, no reordering: the bus adds
   no nondeterminism to the simulation.
3. **Typed.**  Event types are the tuple classes of
   :mod:`repro.obs.events`; subscription is per-type (no wildcard
   matching on the hot path).

Subscriber exceptions propagate to the emitter: instrumentation bugs
should fail loudly in a deterministic simulator, not vanish.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Type

from repro.obs.events import Event

Subscriber = Callable[[Event], None]


class Bus:
    """Per-event-type publish/subscribe with a dormant fast path."""

    __slots__ = ("_subs", "_seq")

    def __init__(self) -> None:
        #: event type -> subscriber tuple, replaced on (un)subscribe.
        #: Types with no subscribers are absent entirely, so the dormant
        #: emit path is ``dict.get`` + falsy check.
        self._subs: dict[Type[Event], tuple[Subscriber, ...]] = {}
        self._seq = 0

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------

    def subscribe(self, event_type: Type[Event], fn: Subscriber) -> Subscriber:
        """Register ``fn`` for ``event_type``; returns ``fn`` for symmetry
        with :meth:`unsubscribe`."""
        self._subs[event_type] = (*self._subs.get(event_type, ()), fn)
        return fn

    def subscribe_many(
        self, event_types: Iterable[Type[Event]], fn: Subscriber
    ) -> Subscriber:
        for event_type in event_types:
            self.subscribe(event_type, fn)
        return fn

    def unsubscribe(self, event_type: Type[Event], fn: Subscriber) -> bool:
        """Remove one registration of ``fn``.  Returns False if absent."""
        subs = list(self._subs.get(event_type, ()))
        if fn not in subs:
            return False
        subs.remove(fn)
        if subs:
            self._subs[event_type] = tuple(subs)
        else:
            # Restore the dormant fast path for this type.
            del self._subs[event_type]
        return True

    def unsubscribe_many(
        self, event_types: Iterable[Type[Event]], fn: Subscriber
    ) -> None:
        for event_type in event_types:
            self.unsubscribe(event_type, fn)

    def has_subscribers(self, event_type: Type[Event]) -> bool:
        return bool(self._subs.get(event_type))

    def clear(self) -> None:
        """Drop every subscription (world teardown).

        Subscriber closures pin their layer objects (metrics, runtimes,
        recorders); clearing them breaks the reference cycles so a
        campaign worker churning through many worlds releases each one
        promptly instead of waiting for the cycle collector.
        """
        self._subs.clear()

    def subscriber_count(self, event_type: Type[Event]) -> int:
        return len(self._subs.get(event_type, ()))

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def emit(self, event_type: Type[Event], time: int, node: Optional[int], *payload: Any):
        """Deliver one event, ``(time, node, seq, *payload)``, to the
        subscribers of ``event_type``; payload cells the call leaves off
        the end take the type's ``DEFAULTS``, and more cells than it
        declares raise :class:`TypeError`.

        Dormant path: when the type has no subscribers this is one dict
        lookup and a truthiness check; no event object is built.  Returns
        the delivered event, or ``None`` on the dormant path.
        """
        subs = self._subs.get(event_type)
        if not subs:
            return None
        defaults = event_type.DEFAULTS
        if len(payload) < len(defaults):
            payload += defaults[len(payload):]
        elif len(payload) > len(defaults):
            raise TypeError(f"{event_type.__name__} takes {len(defaults)} "
                            f"payload cells, not {len(payload)}")
        self._seq += 1
        event = tuple.__new__(event_type, (time, node, self._seq, *payload))
        # A stored tuple: a subscriber may (un)subscribe during delivery.
        for fn in subs:
            fn(event)
        return event

    @property
    def events_emitted(self) -> int:
        """Events actually materialized and delivered (dormant emits are
        free and uncounted)."""
        return self._seq

    def __repr__(self) -> str:
        active = {t.__name__: len(s) for t, s in self._subs.items()}
        return f"<Bus emitted={self._seq} subscribers={active}>"
