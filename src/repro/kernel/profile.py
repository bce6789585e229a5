"""The ``REPRO_PROFILE=1`` profiling hook.

Setting ``REPRO_PROFILE=1`` in the environment wraps every drive that
:func:`repro.replay.replay.execute` runs — recordings, replays, forks,
campaign cells, shrink trials — in :mod:`cProfile`; a recorded run's
trace carries the profile and :meth:`~repro.replay.trace.Trace.save`
dumps the raw stats next to the trace file as ``<trace>.pstats``.
Inspect with::

    python -c "import pstats; \\
        pstats.Stats('t.trace.bin.pstats') \\
            .sort_stats('cumulative').print_stats(30)"

The hook is deliberately dumb — no sampling, no aggregation — because
its one job is answering "where did this world spend its wall-clock"
when an experiment regresses (this is exactly how the heap engine's
``EventHandle.__lt__`` tax was found).  When the variable is unset the
hook is a no-op and costs two attribute checks per run.
"""

from __future__ import annotations

import cProfile
import os
from typing import Optional

__all__ = ["ProfileHook", "profiling_enabled"]


def profiling_enabled() -> bool:
    """Whether ``REPRO_PROFILE`` asks for a profiled run."""
    return os.environ.get("REPRO_PROFILE", "") not in ("", "0")


class ProfileHook:
    """Context manager that profiles its body when enabled.

    Usage::

        hook = ProfileHook()
        with hook:
            cluster.run_until_quiet()
        hook.dump_next_to("traces/run.trace.bin")   # no-op if disabled

    The profile object survives the ``with`` block so a trace can carry
    it until save time and drop the stats next to wherever the trace
    actually lands.
    """

    __slots__ = ("profile",)

    def __init__(self, enabled: Optional[bool] = None):
        if enabled is None:
            enabled = profiling_enabled()
        self.profile: Optional[cProfile.Profile] = (
            cProfile.Profile() if enabled else None
        )

    def __enter__(self) -> "ProfileHook":
        if self.profile is not None:
            self.profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        if self.profile is not None:
            self.profile.disable()

    def dump_next_to(self, path) -> Optional[str]:
        """Write ``<path>.pstats`` if profiling ran; return the path."""
        if self.profile is None:
            return None
        out = f"{path}.pstats"
        self.profile.dump_stats(out)
        return out
