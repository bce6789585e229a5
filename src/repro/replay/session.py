"""A post-mortem :class:`DebuggerSession` over a recorded trace.

:class:`TraceSession` makes a sealed trace debuggable through the same
typed session API as a live world.  It is the one implementation of
the trace-side capability groups — ``cursor`` (``at``, ``forward_step``
/ ``reverse_step``, ``why_halted``, ``causal_predecessors``),
``contracts`` and ``branches``; ``processes`` reads the process table
out of the folded :class:`~repro.replay.checkpoint.StateView` at the
cursor, and every live-only operation (breakpoints, variable access) is
the typed ``unsupported`` refusal inherited from
:class:`~repro.debugger.api.SessionBase`.

This is what the session daemon instantiates for ``kind="trace"``
sessions and for corpus reproducers opened by name
(:meth:`repro.campaign.corpus.Corpus.open_session`), and what
:class:`~repro.debugger.pilgrim.Pilgrim` attaches when a trace is
loaded into a live session.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.debugger.api import ProcessInfo, SessionBase, SessionStatus
from repro.debugger.errors import DebuggerError
from repro.replay.branch import BranchDiff, BranchInfo, BranchTree
from repro.replay.timetravel import Moment, TimeTravel
from repro.replay.trace import Trace


class TraceSession(SessionBase):
    """Read-only debugger session over one sealed trace.

    ``builder`` (a callable, ``"scenario:NAME"``, or
    ``"module:function"``) names the scenario recipe; with it attached
    the session can also *fork* the recording into perturbed what-if
    branches (see :mod:`repro.replay.branch`) — still without ever
    touching the trace itself.  It defaults to the reference the
    recording carries in its header (``meta["builder"]``), if any.
    """

    refusal = ("a trace session (post-mortem, read-only); fork the recipe "
               "into a live world to intervene")

    def __init__(self, trace: Union[Trace, str, bytes], name: str = "",
                 builder=None):
        if isinstance(trace, (str, bytes)) or hasattr(trace, "__fspath__"):
            trace = Trace.load(trace)
        self.trace = trace
        self.name = name or f"trace(seed={trace.header.get('seed')})"
        if builder is None:
            builder = (trace.header.get("meta") or {}).get("builder")
        self.builder = builder
        self._travel = TimeTravel(trace)
        self._branch_tree: Optional[BranchTree] = None
        self.session_id: Optional[int] = None
        self.connected_nodes: list[int] = list(range(len(self._names)))

    @property
    def _names(self) -> list[str]:
        return list(self.trace.header.get("names", []))

    def _resolve(self, node: Union[int, str, None]) -> Optional[int]:
        """Node name -> recorded address, via the trace header."""
        if node is None or isinstance(node, int):
            return node
        try:
            return self._names.index(node)
        except ValueError:
            raise DebuggerError(f"no node named {node!r} in the trace") from None

    # ------------------------------------------------------------------
    # Session lifecycle (trivial: the trace is always "connected")
    # ------------------------------------------------------------------

    def connect(self, *targets, force: bool = False) -> dict:
        """No-op for traces; returns per-node info like the live connect."""
        self.session_id = 1
        return {
            address: {"name": name, "modules": [], "failures": []}
            for address, name in enumerate(self._names)
        }

    def disconnect(self) -> None:
        """No-op: nothing runs, nothing to release."""
        self.session_id = None

    # ------------------------------------------------------------------
    # Inspection at the cursor
    # ------------------------------------------------------------------

    def processes(self, node: Union[int, str, None] = None) -> list[ProcessInfo]:
        """The process table recorded in the view at the cursor."""
        address = self._resolve(node)
        view = self._travel.current().view
        rows: list[ProcessInfo] = []
        for node_key in sorted(view.processes):
            if address is not None and str(address) != str(node_key):
                continue
            halted = {str(p) for p in view.halted.get(node_key, [])}
            for pid, info in sorted(view.processes[node_key].items(),
                                    key=lambda kv: int(kv[0])):
                rows.append(ProcessInfo(
                    pid=int(pid),
                    name=info.get("name", "?"),
                    state="halted" if str(pid) in halted else "running",
                    priority=info.get("priority", 0),
                ))
        return rows

    def status(self) -> SessionStatus:
        """Cursor position, trace dimensions and time-travel work counters."""
        moment = self._travel.current()
        return SessionStatus(
            mode="replay",
            session=self.session_id,
            connected=self.connected_nodes,
            time=moment.time,
            trace_loaded=True,
            extra={
                "cursor": moment.index,
                "events": self.trace.n_events,
                "checkpoints": self.trace.n_checkpoints,
                "seed": self.trace.header.get("seed"),
                **self._travel.stats(),
            },
        )

    # ------------------------------------------------------------------
    # Time travel — the whole point
    # ------------------------------------------------------------------

    def at(self, t: int) -> Moment:
        """Jump the cursor to virtual time ``t``."""
        return self._travel.at(t)

    def forward_step(self) -> Moment:
        """Step the cursor one event forwards."""
        return self._travel.step()

    def reverse_step(self) -> Moment:
        """Step the cursor one event backwards."""
        return self._travel.reverse_step()

    def why_halted(self, node: Union[int, str, None] = None) -> dict:
        """Explain the halt state at the cursor."""
        return self._travel.why_halted(self._resolve(node))

    def causal_predecessors(self, index: int):
        """Causal history of trace event ``index``."""
        return self._travel.causal_predecessors(index)

    # ------------------------------------------------------------------
    # Contracts (repro.contracts, offline backend)
    # ------------------------------------------------------------------

    def default_contracts(self):
        """The contract set this trace is judged under by default.

        A campaign golden trace names its scenario in the header meta,
        so its own contract set applies; anything else gets the
        universal safety catalogue.
        """
        from repro.contracts.dsl import contracts_for_trace

        return contracts_for_trace(self.trace)

    def check(self, contracts=None):
        """Fold a contract set over the whole recording.

        ``contracts`` is ``None`` (this trace's default set), a
        :class:`~repro.contracts.dsl.ContractSet`, or contract names
        from the shipped catalogue.  Returns the frozen
        :class:`~repro.contracts.report.ContractReport` — byte-identical
        to what an online monitor co-attached to the original run would
        have reported.
        """
        from repro.contracts.dsl import resolve_contracts
        from repro.contracts.offline import check_trace

        resolved = (self.default_contracts() if contracts is None
                    else resolve_contracts(contracts))
        return check_trace(self.trace, resolved)

    # ------------------------------------------------------------------
    # Branching time travel (repro.replay.branch)
    # ------------------------------------------------------------------

    def _tree(self) -> BranchTree:
        if self._branch_tree is None:
            self._branch_tree = BranchTree(self.trace, self.builder,
                                           contracts=self.default_contracts())
        return self._branch_tree

    def fork(self, perturbation, checkpoint: int = 0,
             parent: Optional[str] = None, builder=None,
             run_until: Optional[int] = None) -> BranchInfo:
        """Fork the recording at a checkpoint into a perturbed branch.

        Re-runs the recipe with the delta merged in (``fork_trace``);
        this session's trace is never modified.  ``perturbation`` is a
        :class:`~repro.replay.branch.Perturbation` or its dict form;
        ``parent`` forks from an existing branch instead of the root.
        Returns the branch's :class:`~repro.replay.branch.BranchInfo`.
        """
        if builder is not None:
            self.builder = builder
            self._tree().build = builder
        return self._tree().fork(
            perturbation, checkpoint=checkpoint, parent=parent,
            run_until=run_until,
        ).info()

    def branches(self) -> list[BranchInfo]:
        """List every branch of this session's tree (root first)."""
        return self._tree().branches()

    def diff_branches(self, a: str, b: str) -> BranchDiff:
        """Event-graph diff between two branches (id/prefix/"root")."""
        return self._tree().diff(a, b)

    def branch_session(self, ref: str) -> "TraceSession":
        """Open a branch's child trace as its own :class:`TraceSession`."""
        branch = self._tree().get(ref)
        return TraceSession(branch.trace,
                            name=f"{self.name}/branch:{branch.id[:12]}",
                            builder=self.builder)

    def __repr__(self) -> str:
        return f"<TraceSession {self.name} events={self.trace.n_events}>"
