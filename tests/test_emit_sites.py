"""Every obs emit site in ``src/`` is positional and within its type's arity.

``Bus.emit(Type, time, node, *payload)`` places each argument by
position, so a keyword, a starred argument or one cell too many would
misalign a recorded row silently (the bus refuses extra cells only when
the type has subscribers).  This walks the source, not a run, so a
dormant site is held to the same rule.  Needs only the standard library
and ``repro.obs.events``.
"""

import ast
from pathlib import Path

from repro.obs import events as ev

SRC = Path(__file__).resolve().parents[1] / "src"


def _emit_sites():
    """``(where, call)`` for every ``<...>.bus.emit(...)`` call in ``src/``."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit"
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "bus"):
                yield f"{path.relative_to(SRC)}:{node.lineno}", node


def test_every_emit_site_is_positional_and_within_its_arity():
    sites = list(_emit_sites())
    assert len(sites) >= 20, "the walk found too few emit sites to mean anything"
    for where, call in sites:
        kind = call.args[0] if call.args else None
        assert isinstance(kind, ast.Attribute) and isinstance(getattr(ev, kind.attr, None), type), \
            f"{where}: the first argument must name an event type"
        event_type = getattr(ev, kind.attr)
        assert not call.keywords, f"{where}: {event_type.__name__} emitted with keywords"
        assert not any(isinstance(arg, ast.Starred) for arg in call.args), \
            f"{where}: a starred argument hides the cell count"
        # After the type: time, node, then the payload (the bus stamps seq).
        payload = len(call.args) - 3
        assert 0 <= payload <= len(event_type.DEFAULTS), \
            f"{where}: {payload} payload cells for {event_type.__name__}'s {len(event_type.DEFAULTS)}"
