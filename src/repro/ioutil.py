"""Crash-safe file persistence shared by traces, journals, and corpora.

Every durable artifact in the reproduction — golden traces, campaign
checkpoint journals, the reproducer-corpus index — is written with the
same discipline: serialize the complete document, write it to a
temporary sibling in the destination directory, then :func:`os.replace`
it over the target.  ``os.replace`` is atomic on POSIX (and on Windows
for same-volume moves), so a reader never observes a half-written file:
an interrupted save leaves either the previous complete version or
nothing, never a truncated document that a loader would later reject.
A document that is unreadable anyway (hand-edited, disk-corrupted,
another version) is read back by :func:`read_tables` as empty, flagged,
never as an exception.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file + :func:`os.replace`.

    The temp file lives in the destination directory (same filesystem,
    so the final rename is atomic) and carries the writer's pid so
    concurrent writers never collide on the scratch name.  On any
    failure the temp file is removed and the original target is left
    untouched.
    """
    target = os.fspath(path)
    scratch = f"{target}.tmp{os.getpid()}"
    try:
        with open(scratch, "wb") as fh:
            fh.write(data)
        os.replace(scratch, target)
    except BaseException:
        try:
            os.unlink(scratch)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str, encoding: str = "utf-8") -> None:
    """Text-mode convenience over :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode(encoding))


def read_tables(path, version: int, **tables) -> tuple[dict, bool]:
    """Read a ``{"version": version, <table>: {key: entry}, ...}`` JSON
    document, failing closed: ``(tables, recovered)``.

    Each keyword names a table and the function that checks and converts
    one ``(key, entry)`` of it, raising ``ValueError``, ``KeyError`` or
    ``TypeError`` on a malformed one.  A missing file is every table
    empty; any other failure — unreadable, not JSON, too deeply nested,
    another version, a table that is not an object, one bad entry — is
    every table empty and ``recovered`` true, and nothing is raised.
    """
    empty = {name: {} for name in tables}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict) or type(data.get("version")) is not int \
                or data["version"] != version:
            raise ValueError(f"not a version {version} document")
        read = {}
        for name, convert in tables.items():
            if not isinstance(data[name], dict):
                raise TypeError(f"{name!r} is not an object")
            read[name] = {key: convert(key, entry) for key, entry in data[name].items()}
    except FileNotFoundError:
        return empty, False
    except (ValueError, KeyError, TypeError, OSError, RecursionError):
        return empty, True
    return read, False
