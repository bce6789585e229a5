"""Byte-level mutations for fuzzing the loaders of external input."""

from hypothesis import strategies as st


def _position(data, blob):
    return data.draw(st.integers(0, len(blob) - 1))


def _flip(data, blob):
    at = _position(data, blob)
    return blob[:at] + bytes([blob[at] ^ data.draw(st.integers(1, 255))]) \
        + blob[at + 1:]


def _truncate(data, blob):
    return blob[:_position(data, blob)]


def _splice(data, blob):
    src, dst = _position(data, blob), _position(data, blob)
    chunk = blob[src:src + data.draw(st.integers(1, 64))]
    if data.draw(st.booleans()):
        return blob[:dst] + chunk + blob[dst:]  # insert
    return blob[:dst] + chunk + blob[dst + len(chunk):]  # overwrite


def corrupt(data, blob: bytes) -> bytes:
    """``blob`` after one to three flips, truncations or splices drawn
    from the hypothesis ``data`` (never empty: a cut to nothing is a NUL)."""
    for _ in range(data.draw(st.integers(1, 3))):
        blob = data.draw(st.sampled_from([_flip, _truncate, _splice]))(
            data, blob) or b"\0"
    return blob
