"""Type-checked marshalling for RPC.

Paper §2: "The RPC mechanism is fully type-checked and permits arbitrarily
complex objects of user defined type to be transmitted between nodes."

Values cross nodes by value: records and arrays are rebuilt on the far
side, never aliased.  Signatures use the type grammar ``int | bool |
string | any | array[T] | <record name>``.
"""

from __future__ import annotations

from typing import Any

from repro.cvm.values import CluArray, CluRecord, CluRuntimeError, marshal_size


class MarshalError(CluRuntimeError):
    """A value failed the RPC interface type check."""


def marshal(value: Any):
    """Encode a value into the wire representation (plain data)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, CluArray):
        return ("arr", [marshal(item) for item in value.items])
    if isinstance(value, CluRecord):
        return (
            "rec",
            value.type_name,
            {name: marshal(item) for name, item in value.fields.items()},
        )
    raise MarshalError(f"value {value!r} is not transmissible")


def unmarshal(wire: Any):
    """Rebuild a value from the wire representation."""
    if wire is None or isinstance(wire, (bool, int, str)):
        return wire
    if isinstance(wire, tuple) and wire and wire[0] == "arr":
        return CluArray([unmarshal(item) for item in wire[1]])
    if isinstance(wire, tuple) and wire and wire[0] == "rec":
        return CluRecord(wire[1], {k: unmarshal(v) for k, v in wire[2].items()})
    raise MarshalError(f"bad wire value {wire!r}")


def wire_size(wire: Any) -> int:
    """Approximate size in bytes of a wire value (drives ring latency)."""
    return marshal_size(wire)


def check_type(value: Any, type_str: str) -> None:
    """Raise MarshalError unless ``value`` conforms to ``type_str``."""
    if type_str == "any":
        return
    if type_str == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise MarshalError(f"expected int, got {value!r}")
        return
    if type_str == "bool":
        if not isinstance(value, bool):
            raise MarshalError(f"expected bool, got {value!r}")
        return
    if type_str == "string":
        if not isinstance(value, str):
            raise MarshalError(f"expected string, got {value!r}")
        return
    if type_str == "null":
        if value is not None:
            raise MarshalError(f"expected nil, got {value!r}")
        return
    if type_str.startswith("array[") and type_str.endswith("]"):
        if not isinstance(value, CluArray):
            raise MarshalError(f"expected {type_str}, got {value!r}")
        inner = type_str[len("array["):-1]
        for item in value.items:
            check_type(item, inner)
        return
    if type_str == "array":
        if not isinstance(value, CluArray):
            raise MarshalError(f"expected array, got {value!r}")
        return
    # Anything else names a record type.
    if not isinstance(value, CluRecord) or value.type_name != type_str:
        raise MarshalError(f"expected record {type_str!r}, got {value!r}")


class Signature:
    """The typed interface of one remote procedure."""

    def __init__(self, arg_types: list[str], return_type: str = "any"):
        self.arg_types = arg_types
        self.return_type = return_type

    def check_args(self, args: list) -> None:
        if len(args) != len(self.arg_types):
            raise MarshalError(
                f"expected {len(self.arg_types)} args, got {len(args)}"
            )
        for value, type_str in zip(args, self.arg_types):
            check_type(value, type_str)

    def __repr__(self) -> str:
        return f"Signature({self.arg_types} -> {self.return_type})"
