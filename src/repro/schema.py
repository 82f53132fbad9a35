"""Strict JSON tables: a schema layer is declared once and read both ways.

A :data:`Table` maps each key of a JSON object to a :class:`Key` — its JSON
type (``int`` / ``float`` / ``str`` / ``bool``, or a :class:`Codec` for a
nested shape) and its default (or :data:`REQUIRED`).  :func:`read` turns an
untrusted JSON value into constructor arguments and refuses, with
``ValueError``, anything the table does not say: a non-object, an unknown
key, a missing required key, a value of another JSON type (``bool`` is not
an ``int``, a string is not a ``bool``; an ``int`` is a ``float``).
:func:`write` goes the other way, so what is written is what would be read.
The sweep service's job schema (:mod:`repro.service.jobs`) and the topology
schema (:mod:`repro.topology.model`) are such tables.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import Any, NamedTuple, Union

__all__ = ["REQUIRED", "Codec", "Key", "Table", "decode", "encode", "read",
           "write", "record", "listof", "nullable", "choice"]

#: The default of a key that must be present.
REQUIRED: Any = object()


class Codec(NamedTuple):
    """A nested JSON shape: ``decode(what, value)`` checks an untrusted JSON
    value (``what`` names it in the ``ValueError``) and returns the live
    one, ``encode(live)`` returns the canonical JSON value."""

    decode: Callable[[str, Any], Any]
    encode: Callable[[Any], Any]


JsonType = Union[type[Any], Codec]


class Key(NamedTuple):
    """One key of a JSON object: its JSON type and its live default (what
    the constructor gets when the key is absent)."""

    type: JsonType
    default: Any = REQUIRED


Table = Mapping[str, Key]

_SCALARS = {int: "integer", float: "number", str: "string", bool: "boolean"}


def decode(what: str, typ: JsonType, value: Any) -> Any:
    """The live value of JSON ``value``, which must be of JSON type ``typ``."""
    if isinstance(typ, Codec):
        return typ.decode(what, value)
    if type(value) is typ:
        return value
    if typ is float and type(value) is int:
        return float(value)
    raise ValueError(f"{what} must be a JSON {_SCALARS[typ]}, got {value!r}")


def encode(typ: JsonType, value: Any) -> Any:
    """The canonical JSON value of live ``value``."""
    return typ.encode(value) if isinstance(typ, Codec) else typ(value)


def read(what: str, table: Table, spec: Any) -> dict[str, Any]:
    """Constructor arguments of the JSON object ``spec``, defaults filled in."""
    if not isinstance(spec, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {spec!r}")
    unknown = spec.keys() - table.keys()
    if unknown:
        raise ValueError(f"unknown {what} field(s) {sorted(map(str, unknown))}; "
                         f"use one of {sorted(table)}")
    missing = [k for k, key in table.items()
               if k not in spec and key.default is REQUIRED]
    if missing:
        raise ValueError(f"{what} needs the field(s) {missing}")
    return {name: decode(f"{what} {name!r}", key.type, spec[name])
            if name in spec else key.default for name, key in table.items()}


def write(table: Table, obj: Any) -> dict[str, Any]:
    """The canonical JSON object of live ``obj``, an attribute per key."""
    return {name: encode(key.type, getattr(obj, name))
            for name, key in table.items()}


def record(what: str, build: Callable[..., Any], table: Table) -> Codec:
    """A JSON object <-> ``build(**read(...))``."""
    return Codec(lambda _, spec: build(**read(what, table, spec)),
                 lambda obj: write(table, obj))


def listof(typ: JsonType) -> Codec:
    """A JSON array of ``typ`` <-> a tuple."""
    def decode_list(what: str, value: Any) -> tuple[Any, ...]:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{what} must be a JSON array, got {value!r}")
        return tuple(decode(f"{what}[{i}]", typ, v) for i, v in enumerate(value))
    return Codec(decode_list, lambda seq: [encode(typ, v) for v in seq])


def nullable(typ: JsonType) -> Codec:
    """``null`` <-> ``None``, anything else is a ``typ``."""
    return Codec(
        lambda what, v: None if v is None else decode(what, typ, v),
        lambda v: None if v is None else encode(typ, v))


def choice(*names: str) -> Codec:
    """One of a fixed set of strings."""
    def decode_choice(what: str, value: Any) -> str:
        if type(value) is not str or value not in names:
            raise ValueError(f"unknown {what} {value!r}; use one of {names}")
        return value
    return Codec(decode_choice, str)
