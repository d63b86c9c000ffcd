"""One JSON codec for the frozen dataclasses that describe a run.

A document type declares each field once, as a dataclass field with a
type hint and (optionally) a default.  :func:`decode` builds an object
from its parsed JSON and :func:`encode` writes it back; both read
``dataclasses.fields`` and the type hints, resolved once per class.
Decoding is strict, and every error is a :class:`SchemaError` naming
the JSON path of the offending value (``populations[0].arrivals``):

* a field without a default is required, and an unknown key is an error;
* ``bool`` fields take JSON booleans only;
* ``int`` and ``float`` fields take numbers (never booleans); a float
  field stores ``float(x)`` and an int field refuses a fraction;
* ``str`` fields take strings, and ``Optional`` fields also take ``null``;
* tuples take lists and nested dataclasses take objects, recursing
  with ``[i]`` and ``.key`` paths;
* a ``ValueError`` raised while building an object (its
  ``__post_init__``) comes back as a :class:`SchemaError` at the
  object's path.  A :class:`SchemaError` raised there already names
  its path and passes through.

Two spellings need more than a field list.  A class with a
``from_number`` constructor also decodes from a bare JSON number
(``RandomVar``: ``7`` is a fixed variable), and a union of dataclasses
annotated with :class:`Tagged` is told apart by a ``"kind"`` key
(``FaultPlan``'s faults).

This module imports nothing from :mod:`repro`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from typing import Annotated, Any, Dict, Tuple, Union


class SchemaError(ValueError):
    """A document failed validation, with the JSON path of the field."""

    def __init__(self, path: str, problem: str):
        self.path = path
        super().__init__(f"{path or 'document'}: {problem}")


class Tagged:
    """Marks ``Annotated[Union[...], Tagged(noun, kinds)]``: each member
    is the dataclass ``kinds[obj["kind"]]``, and encodes with its kind
    first."""

    def __init__(self, noun: str, kinds: Dict[str, type]):
        self.noun = noun
        self.kinds = kinds
        self.kind_of = {cls: kind for kind, cls in kinds.items()}


@functools.lru_cache(maxsize=None)
def _fields(cls) -> Tuple[Tuple[str, Any, bool], ...]:
    """``(name, hint, required)`` per field of ``cls``."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return tuple((f.name, hints[f.name],
                  f.default is dataclasses.MISSING
                  and f.default_factory is dataclasses.MISSING)
                 for f in dataclasses.fields(cls))


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _is_number(raw) -> bool:
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def _expected(path: str, what: str, raw) -> SchemaError:
    return SchemaError(path,
                       f"expected {what}, got {json.dumps(raw, default=repr)}")


def decode(hint, raw, path: str = ""):
    """The value of type ``hint`` (a document class, or a field's type)
    that the parsed JSON ``raw`` at ``path`` describes."""
    origin = typing.get_origin(hint)
    if origin is Annotated:
        return _decode_tagged(hint.__metadata__[0], raw, path)
    if origin is Union:
        members = [m for m in typing.get_args(hint) if m is not type(None)]
        if raw is None and len(members) < len(typing.get_args(hint)):
            return None
        (member,) = members
        return decode(member, raw, path)
    if origin is tuple:
        if not isinstance(raw, (list, tuple)):
            raise _expected(path, "a list", raw)
        item = typing.get_args(hint)[0]
        return tuple(decode(item, value, f"{path}[{i}]")
                     for i, value in enumerate(raw))
    if dataclasses.is_dataclass(hint):
        return _decode_object(hint, raw, path)
    if hint is bool:
        if not isinstance(raw, bool):
            raise _expected(path, "true or false", raw)
        return raw
    if hint is float:
        if not _is_number(raw):
            raise _expected(path, "a number", raw)
        return float(raw)
    if hint is int:
        if not _is_number(raw) or (isinstance(raw, float)
                                   and not raw.is_integer()):
            raise _expected(path, "an integer", raw)
        return int(raw)
    if hint is str:
        if not isinstance(raw, str):
            raise _expected(path, "a string", raw)
        return raw
    raise TypeError(f"{path}: no JSON form for {hint!r}")


def _decode_tagged(tag: Tagged, raw, path: str):
    if not isinstance(raw, dict):
        raise _expected(path, "an object", raw)
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in tag.kinds:
        raise SchemaError(_join(path, "kind"),
                          f"unknown {tag.noun} kind {kind!r}; "
                          f"expected one of {sorted(tag.kinds)}")
    rest = {key: value for key, value in raw.items() if key != "kind"}
    return _decode_object(tag.kinds[kind], rest, path)


def _decode_object(cls, raw, path: str):
    if _is_number(raw) and hasattr(cls, "from_number"):
        return _build(path, cls.from_number, float(raw))
    if not isinstance(raw, dict):
        raise _expected(path, "an object", raw)
    fields = _fields(cls)
    names = [name for name, _, _ in fields]
    unknown = sorted(set(raw) - set(names))
    if unknown:
        raise SchemaError(_join(path, unknown[0]),
                          f"unknown field; expected one of {sorted(names)}")
    kwargs = {}
    for name, hint, required in fields:
        if name in raw:
            kwargs[name] = decode(hint, raw[name], _join(path, name))
        elif required:
            raise SchemaError(_join(path, name), "required field missing")
    return _build(path, cls, **kwargs)


def _build(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ``ValueError`` placed at ``path``."""
    try:
        return make(*args, **kwargs)
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


def encode(obj) -> dict:
    """The JSON form of a document dataclass: every field, in order."""
    return {name: _encode(hint, getattr(obj, name))
            for name, hint, _ in _fields(type(obj))}


def _encode(hint, value):
    if value is None:
        return None
    origin = typing.get_origin(hint)
    if origin is Annotated:
        tag = hint.__metadata__[0]
        return {"kind": tag.kind_of[type(value)], **encode(value)}
    if isinstance(value, tuple):
        item = typing.get_args(hint)[0]
        return [_encode(item, v) for v in value]
    if dataclasses.is_dataclass(value):
        return encode(value)
    return value
