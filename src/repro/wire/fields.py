"""The one field decoder: a document from outside becomes a dataclass here.

VISIT and steering messages, AJOs, campaign, space and search specs,
strategies, fault declarations, live session specs, trace records and
search evaluations all arrive as dicts of fields.  :func:`decode_fields`
builds the dataclass, refusing a non-object, an unknown or missing field
and a wrong-typed value; :func:`decode_tagged` first picks the class a
tag field names (VISIT's and the steering protocol's ``_kind``, written
by :func:`encode_tagged`; an AJO task's ``_task``; a strategy's or a
fault's ``kind``); :func:`check_fields` type-checks an instance built in
code; :func:`finite_real` is the ``float`` rule for a number checked
outside a dataclass.  Each decoder raises the
:class:`~repro.errors.ReproError` its caller names.

Annotations are read once per class: ``int`` is an int, not a bool;
``bool``, ``str``, ``dict``, ``list`` and ``bytes`` are their types;
``float`` is a finite real number, an int a float can hold included, a
bool not;
``Optional[X]`` or ``X | None`` also admits None; any other annotation,
``Any`` included, is not checked.  Range rules stay with each class.
"""

from __future__ import annotations

import reprlib
import sys
from dataclasses import MISSING, fields

_REAL = (int, float)
_FLOAT_MAX = sys.float_info.max

#: annotation -> (accepted types, what a refused value is told it must be)
_RULES = {
    "int": (int, "an int"),
    "bool": (bool, "a bool"),
    "float": (_REAL, "a finite number"),
    "str": (str, "a string"),
    "dict": (dict, "a JSON object"),
    "list": (list, "a list"),
    "bytes": (bytes, "bytes"),
}

#: class -> (field names, a (name, required, types, want, nullable) row per field)
_TABLES: dict = {}


def _compile(cls) -> tuple:
    rows = []
    for f in fields(cls):
        ann = f.type if isinstance(f.type, str) else getattr(f.type, "__name__", "")
        if ann.startswith("Optional["):
            ann, nullable = ann[len("Optional[") : -1], True
        else:
            ann, nullable = ann.removesuffix(" | None"), ann.endswith(" | None")
        types, want = _RULES.get(ann, (None, ""))
        required = f.default is MISSING and f.default_factory is MISSING
        rows.append((f.name, required, types, want + " or null" * nullable, nullable))
    table = _TABLES[cls] = (frozenset(row[0] for row in rows), tuple(rows))
    return table


def finite_real(value) -> bool:
    """Whether ``value`` is what a ``float`` field holds: an int or float,
    not a bool, not NaN, not an infinity, and no int a float cannot hold."""
    return (
        isinstance(value, _REAL)
        and not isinstance(value, bool)
        and -_FLOAT_MAX <= value <= _FLOAT_MAX
    )


def _check(rows: tuple, values: dict, error: type, what: str) -> None:
    for name, required, types, want, nullable in rows:
        if name not in values:
            if required:
                raise error(f"{what} is missing required field {name!r}")
            continue
        value = values[name]
        if types is None or value is None and nullable:
            continue
        if types is _REAL:
            if finite_real(value):
                continue
        elif isinstance(value, types) and (types is bool or not isinstance(value, bool)):
            continue
        raise error(f"{what}: {name} must be {want}, got {reprlib.repr(value)}")


def decode_fields(cls: type, doc, error: type, what: str):
    """``cls(**doc)``, or ``error`` unless ``doc`` is a dict naming only
    fields of the dataclass ``cls``, all its required ones, each holding
    its annotated type.  ``what`` names the document in the message."""
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object, got {reprlib.repr(doc)}")
    names, rows = _TABLES.get(cls) or _compile(cls)
    if not names.issuperset(doc):
        raise error(f"{what}: unknown fields {sorted(set(doc) - names, key=str)}")
    _check(rows, doc, error, what)
    return cls(**doc)


def decode_tagged(classes: dict, doc, tag: str, error: type, what: str):
    """:func:`decode_fields` of ``classes[doc[tag]]`` from the rest of ``doc``."""
    kind = doc.get(tag) if isinstance(doc, dict) else None
    cls = classes.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise error(f"{what} {reprlib.repr(doc)} has no {tag} of {sorted(classes)}")
    doc = dict(doc)
    del doc[tag]
    return decode_fields(cls, doc, error, f"{what} {kind}")


def encode_tagged(classes: dict, msg, tag: str, error: type, what: str) -> dict:
    """``msg``, one of ``classes``, as its ``tag`` then its fields in order."""
    cls = type(msg)
    if classes.get(cls.__name__) is not cls:
        raise error(f"not a {what}: {reprlib.repr(msg)}")
    body = {tag: cls.__name__}
    for row in (_TABLES.get(cls) or _compile(cls))[1]:
        body[row[0]] = getattr(msg, row[0])
    return body


def check_fields(obj, error: type, what: str) -> None:
    """:func:`decode_fields`'s type check on a dataclass instance's ``__dict__``."""
    _check((_TABLES.get(type(obj)) or _compile(type(obj)))[1], vars(obj), error, what)
