"""Typed JSON documents: one parser and one writer for frozen dataclasses.

Experiment configs and filter snapshots are both declared as dataclasses,
and their annotations are the document's types: ``float`` is any JSON
number but not a bool, ``int`` and ``str`` are themselves (never a bool),
``tuple[X, ...]`` is a list, ``complex`` is a ``[real, imag]`` pair, a
nested dataclass is an object and ``Optional[X]`` is X or ``null``. A field
with a default may be omitted, and so may a nested object whose fields all
have defaults. ``parse`` refuses unknown keys, missing fields and wrong
types with a ``ConfigError`` that names the dotted path of the value, e.g.
``snapshot.coefficients[3]``; ``echo`` writes a dataclass back in the same
form, ``None`` as ``null``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import MISSING
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np


class ConfigError(ValueError):
    """A document failed validation; names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _config_fields(cls) -> list:
    # Per-run seeds derive from master_seed, so "seed" is not a config key.
    return [f for f in dataclasses.fields(cls) if f.name != "seed"]


def parse(cls, doc, path: str):
    """Build dataclass ``cls`` from a JSON object at ``path``, checking every key."""
    if not isinstance(doc, dict):
        raise ConfigError(path, "must be an object")
    fields = _config_fields(cls)
    names = {f.name for f in fields}
    for key in doc:
        if key not in names:
            raise ConfigError(f"{path}.{key}", "unknown field")
    hints = get_type_hints(cls)
    values = {}
    for f in fields:
        tp = hints[f.name]
        if f.name in doc:
            values[f.name] = _parse_value(tp, doc[f.name], f"{path}.{f.name}")
        elif dataclasses.is_dataclass(tp) and all(
            g.default is not MISSING for g in dataclasses.fields(tp)
        ):
            values[f.name] = tp()  # a section whose fields all have defaults may be omitted
        elif f.default is MISSING:
            raise ConfigError(f"{path}.{f.name}", "missing required field")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_value(tp, value, path: str):
    if tp is complex:  # tested first: a snapshot holds thousands of them
        if not (isinstance(value, list) and len(value) == 2 and all(_is_number(v) for v in value)):
            raise ConfigError(path, f"expected a [real, imag] pair, got {value!r}")
        return complex(value[0], value[1])
    if get_origin(tp) is Union:  # Optional[X]: null or X
        if value is None:
            return None
        tp = get_args(tp)[0]
    if dataclasses.is_dataclass(tp):
        return parse(tp, value, path)
    if get_origin(tp) is tuple:
        _check_type(list, value, path)
        item = get_args(tp)[0]
        return tuple(_parse_value(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    return _check_type(tp, value, path)


def _check_type(tp, value, path: str):
    accepted, expected = ((int, float), "number") if tp is float else (tp, tp.__name__)
    if not isinstance(value, accepted) or isinstance(value, bool):
        raise ConfigError(path, f"expected {expected}, got {value!r}")
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def echo(tp, value):
    """JSON form of ``value`` declared as ``tp``: objects, lists, [real, imag] pairs, null."""
    if tp is complex:
        return [float(np.real(value)), float(np.imag(value))]
    if value is None:
        return None
    if get_origin(tp) is Union:
        tp = get_args(tp)[0]
    if dataclasses.is_dataclass(tp):
        hints = get_type_hints(tp)
        return {f.name: echo(hints[f.name], getattr(value, f.name)) for f in _config_fields(tp)}
    if get_origin(tp) is tuple:
        item = get_args(tp)[0]
        return [echo(item, v) for v in value]
    return value
