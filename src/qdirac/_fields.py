"""Readers that turn raw config values (decoded JSON) into typed values.

Each reader returns the typed value or raises a ValueError that names
the field.  Range and physics checks stay with the dataclasses and
commands that own the values.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Hashable

import numpy as np


def number(v, name: str, integral: bool = False):
    """A finite real number as a float, or as an int when `integral`.

    Booleans and numeric strings are not numbers."""
    # an exact float or int, the common case, skips the slower ABC check
    if type(v) is not float and type(v) is not int and (
            isinstance(v, bool) or not isinstance(v, numbers.Real)):
        raise ValueError(f"field {name!r} must be a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"field {name!r} must be finite, got {v!r}")
    if not integral:
        return x
    if not x.is_integer():
        raise ValueError(f"field {name!r} must be an integer, got {v!r}")
    return int(x)


def sequence(v, name: str, n: int) -> list:
    """A list or tuple (or 1-d array) of exactly n entries, unread."""
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if not isinstance(v, (list, tuple)) or len(v) != n:
        raise ValueError(f"field {name!r} must be an array of {n} entries, got {v!r}")
    return list(v)


def vector(v, name: str, n: int, integral: bool = False) -> tuple:
    """A tuple of n numbers, each read with `number`."""
    return tuple(number(c, f"{name}[{i}]", integral) for i, c in enumerate(sequence(v, name, n)))


def flag(v, name: str) -> bool:
    """A boolean; 0, 1 and strings such as "false" are not booleans."""
    if not isinstance(v, (bool, np.bool_)):
        raise ValueError(f"field {name!r} must be true or false, got {v!r}")
    return bool(v)


def choice(v, name: str, options: tuple):
    """The entry of `options` equal to v.  Booleans match nothing, since
    True == 1 would otherwise pass for the option 1."""
    if isinstance(v, (bool, np.bool_)) or not isinstance(v, Hashable) or v not in options:
        raise ValueError(f"field {name!r} must be one of {options}, got {v!r}")
    return options[options.index(v)]


def sign(v, name: str) -> int:
    """+1 or -1, written as '+', '-', 1 or -1."""
    return 1 if choice(v, name, ("+", 1, "-", -1)) in ("+", 1) else -1


def require(d, key: str):
    """The value of a required field of a JSON object."""
    if not isinstance(d, dict):
        raise ValueError(f"value holding field {key!r} must be an object, got {d!r}")
    if key not in d:
        raise ValueError(f"missing field {key!r}")
    return d[key]
