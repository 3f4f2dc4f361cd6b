"""Multidegree helpers.

Degrees are plain tuples of non-negative ints, compared componentwise.
Indices are 0-based internally; serialization layers convert to 1-based
variable numbering.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator

from .errors import InputFormatError


def as_int(value) -> int:
    """An integer read from input.  Floats (even 2.0), strings and
    booleans raise InputFormatError instead of being converted."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InputFormatError(f"expected an integer, got {value!r}")


def as_list(value, what: str) -> list | tuple:
    """A JSON array read from input; `what` names it in the error."""
    if not isinstance(value, (list, tuple)):
        raise InputFormatError(f"{what} must be a list, got {value!r}")
    return value


def as_degree(value) -> tuple:
    """A degree read from input: a list of integers."""
    try:
        items = tuple(value)
    except TypeError:
        raise InputFormatError(f"expected a list of integers, got {value!r}") from None
    return tuple(as_int(x) for x in items)


def leq(a: tuple, b: tuple) -> bool:
    """Componentwise a <= b."""
    return all(x <= y for x, y in zip(a, b))


def add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def sub(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def join(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def support(a: tuple) -> frozenset:
    return frozenset(i for i, x in enumerate(a) if x > 0)


def zero(n: int) -> tuple:
    return (0,) * n


def ones(n: int) -> tuple:
    return (1,) * n


def unit(n: int, k: int) -> tuple:
    return tuple(1 if i == k else 0 for i in range(n))


def box(lo: tuple, hi: tuple) -> Iterator[tuple]:
    """All degrees lo <= c <= hi in lexicographic order."""
    if not leq(lo, hi):
        return iter(())
    return itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))


def box_size(lo: tuple, hi: tuple) -> int:
    if not leq(lo, hi):
        return 0
    size = 1
    for a, b in zip(lo, hi):
        size *= b - a + 1
    return size
