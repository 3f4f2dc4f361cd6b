"""Multidegree helpers, and the one reader and writer of files.

Degrees are plain tuples of non-negative ints, compared componentwise.
Indices are 0-based internally; serialization layers convert to 1-based
variable numbering.  Files are read by `read_text` and `read_json`, and
their values checked by `as_int`, `as_scalar`, `as_list` and
`as_degree`; every read or write error becomes a StanleyDepthError.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections.abc import Iterator
from decimal import Decimal

from .errors import InputFormatError, StanleyDepthError


def read_text(path) -> str:
    """The UTF-8 text of the file at path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: bytes that are not UTF-8
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def read_json(path, parse):
    """parse(the JSON document in the file at path).  Numbers with a
    fraction or an exponent are read as Decimals, so an error can name
    them as written.  Nesting past the decoder's recursion limit is an
    input error too, and every input error of parse is raised again with
    the path in front."""
    text = read_text(path)
    try:
        doc = json.loads(text, parse_float=Decimal)
    except ValueError as exc:  # also integers past int()'s digit limit
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise InputFormatError(f"{path}: JSON nests too deeply") from None
    try:
        return parse(doc)
    except InputFormatError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def write_text(path, text: str) -> None:
    """Write text to the file at path; an unwritable path raises
    StanleyDepthError instead of OSError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise StanleyDepthError(f"cannot write {path}: {exc}") from exc


def as_int(value) -> int:
    """An integer read from input.  Floats (even 2.0), strings and
    booleans raise InputFormatError instead of being converted."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InputFormatError(f"expected an integer, got {value!r}")


def as_scalar(field, value):
    """A field scalar read from input: an integer, or a string in the
    field's spelling.  A JSON number with a fraction or an exponent (even
    2.0) raises InputFormatError, as in `as_int`: a float would round it
    (1e-400 to 0); so do booleans."""
    if isinstance(value, str):
        return field.parse(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return field.from_int(value)
    if isinstance(value, (float, Decimal)):
        raise InputFormatError(f'scalar {value} is a JSON float: write it as an integer or a string such as "1/3"')
    raise InputFormatError(f"expected a scalar, got {value!r}")


def as_list(value, what: str) -> list | tuple:
    """A JSON array read from input; `what` names it in the error."""
    if not isinstance(value, (list, tuple)):
        raise InputFormatError(f"{what} must be a list, got {value!r}")
    return value


_INT = frozenset({int})


def as_degree(value) -> tuple:
    """A degree read from input: a list of integers, each as `as_int`
    reads it (exact ints pass at once)."""
    try:
        items = tuple(value)
    except TypeError:
        raise InputFormatError(f"expected a list of integers, got {value!r}") from None
    if _INT.issuperset(map(type, items)):
        return items
    return tuple(as_int(x) for x in items)


def leq(a: tuple, b: tuple) -> bool:
    """Componentwise a <= b."""
    return all(map(operator.le, a, b))


def add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def sub(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def join(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def support(a: tuple) -> frozenset:
    return frozenset(i for i, x in enumerate(a) if x > 0)


def touching(b: tuple, g: tuple) -> frozenset:
    """The coordinates j at which b touches g: b_j = g_j."""
    return frozenset(j for j, (x, y) in enumerate(zip(b, g)) if x == y)


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


def strides(hi: tuple) -> list[int]:
    """c + e_k lies strides[k] degrees after c in `box(zero, hi)`."""
    return list(itertools.accumulate((x + 1 for x in reversed(hi)), operator.mul, initial=1))[-2::-1]


def box_size(lo: tuple, hi: tuple) -> int:
    return math.prod(b - a + 1 for a, b in zip(lo, hi)) if leq(lo, hi) else 0
