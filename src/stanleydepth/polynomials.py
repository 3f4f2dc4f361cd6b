"""Sparse multivariate polynomials in generic variables Y[i,j].

A variable is an index pair (summand i, basis vector j), 0-based in
memory and 1-based in text form. A monomial is a sorted tuple of
((i, j), exponent) pairs with positive exponents; the empty tuple is 1.
Coefficients are raw scalars of a Field; zero coefficients are never
stored, so the zero polynomial has an empty term map.

The package forms no determinant here: `SymbolicMatrixFamily` expands
its own on packed bitmasks and converts them to Poly for display and
comparison.  Multiplication, exponent reduction and evaluation are the
reference arithmetic the tests check those kernels against.
"""

from __future__ import annotations

import re
from collections.abc import Mapping

from .errors import InputFormatError, ResourceLimitError, UnboundVariableError
from .fields import Field

Var = tuple[int, int]
Monomial = tuple[tuple[Var, int], ...]


def var_name(v: Var) -> str:
    return f"Y[{v[0] + 1},{v[1] + 1}]"


_VAR_RE = re.compile(r"^Y\[(\d+),(\d+)\]$")


def parse_var_name(text: str) -> Var:
    m = _VAR_RE.match(text.strip())
    if not m or int(m.group(1)) < 1 or int(m.group(2)) < 1:
        raise InputFormatError(f"invalid variable name {text!r} (expected Y[i,j] with i,j >= 1)")
    return (int(m.group(1)) - 1, int(m.group(2)) - 1)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


class Poly:
    """Immutable sparse polynomial over a Field."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: Mapping[Monomial, object] | None = None):
        f = field
        clean: dict[Monomial, object] = {}
        if terms:
            for mono, coeff in terms.items():
                if not f.is_zero(coeff):
                    clean[mono] = coeff
        self.field = field
        self.terms = clean

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field)

    @classmethod
    def const(cls, field: Field, value) -> "Poly":
        return cls(field, {(): value})

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls.const(field, field.one)

    @classmethod
    def variable(cls, field: Field, v: Var) -> "Poly":
        return cls(field, {((v, 1),): field.one})

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set[Var]:
        return {v for mono in self.terms for v, _ in mono}

    def __add__(self, other: "Poly") -> "Poly":
        f = self.field
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = f.add(terms.get(mono, f.zero), coeff)
            if f.is_zero(acc):
                terms.pop(mono, None)
            else:
                terms[mono] = acc
        return Poly(f, terms)

    def __neg__(self) -> "Poly":
        f = self.field
        return Poly(f, {m: f.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        return poly_mul(self, other)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.field == other.field and self.terms == other.terms

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def __repr__(self):
        return f"Poly({to_text(self)})"


def poly_mul(a: Poly, b: Poly, term_budget: int | None = None) -> Poly:
    f = a.field
    terms: dict[Monomial, object] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            mono = _mono_mul(ma, mb)
            acc = f.add(terms.get(mono, f.zero), f.mul(ca, cb))
            if f.is_zero(acc):
                terms.pop(mono, None)
            else:
                terms[mono] = acc
        if term_budget is not None and len(terms) > term_budget:
            raise ResourceLimitError(f"polynomial exceeded the term budget of {term_budget}")
    return Poly(f, terms)


def reduce_exponents(p: Poly, q: int) -> Poly:
    """Rewrite exponents modulo the q-element field relations Y^q = Y.

    Each exponent e >= q is replaced by the unique e' with e' congruent to
    e mod (q-1) and 1 <= e' <= q-1 (repeatedly subtract q-1 while >= q);
    like terms produced by the rewrite are combined.
    """
    if q < 2:
        raise InputFormatError(f"exponent reduction needs q >= 2, got {q}")
    f = p.field
    terms: dict[Monomial, object] = {}
    for mono, coeff in p.terms.items():
        new = tuple(sorted((v, e if e < q else ((e - 1) % (q - 1)) + 1) for v, e in mono))
        acc = f.add(terms.get(new, f.zero), coeff)
        if f.is_zero(acc):
            terms.pop(new, None)
        else:
            terms[new] = acc
    return Poly(f, terms)


def evaluate(p: Poly, assignment: Mapping[Var, object]):
    """Exact value of p at the given point; every variable must be bound."""
    f = p.field
    missing = p.variables() - set(assignment)
    if missing:
        name = var_name(min(missing))
        raise UnboundVariableError(f"no value assigned to {name}")
    total = f.zero
    for mono, coeff in p.terms.items():
        value = coeff
        for v, e in mono:
            value = f.mul(value, f.pow(assignment[v], e))
        total = f.add(total, value)
    return total


def to_text(p: Poly) -> str:
    """Canonical text form, e.g. "Y[1,2]*Y[3,1] + 2*Y[5,1]^2"."""
    if p.is_zero():
        return "0"
    f = p.field
    pieces = []
    for mono, coeff in sorted(p.terms.items(), key=lambda t: t[0]):
        factors = [var_name(v) + (f"^{e}" if e > 1 else "") for v, e in mono]
        body = "*".join(factors)
        coeff_str = f.to_str(coeff)
        if not factors:
            text = coeff_str
        elif coeff == f.one:
            text = body
        else:
            text = f"{coeff_str}*{body}"
        pieces.append(text)
    out = pieces[0]
    for text in pieces[1:]:
        if text.startswith("-"):
            out += " - " + text[1:]
        else:
            out += " + " + text
    return out
