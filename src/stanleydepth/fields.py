"""Exact scalar arithmetic over the rationals and over prime fields.

Scalars are plain Python values: `fractions.Fraction` over the rationals,
ints in [0, p-1] over GF(p).  A Field object supplies the operations, so
matrices and polynomials can store raw values without per-element wrappers.

Serialization: rationals as "a/b" (lowest terms, "a" when b = 1),
prime-field elements as the canonical representative "k" with 0 <= k < p.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputFormatError


# Miller-Rabin with the first 12 primes as bases has no strong
# pseudoprime below this bound (Sorenson and Webster, 2015).
PRIME_TEST_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_TEST_LIMIT = 318665857834031151167461

# Largest decimal exponent, in magnitude, a rational scalar may carry: the
# digit limit int() puts on JSON integers.
SCALAR_EXPONENT_LIMIT = 4300


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below PRIME_TEST_LIMIT; n at or
    above it raises InputFormatError."""
    if n >= PRIME_TEST_LIMIT:
        raise InputFormatError(
            f"field order too large: primality is decided exactly only below {PRIME_TEST_LIMIT}")
    if n < 2:
        return False
    for b in PRIME_TEST_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in PRIME_TEST_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface; instances are immutable and hashable."""

    cardinality: float | int  # math.inf for the rationals, p for GF(p)
    modulus: int  # what integer rows are reduced by: 0 for the rationals, p for GF(p)

    def is_finite(self) -> bool:
        return self.cardinality != math.inf

    def is_zero(self, a) -> bool:
        return not a

    def to_json(self):
        raise NotImplementedError


class RationalField(Field):
    """The field of rational numbers; elements are Fraction values."""

    cardinality = math.inf
    modulus = 0
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.one / a

    def pow(self, a, e: int):
        return a**e

    def from_int(self, k: int):
        return Fraction(k)

    def parse(self, text: str):
        text = text.strip()
        _, e, exponent = text.upper().partition("E")
        try:
            # Fraction would build 10**exponent in full
            if e and abs(int(exponent)) > SCALAR_EXPONENT_LIMIT:
                raise InputFormatError(
                    f"rational scalar {text!r} has a decimal exponent past {SCALAR_EXPONENT_LIMIT}")
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"invalid rational scalar {text!r}") from exc

    def to_str(self, a) -> str:
        return str(a)

    def to_json(self):
        return "Q"

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField(Field):
    """GF(p) for a prime p; elements are ints in [0, p-1]."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise InputFormatError(f"prime field order must be prime, got {p!r}")
        self.p = p
        self.cardinality = self.modulus = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def pow(self, a, e: int):
        return pow(a, e, self.p)

    def from_int(self, k: int):
        return k % self.p

    def parse(self, text: str):
        try:
            return int(text.strip()) % self.p
        except ValueError as exc:
            raise InputFormatError(f"invalid GF({self.p}) scalar {text!r}") from exc

    def to_str(self, a) -> str:
        return str(a % self.p)

    def to_json(self):
        return {"Fp": self.p}

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_json(obj) -> Field:
    """Decode "Q" or {"Fp": p}."""
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"Fp"}:
        return PrimeField(obj["Fp"])
    raise InputFormatError(f'field must be "Q" or {{"Fp": p}}, got {obj!r}')


def field_from_name(name: str) -> Field:
    """Decode CLI spellings: "Q", "QQ", "F5", "GF(5)"."""
    text = name.strip()
    if text.upper() in ("Q", "QQ"):
        return QQ
    for prefix, suffix in (("GF(", ")"), ("F", ""), ("f", "")):
        if text.startswith(prefix) and text.endswith(suffix) and len(text) > len(prefix) + len(suffix):
            body = text[len(prefix) : len(text) - len(suffix)] if suffix else text[len(prefix) :]
            if body.isascii() and body.isdigit():
                if len(body) > 100:  # far above PRIME_TEST_LIMIT, and maybe past int()'s digit limit
                    raise InputFormatError(f"field order too large: {len(body)} digits")
                return PrimeField(int(body))
    raise InputFormatError(f"unrecognized field name {name!r} (use Q or F<p>)")
