import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stanleydepth import fields
from stanleydepth.errors import InputFormatError
from stanleydepth.fields import GF, QQ, PrimeField, field_from_json, field_from_name, is_prime

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=10**4)


def test_is_prime_small_cases():
    def oracle(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    for n in range(-3, 10_000):
        assert is_prime(n) == oracle(n), n
    assert is_prime(7919)
    assert not is_prime(7917)


def test_is_prime_rejects_strong_pseudoprimes_and_accepts_large_primes():
    # strong pseudoprimes to base 2, to the primes up to 7, and to the primes
    # up to 31: only the twelfth base, 37, exposes the last one
    assert not any(is_prime(n) for n in (2047, 3215031751, 3825123056546413051))
    assert is_prime(2**61 - 1) and is_prime(10**18 + 9)
    assert not is_prime((2**31 - 1) * (10**9 + 7))


def test_field_orders_beyond_the_exact_primality_test_are_input_errors():
    # the bound is itself a strong pseudoprime to the first 12 prime bases
    for order in (fields.PRIME_TEST_LIMIT, 2**89 - 1):
        with pytest.raises(InputFormatError, match="field order too large"):
            PrimeField(order)
        with pytest.raises(InputFormatError, match="field order too large"):
            field_from_json({"Fp": order})
    # the largest prime below the bound is still a field order
    assert PrimeField(318665857834031151167441).p == fields.PRIME_TEST_LIMIT - 20


def test_rationals_are_exact():
    assert QQ.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)
    assert QQ.mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)
    assert QQ.inv(Fraction(-5, 7)) == Fraction(-7, 5)
    assert QQ.sub(Fraction(1), Fraction(1, 10**50)) != Fraction(1)
    assert QQ.cardinality == math.inf
    assert not QQ.is_finite()


def test_rational_parse_and_str():
    assert QQ.parse(" -3/4 ") == Fraction(-3, 4)
    assert QQ.parse("6/4") == Fraction(3, 2)
    assert QQ.to_str(Fraction(3, 2)) == "3/2"
    assert QQ.to_str(Fraction(5)) == "5"
    with pytest.raises(InputFormatError):
        QQ.parse("x")
    with pytest.raises(InputFormatError):
        QQ.parse("1/0")


def test_prime_field_basics():
    f5 = GF(5)
    assert f5.cardinality == 5 and f5.is_finite()
    assert f5.add(3, 4) == 2
    assert f5.neg(2) == 3
    assert f5.mul(3, 4) == 2
    assert f5.inv(3) == 2
    assert f5.pow(2, 10) == pow(2, 10, 5)
    assert f5.from_int(-1) == 4
    assert f5.parse("7") == 2
    assert f5.to_str(12) == "2"
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)
    with pytest.raises(ZeroDivisionError):
        f5.inv(10)


def test_prime_field_rejects_composite_order():
    for bad in (0, 1, 4, 6, 9, -7):
        with pytest.raises(InputFormatError):
            PrimeField(bad)


def test_field_equality_and_hash():
    assert GF(5) == GF(5) and hash(GF(5)) == hash(GF(5))
    assert GF(5) != GF(7)
    assert QQ != GF(5)
    assert QQ == field_from_json("Q")
    assert GF(3) == field_from_json({"Fp": 3})
    with pytest.raises(InputFormatError):
        field_from_json({"Fq": 4})


def test_field_from_name_spellings():
    assert field_from_name("Q") == QQ
    assert field_from_name("qq") == QQ
    assert field_from_name("F5") == GF(5)
    assert field_from_name("f2") == GF(2)
    assert field_from_name("GF(11)") == GF(11)
    for bad in ("F", "F0x", "Z5", "GF()", "R"):
        with pytest.raises(InputFormatError):
            field_from_name(bad)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert QQ.add(a, QQ.add(b, c)) == QQ.add(QQ.add(a, b), c)
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
    assert QQ.add(a, QQ.neg(a)) == QQ.zero
    assert QQ.sub(a, b) == QQ.add(a, QQ.neg(b))
    if a != 0:
        assert QQ.mul(a, QQ.inv(a)) == QQ.one


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_gf7_field_axioms(a, b, c):
    f = GF(7)
    assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    assert f.sub(a, b) == f.add(a, f.neg(b))
    if a != 0:
        assert f.mul(a, f.inv(a)) == 1


@given(st.integers(0, 4), st.integers(0, 4))
def test_gf5_matches_integer_arithmetic(a, b):
    f = GF(5)
    assert f.add(a, b) == (a + b) % 5
    assert f.mul(a, b) == (a * b) % 5
    assert f.sub(a, b) == (a - b) % 5
    if b:
        assert f.mul(f.mul(a, f.inv(b)), b) == a % 5


def test_is_zero_over_both_field_kinds():
    assert QQ.is_zero(Fraction(0)) and QQ.is_zero(0) and QQ.is_zero(QQ.zero)
    assert not QQ.is_zero(Fraction(1, 3)) and not QQ.is_zero(Fraction(-2))
    f = GF(5)
    assert f.is_zero(0) and f.is_zero(f.zero)
    assert not any(f.is_zero(k) for k in range(1, 5))


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_sub_subtracts_without_negating(field, monkeypatch):
    # row reduction subtracts in its inner loop; a negation there builds an
    # extra scalar per entry
    monkeypatch.setattr(type(field), "neg", lambda *_: pytest.fail("sub called neg"))
    assert field.sub(field.from_int(3), field.from_int(4)) == field.from_int(-1)


def test_rational_inverse_of_an_int_is_a_fraction():
    assert QQ.inv(-35) == Fraction(-1, 35) and type(QQ.inv(-35)) is Fraction
    assert type(QQ.inv(Fraction(2, 3))) is Fraction
