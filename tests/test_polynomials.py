from fractions import Fraction

from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import data_file
from stanleydepth import hilbert, modules
from stanleydepth.errors import InputFormatError, UnboundVariableError
from stanleydepth.fields import GF, QQ
from stanleydepth.hilbert import enumerate_partitions, partition_to_decomposition, truncated_series
from stanleydepth.polynomials import (
    Poly,
    evaluate,
    parse_var_name,
    poly_mul,
    reduce_exponents,
    to_text,
    var_name,
)
from stanleydepth.stanley import build_matrices


def y(i, j=1, field=QQ):
    return Poly.variable(field, (i - 1, j - 1))


variables_st = st.tuples(st.integers(0, 2), st.integers(0, 1))
monomials_st = st.dictionaries(variables_st, st.integers(1, 3), max_size=3).map(
    lambda d: tuple(sorted(d.items()))
)


def polys_st(field, coeffs):
    return st.dictionaries(monomials_st, coeffs, max_size=4).map(
        lambda terms: Poly(field, terms)
    )


qpolys = polys_st(QQ, st.integers(-4, 4).map(Fraction))


def test_var_names_round_trip():
    assert var_name((0, 1)) == "Y[1,2]"
    assert parse_var_name("Y[1,2]") == (0, 1)
    assert parse_var_name(" Y[12,3] ") == (11, 2)
    for bad in ("Y[0,1]", "Y[1]", "X[1,2]", "Y[1,2", "Y[a,b]"):
        with pytest.raises(InputFormatError):
            parse_var_name(bad)


def test_zero_polynomial_stores_no_terms():
    p = Poly(QQ, {(): Fraction(0), (((0, 0), 1),): Fraction(0)})
    assert p.is_zero() and p.terms == {}
    assert (y(1) - y(1)).is_zero()


def test_constant_and_variable_constructors():
    assert Poly.one(QQ).terms == {(): Fraction(1)}
    assert Poly.const(QQ, Fraction(3)).terms == {(): Fraction(3)}
    assert y(2, 1).variables() == {(1, 0)}


def test_to_text_canonical_examples():
    p = Poly(
        QQ,
        {
            (((0, 1), 1), ((2, 0), 1)): Fraction(1),
            (((4, 0), 2),): Fraction(2),
        },
    )
    assert to_text(p) == "Y[1,2]*Y[3,1] + 2*Y[5,1]^2"
    assert to_text(Poly.zero(QQ)) == "0"
    assert to_text(Poly.const(QQ, Fraction(-3, 2))) == "-3/2"
    assert to_text(y(1) - y(2)) == "Y[1,1] - 1*Y[2,1]"


@given(qpolys, qpolys)
def test_addition_matches_dict_oracle(p, q):
    expected = oracles.dict_add(QQ, oracles.dict_from_poly(p), oracles.dict_from_poly(q))
    assert oracles.dict_from_poly(p + q) == expected


@given(qpolys, qpolys)
def test_multiplication_matches_dict_oracle(p, q):
    expected = oracles.dict_mul(QQ, oracles.dict_from_poly(p), oracles.dict_from_poly(q))
    assert oracles.dict_from_poly(p * q) == expected


@given(qpolys, qpolys, qpolys)
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert p - p == Poly.zero(QQ)
    assert p * Poly.one(QQ) == p


def test_poly_mul_term_budget():
    from stanleydepth.errors import ResourceLimitError

    p = y(1) + y(2) + y(3)
    with pytest.raises(ResourceLimitError):
        poly_mul(p, p, term_budget=2)


def test_reduce_exponents_examples():
    f2 = GF(2)
    cube = Poly(f2, {(((0, 0), 3),): 1})
    assert reduce_exponents(cube, 2).terms == {(((0, 0), 1),): 1}
    f3 = GF(3)
    fifth = Poly(f3, {(((0, 0), 5),): 1})
    assert reduce_exponents(fifth, 3).terms == {(((0, 0), 1),): 1}
    fourth = Poly(f3, {(((0, 0), 4),): 1})
    assert reduce_exponents(fourth, 3).terms == {(((0, 0), 2),): 1}
    with pytest.raises(InputFormatError):
        reduce_exponents(cube, 1)


def test_reduce_exponents_combines_like_terms():
    f2 = GF(2)
    p = Poly(f2, {(((0, 0), 2),): 1, (((0, 0), 1),): 1})  # Y^2 + Y
    assert reduce_exponents(p, 2).is_zero()


def test_reduce_exponents_vacuous_below_field_size():
    f5 = GF(5)
    p = Poly(f5, {(((0, 0), 4), ((1, 0), 2)): 3})
    assert reduce_exponents(p, 5) == p


@st.composite
def gf_poly_and_q(draw):
    q = draw(st.sampled_from([2, 3]))
    field = GF(q)
    terms = draw(
        st.dictionaries(monomials_st, st.integers(1, q - 1), min_size=0, max_size=4)
    )
    return Poly(field, terms), q


@given(gf_poly_and_q())
def test_reduce_exponents_preserves_the_function(pair):
    from itertools import product

    p, q = pair
    reduced = reduce_exponents(p, q)
    assert all(e <= q - 1 for mono in reduced.terms for _, e in mono)
    assert reduce_exponents(reduced, q) == reduced
    variables = sorted(p.variables() | reduced.variables())
    for point in product(range(q), repeat=len(variables)):
        assignment = dict(zip(variables, point))
        left = oracles.eval_terms_mod(p.terms, assignment, q)
        right = oracles.eval_terms_mod(reduced.terms, assignment, q)
        assert left == right


def test_evaluate_examples():
    f2 = GF(2)
    p = (y(1, 1, f2) + y(1, 2, f2)) * y(5, 1, f2)
    ones = {(0, 0): 1, (0, 1): 1, (4, 0): 1}
    assert evaluate(p, ones) == 0
    assert evaluate(p, {(0, 0): 1, (0, 1): 0, (4, 0): 1}) == 1
    q = y(1) * y(1) + Poly.const(QQ, Fraction(1, 2))
    assert evaluate(q, {(0, 0): Fraction(3)}) == Fraction(19, 2)
    with pytest.raises(UnboundVariableError, match=r"Y\[1,1\]"):
        evaluate(y(1), {})


@given(qpolys, st.dictionaries(variables_st, st.integers(-3, 3).map(Fraction)))
def test_evaluate_is_a_ring_homomorphism(p, partial):
    assignment = {v: partial.get(v, Fraction(1)) for v in p.variables()}
    doubled = p + p
    assert evaluate(doubled, assignment) == 2 * evaluate(p, assignment)


def _shipped_family(name):
    gm = modules.load_module_file(data_file(f"{name}.json"))
    return build_matrices(gm, hilbert.load_decomposition_file(data_file(f"{name}_dec.json"), gm.g))


def test_det_with_a_zero_row_is_zero():
    # ex34 at degree (1,1): A_a = [[Y[1,1], Y[2,1]], [0, 0]]
    fam = _shipped_family("ex34")
    grid = fam.matrices[(1, 1)]
    assert grid[0] == [y(1), y(2)] and all(e.is_zero() for e in grid[1])
    assert fam.det((1, 1)).is_zero()


def test_det_two_by_two_factors():
    # ex36 at degree (3,3): A_a = [[Y[1,2] - Y[1,1], 0], [Y[1,1], Y[5,1]]]
    fam = _shipped_family("ex36")
    grid = fam.matrices[(3, 3)]
    assert grid == [[y(1, 2) - y(1, 1), Poly.zero(QQ)], [y(1, 1), y(5, 1)]]
    assert fam.det((3, 3)) == (y(1, 2) - y(1, 1)) * y(5, 1)


@given(st.integers(0, 10**6))
def test_det_matches_permutation_sum_oracle(seed):
    for gm in oracles.random_modules(1, seed=seed):
        for partition in islice(enumerate_partitions(truncated_series(gm), 0), 3):
            fam = build_matrices(gm, partition_to_decomposition(partition, gm.g))
            for a in fam.degrees():
                expected = oracles.det_permutation_sum(QQ, fam.matrices[a])
                assert oracles.dict_from_poly(fam.det(a)) == expected
