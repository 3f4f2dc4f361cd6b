import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from stanleydepth.errors import InputFormatError, ShapeError, UnboundVariableError
from stanleydepth.fields import GF, QQ
from stanleydepth.polynomials import (
    Poly,
    _det_bareiss,
    _det_cofactor,
    det_symbolic,
    divexact,
    evaluate,
    parse_var_name,
    poly_mul,
    reduce_exponents,
    to_text,
    var_name,
)


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


def test_det_with_a_zero_row_is_zero():
    grid = [[y(1), y(2)], [Poly.zero(QQ), Poly.zero(QQ)]]
    assert det_symbolic(grid).is_zero()


def test_det_two_by_two_factors():
    grid = [[y(1, 1), y(5, 1)], [y(1, 2), y(5, 1)]]
    det = det_symbolic(grid)
    expected = (y(1, 1) - y(1, 2)) * y(5, 1)
    assert det == expected


def test_det_trivial_sizes():
    assert det_symbolic([[y(3)]]) == y(3)
    assert det_symbolic([], field=QQ) == Poly.one(QQ)
    with pytest.raises(ShapeError):
        det_symbolic([])
    with pytest.raises(ShapeError):
        det_symbolic([[y(1), y(2)]])


@given(st.integers(1, 3), st.data())
def test_det_matches_permutation_sum_oracle(n, data):
    grid = [
        [data.draw(qpolys) for _ in range(n)]
        for _ in range(n)
    ]
    det = det_symbolic(grid)
    assert oracles.dict_from_poly(det) == oracles.det_permutation_sum(QQ, grid)


def test_det_cofactor_and_bareiss_agree_on_dense_grid():
    rng = random.Random(5)
    n = 4
    grid = [
        [
            Poly(QQ, {(((i, 0), 1),): Fraction(rng.randint(-2, 2)), (): Fraction(rng.randint(-1, 1))})
            for j in range(n)
        ]
        for i in range(n)
    ]
    assert _det_cofactor(grid, QQ) == _det_bareiss(grid, QQ)


def test_bareiss_handles_zero_pivots_on_a_large_grid():
    # 9x9 antidiagonal: every leading pivot is zero, so the fraction-free
    # path has to search for pivots; the determinant is the plain product
    # because the order-reversing permutation on 9 letters is even
    n = 9
    zero = Poly.zero(QQ)
    grid = [[zero] * n for _ in range(n)]
    expected = Poly.one(QQ)
    for i in range(n):
        grid[i][n - 1 - i] = y(i + 1)
        expected = expected * y(i + 1)
    assert det_symbolic(grid) == expected


def test_bareiss_matches_laplace_on_random_evaluations():
    n = 9
    zero = Poly.zero(QQ)
    grid = [[zero] * n for _ in range(n)]
    rng = random.Random(11)
    for i in range(n):
        grid[i][n - 1 - i] = y(i + 1)
        if i + 1 < n:
            grid[i][i] = Poly.const(QQ, Fraction(rng.randint(-3, 3)))
    det = det_symbolic(grid)
    assert not det.is_zero()
    assignment = {v: Fraction(rng.randint(-5, 5)) for v in det.variables()}
    for row in grid:
        for entry in row:
            for v in entry.variables():
                assignment.setdefault(v, Fraction(rng.randint(-5, 5)))
    numeric = [[evaluate(entry, assignment) for entry in row] for row in grid]
    assert evaluate(det, assignment) == oracles.det_laplace(QQ, numeric)


@given(qpolys, qpolys)
def test_divexact_inverts_multiplication(p, q):
    if q.is_zero():
        return
    assert divexact(p * q, q) == p


def test_divexact_error_cases():
    with pytest.raises(ZeroDivisionError):
        divexact(y(1), Poly.zero(QQ))
    with pytest.raises(ArithmeticError):
        divexact(y(1), y(1) + Poly.one(QQ))
    assert divexact(Poly.zero(QQ), y(1)).is_zero()
