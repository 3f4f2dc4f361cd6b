import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from stanleydepth.errors import DimensionMismatchError, ShapeError
from stanleydepth.fields import GF, QQ
from stanleydepth.linalg import IntegerEchelon, Matrix, Subspace, bareiss_determinant, integral_rows
from stanleydepth.transversal import max_independent_transversal


def qmat(entries):
    return Matrix(QQ, [[Fraction(x) for x in row] for row in entries])


small_fraction = st.integers(-6, 6).map(Fraction)


def matrices(field, elems, max_side=4):
    return st.integers(1, max_side).flatmap(
        lambda m: st.integers(1, max_side).flatmap(
            lambda n: st.lists(
                st.lists(elems, min_size=n, max_size=n), min_size=m, max_size=m
            ).map(lambda rows: Matrix(field, rows))
        )
    )


def test_rref_first_nonzero_pivot_over_gf2():
    m = Matrix(GF(2), [[1, 1], [1, 1]])
    reduced, pivots = m.rref()
    assert reduced.entries == ((1, 1), (0, 0))
    assert pivots == (0,)
    assert m.rank() == 1


def test_rref_rational_example():
    m = qmat([[2, 4, 6], [1, 2, 4]])
    reduced, pivots = m.rref()
    assert pivots == (0, 2)
    assert reduced.entries == ((1, 2, 0), (0, 0, 1))


def test_rref_is_idempotent_and_preserves_rank():
    m = qmat([[1, 2], [2, 4], [3, 5]])
    reduced, pivots = m.rref()
    again, pivots2 = reduced.rref()
    assert again.entries == reduced.entries and pivots == pivots2
    assert m.rank() == 2


def test_matrix_shape_errors():
    with pytest.raises(ShapeError):
        Matrix(QQ, [[1, 2], [3]])
    with pytest.raises(ShapeError):
        Matrix(QQ, [[1, 2]], ncols=3)
    with pytest.raises(DimensionMismatchError):
        qmat([[1, 2]]) @ qmat([[1, 2]])
    with pytest.raises(DimensionMismatchError):
        qmat([[1, 2]]).apply([1, 2, 3])


def test_matrix_product_and_apply():
    a = qmat([[1, 2], [3, 4]])
    b = qmat([[0, 1], [1, 0]])
    assert (a @ b).entries == ((Fraction(2), Fraction(1)), (Fraction(4), Fraction(3)))
    assert a.apply([Fraction(1), Fraction(1)]) == (Fraction(3), Fraction(7))
    assert qmat([[1, 0], [0, 1]]) @ a == a


def test_from_columns_and_transpose_round_trip():
    cols = [(Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))]
    m = Matrix.from_columns(QQ, cols)
    assert m.columns() == cols
    assert m.transpose().transpose() == m
    empty = Matrix.from_columns(QQ, [], nrows=3)
    assert empty.nrows == 3 and empty.ncols == 0
    flat = Matrix(QQ, [], 2)
    assert flat.columns() == [(), ()]
    assert (flat.transpose().nrows, flat.transpose().ncols) == (2, 0)
    assert (empty.transpose().nrows, empty.transpose().ncols) == (0, 3)


def test_zero_and_identity_constructors():
    z = Matrix(QQ, [[QQ.zero] * 3] * 2)
    assert z.rank() == 0
    assert Matrix(GF(3), [[int(i == j) for j in range(4)] for i in range(4)]).rank() == 4


@given(matrices(QQ, small_fraction))
def test_rank_matches_minor_oracle_over_q(m):
    assert m.rank() == oracles.rank_by_minors(QQ, m.entries)


@given(matrices(GF(2), st.integers(0, 1)))
def test_rank_matches_minor_oracle_over_gf2(m):
    assert m.rank() == oracles.rank_by_minors(GF(2), m.entries)


def _rref_cases(field, elems):
    """(field, rows, combination): one to four rows of one to four
    entries and, when combination is not None, the coefficients of a
    further row combining them, so that rank deficiency shows over the
    large fields too."""
    return st.tuples(
        st.just(field),
        matrices(field, elems).map(lambda m: [list(row) for row in m.entries]),
        st.one_of(st.none(), st.lists(st.integers(-3, 3), min_size=4, max_size=4)),
    )


@settings(max_examples=400)
@given(st.one_of(
    _rref_cases(QQ, st.one_of(st.just(Fraction(0)), st.fractions(-5, 5, max_denominator=50))),
    *(_rref_cases(GF(p), st.one_of(st.integers(0, min(p - 1, 2)), st.integers(0, p - 1)))
      for p in (2, 3, 5, 7, 1000003)),
))
def test_rref_is_the_canonical_reduced_row_echelon_form(case):
    field, rows, combination = case
    if combination is not None:
        last = [field.zero] * len(rows[0])
        for c, row in zip(combination, rows):
            last = _combination(field, last, row, c)
        rows.append(last)
    m = Matrix(field, rows)
    reduced, pivots = m.rref()
    assert (reduced.nrows, reduced.ncols) == (m.nrows, m.ncols)
    assert list(pivots) == sorted(set(pivots))
    assert len(pivots) == oracles.rank_by_minors(field, rows)
    for r, row in enumerate(reduced.entries):
        if r >= len(pivots):
            assert all(field.is_zero(x) for x in row)
            continue
        p = pivots[r]
        assert all(field.is_zero(x) for x in row[:p]) and row[p] == field.one
        assert all(field.is_zero(other[p]) for i, other in enumerate(reduced.entries) if i != r)
    # the rows span the row space of m
    assert oracles.rank_by_minors(field, rows + [list(row) for row in reduced.entries]) == len(pivots)
    assert m.rank() == len(pivots)


@given(matrices(GF(5), st.integers(0, 4)))
def test_rref_recombination_over_gf5(m):
    reduced, pivots = m.rref()
    assert reduced.rank() == len(pivots) == m.rank()
    for r, p in enumerate(pivots):
        col = reduced.columns()[p]
        assert col[r] == 1 and all(x == 0 for i, x in enumerate(col) if i != r)


def test_subspace_reduce_and_contains():
    s = Subspace(QQ, 3, [[Fraction(1), Fraction(0), Fraction(1)]])
    assert s.dim == 1
    assert not any(s.reduce([Fraction(2), Fraction(0), Fraction(2)]))
    assert any(s.reduce([Fraction(1), Fraction(1), Fraction(1)]))
    reduced = s.reduce([Fraction(1), Fraction(2), Fraction(3)])
    assert reduced[0] == 0  # pivot coordinate is cleared
    assert s.reduce(reduced) == reduced
    with pytest.raises(DimensionMismatchError):
        s.reduce([Fraction(1)])


def test_extended_adds_pivot_rows_in_column_order():
    s = Subspace(QQ, 3, [(Fraction(0), Fraction(1), Fraction(1))])
    t = s.extended([(Fraction(2), Fraction(2), Fraction(0)), (Fraction(0), Fraction(3), Fraction(3))])
    assert t.pivots == (0, 1)
    assert t.basis == ((1, 0, -1), (0, 1, 1))
    assert s.dim == 1  # the original is unchanged
    with pytest.raises(DimensionMismatchError):
        s.extended([(Fraction(1),)])


def _extension_cases(field, elems):
    vectors = st.lists(st.lists(elems, min_size=4, max_size=4), max_size=5)
    return st.tuples(st.just(field), vectors, vectors)


@given(st.one_of(
    _extension_cases(QQ, small_fraction),
    _extension_cases(GF(2), st.integers(0, 1)),
    _extension_cases(GF(3), st.integers(0, 2)),
))
def test_extended_equals_a_fresh_span_of_the_stacked_vectors(case):
    field, first, more = case
    start = Subspace(field, 4, first)
    grown = start.extended(more)
    assert grown == Subspace(field, 4, list(start.basis) + more)
    assert grown.pivots == Subspace(field, 4, first + more).pivots
    assert Subspace.zero(field, 4) == Subspace(field, 4)
    assert Subspace.zero(field, 4).extended(first) == start


@given(matrices(QQ, small_fraction, max_side=3))
def test_square_determinant_vs_rank(m):
    if m.nrows != m.ncols:
        return
    det = oracles.det_laplace(QQ, m.entries)
    assert (det != 0) == (m.rank() == m.nrows)


def test_rank_over_q_of_an_int_matrix_is_exact():
    # entries given as ints: a float pivot inverse used to round the rank up to 3
    rows = [[-35, 13, 47], [7, 10, 33], [-126, 9, 42]]
    reduced, pivots = Matrix(QQ, rows).rref()
    assert pivots == (0, 1)
    assert reduced.entries == ((1, 0, Fraction(-41, 441)), (0, 1, Fraction(212, 63)), (0, 0, 0))
    assert not any(isinstance(x, float) for row in reduced.entries for x in row)
    assert Subspace(QQ, 3, rows).dim == 2
    assert len(max_independent_transversal(QQ, 3, [[row] for row in rows])) == 2


def _push_cases(field, elems):
    # None pops the last accepted push
    ops = st.lists(st.one_of(st.lists(elems, min_size=4, max_size=4), st.none()), max_size=10)
    return st.tuples(st.just(field), ops)


def _combination(field, u, v, c):
    return [field.add(x, field.mul(field.from_int(c), y)) for x, y in zip(u, v)]


@settings(max_examples=300)
@given(st.one_of(
    _push_cases(QQ, st.fractions(-3, 3, max_denominator=50)),
    *(_push_cases(GF(p), st.one_of(st.integers(0, min(p - 1, 2)), st.integers(0, p - 1)))
      for p in (2, 3, 5, 7, 1000003)),
))
def test_integer_echelon_matches_subspace_extended(case):
    """push accepts exactly when `Subspace.extended` grows the span, and
    spans says so without a change, the rows span that subspace, a
    combination of accepted vectors is refused without a change, and pop
    restores the rows before the push."""
    field, ops = case
    echelon = IntegerEchelon(field, 4)
    spans = [Subspace.zero(field, 4)]
    accepted = []
    saved = []

    def rows():
        return [(pivot, list(row)) for pivot, row in echelon.rows]

    for v in ops:
        if v is None:
            if accepted:
                echelon.pop()
                spans.pop()
                accepted.pop()
                assert rows() == saved.pop()
            continue
        before = rows()
        grown = spans[-1].extended([v])
        assert echelon.spans(v) == (grown.dim == spans[-1].dim)
        assert rows() == before
        assert echelon.push(v) == (grown.dim > spans[-1].dim)
        if grown.dim == spans[-1].dim:
            assert rows() == before
            continue
        spans.append(grown)
        accepted.append(v)
        saved.append(before)
        after = rows()
        assert after[:-1] == before
        assert Subspace(field, 4, [[field.from_int(x) for x in row] for _, row in after]) == grown
        for pivot, row in after:
            assert all(type(x) is int for x in row)
            assert row[pivot] == 1 if field.is_finite() else math.gcd(*row) == 1
        if len(accepted) >= 2:
            assert not echelon.push(_combination(field, accepted[-1], accepted[0], 3))
            assert rows() == after


@pytest.mark.parametrize("field", [QQ, GF(2), GF(1000003)])
def test_integer_echelon_refuses_a_vector_of_the_wrong_length(field):
    echelon = IntegerEchelon(field, 2)
    for v in ((1, 0, 0), (1,), ()):
        with pytest.raises(DimensionMismatchError):
            echelon.push(v)
        with pytest.raises(DimensionMismatchError):
            echelon.spans(v)
    assert echelon.push((1, 0))
    with pytest.raises(DimensionMismatchError):
        echelon.push((0, 1, 5))
    assert echelon.rows == [(0, [1, 0])]


def test_integral_rows_scale_a_rational_block_by_the_least_scale_that_clears_it():
    F = Fraction
    # denominators 3, 5 and 15, a row of integers, and a zero row
    block = ((F(1, 3), F(-2, 5)), (F(4), F(-7)), (F(7, 15), F(0)), (F(0), F(0)))
    assert integral_rows(QQ, block) == ((5, -6), (60, -105), (7, 0), (0, 0))
    assert integral_rows(QQ, ((F(4), F(-7)),)) == ((4, -7),)
    assert integral_rows(QQ, ()) == ()


@given(st.lists(st.lists(st.fractions(-4, 4, max_denominator=6), min_size=2, max_size=2), max_size=4))
def test_integral_rows_over_q_are_the_rows_times_the_least_clearing_scale(rows):
    least = next(s for s in range(1, 61) if all((x * s).denominator == 1 for row in rows for x in row))
    out = integral_rows(QQ, rows)
    assert all(type(x) is int for row in out for x in row)
    assert out == tuple(tuple(x * least for x in row) for row in rows)


@pytest.mark.parametrize("field", [GF(2), GF(5), GF(1000003)])
def test_integral_rows_over_a_prime_field_are_the_rows_as_they_are(field):
    for block in ((), ((1, 0), (0, 1)), [[field.from_int(x) for x in range(4)]]):
        assert integral_rows(field, block) is block


@pytest.mark.parametrize("matrix", [qmat([[Fraction(1, 3), 2], [0, Fraction(5, 6)]]),
                                    Matrix(GF(5), [[1, 4, 0]]), Matrix(QQ, [], 3)])
def test_a_matrix_builds_its_integral_form_once(matrix):
    form = matrix.integral()
    assert matrix.integral() is form
    assert form.rows == integral_rows(matrix.field, matrix.entries)
    assert form.columns == tuple(Matrix(matrix.field, form.rows, matrix.ncols).columns())


@given(st.lists(st.lists(st.fractions(-3, 3, max_denominator=12), min_size=3, max_size=3), max_size=4))
def test_pushing_a_fraction_vector_stores_the_row_of_its_integral_rows(vectors):
    direct, scaled = IntegerEchelon(QQ, 3), IntegerEchelon(QQ, 3)
    for v in vectors:
        assert direct.push(v) == scaled.push(integral_rows(QQ, (v,))[0])
        assert direct.rows == scaled.rows


def _square_cases(field, elems):
    """(field, rows, combination): a square matrix of side 0..4 and, when
    combination is not None, the coefficients that replace its last row
    by a combination of the rows above it, which makes it singular."""
    return st.integers(0, 4).flatmap(lambda n: st.tuples(
        st.just(field),
        st.lists(st.lists(elems, min_size=n, max_size=n), min_size=n, max_size=n),
        st.one_of(st.none(), st.lists(st.integers(-3, 3), min_size=max(n - 1, 0), max_size=max(n - 1, 0))),
    ))


@settings(max_examples=400)
@given(st.one_of(
    _square_cases(QQ, st.one_of(st.just(Fraction(0)), st.fractions(-5, 5, max_denominator=50))),
    *(_square_cases(GF(p), st.one_of(st.integers(0, min(p - 1, 2)), st.integers(0, p - 1)))
      for p in (2, 3, 5, 7, 1000003)),
))
def test_bareiss_determinant_matches_rank_and_the_laplace_determinant(case):
    """Over GF(p) the determinant is the Laplace one; over Q, whose rows
    are scaled to ints by the lcm of their denominators, it is the Laplace
    one times those scales.  Either way it is nonzero iff the rank is full."""
    field, rows, combination = case
    if combination is not None and rows:
        last = [field.zero] * len(rows)
        for c, row in zip(combination, rows):
            last = _combination(field, last, row, c)
        rows[-1] = last
    scaled, scales = [], 1
    for row in rows:
        scale = 1 if field.is_finite() else math.lcm(*(x.denominator for x in row))
        scaled.append([int(x * scale) for x in row])
        scales *= scale
    det = bareiss_determinant(field, scaled)
    assert det == oracles.det_laplace(field, rows) * scales
    assert (det != 0) == (Matrix(field, rows, len(rows)).rank() == len(rows))
    if combination is not None and rows:
        assert det == 0


def test_bareiss_determinant_needs_a_row_swap_and_exact_division():
    # a zero in the first pivot place, and a third step that divides by 2
    assert bareiss_determinant(QQ, [[0, 1], [1, 0]]) == -1
    assert bareiss_determinant(QQ, [[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == 4
    assert bareiss_determinant(GF(5), [[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == 4
    assert bareiss_determinant(GF(2), [[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == 0
    assert bareiss_determinant(QQ, []) == 1
    with pytest.raises(ShapeError):
        bareiss_determinant(QQ, [[1, 2]])
