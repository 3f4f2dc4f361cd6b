import inspect
import json
import math
import re
import sys
import time
from collections import Counter
from decimal import Decimal
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from stanleydepth import degrees as dg
from stanleydepth import hilbert, modules
from stanleydepth.errors import InputFormatError, PreconditionError, ResourceLimitError, ShapeError
from stanleydepth.fields import QQ
from stanleydepth.hilbert import (
    HilbertDecomposition,
    HilbertPartition,
    Interval,
    TruncatedSeries,
    alive_summands,
    decomposition_from_json,
    decomposition_to_json,
    enumerate_partitions,
    ValidationFailure,
    hdepth,
    load_decomposition_file,
    partition_to_decomposition,
    partition_to_json,
    partitions_by_depth,
    require_g_determined,
    truncated_series,
    validate_decomposition,
    validated_alive,
    z_graded_hdepth,
)


@st.composite
def boxed_partitions(draw):
    n = draw(st.integers(1, 2))
    g = tuple(draw(st.integers(0, 2)) for _ in range(n))
    count = draw(st.integers(1, 3))
    intervals = []
    for _ in range(count):
        a = tuple(draw(st.integers(0, g[j])) for j in range(n))
        b = tuple(draw(st.integers(a[j], g[j])) for j in range(n))
        intervals.append((a, b))
    return g, HilbertPartition(intervals)


def test_truncated_series_fills_zero_coefficients(m2):
    series = truncated_series(m2)
    assert series.coefficients == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    assert sum(series.coefficients.values()) == 3
    assert series.coefficient((0, 0)) == 0
    assert series.coefficient((9, 9)) == 0


def test_series_equality():
    a = TruncatedSeries((1,), {(0,): 1})
    b = TruncatedSeries((1,), {(0,): 1, (1,): 0})
    assert a == b
    assert a != TruncatedSeries((1,), {(0,): 2})


def test_a_series_has_no_degree_outside_its_box():
    # the partition search numbers the cells of [0, g] alone, so a degree
    # outside the box is refused rather than left out of the search
    for degree in [(2,), (-1,), (0, 0)]:
        with pytest.raises(ShapeError, match=r"over \[0, \(1,\)\] has a degree outside it"):
            TruncatedSeries((1,), {(0,): 1, degree: 1})
    with pytest.raises(ShapeError):
        HilbertPartition([((-1,), (0,))]).series((1,))


@pytest.mark.parametrize("bad", [0.5, 1.9, True, "2", Decimal("1"), None])
def test_a_truncated_series_reads_every_entry_as_an_int(bad):
    # int() truncated 1.9 and parsed '2', and tuple() kept (True,), a key
    # equal to (1,); each now raises as a file entry would
    message = re.escape(f"expected an integer, got {bad!r}")
    for g, coefficients in (((1,), {(0,): bad}), ((1,), {(bad,): 1}), ((bad,), {})):
        with pytest.raises(InputFormatError, match=message):
            TruncatedSeries(g, coefficients)
    with pytest.raises(InputFormatError, match="expected an integer, got 1.9"):
        TruncatedSeries((1,), {(0,): 1.9, (True,): "2"})


def test_a_truncated_series_keeps_int_entries_as_given():
    series = TruncatedSeries([1, 0], {(0, 0): 2, (1, 0): 0})
    assert series.g == (1, 0) and series.coefficients == {(0, 0): 2, (1, 0): 0}
    assert all(type(x) is int for a, c in series.coefficients.items() for x in (*a, c))


def test_partition_sorts_and_counts_multiplicity():
    p = HilbertPartition([((1, 0), (1, 0)), ((0, 0), (0, 0)), ((1, 0), (1, 0))])
    assert p.intervals[0] == Interval((0, 0), (0, 0))
    assert len(p) == 3
    series = p.series((1, 1))
    assert series.coefficient((1, 0)) == 2
    with pytest.raises(ShapeError):
        HilbertPartition([((1, 1), (0, 0))])
    with pytest.raises(ShapeError):
        p.series((0, 0))


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False, "1", Decimal("1"), None])
def test_the_public_constructors_read_every_entry_as_an_int(bad):
    # a float was truncated by int(), a string such as '2' parsed, and a
    # bool kept; each now raises as a file entry would
    message = f"expected an integer, got {bad!r}"
    for intervals in ([((bad, 0), (1, 1))], [((0, 0), (1, bad))]):
        with pytest.raises(InputFormatError, match=re.escape(message)):
            HilbertPartition(intervals)
    for summands in ([({bad}, (0, 1))], [({0}, (1, bad))], [({0.9}, (1.7, True))]):
        with pytest.raises(InputFormatError, match="expected an integer"):
            HilbertDecomposition(summands)
    with pytest.raises(InputFormatError, match=re.escape(message)):
        HilbertDecomposition([({bad}, (0, 1))])


def test_the_public_constructors_keep_int_entries_as_given():
    p = HilbertPartition([([1, 0], (1, 1)), ((0, 0), [0, 1])])
    assert p.intervals == (((0, 0), (0, 1)), ((1, 0), (1, 1)))
    assert all(type(x) is int for iv in p.intervals for end in iv for x in end)
    d = HilbertDecomposition([([1, 0], [0, 1]), (set(), (2, 0))])
    assert d.summands == ((frozenset({0, 1}), (0, 1)), (frozenset(), (2, 0)))


def test_partition_depth():
    p = HilbertPartition([((0, 1), (1, 1)), ((1, 0), (1, 0))])
    assert p.depth((1, 1)) == 1
    assert HilbertPartition([]).depth((1, 1)) == math.inf
    assert HilbertPartition([((0, 0), (1, 1))]).depth((1, 1)) == 2


def test_decomposition_basics():
    d = HilbertDecomposition([({0, 1}, (0, 1)), ({0}, (1, 0))])
    assert d.depth() == 1
    assert len(d) == 2
    assert HilbertDecomposition([]).depth() == math.inf
    assert d.canonical() == (((0, 1), (0, 1)), ((1, 0), (0,)))


def test_partition_to_decomposition_single_cells():
    p = HilbertPartition([((0, 1), (1, 1)), ((1, 0), (1, 0))])
    d = partition_to_decomposition(p, (1, 1))
    assert d.summands == (
        (frozenset({0, 1}), (0, 1)),
        (frozenset({0}), (1, 0)),
    )


def test_partition_to_decomposition_spreads_free_coordinates():
    # coordinate 0 stays free and ranges over 0..1; coordinate 1 is frozen
    p = HilbertPartition([((0, 0), (1, 1))])
    d = partition_to_decomposition(p, (2, 1))
    assert d.summands == (
        (frozenset({1}), (0, 0)),
        (frozenset({1}), (1, 0)),
    )


def test_partition_to_decomposition_full_box():
    p = HilbertPartition([((0, 0), (1, 1))])
    d = partition_to_decomposition(p, (1, 1))
    assert d.summands == ((frozenset({0, 1}), (0, 0)),)
    with pytest.raises(ShapeError):
        partition_to_decomposition(HilbertPartition([((0, 0), (3, 3))]), (2, 2))


@given(boxed_partitions())
def test_induced_summands_preserve_the_series(case):
    g, p = case
    d = partition_to_decomposition(p, g)
    series = p.series(g)
    n = len(g)
    for a in dg.box(dg.zero(n), g):
        alive = sum(
            1
            for zset, shift in d.summands
            if dg.leq(shift, a) and dg.support(dg.sub(a, shift)) <= zset
        )
        assert alive == series.coefficient(a)


@given(boxed_partitions())
def test_summand_multiset_survives_the_partition_round_trip(case):
    g, p = case
    d = partition_to_decomposition(p, g)
    again = partition_to_decomposition(oracles.decomposition_to_partition(d, g), g)
    assert again.canonical() == d.canonical()


@st.composite
def summand_lists(draw):
    """Summands with shifts inside and outside [0, g], negative entries
    included, and Z sets of any size, forced coordinates or not."""
    n = draw(st.integers(1, 3))
    g = tuple(draw(st.integers(0, 2)) for _ in range(n))
    summands = draw(st.lists(
        st.tuples(
            st.frozensets(st.integers(0, n - 1)),
            st.tuples(*(st.integers(-2, g[j] + 2) for j in range(n))),
        ),
        max_size=6,
    ))
    return g, summands


def _first_shape_failure(summands, g):
    """`_summand_shape_failure`'s text for the first non-admissible summand, or None."""
    failures = (modules._summand_shape_failure(frozenset(z), tuple(b), g, len(g)) for z, b in summands)
    return next((f for f in failures if f is not None), None)


def _assert_alive_like_the_predicate(alive, summands, g):
    assert list(alive) == list(dg.box(dg.zero(len(g)), g))
    for a, indices in alive.items():
        assert indices == [i for i, (z, b) in enumerate(summands) if oracles.is_alive(set(z), tuple(b), a)]


@given(summand_lists())
def test_alive_summands_matches_the_predicate(case):
    # admissible shapes are walked like the predicate; the first other
    # shape of a list raises with its shape failure
    g, summands = case
    admissible = [s for s in summands if _first_shape_failure([s], g) is None]
    _assert_alive_like_the_predicate(alive_summands(admissible, g), admissible, g)
    first = _first_shape_failure(summands, g)
    if first is not None:
        with pytest.raises(ShapeError) as raised:
            alive_summands(summands, g)
        assert str(raised.value) == first


@given(summand_lists(), st.sampled_from([list, set, frozenset]))
def test_alive_summands_reads_the_shape_memo_like_the_predicate(free_modules, case, zform):
    # Z as a list or set and b and g as lists give the predicate's alive
    # map; a module's shape records, asked twice for each shape, hold the
    # predicate's cells and power maps, the second time the record the
    # first stored, and a bad shape fails with its text both times
    g, summands = case
    spelled = [(zform(z), list(b)) for z, b in summands]
    admissible = [s for s in spelled if _first_shape_failure([s], g) is None]
    first = _first_shape_failure(spelled, g)
    _assert_alive_like_the_predicate(alive_summands(admissible, list(g)), admissible, g)
    if first is not None:
        with pytest.raises(ShapeError) as raised:
            alive_summands(spelled, list(g))
        assert str(raised.value) == first
    gm = free_modules(g)
    for z, b in HilbertDecomposition(spelled).summands:
        failure = _first_shape_failure([(z, b)], g)
        held = gm.shapes.get((z, b))
        for _ in range(2):
            checked = validate_decomposition(HilbertDecomposition([(z, b)]), gm)
            if failure is None:
                assert checked is None or checked.kind == "count"
                record = gm.shapes[z, b]
                cells = tuple(a for a in dg.box(dg.zero(len(g)), g) if oracles.is_alive(z, b, a))
                assert record.cells == cells and record.dim == gm.dim(b)
                assert record.images == tuple(gm.power_map(b, a) for a in cells)
                assert held in (None, record)
                held = record
            else:
                assert (checked.kind, checked.detail) == ("shape", failure)
                assert (z, b) not in gm.shapes


@pytest.fixture(scope="module")
def free_modules():
    """A free module of rank 1 for each g that `summand_lists` draws."""
    built = {}

    def free_module(g):
        if g not in built:
            built[g] = modules.build(modules.free(QQ, len(g), [dg.zero(len(g))]), g)
        return built[g]
    return free_module


@given(summand_lists())
def test_validation_reports_the_shape_failure_of_the_first_bad_summand(free_modules, case):
    # a shape the memo holds is admissible; one it does not hold is checked,
    # before and after the memo has seen every shape of the decomposition
    g, summands = case
    gm = free_modules(g)
    d = HilbertDecomposition(summands)
    first = _first_shape_failure(d.summands, g)
    for _ in range(2):
        failure = validate_decomposition(d, gm)
        if first is None:
            assert failure is None or failure.kind == "count"
        else:
            assert (failure.kind, failure.degree, failure.detail) == ("shape", None, first)


def test_the_shape_memo_holds_at_most_its_cell_bound(monkeypatch):
    # one module's records hold at most SHAPE_MEMO_CELLS cells; a walk past
    # the bound starts the memo over and still sees every shape's cells
    monkeypatch.setattr(modules, "SHAPE_MEMO_CELLS", 10)
    g = (2, 2)
    gm = modules.build(modules.free(QQ, 2, [(0, 0)]), g)
    shapes = list(hilbert.admissible_shapes(g))
    shapes.append(({0, 1}, (0, 0)))  # its 9 cells start the memo over
    d = HilbertDecomposition(shapes)
    for _ in range(2):
        failure = validate_decomposition(d, gm)
        assert (failure.kind, failure.degree) == ("count", (0, 0))
        held = sum(len(record.cells) for record in gm.shapes.values())
        assert 0 < held <= 10 and held == gm._shape_cells
        for (z, b), record in gm.shapes.items():
            assert record.cells == tuple(a for a in dg.box((0, 0), g) if oracles.is_alive(z, b, a))
    assert list(gm.shapes) == [(frozenset({0, 1}), (0, 0))]
    other = modules.build(modules.free(QQ, 2, [(0, 0)]), g)
    assert not other.shapes
    validate_decomposition(d, other)
    assert other.shapes.keys() == gm.shapes.keys() and other.shapes[frozenset({0, 1}), (0, 0)] is not gm.shapes[frozenset({0, 1}), (0, 0)]


def test_a_changed_alive_map_changes_no_later_answer():
    g = (1, 2)
    summands = [({0, 1}, (0, 0)), ({0, 1}, (1, 0)), ([0, 1], [0, 2])]
    first = alive_summands(summands, g)
    expected = {a: list(indices) for a, indices in first.items()}
    for indices in first.values():
        indices.append(99)
    first[(5, 5)] = [1]
    assert alive_summands(summands, g) == expected


def test_validate_accepts_a_known_good_decomposition(ex34, ex34_dec):
    assert validate_decomposition(ex34_dec, ex34) is None


def test_validate_counts_summands_per_degree(ex34):
    # swapping the second summand down to K[X2] starves degree (1,1)
    d = HilbertDecomposition([({0, 1}, (1, 0)), ({1}, (0, 1))])
    failure = validate_decomposition(d, ex34)
    assert failure is not None and failure.kind == "count"
    assert failure.degree == (1, 1)
    assert "covers 1, module has 2" in str(failure)


def test_validate_rejects_bad_shapes(m2):
    shape = validate_decomposition(HilbertDecomposition([({1}, (1, 0))]), m2)
    assert shape is not None and shape.kind == "shape"
    assert "forced" in str(shape)


def test_validate_empty_decomposition_fails_at_first_nonzero_degree(m2):
    failure = validate_decomposition(HilbertDecomposition([]), m2)
    assert failure is not None and failure.kind == "count"
    assert failure.degree == (0, 1)


def test_validated_alive_raises_the_first_failure(ex34, m2, ex34_dec):
    records, alive, images = validated_alive(ex34_dec, ex34)
    assert alive == alive_summands(ex34_dec.summands, ex34.g)
    assert [record.dim for record in records] == [ex34.dim(b) for _z, b in ex34_dec.summands]
    for a, indices in alive.items():
        assert images[a] == [ex34.power_map(ex34_dec.summands[i][1], a) for i in indices]
    with pytest.raises(ValidationFailure) as count:
        validated_alive(HilbertDecomposition([({0, 1}, (1, 0)), ({1}, (0, 1))]), ex34)
    assert (count.value.kind, count.value.degree) == ("count", (1, 1))
    assert count.value.detail == "decomposition covers 1, module has 2"
    assert count.value.reason == f"summand count mismatch at degree (1, 1): {count.value.detail}"
    assert str(count.value) == f"not a Hilbert decomposition of the module: {count.value.reason}"
    with pytest.raises(ValidationFailure) as shape:
        validated_alive(HilbertDecomposition([({1}, (1, 0))]), m2)
    assert (shape.value.kind, shape.value.degree) == ("shape", None)
    assert "forced" in shape.value.detail and shape.value.reason == shape.value.detail
    assert isinstance(shape.value, PreconditionError)


def test_enumerate_partitions_m2_at_depth_one(m2):
    series = truncated_series(m2)
    found = list(enumerate_partitions(series, 1))
    assert [p.intervals for p in found] == [
        (Interval((0, 1), (1, 1)), Interval((1, 0), (1, 0))),
        (Interval((0, 1), (0, 1)), Interval((1, 0), (1, 1))),
        (
            Interval((0, 1), (0, 1)),
            Interval((1, 0), (1, 0)),
            Interval((1, 1), (1, 1)),
        ),
    ]
    assert list(enumerate_partitions(series, 2)) == []


def test_enumerate_partitions_is_lazy(m2):
    series = truncated_series(m2)
    gen = enumerate_partitions(series, 0)
    first = next(gen)
    assert isinstance(first, HilbertPartition)
    gen.close()


def test_enumerate_partitions_depth_bounds(m2):
    series = truncated_series(m2)
    with pytest.raises(PreconditionError):
        next(enumerate_partitions(series, 3))
    with pytest.raises(PreconditionError):
        next(enumerate_partitions(series, -1))


def test_enumerate_partitions_line():
    gm = modules.build(modules.free(QQ, 1, [(0,)]), (1,))
    series = truncated_series(gm)
    deep = list(enumerate_partitions(series, 1))
    assert [p.intervals for p in deep] == [(Interval((0,), (1,)),)]
    assert len(list(enumerate_partitions(series, 0))) == 2


def test_enumeration_matches_brute_oracle_on_random_modules():
    for gm in oracles.random_modules(12, seed=2026):
        series = truncated_series(gm)
        for s in range(gm.n + 1):
            mine = {p.intervals for p in enumerate_partitions(series, s)}
            assert mine == oracles.brute_partitions(series, s)


def _assert_same_sequence(series, s, limit=None):
    mine = [p.intervals for p in islice(enumerate_partitions(series, s), limit)]
    reference = [p.intervals for p in islice(oracles.unpruned_partitions(series, s), limit)]
    assert mine == reference, (series.g, s)


def test_pruned_enumeration_yields_the_unpruned_sequence_on_random_modules():
    for seed in (2026, 7):
        for gm in oracles.random_modules(12, seed=seed):
            series = truncated_series(gm)
            for s in range(gm.n + 1):
                _assert_same_sequence(series, s)


def test_pruned_enumeration_yields_the_unpruned_sequence_on_maximal_ideals():
    # Every level from n down to hdepth in full; below it (and at the
    # hdepth of m_5 + R^2, 200k+ partitions) a prefix of the sequence.
    # hdepth is ceil(n/2) for m_n (as sdepth, Biro et al. 2010) and 3 for m_5 + R^2.
    sum_with_free = modules.direct_sum(
        [modules.maximal_ideal(QQ, 5), modules.free(QQ, 5, [dg.zero(5)] * 2)]
    )
    cases = [(modules.maximal_ideal(QQ, n), math.ceil(n / 2), None) for n in (3, 4, 5)]
    cases.append((sum_with_free, 3, 2000))
    for pres, depth, limit_at_depth in cases:
        gm = modules.build(pres)
        series = truncated_series(gm)
        for s in range(gm.n, -1, -1):
            limit = 300 if s < depth else limit_at_depth if s == depth else None
            _assert_same_sequence(series, s, limit)


def _maximal_ideal_plus_free(n, c):
    """m_n + R^c: c free summands generated in degree 0 beside m_n."""
    return modules.build(modules.direct_sum([modules.maximal_ideal(QQ, n), modules.free(QQ, n, [dg.zero(n)] * c)]))


def _assert_agrees_with_the_oracles(series, limit):
    """At every level the first `limit` partitions are the unpruned
    oracle's, `feasible` says whether there is one, and a level of fewer
    than `limit` partitions holds brute_partitions' set.  Returns the
    deepest level with a partition, which is brute_hdepth's answer when
    that level is complete."""
    deepest = None
    for s in range(len(series.g), -1, -1):
        mine = [p.intervals for p in islice(enumerate_partitions(series, s), limit)]
        reference = [p.intervals for p in islice(oracles.unpruned_partitions(series, s), limit)]
        assert mine == reference, (series, s)
        assert hilbert._CoverSearch(series, s).feasible() == bool(mine), (series, s)
        if len(mine) < limit:
            assert set(mine) == oracles.brute_partitions(series, s), (series, s)
        if mine and deepest is None:
            deepest = s
            if len(mine) < limit:
                assert oracles.brute_hdepth(series) == s, series
    return deepest


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("c", [0, 1, 3, 4, 7, 8, 15, 16])
def test_the_search_agrees_with_the_oracles_at_the_field_width_boundaries(n, c):
    # m_n + R^c has coefficients c at 0 and c + 1 elsewhere: 0 and 1, then
    # 2^k - 1 beside 2^k and 2^k beside 2^k + 1, filling a residual field
    # of the packed search key or widening it by one bit
    gm = _maximal_ideal_plus_free(n, c)
    series = truncated_series(gm)
    assert set(series.coefficients.values()) == {c, c + 1}
    assert _assert_agrees_with_the_oracles(series, 1000) == hdepth(gm) == math.ceil(n / 2)


@st.composite
def small_series(draw):
    g = draw(st.sampled_from([(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2), (1, 1, 1)]))
    return TruncatedSeries(g, {a: draw(st.integers(0, 17)) for a in dg.box(dg.zero(len(g)), g)})


@settings(max_examples=60, deadline=None)
@given(small_series())
def test_the_search_agrees_with_the_oracles_on_series_of_coefficients_up_to_17(series):
    _assert_agrees_with_the_oracles(series, 200)


# m_n + R^c at level s: len(dead), len(alive) after `feasible` and after
# listing the first `limit` partitions (None: all), pinned so that a search
# listing the same sequence but remembering fewer residuals fails
PRUNING_WORK = [
    (5, 2, 3, 2000, (0, 49), (311, 342)),
    (4, 0, 4, None, (2, 1), (2, 1)),
    (4, 0, 3, None, (13, 1), (13, 1)),
    (4, 0, 2, None, (0, 12), (40, 230)),
    (5, 0, 5, None, (2, 1), (2, 1)),
    (5, 0, 4, None, (18, 1), (18, 1)),
    (5, 0, 3, None, (0, 17), (1562, 855)),
]


@pytest.mark.parametrize("n, c, s, limit, after_feasible, after_listing", PRUNING_WORK)
def test_the_partition_search_remembers_the_pinned_residuals(n, c, s, limit, after_feasible, after_listing):
    gm = _maximal_ideal_plus_free(n, c)
    series = truncated_series(gm)
    search = hilbert._CoverSearch(series, s)
    feasible = search.feasible()
    assert (len(search.dead), len(search.alive)) == after_feasible
    listed = sum(1 for _ in islice(search.walk(tight=False), limit)) if feasible else 0
    assert (len(search.dead), len(search.alive)) == after_listing
    assert listed == (limit or len(list(oracles.unpruned_partitions(series, s))))


class _AddOnce(set):
    def add(self, key):
        assert key not in self, "a residual joined dead twice"
        super().add(key)


@pytest.mark.parametrize("n, c", [(3, 0), (4, 0), (5, 0), (5, 2)])
def test_the_partition_search_adds_no_residual_to_dead_twice(n, c):
    # the child test skips a residual already in dead; without it the tight
    # walk walks that residual again and adds it a second time
    series = truncated_series(_maximal_ideal_plus_free(n, c))
    for s in range(n, -1, -1):
        search = hilbert._CoverSearch(series, s)
        search.dead = _AddOnce()
        if search.feasible():
            sum(1 for _ in islice(search.walk(tight=False), 2000))


def test_the_partition_search_looks_up_a_cover_record_once_per_pushed_frame():
    series = truncated_series(_maximal_ideal_plus_free(5, 2))
    for s in range(5, 2, -1):
        search = hilbert._CoverSearch(series, s)
        calls = Counter()

        def counted(name, method):
            def wrapper(*args):
                calls[name] += 1
                return method(*args)
            return wrapper

        for name in ("covers", "first_positive"):
            setattr(search, name, counted(name, getattr(search, name)))
        feasible = search.feasible()
        # a fresh tight walk pushes each residual it refutes once, and the
        # path it ends on: one frame per key of dead and of alive but 0
        assert calls["covers"] == calls["first_positive"] == len(search.dead) + len(search.alive) - 1
        if feasible:
            assert sum(1 for _ in islice(search.walk(tight=False), 2000)) == 2000
            assert calls["covers"] == calls["first_positive"] > len(search.dead) + len(search.alive)


@st.composite
def cover_boxes(draw):
    n = draw(st.integers(1, 4))
    g = tuple(draw(st.lists(st.integers(0, 3 if n < 4 else 2), min_size=n, max_size=n)))
    width = draw(st.integers(2, 6))
    cells = list(dg.box(dg.zero(n), g))
    top = draw(st.sampled_from(cells))
    largest = draw(st.integers(1 << (width - 2), (1 << (width - 1)) - 1))
    return TruncatedSeries(g, {a: largest if a == top else draw(st.integers(0, largest)) for a in cells}), width


@settings(max_examples=40, deadline=None)
@given(cover_boxes())
def test_every_cover_word_is_the_box_sum_of_its_cells(series_and_width):
    series, width = series_and_width
    search = hilbert._CoverSearch(series, 0)
    assert search.width == width
    for element, a in enumerate(search.cells):
        for b in search.covers(element)[0]:
            assert search.word(element, b) == oracles.box_word(series.g, a, b, search.width), (a, b)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=4), st.booleans())
def test_each_cover_record_lists_the_ends_of_the_whole_box_ranking(g, wide):
    g = tuple(g)
    series = TruncatedSeries(g, {a: 1 for a in dg.box(dg.zero(len(g)), g)})
    for min_depth in range(len(g) + 1):
        search = hilbert._CoverSearch(series, min_depth, wide)
        listed = 0
        for element, a in enumerate(search.cells):
            ends, first_tight, words = search.covers(element)
            assert (ends, first_tight) == oracles.ranked_cover_ends(a, g, min_depth, wide), a
            assert words == [None] * len(ends)
            listed += len(ends)
        assert search.ranked == listed


def test_hdepth_matches_brute_oracle_on_random_modules():
    for seed in (2026, 7):
        for gm in oracles.random_modules(12, seed=seed):
            assert hdepth(gm) == oracles.brute_hdepth(truncated_series(gm))


def _assert_z_graded_bound_is_sound_and_exact(modules_):
    for gm in modules_:
        series = truncated_series(gm)
        bound = z_graded_hdepth(series)
        assert bound == oracles.binomial_z_graded_hdepth(series)
        assert bound >= oracles.brute_hdepth(series)
        if bound < gm.n:
            assert next(enumerate_partitions(series, bound + 1), None) is None


def test_z_graded_bound_is_sound_and_exact_on_random_modules():
    for seed in (2026, 7):
        _assert_z_graded_bound_is_sound_and_exact(oracles.random_modules(12, seed=seed))


@pytest.mark.extended
@pytest.mark.parametrize("seed", range(1, 11))
def test_z_graded_bound_is_sound_and_exact_on_the_larger_random_corpus(seed):
    _assert_z_graded_bound_is_sound_and_exact(oracles.random_modules(40, seed=seed))


def test_z_graded_bound_of_maximal_ideals_is_half_of_n():
    # Bruns, Krattenthaler and Uliczka (2010): ceil(n/2) for m_n, whose
    # truncated series at g = (1, ..., 1) is 1 at every nonzero 0/1 vector
    for n in range(2, 11):
        ones = dg.ones(n)
        series = TruncatedSeries(ones, {a: 1 for a in dg.box(dg.zero(n), ones) if any(a)})
        if n <= 6:
            assert series == truncated_series(modules.build(modules.maximal_ideal(QQ, n)))
        assert z_graded_hdepth(series) == math.ceil(n / 2) == oracles.binomial_z_graded_hdepth(series)


def test_z_graded_bound_of_m2_by_hand(m2):
    # H = 2t/(1-t) + t^2/(1-t)^2: (1-t)^2 H = 2t - t^2, (1-t) H = 2t + t^2/(1-t)
    series = truncated_series(m2)
    assert oracles.z_graded_coefficients(series, 2) == [0, 2, -1, 0, 0]
    assert oracles.z_graded_coefficients(series, 1) == [0, 2, 1, 1, 1]
    assert z_graded_hdepth(series) == 1


def test_z_graded_bound_returns_quickly_on_a_box_near_the_degree_limit():
    # K[X_1]/(X_1^k): the box [0, g+1] has k + 2 degrees, within BOX_DEGREE_LIMIT
    k = modules.BOX_DEGREE_LIMIT // 2
    series = truncated_series(modules.build(modules.quotient_by_monomial_ideal(QQ, 1, [(k,)])))
    start = time.perf_counter()
    assert z_graded_hdepth(series) == 0
    assert time.perf_counter() - start < 1.0


def _first_of_the_walk_from_n(gm):
    series = truncated_series(gm)
    for s in range(gm.n, -1, -1):
        for partition in enumerate_partitions(series, s):
            if partition.depth(gm.g) == s and oracles.tight_refinement(partition, gm.g, s) == partition:
                return s, partition


def test_the_depth_walk_starts_with_the_item_a_walk_from_n_starts_with(m2, ex34, ex36):
    corpus = [m2, ex34, ex36]
    for seed in (2026, 7):
        corpus.extend(oracles.random_modules(12, seed=seed))
    for gm in corpus:
        assert next(partitions_by_depth(gm)) == _first_of_the_walk_from_n(gm)


def test_hdepth_examples(m2):
    value, partition = hdepth(m2, return_partition=True)
    assert value == 1
    assert partition.intervals == (
        Interval((0, 1), (0, 1)),
        Interval((1, 0), (1, 0)),
        Interval((1, 1), (1, 1)),
    )
    assert hdepth(m2) == 1


def test_hdepth_of_free_modules_is_n():
    for n in (1, 2, 3):
        gm = modules.build(modules.free(QQ, n, [dg.zero(n)]), dg.ones(n))
        assert hdepth(gm) == n


def test_hdepth_zero_module_is_infinite():
    gm = modules.build(modules.quotient_by_monomial_ideal(QQ, 2, [(0, 0)]))
    value, partition = hdepth(gm, return_partition=True)
    assert value == math.inf and len(partition) == 0


def test_the_zero_series_has_only_the_empty_partition_at_every_depth():
    gm = modules.build(modules.quotient_by_monomial_ideal(QQ, 2, [(0, 0)]))
    series = truncated_series(gm)
    for s in range(gm.n + 1):
        assert list(enumerate_partitions(series, s)) == [HilbertPartition([])]


def test_hdepth_of_a_long_chain_builds_only_the_covers_it_tries():
    # K[X_1]/(X_1^1000): 1000 cells, and the covers of every cell would be
    # about 500,000 intervals of 333 cells on average
    gm = modules.build(modules.quotient_by_monomial_ideal(QQ, 1, [(1000,)]))
    start = time.perf_counter()
    assert hdepth(gm) == 0
    assert time.perf_counter() - start < 5.0


def test_the_depth_search_does_not_recurse():
    # K[X_1]/(X_1^1000): the depth-0 partition stacks 1000 covers of one cell each
    gm = modules.build(modules.quotient_by_monomial_ideal(QQ, 1, [(1000,)]))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        value, partition = hdepth(gm, return_partition=True)
    finally:
        sys.setrecursionlimit(limit)
    assert (value, len(partition)) == (0, 1000)


def test_the_partition_search_raises_past_its_state_budget(monkeypatch):
    # the search for m_4 + R^2's depth-3 partition proves three residuals to have none
    m4r2 = _maximal_ideal_plus_free(4, 2)
    monkeypatch.setattr(hilbert, "PARTITION_STATE_BUDGET", 3)
    assert hdepth(m4r2) == 3
    monkeypatch.setattr(hilbert, "PARTITION_STATE_BUDGET", 2)
    with pytest.raises(ResourceLimitError, match="holds more than PARTITION_STATE_BUDGET = 2 residuals"):
        hdepth(m4r2)
    with pytest.raises(ResourceLimitError, match="PARTITION_STATE_BUDGET"):
        list(enumerate_partitions(truncated_series(m4r2), 3))


def test_the_partition_search_raises_past_its_cover_rank_budget(monkeypatch):
    # K[X_1]/(X_1^10): the depth-0 search lists the 10 - a tight ends of
    # box(a, g) at each cell a < 10, 55 in all
    chain = modules.build(modules.quotient_by_monomial_ideal(QQ, 1, [(10,)]))
    monkeypatch.setattr(hilbert, "COVER_RANK_BUDGET", 55)
    assert hdepth(chain) == 0
    monkeypatch.setattr(hilbert, "COVER_RANK_BUDGET", 54)
    with pytest.raises(ResourceLimitError, match="ranks more than COVER_RANK_BUDGET = 54 interval ends"):
        hdepth(chain)
    with pytest.raises(ResourceLimitError, match="COVER_RANK_BUDGET"):
        list(enumerate_partitions(truncated_series(chain), 0))


def _assert_walks_every_partition_by_depth(gm):
    walk = list(partitions_by_depth(gm))
    levels = [s for s, _ in walk]
    assert levels == sorted(levels, reverse=True)
    assert all(p.depth(gm.g) == s for s, p in walk)
    everything = enumerate_partitions(truncated_series(gm), 0)
    tight = (p for p in everything if oracles.tight_refinement(p, gm.g, p.depth(gm.g)) == p)
    assert Counter(p for _, p in walk) == Counter(tight)
    assert walk[0] == hdepth(gm, return_partition=True)


def test_partitions_by_depth_walks_every_partition_once(m2, ex34, ex36):
    for gm in (m2, ex34, ex36):
        _assert_walks_every_partition_by_depth(gm)


def test_partitions_by_depth_on_random_modules():
    for gm in oracles.random_modules(12, seed=2026):
        _assert_walks_every_partition_by_depth(gm)


def test_partitions_by_depth_lists_the_tight_partitions_of_each_depth():
    # level s holds exactly the brute-force partitions of depth s whose
    # every interval [a, b] has contact max(s, contact(a))
    for seed in (2026, 7):
        for gm in oracles.random_modules(12, seed=seed):
            series = truncated_series(gm)
            levels = {s: set() for s in range(gm.n + 1)}
            for s, partition in partitions_by_depth(gm):
                assert oracles.tight_refinement(partition, gm.g, s) == partition, (s, partition)
                levels[s].add(partition.intervals)
            for s, listed in levels.items():
                brute = (HilbertPartition(intervals) for intervals in oracles.brute_partitions(series, s))
                tight = {p.intervals for p in brute if p.depth(gm.g) == s and oracles.tight_refinement(p, gm.g, s) == p}
                assert listed == tight, (gm.g, s)


def test_the_tight_refinement_of_m2s_widest_partition(m2):
    # [(0,1), (1,1)] has contact 2 > max(1, 1): it splits along X_1 into
    # [(0,1), (0,1)] and [(1,1), (1,1)], both tight at level 1
    widest = HilbertPartition([((0, 1), (1, 1)), ((1, 0), (1, 0))])
    singletons = HilbertPartition([((0, 1), (0, 1)), ((1, 0), (1, 0)), ((1, 1), (1, 1))])
    assert oracles.tight_refinement(widest, m2.g, 1) == singletons
    assert oracles.tight_refinement(singletons, m2.g, 1) == singletons
    # at level 2 the interval of contact 2 is already tight
    assert oracles.tight_refinement(HilbertPartition([((0, 0), (1, 1))]), (1, 1), 2).intervals == (
        Interval((0, 0), (1, 1)),
    )


def test_partitions_by_depth_of_the_zero_module_and_an_undetermined_one():
    zero = modules.build(modules.quotient_by_monomial_ideal(QQ, 2, [(0, 0)]))
    assert list(partitions_by_depth(zero)) == [(math.inf, HilbertPartition([]))]
    undetermined = modules.build(modules.quotient_by_monomial_ideal(QQ, 1, [(2,)]), (1,))
    with pytest.raises(PreconditionError):
        next(partitions_by_depth(undetermined))


def test_require_g_determined_raises_with_location():
    pres = modules.quotient_by_monomial_ideal(QQ, 1, [(2,)])
    gm = modules.build(pres, (1,))
    with pytest.raises(PreconditionError, match=r"X_1 at degree \(1,\)"):
        require_g_determined(gm)
    # the verdict is cached on the module
    with pytest.raises(PreconditionError):
        require_g_determined(gm)
    require_g_determined(modules.build(pres, (2,)))


def test_a_passing_g_determined_check_runs_once_per_module(monkeypatch):
    from stanleydepth.stanley import sdepth

    calls = []
    original = modules.GradedModule.verify_g_determined

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(modules.GradedModule, "verify_g_determined", counting)
    # m_2 with X_1 times its syzygy as a second relation: D = (2, 1) is not
    # <= g, so the check ranks X_1 : M_(1, 1) -> M_(2, 1), which passes
    m2 = modules.maximal_ideal(QQ, 2)
    syzygy = m2.relations[0].triples
    pres = modules.ModulePresentation(2, QQ, m2.generator_degrees, [
        syzygy, [(gen, dg.add(shift, (1, 0)), coeff) for gen, shift, coeff in syzygy]])
    gm = modules.build(pres, (1, 1))
    assert not dg.leq(gm.join, gm.g)
    require_g_determined(gm)
    require_g_determined(gm)
    assert hdepth(gm) == 1
    assert sdepth(gm, with_witness=False).value == 1
    assert calls == [gm]


def test_decomposition_from_json_summand_form():
    obj = {"summands": [{"vars": [1, 2], "shift": [0, 1]}, {"vars": [1], "shift": [1, 0], "mult": 2}]}
    d = decomposition_from_json(obj, (1, 1))
    assert d.summands == (
        (frozenset({0, 1}), (0, 1)),
        (frozenset({0}), (1, 0)),
        (frozenset({0}), (1, 0)),
    )


def test_decomposition_from_json_interval_form():
    obj = {"intervals": [{"a": [0, 0], "b": [1, 1], "mult": 1}]}
    d = decomposition_from_json(obj, (2, 1))
    assert d.summands == (
        (frozenset({1}), (0, 0)),
        (frozenset({1}), (1, 0)),
    )


def test_decomposition_from_json_rejects_bad_entries():
    bad_cases = [
        "not a dict",
        {},
        {"summands": [{"vars": [0], "shift": [0, 0]}]},
        {"summands": [{"vars": [1], "shift": [0, 0], "mult": -1}]},
        {"summands": [{"shift": [0, 0]}]},
        {"intervals": [{"a": [0, 0]}]},
        {"intervals": [{"a": [0, 0], "b": [3, 3]}]},
        {"summands": [{"vars": [1], "shift": [1, 0], "mult": "x"}]},
        {"summands": [{"vars": [1], "shift": [1, 0], "mult": 1.5}]},
        {"summands": [{"vars": [1.0], "shift": [1, 0]}]},
        {"summands": [{"vars": [1], "shift": [1, 0.5]}]},
        {"intervals": [{"a": [0, 0], "b": [1, 1], "mult": 1.5}]},
        {"intervals": [{"a": [0, 0], "b": [1, "1"]}]},
        {"intervals": [{"a": [0], "b": [1]}]},
        {"intervals": [{"a": [0, 0], "b": [1, 1, 1]}]},
        {"intervals": [{"a": [1, 1], "b": [0, 1]}]},
    ]
    for obj in bad_cases:
        with pytest.raises(InputFormatError):
            decomposition_from_json(obj, (1, 1))


@pytest.mark.parametrize("names", [[1, 1], [2, 1, 2], [1, 2, 1, 2]])
def test_a_summand_that_names_a_variable_twice_is_refused(names):
    # it read as the summand of the set of its names, another decomposition
    item = {"vars": names, "shift": [0, 1]}
    with pytest.raises(InputFormatError, match=re.escape(f"summand names a variable twice in {item!r}")):
        decomposition_from_json({"summands": [{"vars": [1], "shift": [1, 0]}, item]}, (1, 1))


def test_decomposition_from_json_bounds_the_summands_before_expanding(monkeypatch):
    limit = hilbert.DECOMPOSITION_SUMMAND_LIMIT
    # [(0,0), (2,2)] with g = (3, 3) stands for the 9 summands of the box [(0,0), (2,2)]
    at_limit = {"intervals": [{"a": [0, 0], "b": [2, 2], "mult": 2}, {"a": [3, 3], "b": [3, 3]}]}
    assert len(decomposition_from_json(at_limit, (3, 3))) == 19
    monkeypatch.setattr(hilbert, "DECOMPOSITION_SUMMAND_LIMIT", 19)
    assert len(decomposition_from_json(at_limit, (3, 3))) == 19
    monkeypatch.setattr(hilbert, "DECOMPOSITION_SUMMAND_LIMIT", 18)
    with pytest.raises(ResourceLimitError, match="more than DECOMPOSITION_SUMMAND_LIMIT = 18 summands"):
        decomposition_from_json(at_limit, (3, 3))
    monkeypatch.setattr(hilbert, "DECOMPOSITION_SUMMAND_LIMIT", limit)
    # multiplicities far past the limit are refused without building any list
    for obj in ({"summands": [{"vars": [1], "shift": [0, 0], "mult": 10**18}]},
                {"intervals": [{"a": [0, 0], "b": [2, 2], "mult": limit // 9 + 1}]}):
        with pytest.raises(ResourceLimitError, match=f"more than DECOMPOSITION_SUMMAND_LIMIT = {limit}"):
            decomposition_from_json(obj, (3, 3))


def test_decomposition_json_round_trip(ex34_dec):
    obj = decomposition_to_json(ex34_dec)
    assert obj == {
        "summands": [
            {"vars": [1, 2], "shift": [0, 1], "mult": 1},
            {"vars": [1, 2], "shift": [1, 0], "mult": 1},
        ]
    }
    back = decomposition_from_json(obj, (1, 1))
    assert back.canonical() == ex34_dec.canonical()


def test_partition_to_json_groups_intervals():
    p = HilbertPartition([((0, 0), (0, 0)), ((0, 0), (0, 0)), ((0, 1), (1, 1))])
    assert partition_to_json(p) == {
        "intervals": [
            {"a": [0, 0], "b": [0, 0], "mult": 2},
            {"a": [0, 1], "b": [1, 1], "mult": 1},
        ]
    }


def test_load_decomposition_file(tmp_path):
    path = tmp_path / "dec.json"
    path.write_text(json.dumps({"summands": [{"vars": [1], "shift": [1, 0]}]}))
    d = load_decomposition_file(path, (1, 1))
    assert d.summands == ((frozenset({0}), (1, 0)),)
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    with pytest.raises(InputFormatError):
        load_decomposition_file(broken, (1, 1))
    with pytest.raises(InputFormatError):
        load_decomposition_file(tmp_path / "missing.json", (1, 1))
