import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from stanleydepth import degrees as dg
from stanleydepth.errors import DimensionMismatchError
from stanleydepth.fields import GF, QQ, PrimeField
from stanleydepth.linalg import Matrix
from stanleydepth import transversal
from stanleydepth.transversal import max_independent_transversal

F2 = PrimeField(2)


def test_disjoint_lines_give_a_full_transversal():
    families = [[(1, 0)], [(0, 1)]]
    picks = max_independent_transversal(QQ, 2, families)
    assert sorted(i for i, _ in picks) == [0, 1]


def test_shared_line_blocks_all_but_one():
    line = [(Fraction(1), Fraction(2))]
    families = [line, line, [(Fraction(2), Fraction(4))]]
    picks = max_independent_transversal(QQ, 2, families)
    assert len(picks) == 1


def test_augmenting_path_reassigns_an_early_greedy_pick():
    # family 0 must give up e1 for e2 once family 1 claims e1
    e1, e2 = (1, 0), (0, 1)
    families = [[e1, e2], [e1]]
    picks = dict(max_independent_transversal(QQ, 2, families))
    assert picks == {0: e2, 1: e1}


def test_empty_input_is_vacuously_full():
    assert max_independent_transversal(QQ, 3, []) == []


def test_zero_vectors_are_never_picked():
    assert max_independent_transversal(QQ, 2, [[(0, 0)]]) == []
    assert max_independent_transversal(QQ, 2, [[(0, 0)], [(1, 0)]]) == [(1, (1, 0))]


def test_a_vector_of_the_wrong_length_raises():
    with pytest.raises(DimensionMismatchError):
        max_independent_transversal(QQ, 2, [[(1, 0, 0)]])
    with pytest.raises(DimensionMismatchError):
        max_independent_transversal(QQ, 2, [[(1, 0)], [(0, 1, 5)]])


def test_ambient_dimension_caps_the_transversal():
    families = [[(1, 0), (0, 1)], [(1, 1)], [(0, 1)]]
    picks = max_independent_transversal(F2, 2, families)
    assert len(picks) == 2


def _families_strategy(entry_st):
    return st.lists(
        st.lists(
            st.tuples(entry_st, entry_st, entry_st),
            min_size=0,
            max_size=3,
        ),
        min_size=0,
        max_size=4,
    )


def _check_transversal(field, ambient, families):
    picks = max_independent_transversal(field, ambient, families)
    indices = [i for i, _ in picks]
    assert len(set(indices)) == len(indices)
    for i, v in picks:
        assert v in [tuple(w) for w in families[i]]
    rows = [list(v) for _, v in picks]
    if rows:
        assert Matrix(field, rows, ambient).rank() == len(rows)
    assert len(picks) == oracles.max_transversal_bound(field, ambient, families)
    assert (len(picks) == len(families)) == oracles.rado_full_transversal(field, ambient, families)


@given(_families_strategy(st.integers(0, 1)))
def test_transversal_matches_min_max_bound_mod_two(families):
    _check_transversal(F2, 3, families)


@given(_families_strategy(st.integers(-2, 2).map(Fraction)))
def test_transversal_matches_min_max_bound_rational(families):
    _check_transversal(QQ, 3, families)


@given(st.one_of(
    st.tuples(st.just(QQ), _families_strategy(st.fractions(-3, 3, max_denominator=4))),
    st.tuples(st.just(F2), _families_strategy(st.integers(0, 1))),
    st.tuples(st.just(GF(3)), _families_strategy(st.integers(0, 2))),
    st.tuples(st.just(GF(5)), _families_strategy(st.integers(0, 4))),
    st.tuples(st.just(GF(7)), _families_strategy(st.integers(0, 6))),
))
def test_seeded_search_returns_the_unseeded_picks(case):
    field, families = case
    assert max_independent_transversal(field, 3, families) == (
        oracles.unseeded_max_independent_transversal(field, 3, families)
    )


def test_seeded_search_returns_the_unseeded_picks_on_shipped_degrees(ex34, ex34_dec, ex36, ex36_dec):
    for gm, d in ((ex34, ex34_dec), (ex36, ex36_dec)):
        for a in dg.box(dg.zero(gm.n), gm.g):
            families = [
                gm.power_map(shift, a).columns()
                for zset, shift in d.summands
                if dg.leq(shift, a) and dg.support(dg.sub(a, shift)) <= zset
            ]
            dim = gm.dim(a)
            assert max_independent_transversal(QQ, dim, families) == (
                oracles.unseeded_max_independent_transversal(QQ, dim, families)
            )


def _chain(field, length, scale):
    """Families [e_j, e_(j+1)] for j < length - 1, then [e_0]: the seeding
    picks e_j for family j, so the last family needs the augmenting path
    that shifts every earlier family up by one, with 2 * length - 1 items."""
    def unit(j):
        return tuple(scale if k == j else field.zero for k in range(length))
    return [[unit(j), unit(j + 1)] for j in range(length - 1)] + [[unit(0)]]


@pytest.mark.parametrize("field, entries", [
    (QQ, [Fraction(-3, 2), Fraction(1, 3), Fraction(0), Fraction(2), Fraction(-1, 4)]),
    (F2, [0, 1]),
    (GF(3), [0, 1, 2]),
    (GF(5), [0, 1, 2, 3, 4]),
])
def test_augmenting_paths_match_the_unseeded_search(field, entries, monkeypatch):
    rng = random.Random(7)
    corpus = [(length, _chain(field, length, entries[1])) for length in (2, 3, 4)]
    for _ in range(150):
        ambient = rng.randint(2, 4)
        corpus.append((ambient, [
            [tuple(rng.choice(entries) for _ in range(ambient)) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(2, 5))
        ]))
    lengths = []
    search = transversal._augmenting_path

    def counted(*args):
        path = search(*args)
        if path is not None:
            lengths.append(len(path))
        return path

    monkeypatch.setattr(transversal, "_augmenting_path", counted)
    for ambient, families in corpus:
        picks = max_independent_transversal(field, ambient, families)
        assert picks == oracles.unseeded_max_independent_transversal(field, ambient, families)
        assert len(picks) == oracles.max_transversal_bound(field, ambient, families)
    assert max(lengths) >= 5
    assert sum(length >= 3 for length in lengths) >= 3



def _atom_families(rng, field, scalar):
    """(ambient, families): two to five families of one to three vectors
    in K^3 or K^4, each a multiple of one of two to four atoms, or a sum
    of multiples of two.  Over a large field random vectors are
    independent; combinations of a few atoms leave families to the
    augmenting path."""
    ambient = rng.randint(3, 4)
    atoms = [tuple(scalar() for _ in range(ambient)) for _ in range(rng.randint(2, 4))]

    def vector():
        u, v = rng.choice(atoms), rng.choice(atoms)
        c, d = scalar(), rng.choice([field.zero, field.zero, scalar()])
        return tuple(field.add(field.mul(c, x), field.mul(d, y)) for x, y in zip(u, v))

    return ambient, [[vector() for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(2, 5))]


@pytest.mark.parametrize("field, scalar", [
    (QQ, lambda rng: Fraction(rng.randint(-50, 50), rng.randint(1, 50))),
    (GF(7), lambda rng: rng.randrange(7)),
    (GF(1000003), lambda rng: rng.randrange(1000003)),
])
def test_augmenting_paths_match_the_unseeded_search_over_larger_fields(field, scalar, monkeypatch):
    rng = random.Random(2024)
    corpus = [(length, _chain(field, length, scalar(rng) or field.one)) for length in (2, 3, 4)]
    corpus += [_atom_families(rng, field, lambda: scalar(rng)) for _ in range(200)]
    paths = []
    search = transversal._augmenting_path

    def counted(*args):
        paths.append(search(*args))
        return paths[-1]

    monkeypatch.setattr(transversal, "_augmenting_path", counted)
    for ambient, families in corpus:
        picks = max_independent_transversal(field, ambient, families)
        assert picks == oracles.unseeded_max_independent_transversal(field, ambient, families)
        assert len(picks) == oracles.max_transversal_bound(field, ambient, families)
    lengths = [len(path) for path in paths if path is not None]
    assert len(paths) >= 100 and len(lengths) >= 15
    assert max(lengths) >= 7
