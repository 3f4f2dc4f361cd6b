import json
import math
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import data_file
from stanleydepth import degrees as dg
from stanleydepth import modules
from stanleydepth.errors import (
    BoxError,
    HomogeneityError,
    InputFormatError,
    RangeError,
    ResourceLimitError,
    ShapeError,
)
from stanleydepth.fields import GF, QQ
from stanleydepth.linalg import Matrix, Subspace


def staircase(K):
    """The ideal (X1^i X2^(K-i) : 0 <= i <= K): K + 1 generators and
    K(K+1)/2 relations in two variables."""
    return modules.monomial_ideal(QQ, 2, [(i, K - i) for i in range(K + 1)])


EX36_DIMS = {
    (3, 0): 2, (2, 1): 1, (1, 2): 1, (0, 3): 1, (3, 1): 2,
    (2, 2): 2, (3, 2): 2, (1, 3): 2, (2, 3): 3, (3, 3): 2,
}


def test_maximal_ideal_presentation():
    pres = modules.maximal_ideal(QQ, 2)
    assert pres.generator_degrees == ((0, 1), (1, 0))
    assert len(pres.relations) == 1
    rel = pres.relations[0]
    assert rel.degree == (1, 1)
    assert rel.triples == ((0, (1, 0), Fraction(1)), (1, (0, 1), Fraction(-1)))
    assert pres.default_g() == (1, 1)


def test_maximal_ideal_dimensions(m2):
    assert {a: m2.dim(a) for a in dg.box((0, 0), m2.g)} == {
        (0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1,
    }
    assert not m2.is_zero_module()


def test_ex34_dimensions_and_coset_basis(ex34):
    assert {a: ex34.dim(a) for a in dg.box((0, 0), ex34.g)} == {
        (0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2,
    }
    piece = ex34.piece((1, 1))
    assert piece.gens == (0, 1, 2)
    assert piece.nonpivot_columns == (1, 2)


def test_free_module_line_with_g_override():
    gm = modules.build(modules.free(QQ, 1, [(0,)]), (2,))
    for a in dg.box((0,), (3,)):
        assert gm.dim(a) == 1
    for a in dg.box((0,), (2,)):
        assert gm.mult_map(a, 0).entries == ((Fraction(1),),)
    assert gm.verify_g_determined() is None


def test_ex36_dimensions(ex36):
    computed = {a: ex36.dim(a) for a in dg.box((0, 0), ex36.g) if ex36.dim(a)}
    assert computed == EX36_DIMS
    assert ex36.g == (3, 3)
    assert ex36.verify_g_determined() is None


def test_ex36_column_coordinates(ex36):
    # at degree (3,1) the images of X2*e1 and X2*e2 stay independent
    piece = ex36.piece((3, 1))
    assert piece.gens == (0, 1, 2)
    x2e1 = piece.coords([Fraction(1), Fraction(0), Fraction(0)])
    x2e2 = piece.coords([Fraction(0), Fraction(1), Fraction(0)])
    from stanleydepth.linalg import Matrix

    assert Matrix(QQ, [x2e1, x2e2]).rank() == 2


def test_ex36_relations_use_one_based_generators(ex36):
    rel = ex36.presentation.relations[0]
    assert rel.triples[0][0] == 0  # file says "gen": 1
    assert rel.degree == (3, 1)


def test_monomial_ideal_minimalization():
    assert modules.minimalize_monomials([(1, 0), (1, 0), (2, 0), (0, 1)]) == [
        (0, 1),
        (1, 0),
    ]
    pres = modules.monomial_ideal(QQ, 2, [(1, 0), (2, 0), (0, 1)])
    assert pres.generator_degrees == ((0, 1), (1, 0))


def test_monomial_ideal_dims_match_membership_oracle():
    gens = [(2, 0), (0, 2)]
    pres = modules.monomial_ideal(QQ, 2, gens)
    gm = modules.build(pres)
    assert gm.g == (2, 2)
    expected = oracles.monomial_dims("ideal", 2, gens, gm.g)
    assert {a: gm.dim(a) for a in dg.box((0, 0), gm.g)} == expected


def test_quotient_dims_match_membership_oracle():
    gens = [(2, 0), (1, 1)]
    gm = modules.build(modules.quotient_by_monomial_ideal(QQ, 2, gens))
    expected = oracles.monomial_dims("quotient", 2, gens, gm.g)
    assert {a: gm.dim(a) for a in dg.box((0, 0), gm.g)} == expected


def test_quotient_by_unit_ideal_is_zero_module():
    gm = modules.build(modules.quotient_by_monomial_ideal(QQ, 2, [(0, 0)]))
    assert gm.is_zero_module()
    assert gm.verify_g_determined() is None


def test_direct_sum_reindexes_relations(m2):
    pres = modules.direct_sum(
        [modules.maximal_ideal(QQ, 2), modules.free(QQ, 2, [(0, 0)])]
    )
    assert pres.generator_degrees == ((0, 1), (1, 0), (0, 0))
    assert len(pres.relations) == 1
    gm = modules.build(pres, (1, 1))
    for a in dg.box((0, 0), (1, 1)):
        assert gm.dim(a) == m2.dim(a) + 1
    with pytest.raises(ShapeError):
        modules.direct_sum([])
    with pytest.raises(ShapeError):
        modules.direct_sum([modules.free(QQ, 1, [(0,)]), modules.free(QQ, 2, [(0, 0)])])
    with pytest.raises(ShapeError):
        modules.direct_sum([modules.free(QQ, 1, [(0,)]), modules.free(GF(2), 1, [(0,)])])


def test_presentation_validation_errors():
    with pytest.raises(InputFormatError):
        modules.ModulePresentation(0, QQ, [])
    with pytest.raises(InputFormatError):
        modules.ModulePresentation(2, QQ, [(1,)])
    with pytest.raises(InputFormatError):
        modules.ModulePresentation(2, QQ, [(-1, 0)])
    with pytest.raises(InputFormatError):
        modules.ModulePresentation(2, QQ, [(0, 0)], [[(1, (0, 0), Fraction(1))]])
    with pytest.raises(InputFormatError):
        modules.ModulePresentation(2, QQ, [(0, 0)], [[(0, (0, -1), Fraction(1))]])
    with pytest.raises(HomogeneityError):
        modules.ModulePresentation(
            2,
            QQ,
            [(0, 0), (1, 0)],
            [[(0, (1, 0), Fraction(1)), (1, (1, 0), Fraction(1))]],
        )


def test_zero_coefficients_drop_out_of_relations():
    pres = modules.ModulePresentation(
        1, QQ, [(0,), (1,)], [[(0, (0,), Fraction(0)), (1, (2,), Fraction(0))]]
    )
    assert pres.relations == ()


def test_box_error_when_presentation_exceeds_box():
    pres = modules.quotient_by_monomial_ideal(QQ, 1, [(2,)])
    with pytest.raises(BoxError):
        modules.GradedModule(pres, (0,))
    gm = modules.build(pres, (1,))
    assert gm.verify_g_determined() == ((1,), 0)
    assert modules.build(pres, (2,)).verify_g_determined() is None


def test_bad_g_vectors_rejected():
    pres = modules.free(QQ, 2, [(0, 0)])
    with pytest.raises(InputFormatError):
        modules.GradedModule(pres, (1,))
    with pytest.raises(InputFormatError):
        modules.GradedModule(pres, (-1, 0))


def test_out_of_box_queries_raise_range_error(m2):
    with pytest.raises(RangeError):
        m2.dim((5, 5))
    for a, k in [((2, 2), 0), ((0, 2), 1), ((3, 0), 0), ((0, 0), 2), ((0, 0), -1), ((0,), 0)]:
        with pytest.raises(RangeError, match=re.escape(f"multiplication map at {(a, k)} is outside")):
            m2.mult_map(a, k)
    with pytest.raises(RangeError, match=re.escape("power map needs src <= dst, got (1, 1), (0, 0)")):
        m2.power_map((1, 1), (0, 0))
    for src, dst in [((0, 0), (3, 0)), ((-1, 0), (0, 0))]:
        outside = dst if src == (0, 0) else src
        with pytest.raises(RangeError, match=re.escape(f"degree {outside} is outside the computed box")):
            m2.power_map(src, dst)


def test_multiplication_maps_commute(ex34, ex36):
    for gm in (ex34, ex36):
        for a in dg.box(dg.zero(gm.n), gm.g):
            for k in range(gm.n):
                for l in range(k + 1, gm.n):
                    b = dg.add(dg.add(a, dg.unit(gm.n, k)), dg.unit(gm.n, l))
                    if not dg.leq(b, gm.top):
                        continue
                    via_k = gm.mult_map(dg.add(a, dg.unit(gm.n, k)), l) @ gm.mult_map(a, k)
                    via_l = gm.mult_map(dg.add(a, dg.unit(gm.n, l)), k) @ gm.mult_map(a, l)
                    assert via_k == via_l, (a, k, l)


def test_power_map_is_path_independent(ex36):
    step = ex36.power_map((2, 1), (3, 2))
    assert step == ex36.mult_map((2, 2), 0) @ ex36.mult_map((2, 1), 1)
    assert step == ex36.mult_map((3, 1), 1) @ ex36.mult_map((2, 1), 0)
    tall = ex36.power_map((3, 0), (3, 3))
    composed = (
        ex36.mult_map((3, 2), 1)
        @ ex36.mult_map((3, 1), 1)
        @ ex36.mult_map((3, 0), 1)
    )
    assert tall == composed
    identity = ex36.power_map((3, 0), (3, 0))
    assert identity.entries == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_power_map_through_a_zero_piece():
    # R/(X_2) + R(-(0,2)): M_(0,1) = 0 sits between two nonzero pieces
    pres = modules.direct_sum([
        modules.quotient_by_monomial_ideal(QQ, 2, [(0, 1)]),
        modules.free(QQ, 2, [(0, 2)]),
    ])
    gm = modules.build(pres)
    assert [gm.dim(a) for a in ((0, 0), (0, 1), (0, 2))] == [1, 0, 1]
    assert gm.power_map((0, 0), (0, 2)) == Matrix(QQ, [[QQ.zero]])


def test_image_subspace_dimension(ex34):
    def image(src, dst):
        m = ex34.power_map(src, dst)
        return Subspace(QQ, m.nrows, m.columns())

    left = image((0, 1), (1, 1))
    right = image((1, 0), (1, 1))
    assert left.dim == 1 and right.dim == 1
    # both images coincide inside the two-dimensional piece
    assert left == right


def test_load_module_file_kinds(tmp_path):
    obj = {
        "ring": {"n": 1, "field": "Q"},
        "module": {"kind": "free", "shifts": [[1]]},
    }
    path = tmp_path / "free.json"
    path.write_text(json.dumps(obj))
    gm = modules.load_module_file(path)
    assert gm.dim((1,)) == 1 and gm.dim((0,)) == 0
    gm2 = modules.load_module_file(path, field_override=GF(3), g_override=(2,))
    assert gm2.field == GF(3) and gm2.g == (2,)


def test_load_module_file_rejects_bad_input(tmp_path):
    cases = [
        {"module": {"kind": "free", "shifts": []}},
        {"ring": {"n": 2, "field": "Q"}},
        {"ring": {"field": "Q"}, "module": {"kind": "free", "shifts": []}},
        {"ring": {"n": 2, "field": "Q"}, "module": {"kind": "mystery"}},
        {"ring": {"n": 2, "field": "Q"}, "module": {"kind": "monomial_ideal"}},
        {"ring": {"n": 2, "field": "Q"}, "module": {"kind": "free", "shifts": []}, "g": [1]},
        {"ring": {"n": 2, "field": "Q"}, "module": {"kind": "free", "shifts": []}, "g": [-1, 0]},
        {"ring": {"n": 2, "field": "F4"}, "module": {"kind": "free", "shifts": []}},
        {"ring": {"n": 2.5}, "module": {"kind": "free", "shifts": []}},
        {"ring": {"n": 2}, "module": {"kind": "free", "shifts": [[0, 0]]}, "g": [1, 1.5]},
        {"ring": {"n": 2}, "module": {"kind": "free", "shifts": [[0, True]]}},
        {"ring": {"n": 2}, "module": {"kind": "free", "shifts": [0]}},
        {"ring": {"n": 2}, "module": {"kind": "monomial_ideal", "generators": [[1, "0"]]}},
        {"ring": {"n": 1}, "module": {"kind": "presentation", "generator_degrees": [[0]],
                                      "relations": [[{"gen": 1.0, "shift": [1], "coeff": "1"}]]}},
    ]
    for i, obj in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(InputFormatError):
            modules.load_module_file(path)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(InputFormatError):
        modules.load_module_file(broken)
    with pytest.raises(InputFormatError):
        modules.load_module_file(tmp_path / "missing.json")


def test_shipped_data_files_parse():
    m2 = modules.load_module_file(data_file("m2.json"))
    assert m2.n == 2 and m2.g == (1, 1)
    ex34 = modules.load_module_file(data_file("ex34.json"))
    assert len(ex34.presentation.generator_degrees) == 3
    ex36 = modules.load_module_file(data_file("ex36.json"))
    assert len(ex36.presentation.generator_degrees) == 5
    assert len(ex36.presentation.relations) == 3


def test_box_budget_raises_before_the_build(monkeypatch):
    pres = modules.maximal_ideal(QQ, 2)
    monkeypatch.setattr(modules.GradedModule, "_build", lambda self: pytest.fail("built"))
    with pytest.raises(ResourceLimitError, match=r"1002001 degrees, more than BOX_DEGREE_LIMIT = 100000"):
        modules.build(pres, (1000, 1000))
    monkeypatch.undo()
    monkeypatch.setattr(modules, "BOX_DEGREE_LIMIT", 9)  # the limit counts [0, g], not [0, g+1]
    assert len(modules.build(pres, (2, 2)).pieces) == 9
    with pytest.raises(ResourceLimitError, match=r"^the box \[0, g\] = \[0, \(3, 2\)\] has 12 degrees"):
        modules.build(pres, (3, 2))


def test_the_coordinate_limit_counts_n_cells_per_degree_and_n_more(monkeypatch):
    # K[X_1..X_n]/(X_1^99999): [0, g] has 10^5 degrees of n coordinates;
    # n = 16 asks for 16 x (10^5 + 16) cells, exactly COORDINATE_LIMIT
    def chain(n):
        return modules.quotient_by_monomial_ideal(QQ, n, [(99999,) + (0,) * (n - 1)])

    assert modules.COORDINATE_LIMIT == 16 * (10**5 + 16)
    monkeypatch.setattr(modules.GradedModule, "_build", lambda self: None)
    modules.build(chain(16))
    monkeypatch.setattr(modules.GradedModule, "_build", lambda self: pytest.fail("built"))
    with pytest.raises(ResourceLimitError, match=re.escape(
        "the box [0, g] has 100000 degrees of 17 coordinates: more than COORDINATE_LIMIT = 1600256 cells"
    )):
        modules.build(chain(17))
    monkeypatch.undo()
    # R in 1,264 variables asks for 1,264 x 1,265 cells, R in 1,265 for more
    assert modules.build(modules.free(QQ, 1264, [(0,) * 1264])).g == (0,) * 1264
    with pytest.raises(ResourceLimitError, match="1 degrees of 1265 coordinates"):
        modules.build(modules.free(QQ, 1265, [(0,) * 1265]))


def test_the_cell_budget_admits_m10_and_the_40_staircase():
    assert len(modules.load_module_file(data_file("m2.json"), g_override=(314, 314)).pieces) == 315 * 315
    assert len({id(p) for p in modules.build(modules.maximal_ideal(QQ, 10)).pieces.values()}) == 1024
    assert len({id(p) for p in modules.build(staircase(40)).pieces.values()}) == 862


def test_the_cell_budget_refuses_the_100_staircase_before_any_row_reduction(monkeypatch):
    pres = staircase(100)
    monkeypatch.setattr(Subspace, "extended", lambda *args: pytest.fail("reduced"))
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"^the pieces of the box \[0, D\] = \[0, \(100, 100\)\], D the join "
                       r"of all generator and relation degrees, need more than BUILD_CELL_BUDGET = 5000000 "
                       r"cells of degrees, masks and row reduction$"):
        modules.build(pres)
    assert time.perf_counter() - start < 1


def test_the_cell_budget_counts_rows_times_width_and_one_cell_per_mask(monkeypatch):
    # m_2 has 3 items, so a mask is one cell: one cell for each of the 4
    # degrees of [0, D] = [0, (1, 1)], 2 coordinates x 2 values of masks,
    # then signatures {}, {e2}, {e1} with no rows at 1 cell each and
    # {e1, e2, r}, which reduces one relation at width 2, at 2 + 1
    pres = modules.maximal_ideal(QQ, 2)
    monkeypatch.setattr(modules, "BUILD_CELL_BUDGET", 14)
    assert len(modules.build(pres).pieces) == 4
    for budget in (13, 7, 3):  # short of the last signature, of the masks, and of the degrees
        monkeypatch.setattr(modules, "BUILD_CELL_BUDGET", budget)
        monkeypatch.setattr(Subspace, "extended", lambda *args: pytest.fail("reduced"))
        with pytest.raises(ResourceLimitError, match=f"BUILD_CELL_BUDGET = {budget} "):
            modules.build(pres)


# ---------------------------------------------------------------------------
# shared pieces against the degree-by-degree build


def piece_data(piece):
    sub = piece.relation_subspace
    return piece.gens, piece.nonpivot_columns, sub.basis, sub.pivots


def assert_matches_unshared(gm):
    ref = oracles.unshared_build(gm.presentation, gm.g)
    assert list(gm.pieces) == list(dg.box(dg.zero(gm.n), gm.g))
    for a, piece in ref.pieces.items():  # every degree of [0, g+1]
        assert piece_data(gm.piece(a)) == piece_data(piece), a
    for (a, k), m in ref.mult_maps.items():
        assert gm.mult_map(a, k) == m, (a, k)
    for src in ref.pieces:
        for dst in dg.box(src, gm.top):
            assert gm.power_map(src, dst) == ref.power_map(src, dst), (src, dst)


@given(st.sampled_from([QQ, GF(2), GF(3)]), st.integers(0, 10**6))
def test_shared_build_matches_the_unshared_build(field, seed):
    for gm in oracles.random_modules(1, seed=seed, field=field):
        assert_matches_unshared(gm)


@given(st.sampled_from([QQ, GF(2), GF(3)]), st.integers(0, 10**6))
def test_shared_build_matches_the_unshared_build_on_random_presentations(field, seed):
    pres = oracles.random_presentations(1, seed=seed, field=field)[0]
    g = pres.default_g()
    assert_matches_unshared(modules.build(pres, g))
    for k in range(pres.n):  # g - e_k: the items of degree g_k lie on the top face
        if g[k]:
            assert_matches_unshared(modules.build(pres, g[:k] + (g[k] - 1,) + g[k + 1:]))


@pytest.mark.parametrize("pres", [
    *(staircase(K) for K in (1, 4, 8)), *(modules.maximal_ideal(QQ, n) for n in range(1, 6)),
], ids=[f"staircase{K}" for K in (1, 4, 8)] + [f"m{n}" for n in range(1, 6)])
def test_shared_build_matches_the_unshared_build_on_staircases_and_maximal_ideals(pres):
    assert_matches_unshared(modules.build(pres))


@pytest.mark.parametrize("name, field", [
    ("m2.json", None), ("ex34.json", None), ("ex36.json", None), ("ex36.json", GF(2)), ("ex36.json", GF(5)),
    # 46,656 power maps, each composed along a path by the oracle: ~20 s
    pytest.param("m6r9.json", None, marks=pytest.mark.extended),
])
def test_shared_build_matches_the_unshared_build_on_shipped_modules(name, field):
    assert_matches_unshared(modules.load_module_file(data_file(name), field_override=field))


# pairs: the distinct ends (M_a, M_(a+e_k)) of the multiplication maps.  A
# pair of two pieces has one map, and a piece paired with itself the one
# identity of its dimension: m6r9's 255 pairs are 6 * 2^5 of variable sets
# (S, S + {k}) and 63 of a nonempty S with itself, all of dimension 10
@pytest.mark.parametrize("name, pieces, pairs", [
    ("m6r9.json", 64, 255), ("ex36.json", 11, 24), ("ex34.json", 4, 7), ("m2.json", 4, 7),
])
def test_degrees_with_one_signature_share_one_piece_and_one_map(name, pieces, pairs):
    gm = modules.load_module_file(data_file(name))
    assert len({id(p) for p in gm.pieces.values()}) == pieces
    steps = [(a, k) for a in gm.pieces for k in range(gm.n) if a[k] < gm.top[k]]
    ends = [(gm.piece(a), gm.piece(dg.add(a, dg.unit(gm.n, k)))) for a, k in steps]
    assert len({(id(src), id(dst)) for src, dst in ends}) == pairs
    two_pieces = {(id(src), id(dst)) for src, dst in ends if src is not dst}
    identities = {src.dim for src, dst in ends if src is dst}
    assert len({id(gm.mult_map(a, k)) for a, k in steps}) == len(two_pieces) + len(identities)
    if name == "m6r9.json":
        assert (len(two_pieces), identities) == (192, {10})


def _fractional_module():
    """Power maps with denominators 3, 5 and 15."""
    one = Fraction(1)
    return modules.build(modules.ModulePresentation(2, QQ, [(0, 0)] * 3, [
        [(0, (1, 0), 3 * one), (1, (1, 0), 2 * one)], [(1, (0, 1), 5 * one), (2, (0, 1), 7 * one)]]))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)])
def test_the_integer_form_is_one_scaled_copy_of_each_map(field):
    shipped = [modules.load_module_file(data_file(name), field_override=field)
               for name in ("ex34.json", "ex36.json")]
    scales = set()
    for gm in shipped + oracles.random_modules(6, seed=5, field=field) + (
            [_fractional_module()] if field == QQ else []):
        for src in gm.pieces:
            for dst in dg.box(src, gm.top):
                m = gm.power_map(src, dst)
                form = m.integral()
                assert m.integral() is form
                assert all(type(x) is int for row in form.rows for x in row)
                assert form.columns == tuple(Matrix(field, form.rows, m.ncols).columns())
                if field.is_finite():
                    assert form.rows == m.entries
                    continue
                # one positive scale, the least that clears every denominator
                scale = math.lcm(*(x.denominator for row in m.entries for x in row))
                assert form.rows == tuple(tuple(x * scale for x in row) for row in m.entries)
                scales.add(scale)
    assert field.is_finite() or {3, 5, 15} <= scales


def maximal_ideal_with_redundant_syzygies(n):
    """m_n with its syzygies and, redundantly, X_k times the syzygy of
    X_k and X_(k+1), k + 1 taken mod n: D = (2, ..., 2), and the module is
    still m_n, g-determined at g = (1, ..., 1)."""
    base = modules.maximal_ideal(QQ, n)
    gen = {k: base.generator_degrees.index(dg.unit(n, k)) for k in range(n)}
    rows = [list(r.triples) for r in base.relations]
    for k in range(n):
        j = (k + 1) % n
        ek, ej = dg.unit(n, k), dg.unit(n, j)
        rows.append([(gen[k], dg.add(ek, ej), QQ.one), (gen[j], dg.add(ek, ek), QQ.neg(QQ.one))])
    return modules.ModulePresentation(n, QQ, base.generator_degrees, rows)


def boundary_pairs(gm):
    """The distinct pairs of two pieces (M_a, M_(a+e_k)) over every a of
    [0, g+1] with a_k = g_k, by their ids."""
    pairs = {}
    for a in dg.box(dg.zero(gm.n), gm.top):
        for k in range(gm.n):
            if a[k] == gm.g[k]:
                src, dst = gm.piece(a), gm.piece(dg.add(a, dg.unit(gm.n, k)))
                if src is not dst:
                    pairs[(id(src), id(dst))] = (src, dst)
    return pairs


def test_g_determinedness_ranks_each_distinct_boundary_map_once(monkeypatch):
    calls = []
    original = Matrix.rank

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Matrix, "rank", counting)
    # g = D - e_6: the slab a_6 = 0 has 32 distinct pairs of two pieces, 31
    # square, and the scan stops at the first, at degree 0, from R^9 to
    # R^9 + K, which is not square: nothing is ranked
    gm = modules.load_module_file(data_file("m6r9.json"), g_override=(1, 1, 1, 1, 1, 0))
    pairs = boundary_pairs(gm)
    assert len(pairs) == 32 and sum(src.dim == dst.dim for src, dst in pairs.values()) == 31
    assert gm.verify_g_determined() == ((0, 0, 0, 0, 0, 0), 5)
    assert calls == []
    # a passing module with D not <= g: the scan walks every slab to its
    # end and ranks each distinct pair of two pieces exactly once
    gm = modules.build(maximal_ideal_with_redundant_syzygies(4), (1, 1, 1, 1))
    assert not dg.leq(gm.join, gm.g)
    pairs = boundary_pairs(gm)
    assert gm.verify_g_determined() is None
    assert len(calls) == len({id(m) for m in calls}) == len(pairs) == 52
    assert {id(m) for m in calls} == {id(gm._transfer(src, dst)) for src, dst in pairs.values()}


def _g_determined_like_the_loop(pres, g):
    # each side on its own build, so neither reads maps the other built
    verdict = modules.build(pres, g).verify_g_determined()
    assert verdict == oracles.looped_g_determined(modules.build(pres, g))
    return verdict


@given(st.sampled_from([QQ, GF(2), GF(3)]), st.integers(0, 10**6))
def test_g_determinedness_matches_the_loop_on_random_presentations(field, seed):
    pres = oracles.random_presentations(1, seed=seed, field=field)[0]
    top = pres.default_g()
    for g in dg.box(tuple(max(x - 1, 0) for x in top), top):
        _g_determined_like_the_loop(pres, g)


def test_g_determinedness_matches_the_loop_under_an_overridden_g():
    # every g from the default one down to one below it in each coordinate,
    # where the boundary slabs cut through the generators and relations
    violations = 0
    presentations = [modules.maximal_ideal(QQ, 3), staircase(3), staircase(5)]
    presentations += [gm.presentation for gm in oracles.random_modules(15, seed=31, field=GF(2))]
    for pres in presentations:
        top = pres.default_g()
        for g in dg.box(tuple(max(x - 1, 0) for x in top), top):
            violations += _g_determined_like_the_loop(pres, g) is not None
    assert violations >= 20


def test_g_determinedness_reports_the_first_violation_of_the_unshared_build():
    violations = 0
    for field in (QQ, GF(2)):
        for gm in oracles.random_modules(15, seed=31, field=field):
            for k in range(gm.n):
                g = gm.g[:k] + (gm.g[k] - 1,) + gm.g[k + 1:]
                if g[k] < 0:
                    continue
                try:
                    small = modules.build(gm.presentation, g)
                except BoxError:
                    continue
                expected = oracles.unshared_g_violation(gm.presentation, g)
                assert small.verify_g_determined() == expected
                violations += expected is not None
    assert violations >= 5


# ---------------------------------------------------------------------------
# g-determination read off the presentation


def assert_g_violation_is_the_slab_check(pres, g):
    """`g_violation` of a build at g is the all-slab check of the unshared
    [0, g+1] build, and None whenever D <= g."""
    expected = oracles.unshared_g_violation(pres, g)
    assert modules.build(pres, g).g_violation == expected, g
    assert expected is None or not dg.leq(pres.default_g(), g), g
    return expected


@given(st.sampled_from([QQ, GF(2), GF(3)]), st.integers(0, 10**6))
def test_g_violation_is_the_slab_check_on_random_presentations(field, seed):
    # every g from one below D to one above it in each coordinate
    pres = oracles.random_presentations(1, seed=seed, field=field)[0]
    d = pres.default_g()
    for g in dg.box(tuple(max(x - 1, 0) for x in d), dg.add(d, dg.ones(pres.n))):
        assert_g_violation_is_the_slab_check(pres, g)


@pytest.mark.parametrize("name", ["m2.json", "ex34.json", "ex36.json", "m6r9.json"])
def test_g_violation_is_the_slab_check_on_shipped_modules_at_and_below_d(name):
    pres = modules.load_module_file(data_file(name)).presentation
    d = pres.default_g()
    assert assert_g_violation_is_the_slab_check(pres, d) is None
    below = [d[:k] + (d[k] - 1,) + d[k + 1:] for k in range(pres.n) if d[k]]
    assert all(assert_g_violation_is_the_slab_check(pres, g) is not None for g in below)


def test_a_module_with_d_at_most_g_passes_with_no_map_built(monkeypatch):
    monkeypatch.setattr(modules.GradedModule, "_transfer", lambda *args: pytest.fail("a map was built"))
    for gm in (modules.build(modules.maximal_ideal(QQ, 10)), modules.build(staircase(40), (50, 40))):
        assert gm.g_violation is None


def shifted_free(n):
    """R(-(2, ..., 2)) in n variables at g = (1, ..., 1): every piece of
    [0, D] but the one at D is zero."""
    return modules.free(QQ, n, [(2,) * n]), (1,) * n


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_the_scan_finds_the_first_violation_of_a_shifted_free_module(n):
    pres, g = shifted_free(n)
    expected = oracles.unshared_g_violation(pres, g)
    assert expected == ((1,) + (2,) * (n - 1), 0)
    assert modules.build(pres, g).verify_g_determined() == expected


@pytest.mark.parametrize("parts, expected", [
    # K = R/(X_1, X_2, X_3) fails along X_1, X_2 and X_3 at degree 0: the
    # lower k wins the tie
    ([modules.quotient_by_monomial_ideal(QQ, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])], ((0, 0, 0), 0)),
    # R/(X_2) + R(-(1, 1)) fails along X_2 at (0, 0) and along X_1 first at
    # (0, 1): the later slab holds the first degree
    ([modules.quotient_by_monomial_ideal(QQ, 2, [(0, 1)]), modules.free(QQ, 2, [(1, 1)])], ((0, 0), 1)),
    # R(-(1, 0, 1)) + R(-(0, 1, 1)) fails along X_1 and X_2 first at (0, 0, 1)
    ([modules.free(QQ, 3, [(1, 0, 1), (0, 1, 1)])], ((0, 0, 1), 0)),
], ids=["tie-at-zero", "later-slab-first", "tie-past-zero"])
def test_the_scan_reports_the_first_degree_then_the_lower_coordinate(parts, expected):
    pres = modules.direct_sum(parts)
    g = dg.zero(pres.n)
    assert oracles.unshared_g_violation(pres, g) == expected
    assert modules.build(pres, g).verify_g_determined() == expected


def test_the_scan_of_a_box_far_past_g_walks_no_degree_tuples(monkeypatch):
    # [0, D] has 3^12 degrees, and the first failure lies at (1, 2, ..., 2)
    gm = modules.build(*shifted_free(12))
    monkeypatch.setattr(modules.dg, "box", lambda *args: pytest.fail("walked"))
    start = time.perf_counter()
    assert gm.verify_g_determined() == ((1,) + (2,) * 11, 0)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("name", ["m2.json", "ex34.json", "ex36.json", "m6r9.json"])
def test_a_piece_maps_to_itself_by_one_identity_per_dimension(name):
    gm = modules.load_module_file(data_file(name))
    f = gm.field
    by_dim = {}
    for a in dg.box(dg.zero(gm.n), gm.top):
        m, d = gm.power_map(a, a), gm.dim(a)
        assert m == Matrix(f, [[f.one if i == j else f.zero for j in range(d)] for i in range(d)], d), a
        assert by_dim.setdefault(d, m) is m, a


def test_recording_a_shape_reduces_nothing_in_the_piece_of_its_shift(monkeypatch):
    reduced = []
    original = modules.GradedPiece.coords
    monkeypatch.setattr(modules.GradedPiece, "coords", lambda self, v: reduced.append(self) or original(self, v))
    gm = modules.load_module_file(data_file("m6r9.json"))
    for b in dg.box(dg.zero(gm.n), gm.g):
        # alive at b alone, so its one map is that of b's piece to itself
        assert gm.record((dg.touching(b, gm.g), b)).cells == (b,)
    assert reduced == []
    images = 0
    for b in dg.box(dg.zero(gm.n), gm.g):
        reduced.clear()
        gm.record((frozenset(range(gm.n)), b))
        assert all(piece is not gm.piece(b) for piece in reduced), b
        images += len(reduced)
    assert images  # the maps to other pieces reduce their images there
