import dataclasses
import hashlib
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import data_file
from stanleydepth import degrees as dg
from stanleydepth import modules, polytope
from stanleydepth.errors import (
    InputFormatError,
    PreconditionError,
    RangeError,
    ResourceLimitError,
)
from stanleydepth.fields import GF, QQ, PrimeField
from stanleydepth.hilbert import (
    HilbertDecomposition,
    admissible_shapes,
    enumerate_partitions,
    partition_to_decomposition,
    truncated_series,
)
from stanleydepth.linalg import Subspace
from stanleydepth.polytope import (
    OmegaVariable,
    build_hilbert_system,
    build_stanley_inequalities,
    check_u_vector,
    decomposition_to_point,
    export_lp,
    export_sip,
    import_solution,
    parse_solution,
    point_to_decomposition,
)


@pytest.fixture(scope="module")
def free_line_system():
    gm = modules.build(modules.free(QQ, 1, [(0,)]), (1,))
    return gm, build_hilbert_system(gm)


def test_omega_variable_names():
    v = OmegaVariable(frozenset({0, 1}), (0, 1))
    assert v.name() == "u[0,1;{1,2}]"
    assert v.lp_name() == "u_0_1__1_2"
    empty = OmegaVariable(frozenset(), (0,))
    assert empty.name() == "u[0;{}]"
    assert empty.lp_name() == "u_0__"


def test_an_omega_variable_is_the_summand_it_counts():
    z, b = frozenset({1}), (0, 1)
    v = OmegaVariable(z, b)
    assert v == (z, b) and hash(v) == hash((z, b))
    assert {v: 7}[(z, b)] == 7
    d = HilbertDecomposition([(z, b)])
    assert d.summands == (v,)


def _shape_names(g):
    return [OmegaVariable(*shape).name() for shape in admissible_shapes(g)]


def test_omega_variables_force_saturated_coordinates():
    names = _shape_names((1, 0))
    assert names == ["u[0,0;{2}]", "u[0,0;{1,2}]", "u[1,0;{1,2}]"]


def test_omega_variables_order_on_the_unit_square():
    names = _shape_names((1, 1))
    assert names == [
        "u[0,0;{}]", "u[0,0;{1}]", "u[0,0;{1,2}]", "u[0,0;{2}]",
        "u[0,1;{2}]", "u[0,1;{1,2}]",
        "u[1,0;{1}]", "u[1,0;{1,2}]",
        "u[1,1;{1,2}]",
    ]


def test_hilbert_system_equalities(m2):
    system = build_hilbert_system(m2)
    assert [v.name() for v in system.variables] == [
        "u[0,0;{}]", "u[0,0;{1}]", "u[0,0;{1,2}]", "u[0,0;{2}]",
        "u[0,1;{2}]", "u[0,1;{1,2}]",
        "u[1,0;{1}]", "u[1,0;{1,2}]",
        "u[1,1;{1,2}]",
    ]
    assert [(row.label, row.rhs, row.support) for row in system.rows] == [
        ((0, 0), 0, (0, 1, 2, 3)),
        ((0, 1), 1, (2, 3, 4, 5)),
        ((1, 0), 1, (1, 2, 6, 7)),
        ((1, 1), 1, (2, 5, 7, 8)),
    ]


def test_point_round_trip(m2):
    system = build_hilbert_system(m2)
    d = HilbertDecomposition([({0, 1}, (0, 1)), ({0}, (1, 0))])
    values = decomposition_to_point(system, d)
    assert sum(values) == 2
    assert system.violated_row(values) is None
    back = point_to_decomposition(system, values)
    assert back.canonical() == d.canonical()


def test_point_conversion_errors(m2):
    system = build_hilbert_system(m2)
    with pytest.raises(InputFormatError, match="not an admissible variable"):
        decomposition_to_point(system, HilbertDecomposition([(set(), (1, 1))]))
    with pytest.raises(InputFormatError, match="expected 9 values"):
        point_to_decomposition(system, [0, 1])
    with pytest.raises(InputFormatError, match="negative multiplicity"):
        point_to_decomposition(system, [0, 0, -1, 0, 0, 0, 0, 0, 0])


def test_full_subset_enumeration_on_the_unit_square(m2):
    system = build_stanley_inequalities(m2, max_subset=None)
    eqs = [row for row in system.rows if row.sense == "=="]
    les = [row for row in system.rows if row.sense == "<="]
    assert len(eqs) == 4 and len(les) == 22
    assert system.max_subset is None


def test_rank_inequality_catches_the_non_induced_point(ex34, ex34_dec):
    system = build_stanley_inequalities(ex34, max_subset=None)
    point = decomposition_to_point(system, ex34_dec)
    row = system.violated_row(point)
    assert row is not None and row.sense == "<="
    assert row.label == ((1, 1), ((0, 1), (1, 0)))
    assert row.rhs == 1


def test_diagonal_inequalities_follow_from_the_equalities():
    for gm in oracles.random_modules(6, seed=3):
        system = build_stanley_inequalities(gm, max_subset=1)
        series = truncated_series(gm)
        for partition in islice(enumerate_partitions(series, 0), 2):
            d = partition_to_decomposition(partition, gm.g)
            point = decomposition_to_point(system, d)
            for row in system.rows:
                if row.sense == "<=" and row.label[1] == (row.label[0],):
                    assert sum(point[i] for i in row.support) <= row.rhs


@settings(max_examples=25)
@given(
    st.integers(0, 10**6),
    st.sampled_from([QQ, GF(2), GF(3)]),
    st.sampled_from([1, 2, 3, 4, None]),
    st.sampled_from([None, 0, 1, 2, 3]),
)
def test_rank_rows_match_the_per_subset_builder(seed, field, max_subset, min_depth):
    # every rank (a, J) row on its own, from a fresh span of the stacked images
    box = 8 if max_subset is None else 20
    for gm in oracles.random_modules(2, seed=seed, max_box=box, field=field):
        if min_depth is not None and min_depth > gm.n:
            with pytest.raises(PreconditionError, match=f"within \\[0, {gm.n}\\], got {min_depth}"):
                build_stanley_inequalities(gm, max_subset=max_subset, min_depth=min_depth)
            continue
        system = build_stanley_inequalities(gm, max_subset=max_subset, min_depth=min_depth)
        expected = oracles.per_subset_stanley_inequalities(gm, max_subset, min_depth)
        assert system.variables == expected.variables
        assert system.rows == expected.rows


@pytest.mark.parametrize("name", ["m2", "ex34", "ex36"])
def test_rank_rows_match_the_per_subset_builder_on_shipped_modules(name):
    gm = modules.load_module_file(data_file(f"{name}.json"))
    caps = [1, 2, 3, 4] + ([None] if name != "ex36" else [])
    for max_subset in caps:
        for min_depth in (None, 1, 2):
            system = build_stanley_inequalities(gm, max_subset=max_subset, min_depth=min_depth)
            expected = oracles.per_subset_stanley_inequalities(gm, max_subset, min_depth)
            assert system.rows == expected.rows


def test_rank_rows_reduce_each_distinct_span_and_shift_once(ex36, monkeypatch):
    calls = []
    extended = Subspace.extended

    def counted(self, vectors):
        calls.append(vectors)
        return extended(self, vectors)

    monkeypatch.setattr(Subspace, "extended", counted)
    system = build_stanley_inequalities(ex36, max_subset=4)
    # one reduction per rank row would be 4,859 of them
    assert len(system.rows) == 4875
    assert 0 < len(calls) <= 300


@settings(max_examples=15, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([QQ, GF(2), GF(3)]),
    st.sampled_from([1, 2, 3, 4, None]),
)
def test_rank_rows_reduce_each_distinct_span_and_shift_once_exactly(seed, field, max_subset):
    box = 8 if max_subset is None else 20
    for gm in oracles.random_modules(2, seed=seed, max_box=box, field=field):
        expected = oracles.distinct_span_shift_pairs(gm, max_subset)
        calls = []
        extended = Subspace.extended

        def counted(self, vectors):
            calls.append(vectors)
            return extended(self, vectors)

        Subspace.extended = counted
        try:
            build_stanley_inequalities(gm, max_subset=max_subset)
        finally:
            Subspace.extended = extended
        assert len(calls) == expected


def _hand_built_system():
    # an empty-support row of each sense, and a rank row whose J is empty
    gm = modules.build(modules.free(QQ, 2, [(0, 0)]), (1, 0))
    system = build_stanley_inequalities(gm, max_subset=1)
    rows = (
        polytope.LinearRow((), "==", 0, (1, 0)),
        polytope.LinearRow((), "<=", 3, ((1, 0), ((0, 0), (1, 0)))),
        polytope.LinearRow((2, 0), "<=", 1, ((0, 0), ())),
    )
    return dataclasses.replace(system, rows=system.rows + rows)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([QQ, GF(2), GF(3)]),
    st.sampled_from([1, 2, 3, 4, None]),
    st.sampled_from([None, 0, 1, 2]),
    st.sampled_from(["", "module: x.json; system: stanley", "two\n\nlines"]),
)
def test_exports_match_the_row_by_row_oracle(seed, field, max_subset, min_depth, comment):
    box = 8 if max_subset is None else 20
    systems = [_hand_built_system()]
    for gm in oracles.random_modules(2, seed=seed, max_box=box, field=field):
        if min_depth is None or min_depth <= gm.n:
            systems.append(build_stanley_inequalities(gm, max_subset=max_subset, min_depth=min_depth))
            systems.append(build_hilbert_system(gm))
    for system in systems:
        assert export_sip(system, comment) == oracles.export_sip_by_row(system, comment)
        assert export_lp(system) == oracles.export_lp_by_row(system)


@pytest.mark.parametrize("max_subset", [4, 5, 100])
def test_a_cap_no_box_reaches_is_no_cap(m2, max_subset):
    # the box of m2 has 4 degrees, so a cap of 4 or more writes every J
    system = build_stanley_inequalities(m2, max_subset=max_subset)
    exact = build_stanley_inequalities(m2, max_subset=None)
    assert system == exact
    assert system.max_subset is None
    assert export_sip(system).startswith("ip 2 1 1\n")
    assert build_stanley_inequalities(m2, max_subset=3).max_subset == 3


@pytest.mark.parametrize("max_subset, sip, lp", [
    (4, "a9eac9e556d1c3952223e637fe684dec10d9d487e47c1e6e978c1a86bfefb0f7",
     "9430291184f4b47fef4728804ccc182df11a324b7e8e1bbc0eb4c029b0831675"),
    (None, "414e45e50a975627fb69f1f424c8855a1b5c57aaaba9e3d19a16ff07766ed325",
     "1e40d04e29e002c3d872ff6ddf0ca12cfef641800dbc9900edf1683eceab38e6"),
])
def test_stanley_export_bytes_of_ex36(ex36, max_subset, sip, lp):
    system = build_stanley_inequalities(ex36, max_subset=max_subset)
    text = export_sip(system, "module: ex36.json; system: stanley")
    assert hashlib.sha256(text.encode()).hexdigest() == sip
    assert hashlib.sha256(export_lp(system).encode()).hexdigest() == lp


def test_min_depth_drops_shallow_variables(m2):
    system = build_stanley_inequalities(m2, max_subset=1, min_depth=2)
    assert [v.name() for v in system.variables] == [
        "u[0,0;{1,2}]", "u[0,1;{1,2}]", "u[1,0;{1,2}]", "u[1,1;{1,2}]"
    ]


def test_full_enumeration_refuses_large_boxes():
    gm = modules.build(modules.free(QQ, 1, [(0,)]), (20,))
    with pytest.raises(ResourceLimitError, match="max_subset cap"):
        build_stanley_inequalities(gm, max_subset=None)
    capped = build_stanley_inequalities(gm, max_subset=1)
    assert capped.max_subset == 1


def test_inequality_row_budget(m2, monkeypatch):
    monkeypatch.setattr(polytope, "INEQUALITY_ROW_BUDGET", 5)
    with pytest.raises(ResourceLimitError, match="lower max_subset"):
        build_stanley_inequalities(m2, max_subset=None)


def test_row_budget_refuses_before_any_row_is_built(m2, monkeypatch):
    monkeypatch.setattr(polytope, "_rank_rows", lambda *_: pytest.fail("a rank row was built"))
    # the top degree of an uncapped box of 21 degrees alone has 2^21 - 1 rows
    gm = modules.build(modules.free(QQ, 1, [(0,)]), (20,))
    with pytest.raises(ResourceLimitError, match="max_subset cap"):
        build_stanley_inequalities(gm, max_subset=None)
    monkeypatch.setattr(polytope, "INEQUALITY_ROW_BUDGET", 5)
    with pytest.raises(ResourceLimitError, match="lower max_subset"):
        build_stanley_inequalities(m2, max_subset=None)


def test_check_u_vector_verdicts(ex34, ex34_dec, ex36, ex36_dec):
    sys34 = build_hilbert_system(ex34)
    assert check_u_vector(ex34, sys34, decomposition_to_point(sys34, ex34_dec)) == (1, 1)
    sys36 = build_hilbert_system(ex36)
    assert check_u_vector(ex36, sys36, decomposition_to_point(sys36, ex36_dec)) is None


def test_check_u_vector_matches_the_symbolic_check_on_the_corpus():
    from stanleydepth.stanley import check_transversal

    for gm in oracles.random_modules(6, seed=77):
        system = build_hilbert_system(gm)
        series = truncated_series(gm)
        for partition in islice(enumerate_partitions(series, 0), 2):
            d = partition_to_decomposition(partition, gm.g)
            point = decomposition_to_point(system, d)
            failing = check_u_vector(gm, system, point)
            report = check_transversal(gm, d)
            assert (failing is None) == report.induced
            if failing is not None:
                assert failing == report.failing_degree


def test_check_u_vector_preconditions(m2):
    system = build_hilbert_system(m2)
    with pytest.raises(InputFormatError, match="negative"):
        check_u_vector(m2, system, [-1] + [0] * 8)
    with pytest.raises(PreconditionError, match="not a Hilbert decomposition"):
        check_u_vector(m2, system, [0] * 9)
    gm2 = modules.build(modules.maximal_ideal(PrimeField(2), 2))
    system2 = build_hilbert_system(gm2)
    d = HilbertDecomposition([({0, 1}, (0, 1)), ({0}, (1, 0))])
    with pytest.raises(PreconditionError, match="infinite field"):
        check_u_vector(gm2, system2, decomposition_to_point(system2, d))


def test_export_sip_text(free_line_system):
    _gm, system = free_line_system
    assert export_sip(system, comment="demo") == (
        "# demo\n"
        "ip 1 1\n"
        "var u[0;{}] >= 0 integer\n"
        "var u[0;{1}] >= 0 integer\n"
        "var u[1;{1}] >= 0 integer\n"
        "eq [0]: u[0;{}] + u[0;{1}] == 1\n"
        "eq [1]: u[0;{1}] + u[1;{1}] == 1\n"
    )


def test_export_sip_notes_the_relaxation(m2):
    system = build_stanley_inequalities(m2, max_subset=2)
    text = export_sip(system)
    assert text.startswith("# relaxation: subset size capped at 2\n")
    assert "le [1,1]{0,1|1,0}:" in text


def test_export_lp_text(free_line_system):
    _gm, system = free_line_system
    assert export_lp(system) == (
        "Minimize\n"
        " obj: 0\n"
        "Subject To\n"
        " r0: u_0__ + u_0__1 = 1\n"
        " r1: u_0__1 + u_1__1 = 1\n"
        "Bounds\n"
        " u_0__ >= 0\n"
        " u_0__1 >= 0\n"
        " u_1__1 >= 0\n"
        "General\n"
        " u_0__\n"
        " u_0__1\n"
        " u_1__1\n"
        "End\n"
    )


def test_export_lp_keeps_empty_rows_well_formed():
    # LP format rejects constraints with no terms, so an empty support
    # renders as a zero-coefficient term on the first variable
    gm = modules.build(modules.free(QQ, 1, [(0,)]), (0,))
    system = dataclasses.replace(build_hilbert_system(gm), rows=(polytope.LinearRow((), "==", 0, (9,)),))
    assert [v.name() for v in system.variables] == ["u[0;{1}]"]
    assert " r0: 0 u_0__1 = 0\n" in export_lp(system)


def test_parse_solution_accepts_both_name_forms(free_line_system):
    _gm, system = free_line_system
    text = "# solver output\n\nu[0;{}] 0\nu_0__1 1\nu[1;{1}] 0\n"
    assert parse_solution(text, system) == [0, 1, 0]


def test_parse_solution_error_matrix(free_line_system):
    _gm, system = free_line_system
    cases = [
        ("u[0;{}]\n", "line 1: expected"),
        ("u[9;{}] 1\n", "line 1: unknown variable"),
        ("u[0;{}] 0\nu_0__ 1\n", "line 2: .* assigned twice"),
        ("u[0;{}] x\n", "line 1: 'x' is not an integer"),
        ("u[0;{}] -2\n", "line 1: .* is negative"),
        ("u[0;{}] 0\n", "misses 2 variables, first u\\[0;\\{1\\}\\]"),
    ]
    for text, pattern in cases:
        with pytest.raises(InputFormatError, match=pattern):
            parse_solution(text, system)


def _solution_text(system, values, lp=False):
    return "".join(f"{v.lp_name() if lp else v.name()} {x}\n" for v, x in zip(system.variables, values))


def test_a_min_depth_system_round_trips_through_parse_solution(ex36, ex36_dec):
    system = build_stanley_inequalities(ex36, max_subset=1, min_depth=1)
    full = build_hilbert_system(ex36)
    assert 0 < len(system.variables) < len(full.variables)
    point = decomposition_to_point(system, ex36_dec)
    assert point_to_decomposition(system, point).canonical() == ex36_dec.canonical()
    for lp in (False, True):
        assert parse_solution(_solution_text(system, point, lp), system) == point
    with pytest.raises(InputFormatError, match="unknown variable 'u\\[0,0;\\{\\}\\]'"):
        parse_solution(_solution_text(full, decomposition_to_point(full, ex36_dec)), system)
    names = [line.split()[1] for line in export_sip(system).splitlines() if line.startswith("var ")]
    assert names == [v.name() for v in system.variables]


def test_a_depth_system_builds_its_omega_table_once(ex36, ex36_dec, monkeypatch):
    polytope._omega_table(ex36.n, ex36.g)  # the shared table is built before counting
    built = []
    init = polytope._OmegaTable.__init__

    def counted(self, g, variables):
        built.append(len(variables))
        init(self, g, variables)

    monkeypatch.setattr(polytope._OmegaTable, "__init__", counted)
    system = build_stanley_inequalities(ex36, max_subset=1, min_depth=1)
    export_sip(system)
    export_lp(system)
    point = decomposition_to_point(system, ex36_dec)
    assert parse_solution(_solution_text(system, point), system) == point
    assert point_to_decomposition(system, point).canonical() == ex36_dec.canonical()
    assert built == [len(system.variables)]


def test_a_system_cannot_be_changed(m2):
    d = HilbertDecomposition([({0, 1}, (0, 1)), ({0}, (1, 0))])
    system = build_hilbert_system(m2)
    rows, point = system.rows, decomposition_to_point(system, d)
    text = _solution_text(system, point)
    with pytest.raises(AttributeError):
        system.variables.reverse()
    with pytest.raises(AttributeError):
        system.rows.clear()
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.rows = ()
    # every later system is built and read as before
    again = build_hilbert_system(m2)
    assert [v.name() for v in again.variables] == _shape_names((1, 1))
    assert again.rows == rows
    assert decomposition_to_point(again, d) == point
    assert parse_solution(text, again) == point


def test_the_omega_tables_are_bounded():
    for top in range(polytope.OMEGA_TABLE_LIMIT + 2):
        assert len(polytope._omega_table(1, (top,)).variables) == 2 * top + 1
    info = polytope._omega_table.cache_info()
    assert info.maxsize == info.currsize == polytope.OMEGA_TABLE_LIMIT


@pytest.mark.parametrize("name, support", [("m2", 16), ("ex36", 169), ("m6r9", 4096)])
def test_the_omega_support_count_is_exact(name, support, monkeypatch):
    gm = modules.load_module_file(data_file(f"{name}.json"))
    build = polytope._omega_table.__wrapped__  # the function without its cache
    monkeypatch.setattr(polytope, "OMEGA_SUPPORT_BUDGET", support)
    table = build(gm.n, gm.g)
    assert sum(len(indices) for indices in table.supports.values()) == support
    monkeypatch.setattr(polytope, "OMEGA_SUPPORT_BUDGET", support - 1)
    with pytest.raises(ResourceLimitError, match=f"have {support} equality-row support entries"):
        build(gm.n, gm.g)


def test_the_omega_budget_refuses_before_any_variable_is_built(monkeypatch):
    monkeypatch.setattr(polytope, "admissible_shapes", lambda g: pytest.fail("a variable was built"))
    line = modules.build(modules.free(QQ, 1, [(0,)]), (2000,))
    with pytest.raises(ResourceLimitError) as raised:
        build_hilbert_system(line)
    assert str(raised.value) == (
        "the polytope variables of g = (2000,) have 2005001 equality-row support entries, "
        "more than OMEGA_SUPPORT_BUDGET = 2000000"
    )
    # at g = (51, 51) the 1,898,884 rank rows of cap 1 pass the row budget, the 1429^2 support entries do not
    square = modules.build(modules.free(QQ, 2, [(0, 0)]), (51, 51))
    with pytest.raises(ResourceLimitError, match="have 2042041 equality-row support entries"):
        build_stanley_inequalities(square, max_subset=1)


def test_import_solution_round_trip(free_line_system):
    gm, system = free_line_system
    d = import_solution(gm, system, "u[0;{}] 0\nu[0;{1}] 1\nu[1;{1}] 0\n")
    assert d.summands == ((frozenset({0}), (0,)),)


def test_import_solution_rejects_equality_violations(free_line_system):
    gm, system = free_line_system
    with pytest.raises(RangeError, match=r"equality at degree \[0\] violated"):
        import_solution(gm, system, "u[0;{}] 1\nu[0;{1}] 1\nu[1;{1}] 0\n")


def test_equality_solutions_match_decompositions_on_small_modules():
    # nonnegative integer points of the equality system == valid
    # decompositions, as multisets of summand shapes
    for gm in islice(oracles.random_modules(12, seed=8, allow_sums=True), 4):
        system = build_hilbert_system(gm)
        solutions = oracles.equality_solutions(system)
        series = truncated_series(gm)
        enumerated = set()
        for partition in enumerate_partitions(series, 0):
            d = partition_to_decomposition(partition, gm.g)
            enumerated.add(d.canonical())
        from_points = {
            point_to_decomposition(system, values).canonical() for values in solutions
        }
        assert enumerated == from_points
        assert len(solutions) == len(from_points)
        for values in solutions:
            assert system.violated_row(values) is None
