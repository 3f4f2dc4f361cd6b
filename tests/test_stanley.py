import contextlib
import functools
import inspect
import io
import json
import math
import random
import re
import time
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import data_file
from stanleydepth import degrees as dg
from stanleydepth import hilbert, modules, stanley
from stanleydepth.cli import main
from stanleydepth.errors import (
    InputFormatError,
    ModeError,
    PreconditionError,
    ResourceLimitError,
    UnboundVariableError,
    WitnessNotFoundError,
)
from stanleydepth.fields import QQ, PrimeField
from stanleydepth.hilbert import (
    HilbertDecomposition,
    enumerate_partitions,
    hdepth,
    partition_to_decomposition,
    truncated_series,
    validate_decomposition,
)
from stanleydepth.polynomials import Poly, poly_mul, reduce_exponents, to_text, var_name
from stanleydepth.stanley import (
    CheckReport,
    StanleyWitness,
    SymbolicMatrixFamily,
    build_matrices,
    certificate_json,
    check,
    check_finite,
    check_infinite,
    check_transversal,
    check_unified,
    extract_witness,
    sdepth,
    verify_certificate,
    verify_witness,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def _y(i, j):
    # generic coefficient of summand i (1-based) in basis slot j (1-based)
    return Poly.variable(QQ, (i - 1, j - 1))


def _texts(grid):
    return [[to_text(entry) for entry in row] for row in grid]


@pytest.fixture(scope="module")
def ex34_fam(ex34, ex34_dec):
    return build_matrices(ex34, ex34_dec)


@pytest.fixture(scope="module")
def ex36_fam(ex36, ex36_dec):
    return build_matrices(ex36, ex36_dec)


def test_matrix_family_exact_entries(ex34_fam):
    assert ex34_fam.degrees() == [(0, 1), (1, 0), (1, 1)]
    assert _texts(ex34_fam.matrices[(1, 0)]) == [["Y[1,1]"]]
    assert _texts(ex34_fam.matrices[(0, 1)]) == [["Y[2,1]"]]
    assert _texts(ex34_fam.matrices[(1, 1)]) == [["Y[1,1]", "Y[2,1]"], ["0", "0"]]


def test_family_degrees_are_the_alive_degrees_in_lexicographic_order(ex34_fam, ex36_fam):
    fams = [ex34_fam, ex36_fam]
    for gm in oracles.random_modules(12, 2026):
        _s, partition = next(hilbert.partitions_by_depth(gm))
        fams.append(build_matrices(gm, partition_to_decomposition(partition, gm.g)))
    for fam in fams:
        box = dg.box(dg.zero(fam.module.n), fam.module.g)
        assert fam.degrees() == sorted(fam.columns) == [a for a in box if a in fam.columns]


def test_matrix_family_columns_and_variables(ex34_fam):
    assert ex34_fam.columns[(1, 1)] == (0, 1)
    assert ex34_fam.summand_dims == (1, 1)
    assert ex34_fam.variables == ((0, 0), (1, 0))


@functools.cache
def _families(field):
    """Families of ex36 with its shipped decomposition and of the first
    partitions of random modules, over the given field."""
    ex36 = modules.load_module_file(data_file("ex36.json"), field_override=field)
    fams = [build_matrices(ex36, hilbert.load_decomposition_file(data_file("ex36_dec.json"), ex36.g))]
    for gm in oracles.random_modules(8, seed=23, field=field):
        for partition in islice(enumerate_partitions(truncated_series(gm), 0), 3):
            fams.append(build_matrices(gm, partition_to_decomposition(partition, gm.g)))
    return fams


@given(st.data())
def test_evaluate_at_matches_entrywise_evaluation(data):
    field = data.draw(st.sampled_from([QQ, F2, F3]))
    fam = data.draw(st.sampled_from(_families(field)))
    if field.is_finite():
        values = st.integers(0, field.cardinality - 1)
    else:
        values = st.fractions(-3, 3, max_denominator=4)
    assignment = {v: data.draw(values) for v in fam.variables}
    for a in fam.degrees():
        assert fam.evaluate_at(a, assignment) == oracles.evaluate_entrywise(fam, a, assignment)


def test_evaluate_at_names_an_unbound_variable(ex36_fam):
    a = (3, 3)
    missing = (ex36_fam.columns[a][-1], 0)
    assignment = {v: Fraction(1) for v in ex36_fam.variables if v != missing}
    with pytest.raises(UnboundVariableError, match=re.escape(f"no value assigned to {var_name(missing)}")):
        ex36_fam.evaluate_at(a, assignment)


def test_alive_count_must_match_dimension(ex34):
    # both summands start at (0,1), which has dimension 1, and (1,0) is starved
    bad = HilbertDecomposition([({0, 1}, (0, 1)), ({1}, (0, 1))])
    with pytest.raises(PreconditionError, match=r"^not a Hilbert decomposition of the module: "
                       r"summand count mismatch at degree \(0, 1\): decomposition covers 2, module has 1$"):
        SymbolicMatrixFamily(ex34, bad)


def test_build_matrices_validates_first(ex34):
    with pytest.raises(PreconditionError, match="not a Hilbert decomposition"):
        build_matrices(ex34, HilbertDecomposition([]))


def test_ex36_determinants_factor_as_expected(ex36_fam):
    cases = {
        (3, 1): _y(1, 2) * _y(3, 1),
        (3, 2): _y(1, 1) * _y(4, 1),
        (3, 3): (_y(1, 2) - _y(1, 1)) * _y(5, 1),
    }
    for a, expected in cases.items():
        det = ex36_fam.det(a)
        assert det == expected or det == -expected


def test_check_infinite_flags_the_zero_determinant(ex34_fam):
    report = check_infinite(ex34_fam)
    assert report == CheckReport("not_induced", "transversal", failing_degree=(1, 1))
    assert not report.induced


def test_check_infinite_accepts_ex36(ex36_fam):
    report = check_infinite(ex36_fam)
    assert report.induced and report.mode == "transversal"


def test_check_infinite_rejects_finite_fields(ex36_f2, ex36_dec):
    fam = build_matrices(ex36_f2, ex36_dec)
    with pytest.raises(ModeError, match="infinite"):
        check_infinite(fam)


def test_field_size_trichotomy_on_ex36(ex36_fam, ex36_f2, ex36_f5, ex36_dec):
    assert check_infinite(ex36_fam).induced
    fam2 = build_matrices(ex36_f2, ex36_dec)
    report2 = check_finite(fam2)
    assert report2 == CheckReport(
        "not_induced",
        "finite",
        p_tilde_zero=True,
        detail="reduced product vanishes after degree (3, 3)",
    )
    fam5 = build_matrices(ex36_f5, ex36_dec)
    report5 = check_finite(fam5)
    assert report5.induced and report5.p_tilde_zero is False


def test_check_finite_rejects_rationals(ex36_fam):
    with pytest.raises(ModeError, match="finite"):
        check_finite(ex36_fam)


def test_check_finite_budget_error_names_the_product(ex36_f2, ex36_dec, monkeypatch):
    monkeypatch.setattr(stanley, "DEFAULT_TERM_BUDGET", 1)
    with pytest.raises(ResourceLimitError, match="the determinant product is too large to expand$"):
        check_finite(build_matrices(ex36_f2, ex36_dec))


def test_determinant_expansion_has_a_term_budget(ex36_f2, ex36_dec, monkeypatch):
    monkeypatch.setattr(stanley, "DEFAULT_TERM_BUDGET", 1)
    fam = build_matrices(ex36_f2, ex36_dec)
    with pytest.raises(ResourceLimitError, match=r"^the determinant at degree \(2, 3\) exceeded the term budget of 1"):
        fam.packed_det((2, 3))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["check", data_file("ex36.json"), data_file("ex36_dec.json"), "--field", "F2"])
    assert code == 2
    assert re.search(r"error: the determinant at degree \(\d+, \d+\) exceeded the term budget of 1", err.getvalue())


def test_check_finite_stops_at_an_identically_zero_determinant():
    gm = modules.load_module_file(data_file("ex34.json"), field_override=F2)
    dec = HilbertDecomposition([({0, 1}, (1, 0)), ({0, 1}, (0, 1))])
    report = check_finite(build_matrices(gm, dec))
    assert report.verdict == "not_induced"
    assert report.failing_degree == (1, 1)
    assert report.p_tilde_zero is True


def test_check_unified_delegates_over_infinite_fields(ex36_fam):
    report = check_unified(ex36_fam)
    assert report.induced and report.mode == "unified"
    assert report.detail == "infinite field; per-factor determinants"


def test_check_unified_reports_the_exponent_bound(ex36_f2, ex36_f5, ex36_dec):
    report2 = check_unified(build_matrices(ex36_f2, ex36_dec))
    assert not report2.induced
    assert report2.detail == "expanded product (exponent bound 4 >= 2)"
    report5 = check_unified(build_matrices(ex36_f5, ex36_dec))
    assert report5.induced and report5.p_tilde_zero is False
    assert report5.detail == "per-factor determinants (exponent bound 4 < 5)"
    fam = build_matrices(ex36_f5, ex36_dec)
    assert (fam.exponent_bound, len(fam.columns)) == (4, 10)


def test_check_transversal_agrees_with_symbolic(ex34, ex34_dec, ex36, ex36_dec):
    r34 = check_transversal(ex34, ex34_dec)
    assert r34.verdict == "not_induced" and r34.failing_degree == (1, 1)
    assert check_transversal(ex36, ex36_dec).induced


def test_check_transversal_rejects_finite_fields(ex36_f2, ex36_dec):
    with pytest.raises(ModeError, match="do not glue"):
        check_transversal(ex36_f2, ex36_dec)


def test_check_auto_uses_unified_over_finite_fields():
    gm = modules.build(modules.maximal_ideal(F2, 2))
    d = HilbertDecomposition([({0, 1}, (0, 1)), ({0}, (1, 0))])
    report = check(gm, d)
    assert report.induced and report.mode == "unified"
    assert report.detail == "expanded product (exponent bound 2 >= 2)"


def test_check_auto_switches_to_transversals_for_wide_matrices():
    gm = modules.build(modules.free(QQ, 1, [(0,)] * 7), (1,))
    d = HilbertDecomposition([({0}, (0,))] * 7)
    report = check(gm, d)
    assert report.induced and report.mode == "transversal"


def test_check_auto_decides_wide_matrices_before_building_them(monkeypatch):
    def built(*_args):
        raise AssertionError("auto built a Poly matrix or determinant")

    monkeypatch.setattr(SymbolicMatrixFamily, "matrices", property(built))
    monkeypatch.setattr(SymbolicMatrixFamily, "det", built)
    monkeypatch.setattr(SymbolicMatrixFamily, "packed_det", built)
    gm = modules.build(modules.free(QQ, 1, [(0,)] * 7), (1,))
    assert check(gm, HilbertDecomposition([({0}, (0,))] * 7)).mode == "transversal"
    # an invalid decomposition gets the error build_matrices raises
    with pytest.raises(PreconditionError, match="not a Hilbert decomposition of the module"):
        check(gm, HilbertDecomposition([({0}, (0,))] * 6))


def test_no_determinant_is_expanded_unless_the_bound_reaches_q(
        monkeypatch, m2, ex34, ex34_dec, ex36, ex36_f5, ex36_dec):
    def expanded(*_args):
        raise AssertionError("a determinant was expanded below the exponent bound")

    monkeypatch.setattr(SymbolicMatrixFamily, "packed_det", expanded)
    assert check(ex36, ex36_dec).induced and not check(ex34, ex34_dec).induced
    assert check_infinite(build_matrices(ex36, ex36_dec)).induced
    assert check_unified(build_matrices(ex34, ex34_dec)).failing_degree == (1, 1)
    assert check_transversal(ex36, ex36_dec).induced
    assert sdepth(m2).value == sdepth(ex34).value == 1
    # over F5 the exponent bound of ex36_dec is 4 < 5
    assert check(ex36_f5, ex36_dec).detail == "per-factor determinants (exponent bound 4 < 5)"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["certify", data_file("ex36.json"), data_file("ex36_dec.json")]) == 0
        assert main(["certify", data_file("ex34.json"), data_file("ex34_dec.json")]) == 1
        assert main(["certify", data_file("ex36.json"), data_file("ex36_dec.json"), "--field", "F5"]) == 0
        assert main(["check", data_file("m6r9.json"), data_file("m6r9_partition.json"),
                     "--field", "F1000003"]) == 0
    assert out.getvalue().endswith("\ninduced [per-factor determinants (exponent bound 32 < 1000003)]\n")


def test_a_wide_vanishing_determinant_skips_the_witness_search(monkeypatch):
    # ex34 + R^7: the 9x9 matrix at (1,1) inherits ex34's zero row
    gm = modules.build(modules.direct_sum([
        modules.monomial_ideal(QQ, 2, [(1, 0), (0, 1)]),
        modules.monomial_ideal(QQ, 2, [(1, 1)]),
        modules.free(QQ, 2, [(0, 0)] * 7),
    ]), (1, 1))
    d = HilbertDecomposition([({0, 1}, (1, 0)), ({0, 1}, (0, 1))] + [({0, 1}, (0, 0))] * 7)
    fam = build_matrices(gm, d)
    assert gm.dim((1, 1)) == 9 and fam.first_singular_degree == (1, 1)
    monkeypatch.setattr(stanley, "_search", lambda *_: pytest.fail("the witness search ran"))
    with pytest.raises(WitnessNotFoundError, match="a determinant vanishes identically"):
        extract_witness(gm, d, fam=fam, check_first=False)


def test_public_signatures_take_only_parameters_some_caller_sets():
    def parameters(function):
        return [(p.name, p.default) for p in inspect.signature(function).parameters.values()]

    required = inspect.Parameter.empty
    assert parameters(check) == [("gm", required), ("d", required), ("mode", "auto"), ("fam", None)]
    assert parameters(sdepth) == [("gm", required), ("with_witness", True)]
    assert parameters(check_finite) == parameters(check_unified) == [("fam", required)]
    assert parameters(extract_witness) == [
        ("gm", required), ("d", required), ("fam", None), ("check_first", True)]
    assert parameters(enumerate_partitions) == [("series", required), ("min_depth", required)]


def test_check_rejects_unknown_modes(m2):
    assert stanley.CHECK_MODES == ("auto", "unified")
    d = HilbertDecomposition([({0, 1}, (0, 1)), ({0}, (1, 0))])
    for mode in ("montecarlo", "symbolic", "transversal", "randomized"):
        with pytest.raises(InputFormatError, match="unknown check mode"):
            check(m2, d, mode=mode)


def _front_end(obj, gm):
    """`summand_walk_front_end`'s answer by the program's own path, or the
    first error either path raises, as (type, text)."""
    try:
        d = hilbert.decomposition_from_json(obj, gm.g)
        fam = build_matrices(gm, d)
        images = {a: [image.entries for image in fam.images[a]] for a in fam.columns}
        return list(d.summands), fam.columns, images, fam.summand_dims, fam.exponent_bound
    except (InputFormatError, PreconditionError, ResourceLimitError) as exc:
        return type(exc), str(exc)


def _oracle_front_end(obj, gm):
    try:
        return oracles.summand_walk_front_end(obj, gm)
    except (InputFormatError, PreconditionError, ResourceLimitError) as exc:
        return type(exc), str(exc)


def _assert_front_end_like_the_oracle(obj, gm):
    ours = _front_end(obj, gm)
    assert ours == _oracle_front_end(obj, gm)
    assert _front_end(obj, gm) == ours  # read again from the module's shape records
    return ours


@pytest.mark.parametrize("module, decomposition", [
    ("m2.json", "ex34_dec.json"), ("ex34.json", "ex34_dec.json"), ("ex34.json", "ex36_dec.json"),
    ("ex36.json", "ex36_dec.json"), ("ex36.json", "ex34_dec.json"), ("m6r9.json", "m6r9_partition.json"),
])
@pytest.mark.parametrize("field", [None, F2, F3])
def test_the_front_end_reads_the_shipped_files_like_the_summand_walk(module, decomposition, field):
    gm = modules.load_module_file(data_file(module), field_override=field)
    with open(data_file(decomposition), encoding="utf-8") as fh:
        obj = json.load(fh)
    _assert_front_end_like_the_oracle(obj, gm)


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_the_front_end_reads_random_partitions_like_the_summand_walk(field):
    # each partition of M in interval form and its decomposition in summand
    # form, read against M; its intervals doubled (mult 2), read against
    # M + M, of which they are a partition, and against M, of which not
    read = doubled_read = 0
    for gm in oracles.random_modules(15, seed=33, field=field):
        twice = modules.build(modules.direct_sum([gm.presentation] * 2), gm.g)
        series = truncated_series(gm)
        for s in range(gm.n + 1):
            for partition in islice(enumerate_partitions(series, s), 3):
                intervals = hilbert.partition_to_json(partition)
                doubled = {"intervals": [dict(item, mult=2 * item["mult"]) for item in intervals["intervals"]]}
                summands = hilbert.decomposition_to_json(partition_to_decomposition(partition, gm.g))
                for obj, module in ((intervals, gm), (summands, gm), (doubled, twice), (doubled, gm)):
                    answer = _assert_front_end_like_the_oracle(obj, module)
                    read += not isinstance(answer[0], type)
                    doubled_read += module is twice and not isinstance(answer[0], type)
    assert read > 100 and doubled_read > 30


_ENTRY_VALUES = st.one_of(st.integers(-1, 3), st.sampled_from([True, False, 1.0, 0.5, "1", None]))


@st.composite
def interval_files(draw):
    """Interval files of ex34 (g = (1, 1)): mostly well-formed entries with
    mult up to 3, some with a bool, float, string, negative or missing
    value, a wrong length, a > b or b > g."""
    items = []
    for _ in range(draw(st.integers(0, 5))):
        a = [draw(st.integers(0, 1)) for _ in range(2)]
        b = [draw(st.integers(x, 1)) for x in a]
        item = {"a": a, "b": b, "mult": draw(st.integers(0, 3))}
        if draw(st.integers(0, 3)) == 0:
            key = draw(st.sampled_from(["a", "b", "mult"]))
            if key == "mult" or draw(st.booleans()):
                value = draw(_ENTRY_VALUES)
                if key == "mult":
                    item["mult"] = value
                else:
                    item[key][draw(st.integers(0, 1))] = value
            else:
                item[key] = item[key] + [0] if draw(st.booleans()) else item[key][:1]
            if draw(st.integers(0, 4)) == 0:
                del item[key]
        items.append(item)
    return {"intervals": items}


@given(interval_files(), st.sampled_from([4, 8, hilbert.DECOMPOSITION_SUMMAND_LIMIT]))
def test_the_front_end_reads_interval_files_like_the_summand_walk(ex34, case, limit):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hilbert, "DECOMPOSITION_SUMMAND_LIMIT", limit)
        _assert_front_end_like_the_oracle(case, ex34)


@pytest.fixture()
def walks(monkeypatch):
    """The arguments of every shape walk (`validated_alive`, under both of
    its names) made while the test runs."""
    calls = []
    walk = hilbert.validated_alive

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(hilbert, "validated_alive", counted)
    monkeypatch.setattr(stanley, "validated_alive", counted)
    return calls


def test_each_question_walks_the_alive_summands_once(walks, monkeypatch, ex34, ex34_dec, ex36, ex36_f5, ex36_dec):
    wide = modules.build(modules.free(QQ, 1, [(0,)] * 7), (1,))
    questions = [
        (lambda: check(ex36, ex36_dec), "transversal"),
        (lambda: check(wide, HilbertDecomposition([({0}, (0,))] * 7)), "transversal"),
        (lambda: check(ex36_f5, ex36_dec), "unified"),
        (lambda: check(ex34, ex34_dec), "transversal"),
        (lambda: check_transversal(ex36, ex36_dec), "transversal"),
        (lambda: check(ex36, ex36_dec, mode="unified"), "unified"),
        (lambda: check(ex36_f5, ex36_dec, mode="unified"), "unified"),
    ]
    for ask, mode in questions:
        walks.clear()
        assert ask().mode == mode
        assert len(walks) == 1
    cert = certificate_json(ex36_f5, ex36_dec, extract_witness(ex36_f5, ex36_dec))
    walks.clear()
    assert verify_certificate(ex36_f5, cert)[0]
    assert len(walks) == 1
    walks.clear()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["certify", data_file("ex36.json"), data_file("ex36_dec.json"), "--field", "F5"]) == 0
    assert json.loads(out.getvalue())["witness"] == cert["witness"]
    assert len(walks) == 1
    checks = []
    monkeypatch.setattr(stanley, "check", lambda *args, **kwargs: checks.append(args) or check(*args, **kwargs))
    walks.clear()
    assert sdepth(ex34).value == 1
    assert len(walks) == len(checks) > 1


@pytest.mark.parametrize("field", [QQ, F2])
def test_extract_witness_needs_no_deep_recursion(field):
    # 1,100 singleton summands put 1,100 variables on one search path
    gm = modules.build(modules.quotient_by_monomial_ideal(field, 1, [(1100,)]))
    d = HilbertDecomposition([(set(), (k,)) for k in range(1100)])
    witness = extract_witness(gm, d)
    assert verify_witness(gm, d, witness) is None


def test_extract_witness_over_the_rationals(ex36, ex36_dec):
    witness = extract_witness(ex36, ex36_dec)
    assert witness.assignment == {
        (0, 0): 1, (0, 1): 2,
        (1, 0): 1, (1, 1): 1,
        (2, 0): 1, (3, 0): 1, (4, 0): 1,
        (5, 0): 1, (5, 1): 1,
        (6, 0): 1, (6, 1): 2, (6, 2): 1,
        (7, 0): 1, (7, 1): 1,
    }
    assert all(isinstance(v, Fraction) for v in witness.assignment.values())
    assert verify_witness(ex36, ex36_dec, witness) is None


def test_extract_witness_over_f5(ex36_f5, ex36_dec):
    witness = extract_witness(ex36_f5, ex36_dec)
    assert witness.assignment == {
        (0, 0): 1, (0, 1): 2,
        (1, 0): 0, (1, 1): 1,
        (2, 0): 1, (3, 0): 1, (4, 0): 1,
        (5, 0): 1, (5, 1): 0,
        (6, 0): 0, (6, 1): 1, (6, 2): 0,
        (7, 0): 1, (7, 1): 0,
    }
    assert verify_witness(ex36_f5, ex36_dec, witness) is None


def test_witness_entries_respect_the_stage_bound(ex36, ex36_dec):
    fam = build_matrices(ex36, ex36_dec)
    witness = extract_witness(ex36, ex36_dec, fam=fam)
    bound = len(fam.matrices) + 1
    assert all(1 <= v <= bound for v in witness.assignment.values())


def test_verify_witness_reports_the_first_failing_degree(ex36_f2, ex36_dec):
    fam = build_matrices(ex36_f2, ex36_dec)
    ones = {v: 1 for v in fam.variables}
    assert verify_witness(ex36_f2, ex36_dec, ones) == (2, 3)


def test_verify_witness_checks_the_variable_set(m2):
    d = HilbertDecomposition([({0, 1}, (0, 1)), ({0}, (1, 0))])
    with pytest.raises(UnboundVariableError, match=r"witness misses Y\[2,1\]"):
        verify_witness(m2, d, {(0, 0): Fraction(1)})
    with pytest.raises(InputFormatError, match=r"unknown Y\[9,1\]"):
        verify_witness(m2, d, {(0, 0): Fraction(1), (1, 0): Fraction(1), (8, 0): Fraction(1)})


@pytest.mark.parametrize("spelling", ["Y[01,1]", " Y[1,1]", "Y[1,01] "])
def test_verify_certificate_refuses_a_variable_spelled_twice(ex36_f5, ex36_dec, spelling):
    # a dict keeps whichever spelling comes last: with the zero last the
    # certificate read as invalid, with it first as valid
    cert = certificate_json(ex36_f5, ex36_dec, extract_witness(ex36_f5, ex36_dec))
    for first, second in (("Y[1,1]", spelling), (spelling, "Y[1,1]")):
        witness = {k: v for k, v in cert["witness"].items() if k != "Y[1,1]"}
        witness = {first: cert["witness"]["Y[1,1]"], **witness, second: "0"}
        with pytest.raises(InputFormatError) as caught:
            verify_certificate(ex36_f5, {**cert, "witness": witness})
        assert str(caught.value) == f"witness assigns Y[1,1] twice, as {first!r} and {second!r}"


def test_extract_witness_refuses_non_induced_decompositions(ex34, ex34_dec, ex36_f2, ex36_dec):
    # the error carries the verdict line `check` prints, detail included
    for gm, d, line in [
        (ex34, ex34_dec, "not_induced (failing degree 1,1)"),
        (ex36_f2, ex36_dec, "not_induced [expanded product (exponent bound 4 >= 2)]"),
    ]:
        assert check(gm, d).verdict_line() == line
        with pytest.raises(WitnessNotFoundError) as caught:
            extract_witness(gm, d)
        assert str(caught.value) == f"no witness exists: {line}"


def test_extract_witness_search_budget(m2, monkeypatch):
    monkeypatch.setattr(stanley, "DEFAULT_SEARCH_BUDGET", 0)
    d = HilbertDecomposition([({0, 1}, (0, 1)), ({0}, (1, 0))])
    with pytest.raises(ResourceLimitError, match="budget of 0"):
        extract_witness(m2, d, check_first=False)


def test_extract_witness_over_f2_prunes_zeros():
    gm = modules.build(modules.quotient_by_monomial_ideal(F2, 1, [(4,)]), (4,))
    d = HilbertDecomposition([(set(), (k,)) for k in range(4)])
    witness = extract_witness(gm, d)
    assert witness.assignment == {(0, 0): 1, (1, 0): 1, (2, 0): 1, (3, 0): 1}
    assert verify_witness(gm, d, witness) is None


def test_the_search_tries_no_vector_whose_leading_coefficient_is_not_one(ex36, ex36_f5, ex36_dec, monkeypatch):
    # over every field: a grid of 2s alone offers no such vector, so nothing is tried
    monkeypatch.setattr(stanley, "DEFAULT_SEARCH_BUDGET", 0)
    for gm in (ex36, ex36_f5):
        assert stanley._search(build_matrices(gm, ex36_dec), [2]) is None


def _fractional_modules():
    """Presentations whose power maps have denominators 3, 5 and 10; the
    last one's images need the factors 1, 3, 5 and 15."""
    one = Fraction(1)
    return [
        modules.build(modules.ModulePresentation(1, QQ, [(0,), (0,)], [[(0, (1,), 3 * one), (1, (1,), 2 * one)]])),
        modules.build(modules.ModulePresentation(2, QQ, [(0, 0)] * 3, [
            [(0, (1, 0), 3 * one), (1, (1, 0), 2 * one)], [(0, (0, 1), 5 * one), (2, (0, 1), one)]])),
        modules.build(modules.ModulePresentation(2, QQ, [(0, 0)] * 3, [
            [(0, (1, 0), 3 * one), (1, (1, 0), 2 * one)], [(1, (0, 1), 5 * one), (2, (0, 1), 7 * one)]])),
    ]


def _kernel_modules(field, count, seed):
    """Small random modules, plus over Q two whose images are not integral."""
    extra = _fractional_modules() if field == QQ else []
    return oracles.random_modules(count, seed=seed, field=field) + extra


def _kernel_cases(field, count, seed):
    """(module, decomposition) for the first partitions of the kernel
    modules, plus ex36 with its shipped decomposition."""
    ex36 = modules.load_module_file(data_file("ex36.json"), field_override=field)
    cases = [(ex36, hilbert.load_decomposition_file(data_file("ex36_dec.json"), ex36.g))]
    for gm in _kernel_modules(field, count, seed):
        for partition in islice(enumerate_partitions(truncated_series(gm), 0), 3):
            cases.append((gm, partition_to_decomposition(partition, gm.g)))
    return cases


def _every_partition_by_depth(gm):
    """Every interval partition of gm's truncated series, by descending
    depth, each depth in `enumerate_partitions` order."""
    series = truncated_series(gm)
    for s in range(gm.n, -1, -1):
        yield from (p for p in enumerate_partitions(series, s) if p.depth(gm.g) == s)


def _kernel_families(field, count, seed):
    """Families of the first partitions of the kernel modules, plus ex36's shipped one."""
    return [build_matrices(gm, d) for gm, d in _kernel_cases(field, count, seed)]


@pytest.mark.parametrize("field", [QQ, F2, F3, F5])
def test_packed_determinants_match_the_poly_oracles(field):
    for fam in _kernel_families(field, 8, seed=17):
        for a in fam.degrees():
            det = fam.det(a)
            assert det.terms == oracles.det_permutation_sum(field, fam.matrices[a])
            assert (not fam.packed_det(a)) == det.is_zero()


@pytest.mark.parametrize("field", [QQ, F2, F3, F5])
def test_first_singular_degree_is_the_first_zero_determinant(field):
    # det A_a vanishes iff no pick of one image column per summand is
    # independent, over every field; every field answers by transversals,
    # and the permutation-sum oracle checks that answer
    ex34 = modules.load_module_file(data_file("ex34.json"), field_override=field)
    fams = [build_matrices(ex34, hilbert.load_decomposition_file(data_file("ex34_dec.json"), ex34.g))]
    for gm in _kernel_modules(field, 12, seed=17):
        for partition in islice(enumerate_partitions(truncated_series(gm), 0), 10):
            fams.append(build_matrices(gm, partition_to_decomposition(partition, gm.g)))
    answers = Counter()
    for fam in fams:
        zero = []
        for a in fam.degrees():
            vanishes = not oracles.det_permutation_sum(field, fam.matrices[a])
            families = [image.columns() for image in fam.images[a]]
            picked = stanley.max_independent_transversal(field, fam.module.dim(a), families)
            assert vanishes == (len(picked) < fam.module.dim(a))
            if vanishes:
                zero.append(a)
        assert fam.first_singular_degree == next(iter(zero), None)
        answers[fam.first_singular_degree is None] += 1
    assert answers[False] >= 3 and answers[True] >= 20


@pytest.mark.parametrize("field", [QQ, F2, F3, F5, PrimeField(1000003)])
def test_the_integer_form_gives_the_matrix_based_singular_degree_and_bound(field):
    # the answers read off each image's field entries: transversals of
    # Matrix.columns() and the support of the columns of image.entries
    ex34 = modules.load_module_file(data_file("ex34.json"), field_override=field)
    fams = [build_matrices(ex34, hilbert.load_decomposition_file(data_file("ex34_dec.json"), ex34.g))]
    for gm in _kernel_modules(field, 12, seed=37):
        for partition in islice(_every_partition_by_depth(gm), 20):
            fams.append(build_matrices(gm, partition_to_decomposition(partition, gm.g)))
    answers = Counter()
    for fam in fams:
        expected = None
        for a in fam.degrees():
            dim = fam.module.dim(a)
            families = [image.columns() for image in fam.images[a]]
            if len(stanley.max_independent_transversal(field, dim, families)) < dim:
                expected = a
                break
        assert fam.first_singular_degree == expected
        bound = max(Counter(
            (i, j) for a, alive in fam.columns.items() for i, image in zip(alive, fam.images[a])
            for j, column in enumerate(zip(*image.entries)) if any(column)
        ).values(), default=0)
        assert fam.exponent_bound == bound
        answers[expected is None] += 1
    assert answers[True] >= 20 and answers[False] >= 3


def _fresh(gm):
    """gm built again from its presentation: the same module, memos empty."""
    return modules.build(gm.presentation, gm.g)


def _memo_cases(field):
    """(module, decompositions) for the shipped modules and decompositions
    and the first partitions of random modules, over the given field."""
    cases = []
    for name, decomposition in (("m2.json", None), ("ex34.json", "ex34_dec.json"), ("ex36.json", "ex36_dec.json"),
                                ("m6r9.json", "m6r9_partition.json")):
        gm = modules.load_module_file(data_file(name), field_override=field)
        ds = [] if decomposition is None else [hilbert.load_decomposition_file(data_file(decomposition), gm.g)]
        if name != "m6r9.json":
            ds += [partition_to_decomposition(p, gm.g) for p in islice(_every_partition_by_depth(gm), 30)]
        cases.append((gm, ds))
    for gm in _kernel_modules(field, 30, seed=17):
        cases.append((gm, [partition_to_decomposition(p, gm.g) for p in islice(_every_partition_by_depth(gm), 20)]))
    return cases


@pytest.fixture()
def transversals(monkeypatch):
    """The arguments of every `max_independent_transversal` call a rank
    question makes while the test runs."""
    calls = []
    search = stanley.max_independent_transversal
    monkeypatch.setattr(stanley, "max_independent_transversal", lambda *args: calls.append(args) or search(*args))
    return calls


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_a_warm_verdict_memo_answers_like_a_fresh_module(field, transversals):
    # the questions are asked twice on one module, each answered by a memo
    # every earlier question warmed, and once on a module built for each;
    # the second round asks only keys the first one left, so it runs no
    # transversal
    answers = Counter()
    for gm, ds in _memo_cases(field):
        for again in (False, True):
            transversals.clear()
            warm = [build_matrices(gm, d).first_singular_degree for d in ds]
            assert not (again and transversals)
            assert warm == [build_matrices(_fresh(gm), d).first_singular_degree for d in ds]
        answers.update(a is None for a in warm)
    assert answers[True] >= 100 and answers[False] >= 5


@functools.cache
def _memo_modules(field):
    """The modules of `_memo_cases`, each with its first few partitions;
    the cache keeps their memos warm from one example to the next."""
    return [(gm, ds[:8]) for gm, ds in _memo_cases(field) if ds and gm.n <= 2]


@given(st.data())
def test_a_warm_verdict_memo_answers_like_a_fresh_module_on_drawn_questions(data):
    field = data.draw(st.sampled_from([QQ, F2, F3]))
    gm, ds = data.draw(st.sampled_from(_memo_modules(field)))
    for d in data.draw(st.lists(st.sampled_from(ds), min_size=1, max_size=4)):
        assert build_matrices(gm, d).first_singular_degree == build_matrices(_fresh(gm), d).first_singular_degree


def test_a_second_family_with_the_same_alive_shapes_runs_no_transversal_there(transversals):
    # the verdict at a is keyed by a and the shapes alive there, in column
    # order; a key asked before, by any family of the module, is read back
    shared = 0
    for gm, ds in _memo_cases(QQ)[:3]:
        asked = set()
        for d in ds + ds[:2]:
            fam = build_matrices(gm, d)
            keys = {a: (a, tuple(d.summands[i] for i in alive)) for a, alive in fam.columns.items()}
            transversals.clear()
            last = fam.first_singular_degree
            now = list(keys.values())[:None if last is None else list(keys).index(last) + 1]
            assert len(transversals) == sum(key not in asked for key in now)
            shared += sum(key in asked for key in now)
            asked.update(now)
    assert shared >= 100


def test_the_verdict_memo_shares_the_shape_memo_bound(monkeypatch):
    # records and verdicts together hold at most SHAPE_MEMO_CELLS cells,
    # a verdict counting one per alive column; a start-over empties both,
    # so every verdict key holds records that `shapes` holds too.  One
    # family of ex36 asks for about 36 cells.
    monkeypatch.setattr(modules, "SHAPE_MEMO_CELLS", 60)
    gm, ds = _memo_cases(QQ)[2]
    starts = most = 0
    for d in ds + ds:
        before = gm.verdicts
        assert build_matrices(gm, d).first_singular_degree == build_matrices(_fresh(gm), d).first_singular_degree
        held = sum(len(record.cells) for record in gm.shapes.values())
        held += sum(len(key) - 1 for key in gm.verdicts)
        assert held == gm._shape_cells <= 60
        kept = set(map(id, gm.shapes.values()))
        assert all(id(record) in kept for key in gm.verdicts for record in key[1:])
        starts += gm.verdicts is not before
        most = max(most, len(gm.verdicts))
    assert starts >= 3 and most >= 10


def _entrywise_failure(fam, assignment):
    """The first degree whose entrywise-evaluated A_a(y) has rank below
    its size, by `Matrix.rank`, or None."""
    for a in fam.degrees():
        m = oracles.evaluate_entrywise(fam, a, assignment)
        if m.rank() < m.nrows:
            return a
    return None


@pytest.mark.parametrize("field", [QQ, F2, F3, F5, PrimeField(1000003)])
def test_verify_witness_agrees_with_entrywise_evaluation_and_rank(field):
    # random witnesses, zeros and (over Q) non-integers among them, on the
    # kernel corpus, whose modules over Q include maps with denominators
    rng = random.Random(41)
    if field.is_finite():
        p = field.cardinality

        def draw():
            return rng.choice([0, 1, 2, p - 1, rng.randrange(p)])
    else:
        values = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-3, 7), Fraction(5, 3)]

        def draw():
            return rng.choice(values)
    outcomes = Counter()
    for gm, d in _kernel_cases(field, 10, seed=43):
        fam = build_matrices(gm, d)
        for _ in range(10):
            assignment = {v: draw() for v in fam.variables}
            expected = _entrywise_failure(fam, assignment)
            assert verify_witness(gm, d, assignment) == expected
            outcomes[expected is None] += 1
    assert outcomes[True] >= 30 and outcomes[False] >= 15


def _unpack_words(words, variables, q):
    """A packed product as a Poly term map: variable k's exponent is
    bits [k*w, (k+1)*w) of the word, w = q.bit_length()."""
    w = q.bit_length()
    terms = {}
    for word, c in words.items():
        exps = [(v, word >> (k * w) & ((1 << w) - 1)) for k, v in enumerate(variables)]
        terms[tuple((v, e) for v, e in exps if e)] = c
    return terms


@pytest.mark.parametrize("field", [F2, F3, F5])
def test_packed_reduced_product_matches_the_poly_product(field):
    q = field.cardinality
    for fam in _kernel_families(field, 8, seed=23):
        packed, poly = {0: field.one}, Poly.one(field)
        # every factor twice, so that exponents wrap past q - 1 for q = 2, 3
        for a in fam.degrees() * 2:
            packed = stanley._reduced_product(packed, fam.packed_det(a), q)
            poly = reduce_exponents(poly_mul(poly, fam.det(a)), q)
            assert _unpack_words(packed, fam.variables, q) == poly.terms


def test_packed_reduced_product_wraps_exponents_at_q():
    # Y^4 * Y = Y^5 = Y over GF(5)
    words = {4: 3}
    assert stanley._reduced_product(words, {1: 2}, 5) == {1: 1}
    assert stanley._reduced_product({1 << 3 | 4: 1}, {0b11: 1}, 5) == {2 << 3 | 1: 1}


@pytest.mark.parametrize("field", [QQ, F2, F3, F5])
def test_witness_is_the_first_grid_point_of_the_brute_oracle(field):
    compared = 0
    for gm in _kernel_modules(field, 10, seed=61):
        for partition in islice(enumerate_partitions(truncated_series(gm), 0), 4):
            d = partition_to_decomposition(partition, gm.g)
            fam = build_matrices(gm, d)
            if not check(gm, d, fam=fam).induced:
                with pytest.raises(WitnessNotFoundError):
                    extract_witness(gm, d, fam=fam, check_first=False)
                continue
            # the oracle walks the grid point by point: keep it under 3^8 points
            if len(fam.variables) > 8 or (field.is_finite() and field.p ** len(fam.variables) > 3**8):
                continue
            witness = extract_witness(gm, d, fam=fam, check_first=False)
            assert witness.assignment == oracles.lex_first_witness(fam)
            compared += 1
    assert compared >= 10


def test_witness_over_q_is_the_brute_oracles_where_columns_have_different_denominators():
    # each image is made integral by the lcm of its own denominators, so
    # the columns of one A_a can carry different factors
    gm = _fractional_modules()[-1]
    mixed = 0
    for partition in islice(enumerate_partitions(truncated_series(gm), 0), 4):
        d = partition_to_decomposition(partition, gm.g)
        fam = build_matrices(gm, d)
        mixed += any(len({math.lcm(*(e.denominator for row in image.entries for e in row))
                          for image in fam.images[a]}) > 1 for a in fam.degrees())
        assert extract_witness(gm, d, fam=fam).assignment == oracles.lex_first_witness(fam)
    assert mixed == 3


@pytest.mark.parametrize("p", [2, 3, 7, 11])
def test_witness_search_is_complete_over_small_and_large_fields(p):
    # the kernel corpus at every depth, plus ex36_dec: over F2 and F3 its
    # determinants are nonzero but their reduced product vanishes, so the
    # whole-field stage must run out of candidates
    field = PrimeField(p)
    ex36 = modules.load_module_file(data_file("ex36.json"), field_override=field)
    cases = [(ex36, hilbert.load_decomposition_file(data_file("ex36_dec.json"), ex36.g))]
    for gm in _kernel_modules(field, 20, seed=71):
        cases += [(gm, partition_to_decomposition(partition, gm.g))
                  for partition in islice(_every_partition_by_depth(gm), 30)]
    seen = Counter()
    for gm, d in cases:
        fam = build_matrices(gm, d)
        induced = check(gm, d, fam=fam).induced
        seen[fam.exponent_bound + 1 < p, induced] += 1
        if induced:
            assert verify_witness(gm, d, extract_witness(gm, d, fam=fam, check_first=False)) is None
        else:
            with pytest.raises(WitnessNotFoundError):
                extract_witness(gm, d, fam=fam, check_first=False)
    assert seen[True, True] + seen[False, True] >= 60
    assert seen[True, False] + seen[False, False] >= 1
    # F3 holds both regimes: stages {1..s} and the whole field
    assert p != 3 or (seen[True, True] and seen[False, True])


def test_ex36_is_certified_over_a_million_element_field(tmp_path, monkeypatch):
    # the field is larger than B+1 = 5, so the search walks the stages {1..s}
    # and tries only vectors with leading coefficient 1
    monkeypatch.setattr(stanley, "DEFAULT_SEARCH_BUDGET", 2000)
    cert = tmp_path / "ex36.cert.json"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["certify", data_file("ex36.json"), data_file("ex36_dec.json"), "--field", "F1000003",
                     "--output", str(cert)]) == 0
        assert main(["verify-cert", data_file("ex36.json"), str(cert), "--field", "F1000003"]) == 0
    assert out.getvalue().endswith("valid: witness gives full rank at every degree of [0, (3,3)]\n")
    assert json.loads(cert.read_text())["witness"] == {
        "Y[1,1]": "1", "Y[1,2]": "2", "Y[2,1]": "1", "Y[2,2]": "1", "Y[3,1]": "1", "Y[4,1]": "1", "Y[5,1]": "1",
        "Y[6,1]": "1", "Y[6,2]": "1", "Y[7,1]": "1", "Y[7,2]": "2", "Y[7,3]": "1", "Y[8,1]": "1", "Y[8,2]": "1"}


def test_free_module_of_rank_seven_is_certified_over_q(tmp_path):
    # one 7x7 matrix per degree: too wide to expand, so the old grid walk went unpruned
    module = tmp_path / "r7.json"
    module.write_text(json.dumps({"ring": {"n": 1, "field": "Q"}, "g": [1],
                                  "module": {"kind": "free", "shifts": [[0]] * 7}}))
    dec = tmp_path / "r7_dec.json"
    dec.write_text(json.dumps({"summands": [{"vars": [1], "shift": [0], "mult": 7}]}))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["sdepth", str(module), "--output", str(tmp_path / "sdepth.cert.json")]) == 0
        assert main(["verify-cert", str(module), str(tmp_path / "sdepth.cert.json")]) == 0
        assert main(["certify", str(module), str(dec), "--output", str(tmp_path / "r7.cert.json")]) == 0
        assert main(["verify-cert", str(module), str(tmp_path / "r7.cert.json")]) == 0
    assert out.getvalue().startswith("sdepth = 1\n")
    assert out.getvalue().count("valid: ") == 2
    witness = json.loads((tmp_path / "r7.cert.json").read_text())["witness"]
    # all ones, then the first vectors of {1,2}^7 that keep the columns independent
    assert witness == {f"Y[{i},{j}]": "2" if i > 1 and i + j == 9 else "1"
                       for i in range(1, 8) for j in range(1, 8)}


def test_free_module_of_rank_seven_is_certified_over_f5():
    gm = modules.build(modules.free(F5, 1, [(0,)] * 7), (1,))
    d = HilbertDecomposition([({0}, (0,))] * 7)
    witness = extract_witness(gm, d)
    # B = 2 < 4: the stages {1..s}, as over Q
    assert witness.assignment == {(i, j): 2 if i + j == 7 else 1 for i in range(7) for j in range(7)}
    assert verify_certificate(gm, certificate_json(gm, d, witness))[0]


def test_witness_of_a_sampled_ex36_partition_over_f5(ex36_f5):
    # the 94th seed-1 depth-1 sample of the finite-field benchmark; the
    # determinant-pruned search took seconds on it.  B = 2 < 4, so the
    # witness comes from the stages {1..s}
    intervals = [((0, 3), (2, 3)), ((1, 2), (2, 3)), ((2, 1), (3, 1)), ((2, 2), (3, 2)), ((2, 3), (2, 3)),
                 ((3, 0), (3, 0)), ((3, 0), (3, 1)), ((3, 2), (3, 3)), ((3, 3), (3, 3))]
    d = hilbert.decomposition_from_json(
        {"intervals": [{"a": list(a), "b": list(b)} for a, b in intervals]}, ex36_f5.g)
    cert = certificate_json(ex36_f5, d, extract_witness(ex36_f5, d))
    assert cert["witness"] == {
        "Y[1,1]": "1", "Y[2,1]": "1", "Y[2,2]": "1", "Y[3,1]": "1", "Y[3,2]": "1", "Y[3,3]": "1",
        "Y[4,1]": "1", "Y[5,1]": "1", "Y[5,2]": "1", "Y[6,1]": "1", "Y[7,1]": "1", "Y[7,2]": "2",
        "Y[8,1]": "1", "Y[8,2]": "2", "Y[8,3]": "1", "Y[9,1]": "1", "Y[9,2]": "1",
        "Y[10,1]": "1", "Y[10,2]": "2", "Y[11,1]": "1", "Y[11,2]": "1",
        "Y[12,1]": "1", "Y[12,2]": "1", "Y[13,1]": "1", "Y[13,2]": "1",
    }
    assert verify_certificate(ex36_f5, cert)[0]


@pytest.mark.extended
def test_m6r9_partition_is_certified_over_q():
    gm = modules.load_module_file(data_file("m6r9.json"))
    d = hilbert.load_decomposition_file(data_file("m6r9_partition.json"), gm.g)
    start = time.perf_counter()
    cert = certificate_json(gm, d, extract_witness(gm, d))
    certified = time.perf_counter() - start
    assert verify_certificate(gm, cert)[0]
    assert certified < 10, f"certify took {certified:.1f}s after load"


def test_determinants_are_multilinear_and_block_homogeneous():
    for gm in oracles.random_modules(8, seed=41):
        series = truncated_series(gm)
        for partition in islice(enumerate_partitions(series, 0), 3):
            d = partition_to_decomposition(partition, gm.g)
            fam = build_matrices(gm, d)
            for a in fam.degrees():
                alive = fam.columns[a]
                for monomial, _coeff in fam.det(a).terms.items():
                    assert all(e == 1 for _v, e in monomial)
                    assert sorted(i for (i, _j), _e in monomial) == sorted(alive)


def test_zero_one_dimensional_modules_are_always_induced():
    for gm in oracles.random_modules(10, seed=5, allow_sums=False):
        assert all(gm.dim(a) <= 1 for a in dg.box(dg.zero(gm.n), gm.g))
        series = truncated_series(gm)
        for partition in islice(enumerate_partitions(series, 0), 3):
            d = partition_to_decomposition(partition, gm.g)
            assert check_infinite(build_matrices(gm, d)).induced
            assert check_transversal(gm, d).induced


def test_check_modes_agree_with_the_brute_oracle():
    for gm in oracles.random_modules(8, seed=99):
        series = truncated_series(gm)
        for partition in islice(enumerate_partitions(series, 0), 3):
            d = partition_to_decomposition(partition, gm.g)
            fam = build_matrices(gm, d)
            expected = oracles.brute_check_induced(gm, d)
            assert check_infinite(fam).induced == expected
            assert check_transversal(gm, d).induced == expected
            assert check_unified(fam).induced == expected


def test_sdepth_of_the_maximal_ideal_in_two_variables(m2):
    result = sdepth(m2)
    assert result.value == 1
    assert result.decomposition.summands == (
        (frozenset({1}), (0, 1)),
        (frozenset({0}), (1, 0)),
        (frozenset({0, 1}), (1, 1)),
    )
    assert result.witness.assignment == {(0, 0): 1, (1, 0): 1, (2, 0): 1}
    assert verify_witness(m2, result.decomposition, result.witness) is None


def test_sdepth_matches_the_brute_oracle_on_ex34(ex34):
    result = sdepth(ex34)
    assert result.value == 1 == oracles.brute_sdepth(ex34)
    assert result.decomposition.summands == (
        (frozenset({1}), (0, 1)),
        (frozenset({0}), (1, 0)),
        (frozenset({0, 1}), (1, 1)),
        (frozenset({0, 1}), (1, 1)),
    )
    assert validate_decomposition(result.decomposition, ex34) is None
    assert verify_witness(ex34, result.decomposition, result.witness) is None


def test_sdepth_of_free_modules_is_n():
    gm = modules.build(modules.free(QQ, 2, [(0, 0)]), (1, 1))
    result = sdepth(gm)
    assert result.value == 2
    assert result.decomposition.summands == ((frozenset({0, 1}), (0, 0)),)


def test_sdepth_of_the_zero_module_is_infinite():
    # the empty partition is induced, with the empty witness, over every field
    for field in (QQ, F2):
        gm = modules.build(modules.quotient_by_monomial_ideal(field, 2, [(0, 0)]))
        result = sdepth(gm)
        assert result.value == math.inf
        assert len(result.decomposition) == 0 and result.witness == StanleyWitness({})


def test_sdepth_without_witness_extraction(m2):
    result = sdepth(m2, with_witness=False)
    assert result.value == 1 and result.witness is None


def test_sdepth_is_bounded_by_hdepth_on_the_corpus():
    for gm in oracles.random_modules(6, seed=13):
        result = sdepth(gm, with_witness=False)
        assert result.value <= hdepth(gm)
        assert validate_decomposition(result.decomposition, gm) is None


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_every_induced_partition_refines_to_an_induced_tight_one(field):
    # splitting uK[Z] into the uX_j^k K[Z - {j}], k < t, and uX_j^t K[Z]
    # keeps a decomposition induced, so searching tight partitions loses
    # no depth; over monomial and non-monomial modules
    corpus = oracles.random_modules(20, seed=5, field=field) + oracles.random_modules(20, seed=11, field=field)
    for pres in oracles.random_presentations(30, seed=13, field=field):
        gm = modules.build(pres)
        if dg.box_size(dg.zero(gm.n), gm.g) <= 8 and gm.verify_g_determined() is None:
            corpus.append(gm)
    seen = Counter()
    for gm in corpus:
        series = truncated_series(gm)
        for partition in islice(enumerate_partitions(series, 0), 50):
            induced = check(gm, partition_to_decomposition(partition, gm.g)).induced
            seen[induced] += 1
            if not induced:
                continue
            depth = partition.depth(gm.g)
            tight = oracles.tight_refinement(partition, gm.g, depth)
            assert tight.validates_against(series) and tight.depth(gm.g) >= depth
            assert check(gm, partition_to_decomposition(tight, gm.g)).induced, (gm.g, partition, tight)
            seen["refined"] += tight != partition
    assert seen[True] >= 200 and seen["refined"] >= 100 and seen[False] >= 5


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_sdepth_is_the_brute_oracles_over_small_and_large_fields(field):
    # the brute oracle checks every partition, tight or not, by Rado's
    # condition; the corpus holds modules with sdepth below hdepth, and
    # non-monomial presentations whose tight partitions over F2 and F3
    # the whole-field witness search decides
    corpus = [gm for seed in (3, 4, 5, 6) for gm in oracles.random_modules(60, seed=seed, field=field)]
    for seed in (13, 17, 19, 23):
        for pres in oracles.random_presentations(30, seed=seed, field=field):
            gm = modules.build(pres)
            if dg.box_size(dg.zero(gm.n), gm.g) <= 8 and not gm.is_zero_module() and gm.verify_g_determined() is None:
                corpus.append(gm)
    searched = []
    original = stanley.extract_witness

    def counting(gm, d, fam=None, check_first=True):
        searched.append(fam.exponent_bound >= fam.field.cardinality)
        return original(gm, d, fam=fam, check_first=check_first)

    below = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stanley, "extract_witness", counting)
        for gm in corpus:
            value = sdepth(gm, with_witness=False).value
            assert value == oracles.brute_sdepth(gm), gm
            below += value < hdepth(gm)
    assert below >= 5
    assert field.is_finite() == (sum(searched) >= 8) and all(searched)


def test_sdepth_of_m6r9_over_f5_cuts_each_prefix_no_completion_saves(monkeypatch):
    # 70 tight summands over 691 variables, exponent bound 32; trying every
    # vector of each summand passes a million candidates, and cutting each
    # prefix whose column and free columns lie in the span of an echelon
    # that has rejected a vector tries 1,628
    monkeypatch.setattr(stanley, "DEFAULT_SEARCH_BUDGET", 2000)
    gm = modules.load_module_file(data_file("m6r9.json"), field_override=F5)
    result = sdepth(gm)
    assert result.value == 5
    assert verify_certificate(gm, certificate_json(gm, result.decomposition, result.witness))[0]


def _cut_cases():
    """The first 40 depth-1 partitions of ex36 over F2 and over F3, and
    the first tight partition of m_5 + R^2 over Q."""
    for field in (F2, F3):
        ex36 = modules.load_module_file(data_file("ex36.json"), field_override=field)
        depth_one = (p for p in enumerate_partitions(truncated_series(ex36), 1) if p.depth(ex36.g) == 1)
        for partition in islice(depth_one, 40):
            yield ex36, partition_to_decomposition(partition, ex36.g)
    gm = modules.build(modules.direct_sum([modules.maximal_ideal(QQ, 5), modules.free(QQ, 5, [dg.zero(5)] * 2)]))
    _s, partition = next(hilbert.partitions_by_depth(gm))
    yield gm, partition_to_decomposition(partition, gm.g)


def test_the_witness_search_computes_no_cut_for_a_one_coordinate_summand(monkeypatch):
    # a summand of one coordinate has no shorter prefix, so its cut would
    # never be read; the cuts of wider summands leave every witness the
    # one the search finds with no cut at all
    span_start = stanley._free_span_start
    widths = []

    def guarded(echelon, rows, dim):
        if dim == 1:
            raise AssertionError("cut start computed for a one-coordinate summand")
        widths.append(dim)
        return span_start(echelon, rows, dim)

    def witnesses():
        return [extract_witness(gm, d, check_first=False).assignment for gm, d in _cut_cases()]

    monkeypatch.setattr(stanley, "_free_span_start", lambda echelon, rows, dim: dim)
    uncut = witnesses()
    monkeypatch.setattr(stanley, "_free_span_start", guarded)
    assert witnesses() == uncut
    assert widths


@pytest.mark.parametrize("field", [F2, F3])
def test_sdepth_over_a_small_field_never_expands_the_determinant_product(monkeypatch, field):
    # a tight partition has many summands; where the exponent bound
    # reaches q the witness search decides it, so the product that could
    # pass the term budget is never formed
    def refuse(*args, **kwargs):
        raise AssertionError("sdepth expanded the determinant product")

    monkeypatch.setattr(stanley, "check_finite", refuse)
    monkeypatch.setattr(stanley.SymbolicMatrixFamily, "packed_det", refuse)
    for seed in (1, 2, 3):
        for pres in oracles.random_presentations(40, seed=seed, field=field):
            gm = modules.build(pres)
            if dg.box_size(dg.zero(gm.n), gm.g) <= 16 and gm.verify_g_determined() is None:
                result = sdepth(gm)
                assert verify_witness(gm, result.decomposition, result.witness) is None


def test_sdepth_of_a_presentation_whose_tight_product_passes_the_term_budget():
    # g = (2, 2); the first tight partition has 14 summands over 53
    # variables and exponent bound 3, so its reduced product over F2 passes
    # DEFAULT_TERM_BUDGET; the whole-field search finds a witness at once
    gm = modules.build(oracles.random_presentations(40, seed=2, field=F2)[1])
    result = sdepth(gm)
    fam = build_matrices(gm, result.decomposition)
    assert (result.value, len(fam.summand_dims), len(fam.variables), fam.exponent_bound) == (1, 14, 53, 3)
    assert verify_witness(gm, result.decomposition, result.witness) is None
    assert sdepth(gm, with_witness=False).decomposition == result.decomposition


def test_sdepth_checks_each_decomposition_once(monkeypatch, ex34):
    corpus = [ex34] + oracles.random_modules(40, seed=7)
    original = stanley.check

    def first_induced(gm):
        # every level's full enumeration, refuted partitions included
        series = truncated_series(gm)
        for s in range(gm.n, -1, -1):
            for partition in enumerate_partitions(series, s):
                if oracles.tight_refinement(partition, gm.g, s) != partition:
                    continue
                d = partition_to_decomposition(partition, gm.g)
                if original(gm, d).induced:
                    return s, d

    expected = [first_induced(gm) for gm in corpus]
    checked = []

    def counting(gm, d, **kwargs):
        checked.append((gm, d))
        return original(gm, d, **kwargs)

    monkeypatch.setattr(stanley, "check", counting)
    for gm, (value, d) in zip(corpus, expected):
        result = sdepth(gm, with_witness=False)
        assert (result.value, result.decomposition) == (value, d)
    # ex34 and the corpus take 2 and 42 checks, each of its own decomposition
    assert sum(1 for gm, _ in checked if gm is ex34) == 2
    assert len(checked) == len({(id(gm), d) for gm, d in checked}) == 2 + 42


@pytest.mark.extended
def test_hdepth_and_sdepth_of_the_maximal_ideal_in_six_variables():
    # sdepth(m_n) = ceil(n/2) (Biro et al. 2010); hdepth agrees for m_6.
    gm = modules.build(modules.maximal_ideal(QQ, 6))
    assert hdepth(gm) == 3
    assert sdepth(gm, with_witness=False).value == 3


def test_sdepth_respects_finite_fields():
    gm = modules.build(modules.maximal_ideal(F2, 2))
    result = sdepth(gm)
    assert result.value == 1
    assert verify_witness(gm, result.decomposition, result.witness) is None


def test_certificate_round_trip(m2):
    result = sdepth(m2)
    cert = certificate_json(m2, result.decomposition, result.witness)
    assert cert == {
        "format": "stanleydepth-certificate/1",
        "basis_convention": "echelon-unit-cosets/1",
        "field": "Q",
        "g": [1, 1],
        "decomposition": {
            "summands": [
                {"vars": [2], "shift": [0, 1]},
                {"vars": [1], "shift": [1, 0]},
                {"vars": [1, 2], "shift": [1, 1]},
            ]
        },
        "witness": {"Y[1,1]": "1", "Y[2,1]": "1", "Y[3,1]": "1"},
    }
    reparsed = json.loads(json.dumps(cert))
    ok, message = verify_certificate(m2, reparsed)
    assert ok
    assert message == "witness gives full rank at every degree of [0, (1,1)]"


def _fresh_cert(m2):
    result = sdepth(m2)
    return certificate_json(m2, result.decomposition, result.witness)


def test_certificate_header_tampering_raises(m2):
    for key, value in [
        ("format", "stanleydepth-certificate/9"),
        ("basis_convention", "rowspace/0"),
        ("field", {"Fp": 5}),
        ("g", [2, 2]),
    ]:
        cert = _fresh_cert(m2)
        cert[key] = value
        with pytest.raises(InputFormatError):
            verify_certificate(m2, cert)
    cert = _fresh_cert(m2)
    del cert["witness"]
    with pytest.raises(InputFormatError, match="no witness map"):
        verify_certificate(m2, cert)


def test_certificate_with_an_invalid_decomposition_is_rejected(m2):
    cert = _fresh_cert(m2)
    cert["decomposition"] = {"summands": [{"vars": [1, 2], "shift": [0, 1]}]}
    ok, message = verify_certificate(m2, cert)
    assert not ok and message.startswith("decomposition invalid:")


def test_certificate_with_a_bad_witness_is_rejected(m2):
    cert = _fresh_cert(m2)
    cert["witness"]["Y[1,1]"] = "0"
    ok, message = verify_certificate(m2, cert)
    assert not ok
    assert message == "witness loses rank at degree (0, 1)"


def test_witness_to_json_uses_field_notation():
    witness = StanleyWitness({(0, 0): Fraction(3, 2), (1, 0): Fraction(-1)})
    assert witness.to_json(QQ) == {"Y[1,1]": "3/2", "Y[2,1]": "-1"}
