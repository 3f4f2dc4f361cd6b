import contextlib
import functools
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import data_file, load_json
from stanleydepth import hilbert, modules, polytope, stanley
from stanleydepth.cli import main
from stanleydepth.errors import InputFormatError


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


M2 = data_file("m2.json")
EX34 = data_file("ex34.json")
EX34_DEC = data_file("ex34_dec.json")
EX36 = data_file("ex36.json")
EX36_DEC = data_file("ex36_dec.json")


@pytest.fixture()
def undetermined_module(tmp_path):
    path = tmp_path / "xsq.json"
    path.write_text(json.dumps({
        "ring": {"n": 1},
        "g": [1],
        "module": {"kind": "quotient_by_monomial_ideal", "generators": [[2]]},
    }))
    return path


def test_info_summarizes_the_presentation():
    code, out, err = run("info", M2)
    assert code == 0 and err == ""
    assert out == (
        "n = 2\n"
        "field = QQ\n"
        "g = 1,1\n"
        "generators = 2\n"
        "relations = 1\n"
        "total dimension on [0, g] = 3\n"
        "determined: yes\n"
    )


def test_info_honors_field_and_g_overrides():
    code, out, _ = run("info", M2, "--field", "F5", "--g", "2,2")
    assert code == 0
    assert "field = GF(5)\n" in out
    assert "g = 2,2\n" in out
    assert "total dimension on [0, g] = 8\n" in out


def test_info_over_a_large_prime_field_is_immediate(tmp_path):
    # 2^61 - 1: trial division up to its square root would take minutes
    start = time.perf_counter()
    code, out, _ = run("info", M2, "--field", "F2305843009213693951")
    assert time.perf_counter() - start < 1
    assert code == 0 and "field = GF(2305843009213693951)\n" in out
    module = load_json("m2.json")
    module["ring"]["field"] = {"Fp": 2**89 - 1}
    (tmp_path / "big.json").write_text(json.dumps(module))
    code, out, err = run("info", tmp_path / "big.json")
    assert (code, out) == (2, "") and "field order too large" in err


def test_integers_too_long_to_parse_exit_with_code_two(tmp_path):
    huge = "7" * 5000  # past int()'s default digit limit
    code, out, err = run("info", M2, "--field", "F" + huge)
    assert (code, out, err) == (2, "", "error: field order too large: 5000 digits\n")
    (tmp_path / "module.json").write_text(
        '{"ring": {"n": 2, "field": {"Fp": %s}}, "module": {"kind": "free", "shifts": [[0, 0]]}}' % huge)
    (tmp_path / "dec.json").write_text('{"summands": [{"vars": [1, 2], "shift": [0, 0], "mult": %s}]}' % huge)
    (tmp_path / "cert.json").write_text('{"format": %s}' % huge)
    for argv in (("info", tmp_path / "module.json"), ("check", M2, tmp_path / "dec.json"),
                 ("verify-cert", M2, tmp_path / "cert.json")):
        code, out, err = run(*argv)
        assert (code, out) == (2, "") and err.startswith("error: ") and "digit" in err, argv


def test_info_reports_undetermined_modules(undetermined_module):
    code, out, _ = run("info", undetermined_module)
    assert code == 0
    assert out.endswith("determined: no (multiplication by X_1 fails at degree (1,))\n")


def test_hseries_skips_zeros_by_default():
    code, out, _ = run("hseries", M2)
    assert code == 0
    assert out == "0,1 1\n1,0 1\n1,1 1\n"
    code, out, _ = run("hseries", M2, "--all")
    assert out == "0,0 0\n0,1 1\n1,0 1\n1,1 1\n"


def test_hdepth_prints_the_value_and_writes_the_partition(tmp_path):
    code, out, _ = run("hdepth", M2)
    assert code == 0 and out == "hdepth = 1\n"
    part = tmp_path / "p.json"
    code, out, err = run("hdepth", M2, "--output", part)
    assert code == 0 and f"wrote {part}" in err
    assert json.loads(part.read_text()) == {
        "intervals": [
            {"a": [0, 1], "b": [0, 1], "mult": 1},
            {"a": [1, 0], "b": [1, 0], "mult": 1},
            {"a": [1, 1], "b": [1, 1], "mult": 1},
        ]
    }


def test_hdepth_requires_a_determined_module(undetermined_module):
    code, out, err = run("hdepth", undetermined_module)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "X_1" in err


def test_sdepth_lists_the_summands():
    code, out, _ = run("sdepth", M2)
    assert code == 0
    assert out == (
        "sdepth = 1\n"
        "summand shift=(0,1) vars={2}\n"
        "summand shift=(1,0) vars={1}\n"
        "summand shift=(1,1) vars={1,2}\n"
    )


def test_sdepth_writes_a_verifiable_certificate(tmp_path):
    cert = tmp_path / "cert.json"
    code, out, _ = run("sdepth", M2, "--output", cert)
    assert code == 0
    assert out.endswith(f"certificate: {cert}\n")
    obj = json.loads(cert.read_text())
    assert obj["format"] == "stanleydepth-certificate/1"
    assert obj["witness"] == {"Y[1,1]": "1", "Y[2,1]": "1", "Y[3,1]": "1"}

    code, out, _ = run("verify-cert", M2, cert)
    assert code == 0
    assert out == "valid: witness gives full rank at every degree of [0, (1,1)]\n"


def test_sdepth_no_witness_skips_the_certificate(tmp_path, capsys):
    code, out, _ = run("sdepth", M2, "--no-witness")
    assert code == 0 and "sdepth = 1" in out
    # the pair is refused before the search, and no file is written
    with pytest.raises(SystemExit) as exc:
        main(["sdepth", str(M2), "--no-witness", "--output", str(tmp_path / "c.json")])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "argument --output: not allowed with argument --no-witness" in err
    assert not (tmp_path / "c.json").exists()


def test_sdepth_output_is_deterministic():
    first = run("sdepth", M2)
    second = run("sdepth", M2)
    assert first == second


def test_verify_cert_flags_tampering(tmp_path):
    cert = tmp_path / "cert.json"
    run("sdepth", M2, "--output", cert)
    obj = json.loads(cert.read_text())
    obj["witness"]["Y[1,1]"] = "0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, _ = run("verify-cert", M2, bad)
    assert code == 1
    assert out == "invalid: witness loses rank at degree (0, 1)\n"


def test_verify_cert_names_the_degree_a_tampered_f5_certificate_fails_at(tmp_path):
    cert = tmp_path / "cert.json"
    assert run("certify", EX36, EX36_DEC, "--field", "F5", "--output", cert)[0] == 0
    obj = json.loads(cert.read_text())
    obj["witness"]["Y[1,1]"] = "0"
    cert.write_text(json.dumps(obj))
    assert run("verify-cert", EX36, cert, "--field", "F5") == (
        1, "invalid: witness loses rank at degree (3, 0)\n", "")


def test_verify_cert_refuses_a_variable_spelled_twice(tmp_path):
    cert = tmp_path / "cert.json"
    assert run("certify", EX36, EX36_DEC, "--field", "F5", "--output", cert)[0] == 0
    obj = json.loads(cert.read_text())
    obj["witness"]["Y[01,1]"] = "0"
    cert.write_text(json.dumps(obj))
    code, out, err = run("verify-cert", EX36, cert, "--field", "F5")
    assert (code, out) == (2, "")
    assert err == f"error: {cert}: witness assigns Y[1,1] twice, as 'Y[1,1]' and 'Y[01,1]'\n"


def test_a_summand_that_names_a_variable_twice_exits_with_code_two(tmp_path):
    # in a decomposition file and in a certificate's decomposition alike
    item = {"vars": [1, 1], "shift": [0, 1]}
    path = tmp_path / "dec.json"
    path.write_text(json.dumps({"summands": [item]}))
    for command in ("check", "certify"):
        assert run(command, EX34, path) == (
            2, "", f"error: {path}: summand names a variable twice in {item!r}\n")
    cert = tmp_path / "cert.json"
    assert run("certify", EX36, EX36_DEC, "--field", "F5", "--output", cert)[0] == 0
    obj = json.loads(cert.read_text())
    obj["decomposition"]["summands"][0]["vars"] *= 2
    cert.write_text(json.dumps(obj))
    code, out, err = run("verify-cert", EX36, cert, "--field", "F5")
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert err.startswith(f"error: {cert}: summand names a variable twice in ")


def test_verify_cert_rejects_malformed_shapes(tmp_path):
    cert = tmp_path / "cert.json"
    run("sdepth", M2, "--output", cert)
    good = json.loads(cert.read_text())
    bad_g = {**good, "g": 5}
    no_decomposition = {k: v for k, v in good.items() if k != "decomposition"}
    for obj in (bad_g, no_decomposition):
        cert.write_text(json.dumps(obj))
        code, out, err = run("verify-cert", M2, cert)
        assert code == 2 and out == "" and err.startswith("error: ")


def test_verify_cert_rejects_unreadable_files(tmp_path):
    code, _, err = run("verify-cert", M2, tmp_path / "missing.json")
    assert code == 2 and err.startswith("error: cannot read")


def test_check_reports_verdict_and_exit_code():
    code, out, err = run("check", EX36, EX36_DEC)
    assert (code, out) == (0, "induced\n")
    assert err == "mode: transversal\n"
    code, out, _ = run("check", EX34, EX34_DEC)
    assert (code, out) == (1, "not_induced (failing degree 1,1)\n")


def test_check_finite_field_detail_line():
    code, out, _ = run("check", EX36, EX36_DEC, "--field", "F2")
    assert code == 1
    assert out == "not_induced [expanded product (exponent bound 4 >= 2)]\n"
    code, out, _ = run("check", EX36, EX36_DEC, "--field", "F5")
    assert code == 0
    assert out == "induced [per-factor determinants (exponent bound 4 < 5)]\n"


@pytest.mark.parametrize("argv", [
    ("check", EX34, EX34_DEC, "--mode", "randomized"),
    ("check", EX34, EX34_DEC, "--seed", "1"),
    ("certify", EX34, EX34_DEC, "--seed", "1"),
    ("sdepth", M2, "--seed", "1"),
])
def test_the_sampling_options_are_gone(argv):
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
        main(list(argv))
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("check", EX36, EX36_DEC, "--mode", "auto"),
    ("check", EX36, EX36_DEC, "--mode", "transversal"),
    ("certify", EX36, EX36_DEC, "--mode", "symbolic"),
    ("sdepth", M2, "--mode", "unified"),
])
def test_the_mode_option_is_gone(argv):
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode" in err.getvalue()


def test_certify_writes_a_certificate(tmp_path):
    code, out, _ = run("certify", EX34, EX34_DEC)
    assert (code, out) == (1, "not_induced (failing degree 1,1)\n")

    code, out, _ = run("certify", EX36, EX36_DEC)
    assert code == 0
    assert json.loads(out)["format"] == "stanleydepth-certificate/1"

    cert = tmp_path / "cert.json"
    code, out, _ = run("certify", EX36, EX36_DEC, "--output", cert)
    assert (code, out) == (0, "induced; certificate written\n")
    code, out, _ = run("verify-cert", EX36, cert)
    assert code == 0 and out.startswith("valid:")


@pytest.mark.parametrize("module, decomposition, field, line", [
    (EX36, EX36_DEC, "F2", "not_induced [expanded product (exponent bound 4 >= 2)]"),
    (EX34, EX34_DEC, "Q", "not_induced (failing degree 1,1)"),
    (EX34, EX34_DEC, "F5", "not_induced (failing degree 1,1) [per-factor determinants (exponent bound 2 < 5)]"),
])
def test_certify_prints_the_verdict_line_of_check(module, decomposition, field, line):
    for command in ("check", "certify"):
        code, out, err = run(command, module, decomposition, "--field", field)
        assert (code, out) == (1, line + "\n")
        assert err == f"mode: {'transversal' if field == 'Q' else 'unified'}\n"


def test_export_polytope_writes_both_formats(tmp_path):
    # --output writes exactly the text --format selects, and nothing else
    for fmt, name in (("sip", "sys.sip"), ("lp", "x.lp")):
        _, stdout, _ = run("export-polytope", M2, "--format", fmt)
        path = tmp_path / name
        code, out, err = run("export-polytope", M2, "--format", fmt, "--output", path)
        assert (code, out) == (0, "")
        assert err == f"wrote {path}\n9 variables, 4 rows\n"
        assert path.read_text() == stdout
    assert stdout.startswith("Minimize\n")
    assert (tmp_path / "sys.sip").read_text().startswith("# module: m2.json; system: hilbert\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sys.sip", "x.lp"]


def test_export_polytope_stdout_formats():
    code, out, _ = run("export-polytope", M2)
    assert code == 0 and out.splitlines()[1] == "ip 2 1 1"
    code, out, _ = run("export-polytope", M2, "--format", "lp")
    assert code == 0 and out.startswith("Minimize\n")


def test_export_polytope_stanley_system():
    code, out, err = run("export-polytope", M2, "--system", "stanley", "--max-subset", "inf")
    assert code == 0
    assert err == "9 variables, 26 rows\n"
    assert "le [1,1]{0,1|1,0}:" in out
    code, _, err = run("export-polytope", M2, "--system", "stanley", "--max-subset", "foo")
    assert code == 2 and "--max-subset must be an integer or 'inf'" in err


@pytest.mark.parametrize("options", [("--depth", "5"), ("--max-subset", "4"), ("--max-subset", "inf", "--depth", "1")],
                         ids=["depth", "max-subset", "both"])
def test_export_polytope_hilbert_system_rejects_stanley_options(options):
    code, out, err = run("export-polytope", M2, "--system", "hilbert", *options)
    assert (code, out, err) == (2, "", f"error: {options[0]} applies to --system stanley only\n")


def _solution_text(assignments):
    return "".join(f"{name} {value}\n" for name, value in assignments.items())


M2_NAMES = [
    "u[0,0;{}]", "u[0,0;{1}]", "u[0,0;{1,2}]", "u[0,0;{2}]",
    "u[0,1;{2}]", "u[0,1;{1,2}]",
    "u[1,0;{1}]", "u[1,0;{1,2}]",
    "u[1,1;{1,2}]",
]


def test_import_solution_round_trip(tmp_path):
    values = {name: 0 for name in M2_NAMES}
    values["u[0,1;{1,2}]"] = 1
    values["u[1,0;{1}]"] = 1
    sol = tmp_path / "sol.txt"
    sol.write_text(_solution_text(values))
    dec = tmp_path / "dec.json"
    code, out, _ = run("import-solution", M2, sol, "--output", dec)
    assert (code, out) == (0, "induced\n")
    assert json.loads(dec.read_text()) == {
        "summands": [
            {"mult": 1, "shift": [0, 1], "vars": [1, 2]},
            {"mult": 1, "shift": [1, 0], "vars": [1]},
        ]
    }


def test_import_solution_rejects_infeasible_points(tmp_path):
    values = {name: 0 for name in M2_NAMES}
    values["u[0,0;{}]"] = 1
    values["u[0,1;{1,2}]"] = 1
    values["u[1,0;{1}]"] = 1
    sol = tmp_path / "sol.txt"
    sol.write_text(_solution_text(values))
    code, _, err = run("import-solution", M2, sol)
    assert code == 2
    assert "equality at degree [0,0] violated" in err


def test_import_solution_flags_non_induced_points(tmp_path):
    code, out, _ = run("export-polytope", EX34)
    names = [line.split()[1] for line in out.splitlines() if line.startswith("var ")]
    values = {name: 0 for name in names}
    values["u[1,0;{1,2}]"] = 1
    values["u[0,1;{1,2}]"] = 1
    sol = tmp_path / "sol.txt"
    sol.write_text(_solution_text(values))
    code, out, _ = run("import-solution", EX34, sol)
    assert (code, out) == (1, "not_induced (failing degree 1,1)\n")


def test_import_solution_over_finite_fields_prints_the_verdict_of_check(tmp_path):
    gm = modules.load_module_file(EX36)
    system = polytope.build_hilbert_system(gm)
    point = polytope.decomposition_to_point(system, hilbert.load_decomposition_file(EX36_DEC, gm.g))
    ex36_sol = tmp_path / "ex36_dec.sol"
    ex36_sol.write_text(_solution_text({v.name(): x for v, x in zip(system.variables, point)}))
    values = {name: 0 for name in M2_NAMES}
    values["u[0,1;{1,2}]"] = 1
    values["u[1,0;{1}]"] = 1
    m2_sol = tmp_path / "m2.sol"
    m2_sol.write_text(_solution_text(values))
    m2_dec = tmp_path / "m2_dec.json"
    m2_dec.write_text(json.dumps({"summands": [{"vars": [1, 2], "shift": [0, 1]}, {"vars": [1], "shift": [1, 0]}]}))
    expected = {
        "F2": (1, "not_induced [expanded product (exponent bound 4 >= 2)]\n"),
        "F5": (0, "induced [per-factor determinants (exponent bound 4 < 5)]\n"),
    }
    for field in ("F2", "F3", "F5"):
        code, out, _ = run("import-solution", EX36, ex36_sol, "--field", field)
        assert (code, out) == run("check", EX36, EX36_DEC, "--field", field)[:2]
        assert (code, out) == expected.get(field, (code, out))
        code, out, _ = run("import-solution", M2, m2_sol, "--field", field)
        assert (code, out) == run("check", M2, m2_dec, "--field", field)[:2]


def test_the_omega_budget_exits_with_code_two(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"ring": {"n": 1}, "module": {"kind": "free", "shifts": [[0]]}}))
    sol = tmp_path / "sol.txt"
    sol.write_text("u[0;{1}] 1\n")
    message = (
        "error: the polytope variables of g = (2000,) have 2005001 equality-row support "
        "entries, more than OMEGA_SUPPORT_BUDGET = 2000000\n"
    )
    for argv in (("export-polytope", path), ("import-solution", path, sol)):
        assert run(*argv, "--g", "2000") == (2, "", message)


def test_the_partition_state_budget_exits_with_code_two(tmp_path, monkeypatch):
    # m_4 + R^2: its depth-3 search proves three residuals to have no partition
    path = tmp_path / "m4r2.json"
    path.write_text(json.dumps({"ring": {"n": 4}, "module": {"kind": "direct_sum", "parts": [
        {"kind": "monomial_ideal", "generators": [[int(i == k) for i in range(4)] for k in range(4)]},
        {"kind": "free", "shifts": [[0, 0, 0, 0]] * 2}]}}))
    assert run("hdepth", path) == (0, "hdepth = 3\n", "")
    monkeypatch.setattr(hilbert, "PARTITION_STATE_BUDGET", 1)
    message = (
        "error: the partition search of depth >= 3 holds more than "
        "PARTITION_STATE_BUDGET = 1 residuals with no partition\n"
    )
    for command in ("hdepth", "sdepth"):
        assert run(command, path) == (2, "", message)


def test_the_cover_rank_budget_exits_with_code_two(tmp_path, monkeypatch):
    # K[X_1]/(X_1^10): its depth-0 search lists 55 interval ends
    path = tmp_path / "chain10.json"
    path.write_text(json.dumps({"ring": {"n": 1}, "module": {
        "kind": "quotient_by_monomial_ideal", "generators": [[10]]}}))
    monkeypatch.setattr(hilbert, "COVER_RANK_BUDGET", 54)
    message = (
        "error: the partition search of depth >= 0 ranks more than "
        "COVER_RANK_BUDGET = 54 interval ends\n"
    )
    for command in ("hdepth", "sdepth"):
        assert run(command, path) == (2, "", message)


def test_import_solution_rejects_a_file_that_is_not_utf8(tmp_path):
    sol = tmp_path / "sol.txt"
    sol.write_bytes(b"\xff\xfe")
    code, out, err = run("import-solution", M2, sol)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {sol}: ")


def test_errors_exit_with_code_two(tmp_path):
    code, out, err = run("info", tmp_path / "missing.json")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read")
    code, _, err = run("info", M2, "--g", "one,two")
    assert code == 2 and "--g must be comma-separated integers" in err
    code, _, err = run("info", M2, "--field", "F6")
    assert code == 2 and "6" in err


def test_an_oversized_box_exits_with_code_two_before_building():
    start = time.perf_counter()
    code, out, err = run("info", M2, "--g", "1000,1000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == (
        "error: the box [0, g+1] = [0, (1001, 1001)] has 1004004 degrees, "
        "more than BOX_DEGREE_LIMIT = 100000\n"
    )


@pytest.mark.parametrize("module", [
    {"ring": {"n": 100000}, "module": {"kind": "free", "shifts": []}},
    {"ring": {"n": 10**9}, "module": {"kind": "quotient_by_monomial_ideal", "generators": []}},
    {"ring": {"n": 2}, "g": [10**4000, 10**4000], "module": {"kind": "free", "shifts": [[0, 0]]}},
], ids=["n-100000", "n-10^9", "g-10^4000"])
def test_a_ring_or_g_too_large_for_any_box_exits_with_code_two(tmp_path, module):
    # the box [0, g+1] has at least 2^n and at least g_j + 2 degrees
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module))
    start = time.perf_counter()
    code, out, err = run("info", path)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "BOX_DEGREE_LIMIT = 100000" in err and len(err) < 200


def test_rational_scalars_with_huge_exponents_exit_with_code_two(tmp_path):
    def module(coeff):
        path = tmp_path / "module.json"
        path.write_text(json.dumps({"ring": {"n": 1}, "module": {"kind": "presentation",
            "generator_degrees": [[0], [0]],
            "relations": [[{"gen": 1, "shift": [1], "coeff": coeff}, {"gen": 2, "shift": [1], "coeff": "1"}]]}}))
        return path
    for coeff in ("1e9999999", "-1E-4301"):
        start = time.perf_counter()
        code, out, err = run("info", module(coeff))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.endswith(f"rational scalar {coeff!r} has a decimal exponent past 4300\n")
    for coeff in ("1e3", "-2.5e-1", "1/3", "1e4300"):
        assert run("info", module(coeff))[0] == 0, coeff


@pytest.mark.parametrize("field, spelled", [("Q", '"1/3"'), ("F5", '"3"')])
def test_json_float_scalars_exit_with_code_two(tmp_path, field, spelled):
    path = tmp_path / "module.json"

    def hseries(coeff):
        path.write_text('{"ring": {"n": 1}, "module": {"kind": "presentation", "generator_degrees": [[0], [0]], '
                        '"relations": [[{"gen": 1, "shift": [1], "coeff": %s}, '
                        '{"gen": 2, "shift": [1], "coeff": "1"}]]}}' % coeff)
        return run("hseries", path, "--field", field)
    # 1e-400 decodes to the float 0.0, which would drop the term
    for coeff, named in (("1e-400", "1E-400"), ("0.5", "0.5"), ("2.0", "2.0"),
                         ("0.12345678901234567890", "0.12345678901234567890")):
        code, out, err = hseries(coeff)
        assert (code, out) == (2, ""), coeff
        assert err == f'error: {path}: scalar {named} is a JSON float: write it as an integer or a string such as "1/3"\n'
    for coeff in (spelled, "2", '"2"'):
        assert hseries(coeff)[0] == 0, coeff


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_a_json_float_witness_value_exits_with_code_two(tmp_path, field):
    cert = tmp_path / "cert.json"
    assert run("certify", EX36, EX36_DEC, "--field", field, "--output", cert)[0] == 0
    obj = json.loads(cert.read_text())
    assert obj["witness"]["Y[1,1]"] == "1"
    obj["witness"]["Y[1,1]"] = 1.0
    cert.write_text(json.dumps(obj))
    code, out, err = run("verify-cert", EX36, cert, "--field", field)
    assert (code, out) == (2, "")
    assert err == f'error: {cert}: scalar 1.0 is a JSON float: write it as an integer or a string such as "1/3"\n'
    obj["witness"]["Y[1,1]"] = 1
    cert.write_text(json.dumps(obj))
    assert run("verify-cert", EX36, cert, "--field", field)[0] == 0


def test_m6r9_is_certified_over_a_million_element_field(tmp_path):
    # B = 32 < 1000002: the same stages {1..s} as over Q, so the same witness
    m6r9, partition = data_file("m6r9.json"), data_file("m6r9_partition.json")
    for field in ("Q", "F1000003"):
        start = time.perf_counter()
        code, out, _ = run("certify", m6r9, partition, "--field", field, "--output", tmp_path / f"{field}.json")
        assert time.perf_counter() - start < 5
        assert (code, out) == (0, "induced; certificate written\n")
        code, out, _ = run("verify-cert", m6r9, tmp_path / f"{field}.json", "--field", field)
        assert code == 0 and out.startswith("valid:")
    witnesses = [json.loads((tmp_path / f"{field}.json").read_text())["witness"] for field in ("Q", "F1000003")]
    assert witnesses[0] == witnesses[1]


def test_hdepth_of_a_large_free_module_needs_no_deep_recursion(tmp_path):
    # R^1200 over one variable: the search stacks 1200 covers at degree 0.
    path = tmp_path / "free1200.json"
    path.write_text(json.dumps({"ring": {"n": 1}, "module": {"kind": "free", "shifts": [[0]] * 1200}}))
    code, out, err = run("hdepth", path)
    assert (code, out, err) == (0, "hdepth = 1\n", "")


@pytest.mark.parametrize("decomposition", [
    {"summands": [{"vars": [1], "shift": [1, 0], "mult": "x"}]},
    {"summands": [{"vars": [1], "shift": [1, 0], "mult": 1.5}]},
    {"summands": [{"vars": [1], "shift": [1, 0.5]}]},
    {"intervals": [{"a": [0, 1], "b": [1, 1], "mult": "x"}]},
    {"intervals": [{"a": [0, 1], "b": [1, 1], "mult": 1.5}]},
])
def test_non_integer_decomposition_entries_exit_with_code_two(tmp_path, decomposition):
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(decomposition))
    code, out, err = run("check", M2, path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "bad" in err and "entry" in err


@pytest.mark.parametrize("module", [
    {"kind": "free", "shifts": [[0, "x"]]},
    {"kind": "free", "shifts": [[0, 1.5]]},
    {"kind": "presentation", "generator_degrees": [[0, 0]],
     "relations": [[{"gen": 1, "shift": [1, 0.5], "coeff": "1"}]]},
])
def test_non_integer_module_shifts_exit_with_code_two(tmp_path, module):
    path = tmp_path / "module.json"
    path.write_text(json.dumps({"ring": {"n": 2}, "module": module}))
    code, out, err = run("info", path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "expected an integer" in err


@pytest.mark.parametrize("decomposition", [
    {"summands": 5},
    {"intervals": 5},
    {"intervals": [{"a": [0], "b": [1]}]},
    {"summands": [{"vars": [1, 2], "shift": [0, 1], "mult": hilbert.DECOMPOSITION_SUMMAND_LIMIT + 1}]},
    {"summands": [{"vars": [1, 2], "shift": [0, 1], "mult": hilbert.DECOMPOSITION_SUMMAND_LIMIT // 2},
                  {"vars": [1], "shift": [1, 0], "mult": hilbert.DECOMPOSITION_SUMMAND_LIMIT // 2 + 1}]},
])
def test_malformed_decomposition_shapes_exit_with_code_two(tmp_path, decomposition):
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(decomposition))
    for command in ("check", "certify"):
        code, out, err = run(command, M2, path)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("b", [[5, 0], [1000000, 1000000]])
def test_an_interval_outside_the_box_exits_with_code_two_naming_its_bound(tmp_path, b):
    # checked before the summand count, which b = (10^6, 10^6) would overflow
    path = tmp_path / "dec.json"
    path.write_text(json.dumps({"intervals": [{"a": [0, 0], "b": b}]}))
    for command in ("check", "certify"):
        assert run(command, EX36, path) == (
            2, "", f"error: {path}: interval upper bound {tuple(b)} exceeds g = (3, 3)\n")


@pytest.mark.parametrize("a", [[-2, 0], [-1000000000, 0]])
def test_a_negative_interval_lower_bound_exits_with_code_two_naming_it(tmp_path, a):
    # checked before the summand count, which a = (-10^9, 0) would overflow
    path = tmp_path / "dec.json"
    path.write_text(json.dumps({"intervals": [{"a": a, "b": [0, 0]}]}))
    for command in ("check", "certify"):
        assert run(command, EX36, path) == (2, "", f"error: {path}: interval lower bound {tuple(a)} is negative\n")


def test_a_decomposition_with_both_keys_exits_with_code_two(tmp_path):
    path = tmp_path / "dec.json"
    obj = load_json("ex36_dec.json")
    obj["intervals"] = [{"a": [0, 0], "b": [3, 3]}]
    path.write_text(json.dumps(obj))
    assert run("check", EX36, path) == (
        2, "", f'error: {path}: decomposition file has both a "summands" and an "intervals" key\n')
    with pytest.raises(InputFormatError, match='"summands" and an "intervals"'):
        hilbert.decomposition_from_json(obj, (3, 3))


@pytest.mark.parametrize("argv", [
    ("hdepth", M2),
    ("sdepth", M2),
    ("certify", EX36, EX36_DEC),
    ("export-polytope", M2),
    ("import-solution", M2, "<solution>"),
])
def test_an_unwritable_output_exits_with_code_two(tmp_path, argv):
    solution = tmp_path / "sol.txt"
    solution.write_text("".join(f"{name} {int(name in ('u[0,1;{1,2}]', 'u[1,0;{1}]'))}\n"
                                for name in M2_NAMES))
    target = tmp_path / "missing" / "out.json"
    argv = [solution if a == "<solution>" else a for a in argv]
    code, out, err = run(*argv, "--output", target)
    assert code == 2 and out == ""
    assert err == f"error: cannot write {target}: [Errno 2] No such file or directory: '{target}'\n"
    assert not target.parent.exists()


@pytest.mark.parametrize("argv", [
    ("info", M2, "--field", ""),
    ("check", EX36, EX36_DEC, "--field", ""),
    ("hdepth", M2, "--output", ""),
    ("sdepth", M2, "--output", ""),
    ("certify", EX36, EX36_DEC, "--output", ""),
    ("export-polytope", M2, "--output", ""),
    ("import-solution", M2, "<solution>", "--output", ""),
])
def test_an_empty_field_or_output_exits_with_code_two(tmp_path, argv):
    # an empty value is a bad value, not a missing option
    solution = tmp_path / "sol.txt"
    solution.write_text("".join(f"{name} {int(name in ('u[0,1;{1,2}]', 'u[1,0;{1}]'))}\n"
                                for name in M2_NAMES))
    argv = [solution if a == "<solution>" else a for a in argv]
    code, _, err = run(*argv)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    if "--field" in argv:
        assert err == "error: unrecognized field name '' (use Q or F<p>)\n"


@pytest.mark.parametrize("options, message", [
    (("--max-subset", "0"), "error: max_subset must be at least 1, got 0\n"),
    (("--max-subset", "-3"), "error: max_subset must be at least 1, got -3\n"),
    (("--depth", "9", "--format", "lp"), "error: min_depth must be within [0, 2], got 9\n"),
    (("--depth", "-1"), "error: min_depth must be within [0, 2], got -1\n"),
], ids=["max-subset-0", "max-subset-negative", "depth-9-lp", "depth-negative"])
def test_export_polytope_rejects_out_of_range_options(options, message):
    code, out, err = run("export-polytope", EX34, "--system", "stanley", *options)
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("module", [
    {"kind": "free", "shifts": 5},
    {"kind": "monomial_ideal", "generators": 5},
    {"kind": "quotient_by_monomial_ideal", "generators": True},
    {"kind": "direct_sum", "parts": 5},
    {"kind": "presentation", "generator_degrees": 5},
    {"kind": "presentation", "generator_degrees": [[0, 0]], "relations": 5},
    {"kind": "presentation", "generator_degrees": [[0, 0]], "relations": [5]},
    {"kind": "presentation", "generator_degrees": [[0, 0]], "relations": [[5]]},
])
def test_malformed_module_shapes_exit_with_code_two(tmp_path, module):
    path = tmp_path / "module.json"
    path.write_text(json.dumps({"ring": {"n": 2}, "module": module}))
    code, out, err = run("info", path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_malformed_shapes_end_the_process_with_code_two(tmp_path):
    module = tmp_path / "module.json"
    module.write_text(json.dumps({"ring": {"n": 2}, "module": {"kind": "free", "shifts": 5}}))
    decomposition = tmp_path / "dec.json"
    decomposition.write_text(json.dumps({"summands": 5}))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["info", module], ["check", M2, decomposition]):
        proc = subprocess.run([sys.executable, "-m", "stanleydepth.cli", *map(str, argv)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def _nested_arrays(depth):
    return "[" * depth + "]" * depth


def _nested_direct_sums(depth):
    """A module file of `depth` direct sums, each of one part, around R(0)."""
    module = '{"kind": "direct_sum", "parts": [' * depth + '{"kind": "free", "shifts": [[0, 0]]}' + "]}" * depth
    return '{"ring": {"n": 2}, "module": %s}' % module


@pytest.mark.parametrize("argv, text", [
    (("info", "<file>"), _nested_arrays(100_000)),
    (("info", "<file>"), _nested_direct_sums(400)),
    (("check", M2, "<file>"), _nested_arrays(100_000)),
    (("verify-cert", M2, "<file>"), _nested_arrays(100_000)),
], ids=["module-decoder", "module-direct-sums", "decomposition-decoder", "certificate-decoder"])
def test_deeply_nested_files_exit_with_code_two(tmp_path, argv, text):
    # the json decoder is bounded by the recursion limit up to Python 3.11
    # and by a C limit of at most 10,000 levels from 3.12 on; the recursive
    # direct_sum parse by the recursion limit.  Neither may end in a traceback.
    path = tmp_path / "nested.json"
    path.write_text(text)
    code, out, err = run(*(path if a == "<file>" else a for a in argv))
    assert (code, out) == (2, "")
    assert re.fullmatch(f"error: {re.escape(str(path))}[^\n]*\n", err), err


@pytest.mark.parametrize("field", ["Q", "F2"])
def test_the_zero_module_certifies_with_the_empty_witness(tmp_path, field):
    module = tmp_path / "zero.json"
    module.write_text(json.dumps({"ring": {"n": 2}, "module": {
        "kind": "quotient_by_monomial_ideal", "generators": [[0, 0]]}}))
    cert = tmp_path / "cert.json"
    code, out, _ = run("sdepth", module, "--field", field, "--output", cert)
    assert (code, out) == (0, f"sdepth = inf\ncertificate: {cert}\n")
    obj = json.loads(cert.read_text())
    assert obj["decomposition"] == {"summands": []} and obj["witness"] == {}
    assert run("verify-cert", module, cert, "--field", field) == (
        0, "valid: witness gives full rank at every degree of [0, (0,0)]\n", "")


# ---------------------------------------------------------------------------
# exit-code fuzzing: mutated input files on every command

M, SUMMANDS, INTERVALS, CERT, SOLUTION, OUT = (
    "<module>", "<summands>", "<intervals>", "<certificate>", "<solution>", "<output>")
FUZZ_COMMANDS = [
    ("info", M),
    ("hseries", M, "--all"),
    ("hdepth", M, OUT),
    ("sdepth", M, OUT),
    ("sdepth", M, "--no-witness"),
    ("check", M, SUMMANDS),
    ("check", M, INTERVALS),
    ("certify", M, SUMMANDS, OUT),
    ("certify", M, INTERVALS, OUT),
    ("verify-cert", M, CERT),
    ("export-polytope", M, OUT),
    ("export-polytope", M, "--format", "lp"),
    ("export-polytope", M, "--system", "stanley", "--max-subset", "0"),
    ("export-polytope", M, "--system", "stanley", "--max-subset", "-1"),
    ("export-polytope", M, "--system", "stanley", "--max-subset", "2", "--depth", "1", OUT),
    ("export-polytope", M, "--system", "stanley", "--depth", "9", "--format", "lp"),
    ("export-polytope", M, "--system", "stanley", "--depth", "-1"),
    ("import-solution", M, SOLUTION, OUT),
]
ROLES = {M: "module", SUMMANDS: "summands", INTERVALS: "intervals", CERT: "certificate",
         SOLUTION: "solution"}
DROP = "<drop>"
# 10**18 copies of anything cannot be allocated: a loader that expands a
# multiplicity before bounding it fails at once instead of filling memory.
REPLACEMENTS = (DROP, None, "x", "1", 1.5, 2.0, True, -1, 0, 1, 2, 3, 10**18, [], {}, [0], [1], [0, 0, 0])


@functools.cache
def _fuzz_documents(name):
    """The documents a fuzz case mutates, for one shipped module: the
    module file, an induced decomposition in both forms (the shipped one
    where there is one), its certificate, and its solution point as
    [name, value] pairs."""
    gm = modules.load_module_file(data_file(name))
    result = stanley.sdepth(gm)
    _, partition = hilbert.hdepth(gm, return_partition=True)
    dec_name = name.replace(".json", "_dec.json")
    summands = (load_json(dec_name) if os.path.exists(data_file(dec_name))
                else hilbert.decomposition_to_json(result.decomposition))
    system = polytope.build_hilbert_system(gm)
    point = polytope.decomposition_to_point(system, result.decomposition)
    return json.loads(json.dumps({
        "module": load_json(name),
        "summands": summands,
        "intervals": hilbert.partition_to_json(partition),
        "certificate": stanley.certificate_json(gm, result.decomposition, result.witness),
        "solution": [[v.name(), x] for v, x in zip(system.variables, point)],
    }))


def _json_paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _json_paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _json_paths(value, path + (i,))


def _edits(name):
    docs = _fuzz_documents(name)
    edit = st.sampled_from(sorted(docs)).flatmap(lambda role: st.tuples(
        st.just(role), st.sampled_from(list(_json_paths(docs[role]))), st.sampled_from(REPLACEMENTS)))
    return st.lists(edit, max_size=2).map(tuple)


def _apply(doc, path, value):
    """doc with the value at path replaced (or dropped, for DROP); a path
    an earlier edit removed leaves doc unchanged."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        try:
            parent = parent[key]
        except (IndexError, KeyError, TypeError):
            return doc
    try:
        if value == DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    except (IndexError, KeyError, TypeError):
        pass
    return doc


def _file_text(role, doc):
    if doc == DROP:
        return ""
    if role == "solution" and isinstance(doc, list):
        return "".join(" ".join(map(str, entry)) + "\n" if isinstance(entry, list) else f"{entry}\n"
                       for entry in doc)
    return json.dumps(doc)


@given(
    command=st.sampled_from(FUZZ_COMMANDS),
    inputs=st.sampled_from(["m2.json", "ex34.json", "ex36.json"]).flatmap(
        lambda name: st.tuples(st.just(name), _edits(name))),
    field=st.sampled_from([None, "F2", "F5"]),
    output=st.sampled_from([None, "-", "file", "missing"]),
)
@example(command=("sdepth", M, OUT), inputs=("m2.json", ()), field=None, output="missing")
@example(command=("hdepth", M, OUT), inputs=("m2.json", ()), field=None, output="missing")
@example(command=("certify", M, SUMMANDS, OUT), inputs=("ex36.json", ()), field=None, output="missing")
@example(command=("import-solution", M, SOLUTION, OUT), inputs=("m2.json", ()), field=None, output="missing")
@example(command=("export-polytope", M, OUT), inputs=("m2.json", ()), field=None, output="missing")
@example(command=("check", M, INTERVALS), field=None, output=None, inputs=(
    "ex34.json", (("intervals", ("intervals", 0, "a"), [0]), ("intervals", ("intervals", 0, "b"), [1]))))
@example(command=("certify", M, INTERVALS, OUT), field=None, output=None, inputs=(
    "ex34.json", (("intervals", ("intervals", 0, "a"), [0]), ("intervals", ("intervals", 0, "b"), [1]))))
@example(command=("check", M, SUMMANDS), field=None, output=None,
         inputs=("ex34.json", (("summands", ("summands", 0, "mult"), 10**18),)))
@example(command=("certify", M, INTERVALS, OUT), field=None, output=None,
         inputs=("ex34.json", (("intervals", ("intervals", 0, "mult"), 10**18),)))
@example(command=("export-polytope", M, "--system", "stanley", "--max-subset", "0"),
         inputs=("ex34.json", ()), field=None, output=None)
@example(command=("export-polytope", M, "--system", "stanley", "--depth", "9", "--format", "lp"),
         inputs=("ex34.json", ()), field=None, output=None)
def test_mutated_inputs_exit_with_a_documented_code(command, inputs, field, output):
    """Exit 0, 1 or 2 and never an exception; exit 1 only with a verdict
    line, exit 2 only with an error line."""
    name, edits = inputs
    docs = dict(_fuzz_documents(name))
    for role, path, value in edits:
        docs[role] = _apply(docs[role], path, value)
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {"-": "-", "file": os.path.join(tmp, "out.json"),
                   "missing": os.path.join(tmp, "missing", "out.json")}
        argv = []
        for token in command:
            if token == OUT:
                if output is not None:
                    argv += ["--output", outputs[output]]
            elif token in ROLES:
                role = ROLES[token]
                path = os.path.join(tmp, f"{role}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(_file_text(role, docs[role]))
                argv.append(path)
            else:
                argv.append(token)
        if field is not None:
            argv += ["--field", field]
        code, out, err = run(*argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert re.fullmatch(r"(not_induced|invalid: )[^\n]*\n", out), out
    if code == 2:
        assert err.splitlines()[-1].startswith("error: ") and "Traceback" not in err
