"""The workloads: seeded inputs written as files, and the operations a
run issues against them.

BENCHMARK.json lists depth-search, finite-field-certify and
polytope-roundtrip.  m6r9-check is kept for runs by hand (it exercises
the transversal and rank path on the largest module) but is not in
BENCHMARK.json:
it is a single 14 s operation whose work is identical for every seed,
and drift in the machine's speed during that one operation, which the
reference samples around it cannot see, spread its time by 17-21 %
(quartiles over the median, 5 and 10 seeds, on a shared 2-vCPU virtual
machine).

An operation is one library call of the kind a CLI subcommand makes
(`check`, `certify`, `verify-cert`, `hdepth`, `sdepth`,
`export-polytope`, `import-solution`).  It receives the package and the
modules built in set-up, and returns an answer.  Each operation carries
a check that compares the answer with a value known independently of
the program (a theorem or a table pinned in pins.json); the check runs
outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")


@dataclass
class Op:
    kind: str
    label: str
    run: Callable  # (package, modules) -> answer
    check: Callable  # (package, modules, answer) -> error text or None


@dataclass
class Plan:
    modules: dict  # label -> module file path
    ops: list


def load_pins() -> dict:
    return inputs.read_json(PINS_PATH)


def verdict_table(pin: dict) -> dict:
    """key -> {field: "induced" | "not_induced"} for one pinned universe."""
    keys = pin["keys"].split()
    out = {k: {} for k in keys}
    for field, flags in pin["verdicts"].items():
        for k, flag in zip(keys, flags):
            out[k][field] = "induced" if flag == "I" else "not_induced"
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# operations, each mirroring one CLI subcommand


def check_line(report) -> str:
    line = report.verdict
    if report.failing_degree is not None:
        line += f" (failing degree {','.join(str(x) for x in report.failing_degree)})"
    if report.detail:
        line += f" [{report.detail}]"
    return line


def op_check(label, dec_path, mode, expect):
    """`check MODULE DEC --mode MODE`; expect(line, mode) -> error or None."""
    def run(sd, mods):
        gm = mods[label]
        sd.hilbert.require_g_determined(gm)
        d = sd.hilbert.load_decomposition_file(dec_path, gm.g)
        report = sd.stanley.check(gm, d, mode=mode)
        return check_line(report), report.mode
    return Op("check", f"{label}:{os.path.basename(dec_path)}", run,
              lambda sd, mods, answer: expect(*answer))


def op_certify(label, dec_path, cert_path):
    def run(sd, mods):
        gm = mods[label]
        sd.hilbert.require_g_determined(gm)
        d = sd.hilbert.load_decomposition_file(dec_path, gm.g)
        report = sd.stanley.check(gm, d, mode="unified")
        if not report.induced:
            return "not_induced"
        witness = sd.stanley.extract_witness(gm, d, check_first=False)
        cert = sd.stanley.certificate_json(gm, d, witness)
        with open(cert_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(cert, indent=2, sort_keys=True) + "\n")
        return "induced; certificate written"

    def check(sd, mods, answer):
        if answer != "induced; certificate written":
            return f"certify said {answer!r}"
        return None
    return Op("certify", f"{label}:{os.path.basename(dec_path)}", run, check)


def op_verify_cert(label, cert_path):
    def run(sd, mods):
        with open(cert_path, encoding="utf-8") as fh:
            cert = json.load(fh)
        return sd.stanley.verify_certificate(mods[label], cert)

    def check(sd, mods, answer):
        return None if answer[0] else f"certificate rejected: {answer[1]}"
    return Op("verify-cert", f"{label}:{os.path.basename(cert_path)}", run, check)


def op_hdepth(label, expected):
    def run(sd, mods):
        gm = mods[label]
        sd.hilbert.require_g_determined(gm)
        return sd.hilbert.hdepth(gm, return_partition=True)

    def check(sd, mods, answer):
        value, partition = answer
        if value != expected:
            return f"hdepth {value}, expected {expected}"
        series = sd.hilbert.truncated_series(mods[label])
        if not partition.validates_against(series) or partition.depth(series.g) < value:
            return "witnessing partition does not partition the series at that depth"
        return None
    return Op("hdepth", label, run, check)


def op_sdepth(label, expected):
    def run(sd, mods):
        return sd.stanley.sdepth(mods[label], with_witness=True)

    def check(sd, mods, result):
        if result.value != expected:
            return f"sdepth {result.value}, expected {expected}"
        if result.decomposition.depth() < expected:
            return "decomposition is shallower than the reported depth"
        failing = sd.stanley.verify_witness(mods[label], result.decomposition, result.witness)
        return None if failing is None else f"witness loses rank at {failing}"
    return Op("sdepth", label, run, check)


def op_export(label, module_name, system, fmt, out_path, expected_hash):
    comment = f"module: {module_name}; system: {system}"

    def run(sd, mods):
        gm = mods[label]
        sd.hilbert.require_g_determined(gm)
        if system == "hilbert":
            lin = sd.polytope.build_hilbert_system(gm)
        else:
            lin = sd.polytope.build_stanley_inequalities(gm, max_subset=4)
        text = sd.polytope.export_lp(lin) if fmt == "lp" else sd.polytope.export_sip(lin, comment)
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return sha256(text)

    def check(sd, mods, answer):
        return None if answer == expected_hash else "exported text differs from the pinned hash"
    return Op("export-polytope", f"{label}:{system}:{fmt}", run, check)


def op_import(label, solution_path, expected):
    def run(sd, mods):
        gm = mods[label]
        sd.hilbert.require_g_determined(gm)
        lin = sd.polytope.build_hilbert_system(gm)
        with open(solution_path, encoding="utf-8") as fh:
            text = fh.read()
        d = sd.polytope.import_solution(gm, lin, text)
        values = sd.polytope.decomposition_to_point(lin, d)
        failing = sd.polytope.check_u_vector(gm, lin, values)
        if failing is not None:
            return f"not_induced (failing degree {','.join(str(x) for x in failing)})"
        return "induced"

    def check(sd, mods, answer):
        verdict = answer.split(" ", 1)[0]
        return None if verdict == expected else f"verdict {verdict}, pinned {expected}"
    return Op("import-solution", f"{label}:{os.path.basename(solution_path)}", run, check)


# ---------------------------------------------------------------------------
# workloads


def plan_m6r9_check(seed, workdir, data_dir, pins):
    rng = random.Random(seed)
    perm = inputs.permutation(6, rng)
    mod = inputs.write_json(os.path.join(workdir, "m6r9.json"), inputs.permute_module_file(
        inputs.read_json(os.path.join(data_dir, "m6r9.json")), perm))
    dec = inputs.write_json(os.path.join(workdir, "m6r9_partition.json"), inputs.permute_partition(
        inputs.read_json(os.path.join(data_dir, "m6r9_partition.json")), perm))
    want = pins["m6r9"]

    def expect(line, mode):
        if (line, mode) != (want["line"], want["mode"]):
            return f"got {line!r} in mode {mode}, expected {want['line']!r} in mode {want['mode']}"
        return None
    return Plan({"m6r9": mod}, [op_check("m6r9", dec, "auto", expect)])


def plan_depth_search(seed, workdir, data_dir, pins):
    rng = random.Random(seed)
    files = {}
    for n in (4, 5):
        files[f"m{n}"] = inputs.module_file_obj(n, inputs.maximal_ideal(n))
    files["m5+R2"] = inputs.module_file_obj(5, {"kind": "direct_sum", "parts": [
        inputs.maximal_ideal(5), {"kind": "free", "shifts": [[0] * 5, [0] * 5]}]})
    k = rng.randrange(4)
    g = [2 if j == k else 1 for j in range(4)]
    files["sq4"] = inputs.module_file_obj(
        4, {"kind": "monomial_ideal", "generators": inputs.unit_vectors(4, square_at=k)}, g=g)
    paths = {label: inputs.write_json(os.path.join(workdir, f"{label}.json"), obj)
             for label, obj in files.items()}
    # hdepth(m_n) = sdepth(m_n) = ceil(n/2) (Biro et al. 2010); the rest is pinned.
    depths = {f"m{n}": {"hdepth": math.ceil(n / 2), "sdepth": math.ceil(n / 2)} for n in (4, 5)}
    depths.update(pins["depths"])
    # m_3 is left out: its two 1-3 ms operations would put the median
    # latency on the boundary between m_4 sdepth and the square member,
    # whose order depends on the seed.
    ops = []
    for label in ("m4", "m5", "m5+R2"):
        ops.append(op_hdepth(label, depths[label]["hdepth"]))
        ops.append(op_sdepth(label, depths[label]["sdepth"]))
    ops.append(op_hdepth("sq4", depths["sq4"]["hdepth"]))
    return Plan(paths, ops)


FF_PRIMES = (2, 3, 5)
FF_SAMPLES = 100
# Sampled partitions are certified over F2 only: the witness search over F3
# and F5 takes from 1 s to several minutes on some of them, which no bounded
# run can absorb.  F5 certification runs on the shipped ex36_dec.
FF_CERTIFY_PRIMES = (2,)


def plan_finite_field_certify(seed, workdir, data_dir, pins):
    rng = random.Random(seed)
    ex36 = inputs.read_json(os.path.join(data_dir, "ex36.json"))
    universe = pins["universes"]["ex36-d1"]
    table = verdict_table(universe)
    series = inputs.series_from_pin(universe["series"])
    shipped = inputs.write_json(os.path.join(workdir, "ex36_dec.json"),
                                inputs.read_json(os.path.join(data_dir, "ex36_dec.json")))
    paths, ops = {}, []
    for p in FF_PRIMES:
        label = f"ex36/F{p}"
        paths[label] = inputs.write_json(os.path.join(workdir, f"ex36_F{p}.json"),
                                         dict(ex36, ring=dict(ex36["ring"], field={"Fp": p})))
        for i, part in enumerate(inputs.sample_partitions(series, universe["g"], 1, FF_SAMPLES, rng)):
            key = inputs.partition_key(part)
            if key not in table:
                raise ValueError(f"sampled partition {key} is not in the pinned universe")
            dec = inputs.write_json(os.path.join(workdir, f"F{p}-{i}.json"), inputs.partition_obj(part))
            want = table[key][f"F{p}"]
            ops.append(op_check(label, dec, "unified", _verdict_is(want)))
            if want == "induced" and p in FF_CERTIFY_PRIMES:
                cert = os.path.join(workdir, f"F{p}-{i}.cert.json")
                ops += [op_certify(label, dec, cert), op_verify_cert(label, cert)]
    for p in (2, 5):
        label = f"ex36/F{p}"
        want = pins["ex36_dec"][f"F{p}"]
        ops.append(op_check(label, shipped, "unified", _line_is(want)))
        if want.startswith("induced"):
            cert = os.path.join(workdir, f"ex36_dec-F{p}.cert.json")
            ops += [op_certify(label, shipped, cert), op_verify_cert(label, cert)]
    return Plan(paths, ops)


def _verdict_is(want):
    def expect(line, _mode):
        verdict = line.split(" ", 1)[0]
        return None if verdict == want else f"verdict {verdict}, pinned {want}"
    return expect


def _line_is(want):
    def expect(line, _mode):
        return None if line == want else f"got {line!r}, expected {want!r}"
    return expect


POINT_SAMPLES = {"ex36-d1": ("ex36", 40), "m4-d2": ("m4", 40), "m3m3R-d2": ("m3+m3+R", 20)}


def plan_polytope_roundtrip(seed, workdir, data_dir, pins):
    rng = random.Random(seed)
    files = {
        "ex36": inputs.read_json(os.path.join(data_dir, "ex36.json")),
        "m4": inputs.module_file_obj(4, inputs.maximal_ideal(4)),
        "m3+m3+R": inputs.module_file_obj(3, {"kind": "direct_sum", "parts": [
            inputs.maximal_ideal(3), inputs.maximal_ideal(3), {"kind": "free", "shifts": [[0, 0, 0]]}]}),
    }
    paths = {label: inputs.write_json(os.path.join(workdir, f"{label}.json"), obj)
             for label, obj in files.items()}
    ops = []
    for label in ("ex36", "m4"):
        for system in ("hilbert", "stanley"):
            for fmt in ("sip", "lp"):
                out = os.path.join(workdir, f"{label}-{system}.{fmt}")
                ops.append(op_export(label, f"{label}.json", system, fmt, out,
                                     pins["exports"][f"{label}/{system}/{fmt}"]))
    for name, (label, count) in POINT_SAMPLES.items():
        universe = pins["universes"][name]
        table = verdict_table(universe)
        series = inputs.series_from_pin(universe["series"])
        depth = int(name.rsplit("-d", 1)[1])
        for i, part in enumerate(inputs.sample_partitions(series, universe["g"], depth, count, rng)):
            key = inputs.partition_key(part)
            if key not in table:
                raise ValueError(f"sampled partition {key} is not in the pinned universe")
            sol = inputs.write_text(os.path.join(workdir, f"{name}-{i}.sol"),
                                    inputs.solution_text(part, universe["g"]))
            ops.append(op_import(label, sol, table[key]["Q"]))
    return Plan(paths, ops)


WORKLOADS = {
    "m6r9-check": plan_m6r9_check,
    "depth-search": plan_depth_search,
    "finite-field-certify": plan_finite_field_certify,
    "polytope-roundtrip": plan_polytope_roundtrip,
}
