"""Regenerate pins.json: the answers the benchmark checks against.

    python3 perfbench/pin.py

Run once at the commit that defines the benchmark; later commits must
reproduce these answers.  The verdict tables cover every partition a
workload can sample (every seed), so one file serves all seeds.  Over
Q each verdict is computed twice, by the polytope's transversal check
and by `stanley.check`, and the two must agree.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import stanleydepth as sd  # noqa: E402
import workloads  # noqa: E402


def build(obj, field=None):
    pres, g = sd.modules.load_module_json(obj, field_override=field)
    return sd.modules.build(pres, g)


def series_pin(gm) -> dict:
    series = sd.hilbert.truncated_series(gm)
    return {",".join(map(str, a)): series.coefficient(a) for a in inputs.box([0] * gm.n, gm.g)}


def universe(gm, depth, fields):
    """Every depth-`depth` partition of gm's series, with its verdict per field."""
    keys, flags = [], {name: [] for name in fields}
    for part in sd.hilbert.enumerate_partitions(sd.hilbert.truncated_series(gm), depth):
        keys.append(inputs.partition_key(part.intervals))
        d = sd.hilbert.partition_to_decomposition(part, gm.g)
        for name, module in fields.items():
            if name == "Q":
                lin = sd.polytope.build_hilbert_system(module)
                point = sd.polytope.decomposition_to_point(lin, d)
                induced = sd.polytope.check_u_vector(module, lin, point) is None
                if induced != sd.stanley.check(module, d).induced:
                    raise SystemExit(f"Q verdicts disagree on {keys[-1]}")
            else:
                induced = sd.stanley.check(module, d, mode="unified").induced
            flags[name].append("I" if induced else "N")
    order = sorted(range(len(keys)), key=keys.__getitem__)
    if len(set(keys)) != len(keys):
        raise SystemExit("partition key collision")
    return {
        "g": list(gm.g),
        "series": series_pin(gm),
        "keys": " ".join(keys[i] for i in order),
        "verdicts": {name: "".join(f[i] for i in order) for name, f in flags.items()},
    }


def main() -> None:
    data = os.path.join(ROOT, "data")
    ex36 = inputs.read_json(os.path.join(data, "ex36.json"))
    m4_obj = inputs.module_file_obj(4, inputs.maximal_ideal(4))
    m3m3r_obj = inputs.module_file_obj(3, {"kind": "direct_sum", "parts": [
        inputs.maximal_ideal(3), inputs.maximal_ideal(3), {"kind": "free", "shifts": [[0, 0, 0]]}]})
    gm36 = build(ex36)
    fields36 = {"Q": gm36, **{f"F{p}": build(ex36, sd.GF(p)) for p in workloads.FF_PRIMES}}
    pins = {}

    gm = sd.modules.load_module_file(os.path.join(data, "m6r9.json"))
    d = sd.hilbert.load_decomposition_file(os.path.join(data, "m6r9_partition.json"), gm.g)
    report = sd.stanley.check(gm, d)
    pins["m6r9"] = {"line": workloads.check_line(report), "mode": report.mode}

    m5r2 = build(inputs.module_file_obj(5, {"kind": "direct_sum", "parts": [
        inputs.maximal_ideal(5), {"kind": "free", "shifts": [[0] * 5, [0] * 5]}]}))
    sq = set()
    for k in range(4):
        obj = inputs.module_file_obj(4, {"kind": "monomial_ideal",
                                         "generators": inputs.unit_vectors(4, square_at=k)},
                                     g=[2 if j == k else 1 for j in range(4)])
        sq.add(sd.hilbert.hdepth(build(obj)))
    if len(sq) != 1:
        raise SystemExit(f"hdepth of the square member depends on its coordinate: {sq}")
    pins["depths"] = {
        "m5+R2": {"hdepth": sd.hilbert.hdepth(m5r2), "sdepth": sd.stanley.sdepth(m5r2).value},
        "sq4": {"hdepth": sq.pop()},
    }

    dec = sd.hilbert.load_decomposition_file(os.path.join(data, "ex36_dec.json"), gm36.g)
    pins["ex36_dec"] = {f"F{p}": workloads.check_line(sd.stanley.check(fields36[f"F{p}"], dec, mode="unified"))
                        for p in (2, 5)}

    exports = {}
    for label, gm in (("ex36", gm36), ("m4", build(m4_obj))):
        for system in ("hilbert", "stanley"):
            if system == "hilbert":
                lin = sd.polytope.build_hilbert_system(gm)
            else:
                lin = sd.polytope.build_stanley_inequalities(gm, max_subset=4)
            exports[f"{label}/{system}/sip"] = workloads.sha256(
                sd.polytope.export_sip(lin, f"module: {label}.json; system: {system}"))
            exports[f"{label}/{system}/lp"] = workloads.sha256(sd.polytope.export_lp(lin))
    pins["exports"] = exports

    pins["universes"] = {
        "ex36-d1": universe(gm36, 1, fields36),
        "m4-d2": universe(build(m4_obj), 2, {"Q": build(m4_obj)}),
        "m3m3R-d2": universe(build(m3m3r_obj), 2, {"Q": build(m3m3r_obj)}),
    }
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
