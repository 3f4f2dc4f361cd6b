"""Spans around the package's layers, recorded from outside the package.

A Tracer replaces each public function of the traced modules (and a few
hot methods) by a wrapper that records a span: name, start, end, parent
span and operation id.  The wrapper is installed under every name that
refers to the original function anywhere in the package, because
`stanley` and `polytope` hold their own bindings of functions defined in
`transversal`, `polynomials` and `hilbert`.  Spans stay in memory until
the run ends.  `fields` and `degrees` are not traced: they are leaf
helpers called millions of times, so a wrapper would mostly time itself,
and their cost shows up in the callers' self time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time

TRACED_MODULES = ("modules", "linalg", "transversal", "hilbert", "polynomials", "stanley", "polytope")

# Methods worth a span; every other method runs untraced inside its caller.
TRACED_METHODS = {
    "modules": {"GradedModule": ("power_map", "verify_g_determined")},
    "linalg": {"Matrix": ("rref",), "Subspace": ("__init__",)},
    "stanley": {"SymbolicMatrixFamily": ("evaluate_at",)},
}


def _power_map_reuse(state, args, _result):
    key = (id(args[0]), tuple(args[1]), tuple(args[2]))
    seen = state.setdefault("power_map_keys", set())
    repeated = key in seen
    seen.add(key)
    return (int(repeated),)


def _transversal(_state, args, result):
    ambient_dim, families = args[1], args[2]
    return (sum(len(f) for f in families), len(result), int(len(result) == ambient_dim))


# Per-span numbers computed from a call's arguments and result.
EXTRACTORS = {
    "modules.build": lambda _s, _a, r: (len(r.pieces),),
    "modules.GradedModule.power_map": _power_map_reuse,
    "linalg.Matrix.rref": lambda _s, a, _r: (a[0].nrows * a[0].ncols,),
    "transversal.max_independent_transversal": _transversal,
    "polynomials.det_symbolic": lambda _s, _a, r: (len(r.terms),),
    "polynomials.poly_mul": lambda _s, _a, r: (len(r.terms),),
    "stanley.check": lambda _s, _a, r: (int(r.induced),),
    "polytope.build_hilbert_system": lambda _s, _a, r: (len(r.rows),),
    "polytope.build_stanley_inequalities": lambda _s, _a, r: (len(r.rows),),
    "polytope.export_sip": lambda _s, _a, r: (len(r.encode()),),
    "polytope.export_lp": lambda _s, _a, r: (len(r.encode()),),
}

GENERATOR_SPAN = "hilbert.enumerate_partitions"


class Tracer:
    """Collects spans while `op` is set; wrappers pass straight through
    while it is None, so answer checks between operations stay untraced."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, extra]
        self.stack: list[int] = []
        self.op = None
        self.state: dict = {}
        self._patches: list[tuple] = []
        self._generators = 0

    # -- installing -------------------------------------------------------

    def patch(self, package) -> None:
        mods = [getattr(package, name) for name in TRACED_MODULES]
        holders = [package] + [m for m in vars(package).values() if inspect.ismodule(m)
                               and m.__name__.startswith(package.__name__ + ".")]
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{name}", fn)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, attr, fn))
                            setattr(holder, attr, wrapper)
            for cls_name, methods in TRACED_METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for method in methods:
                    fn = cls.__dict__[method]
                    self._patches.append((cls, method, fn))
                    setattr(cls, method, self._wrap(f"{short}.{cls_name}.{method}", fn))

    def unpatch(self) -> None:
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches.clear()

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                return inner if self.op is None else self._iterate(name, inner)
            return gen_wrapper

        spans, stack, clock = self.spans, self.stack, time.perf_counter
        extract = EXTRACTORS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extract is not None:
                span[5] = extract(self.state, args, result)
            return result

        return wrapper

    def _iterate(self, name, inner):
        """Re-yield a generator, one span per step; the step that resumes
        the generator is a child of whichever span is consuming it."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        self._generators += 1
        gen_id = self._generators
        while True:
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, (gen_id, 0)]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                span[2] = clock()
                stack.pop()
            span[5] = (gen_id, 1)
            yield item

    # -- reading ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total self time, and summed extras."""
        return summarize(self.spans)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, op, _extra in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, op]) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover.  Child
    spans of one parent never overlap (one thread, synchronous calls), so
    covered time is the sum of their durations; this also holds for
    recursive calls such as power_map."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - c for span, c in zip(spans, covered)]


def summarize(spans) -> dict:
    out: dict[str, dict] = {}
    generators: dict[int, list] = {}  # gen id -> [yielded, self time]
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span[0], {"calls": 0, "self_s": 0.0, "extra": ()})
        entry["self_s"] += own
        extra = span[5]
        if span[0] == GENERATOR_SPAN:
            gen = generators.setdefault(extra[0], [0, 0.0])
            gen[0] += extra[1]
            gen[1] += own
            entry["calls"] += extra[1]  # partitions yielded
            continue
        entry["calls"] += 1
        if extra is not None:
            acc = entry["extra"] or (0,) * len(extra)
            entry["extra"] = tuple(x + y for x, y in zip(acc, extra))
    out["hilbert.refute"] = {"calls": sum(1 for y, _ in generators.values() if y == 0),
                             "self_s": sum(t for y, t in generators.values() if y == 0),
                             "extra": ()}
    return out


def _calls(summary, *names):
    return sum(summary.get(n, {}).get("calls", 0) for n in names)


def _self_s(summary, *names):
    return sum(summary.get(n, {}).get("self_s", 0.0) for n in names)


def _extra(summary, index, *names):
    total = 0
    for n in names:
        extra = summary.get(n, {}).get("extra", ())
        total += extra[index] if extra else 0
    return total


def _ratio(num, den):
    return num / den if den else 0.0


CHECKS = ("stanley.check", "stanley.check_infinite", "stanley.check_finite",
          "stanley.check_unified", "stanley.check_transversal", "stanley.check_randomized")
POWER = "modules.GradedModule.power_map"
RREF = "linalg.Matrix.rref"
MIT = "transversal.max_independent_transversal"

# name -> (unit, function of the summary).  Every "_s" metric is self time.
LAYER_METRICS = {
    "modules.build_s": ("s", lambda s: _self_s(s, "modules.build")),
    "modules.pieces": ("count", lambda s: _extra(s, 0, "modules.build")),
    "modules.g_determined_s": ("s", lambda s: _self_s(
        s, "modules.GradedModule.verify_g_determined", "hilbert.require_g_determined")),
    "modules.power_map_calls": ("count", lambda s: _calls(s, POWER)),
    "modules.power_map_s": ("s", lambda s: _self_s(s, POWER)),
    "modules.power_map_reuse": ("ratio", lambda s: _ratio(_extra(s, 0, POWER), _calls(s, POWER))),
    "linalg.rref_calls": ("count", lambda s: _calls(s, RREF)),
    "linalg.rref_s": ("s", lambda s: _self_s(s, RREF)),
    "linalg.rref_cells": ("count", lambda s: _extra(s, 0, RREF)),
    "linalg.subspace_calls": ("count", lambda s: _calls(s, "linalg.Subspace.__init__")),
    "linalg.subspace_s": ("s", lambda s: _self_s(s, "linalg.Subspace.__init__")),
    "transversal.calls": ("count", lambda s: _calls(s, MIT)),
    "transversal.s": ("s", lambda s: _self_s(s, MIT, "transversal.has_full_transversal")),
    "transversal.items": ("count", lambda s: _extra(s, 0, MIT)),
    "transversal.augmentations": ("count", lambda s: _extra(s, 1, MIT)),
    "transversal.full_ratio": ("ratio", lambda s: _ratio(_extra(s, 2, MIT), _calls(s, MIT))),
    "hilbert.enumerate_s": ("s", lambda s: _self_s(s, "hilbert.enumerate_partitions")),
    "hilbert.refute_s": ("s", lambda s: _self_s(s, "hilbert.refute")),
    "hilbert.partitions": ("count", lambda s: _calls(s, "hilbert.enumerate_partitions")),
    "hilbert.validate_calls": ("count", lambda s: _calls(s, "hilbert.validate_decomposition")),
    "hilbert.validate_s": ("s", lambda s: _self_s(s, "hilbert.validate_decomposition")),
    "polynomials.det_calls": ("count", lambda s: _calls(s, "polynomials.det_symbolic")),
    "polynomials.det_s": ("s", lambda s: _self_s(s, "polynomials.det_symbolic")),
    "polynomials.det_terms": ("count", lambda s: _extra(s, 0, "polynomials.det_symbolic")),
    "polynomials.mul_calls": ("count", lambda s: _calls(s, "polynomials.poly_mul")),
    "polynomials.mul_s": ("s", lambda s: _self_s(s, "polynomials.poly_mul")),
    "polynomials.mul_terms": ("count", lambda s: _extra(s, 0, "polynomials.poly_mul")),
    "polynomials.evaluate_calls": ("count", lambda s: _calls(s, "polynomials.evaluate")),
    "polynomials.evaluate_s": ("s", lambda s: _self_s(s, "polynomials.evaluate")),
    "stanley.build_matrices_s": ("s", lambda s: _self_s(s, "stanley.build_matrices")),
    "stanley.check_calls": ("count", lambda s: _calls(s, "stanley.check")),
    "stanley.check_s": ("s", lambda s: _self_s(s, *CHECKS)),
    "stanley.induced_ratio": ("ratio", lambda s: _ratio(_extra(s, 0, "stanley.check"),
                                                        _calls(s, "stanley.check"))),
    "stanley.witness_calls": ("count", lambda s: _calls(s, "stanley.extract_witness")),
    "stanley.witness_s": ("s", lambda s: _self_s(s, "stanley.extract_witness")),
    "stanley.rank_checks": ("count", lambda s: _calls(s, "stanley.SymbolicMatrixFamily.evaluate_at")),
    "stanley.verify_s": ("s", lambda s: _self_s(s, "stanley.verify_witness", "stanley.verify_certificate")),
    "polytope.build_s": ("s", lambda s: _self_s(s, "polytope.build_hilbert_system",
                                                "polytope.build_stanley_inequalities")),
    "polytope.rows": ("count", lambda s: _extra(s, 0, "polytope.build_hilbert_system",
                                                "polytope.build_stanley_inequalities")),
    "polytope.export_s": ("s", lambda s: _self_s(s, "polytope.export_sip", "polytope.export_lp",
                                                 "polytope.export_ip")),
    "polytope.export_bytes": ("bytes", lambda s: _extra(s, 0, "polytope.export_sip", "polytope.export_lp")),
    "polytope.import_s": ("s", lambda s: _self_s(s, "polytope.import_solution", "polytope.parse_solution",
                                                 "polytope.point_to_decomposition",
                                                 "polytope.decomposition_to_point")),
    "polytope.check_u_s": ("s", lambda s: _self_s(s, "polytope.check_u_vector")),
}


def layer_metrics(summary: dict) -> dict:
    return {name: (fn(summary), unit) for name, (unit, fn) in LAYER_METRICS.items()}


def _moves(metrics, moves, on, flat_on=()):
    return {m: {"moves": list(moves), "on": list(on), "flat_on": list(flat_on)} for m in metrics}


# Which end-to-end metric each layer metric should move, and on which
# workload; "flat_on" names workloads where it should stay put (or read 0).
MOVES = {
    **_moves(("modules.build_s", "modules.pieces", "modules.g_determined_s"),
             ("setup_s",), ("m6r9-check",), ("finite-field-certify",)),
    **_moves(("modules.power_map_calls", "modules.power_map_s", "modules.power_map_reuse"),
             ("solve_s", "peak_rss_mb"), ("m6r9-check", "polytope-roundtrip")),
    **_moves(("linalg.rref_calls", "linalg.rref_s", "linalg.rref_cells", "linalg.subspace_calls",
              "linalg.subspace_s"), ("solve_s",), ("m6r9-check",)),
    **_moves(("transversal.calls", "transversal.s", "transversal.items", "transversal.augmentations",
              "transversal.full_ratio"), ("solve_s",), ("m6r9-check",),
             ("finite-field-certify", "depth-search")),
    **_moves(("hilbert.enumerate_s", "hilbert.refute_s", "hilbert.partitions", "hilbert.validate_calls",
              "hilbert.validate_s"), ("solve_s",), ("depth-search",), ("m6r9-check",)),
    **_moves(("polynomials.det_calls", "polynomials.det_s", "polynomials.det_terms", "polynomials.mul_calls",
              "polynomials.mul_s", "polynomials.mul_terms", "polynomials.evaluate_calls",
              "polynomials.evaluate_s"), ("solve_s", "op_p90_ms"), ("finite-field-certify",)),
    **_moves(("stanley.build_matrices_s", "stanley.check_calls", "stanley.check_s", "stanley.induced_ratio",
              "stanley.witness_calls", "stanley.witness_s", "stanley.rank_checks", "stanley.verify_s"),
             ("solve_s", "op_p50_ms"), ("finite-field-certify", "depth-search")),
    **_moves(("polytope.build_s", "polytope.rows", "polytope.export_s", "polytope.export_bytes",
              "polytope.import_s", "polytope.check_u_s"), ("solve_s", "peak_rss_mb"), ("polytope-roundtrip",)),
}
