"""Seeded input generation for the benchmark workloads.

Everything here is plain Python over JSON objects and degree tuples; it
does not import the package under test, so the inputs a seed produces do
not depend on the program being measured.  Every input is written to a
file and the program reads it back through its public loaders.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random


def box(lo, hi):
    """All integer vectors c with lo <= c <= hi, in lexicographic order."""
    return itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))


def contact(b, g) -> int:
    return sum(1 for x, y in zip(b, g) if x == y)


def unit_vectors(n: int, square_at: int | None = None) -> list[list[int]]:
    rows = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    if square_at is not None:
        rows[square_at][square_at] = 2
    return rows


def maximal_ideal(n: int) -> dict:
    return {"kind": "monomial_ideal", "generators": unit_vectors(n)}


def module_file_obj(n: int, module: dict, field="Q", g=None) -> dict:
    obj = {"ring": {"n": n, "field": field}, "module": module}
    if g is not None:
        obj["g"] = list(g)
    return obj


def permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def permute_vector(v, perm):
    return [v[p] for p in perm]


def permute_module(obj: dict, perm) -> dict:
    """Relabel the coordinates of a module object: new[j] = old[perm[j]]."""
    kind = obj["kind"]
    if kind == "monomial_ideal":
        return dict(obj, generators=[permute_vector(v, perm) for v in obj["generators"]])
    if kind == "free":
        return dict(obj, shifts=[permute_vector(v, perm) for v in obj["shifts"]])
    if kind == "direct_sum":
        return dict(obj, parts=[permute_module(p, perm) for p in obj["parts"]])
    raise ValueError(f"cannot permute module kind {kind!r}")


def permute_module_file(obj: dict, perm) -> dict:
    if "g" in obj:
        raise ValueError("cannot permute a module file with an explicit g")
    return dict(obj, module=permute_module(obj["module"], perm))


def permute_partition(obj: dict, perm) -> dict:
    return {"intervals": [
        {"a": permute_vector(iv["a"], perm), "b": permute_vector(iv["b"], perm),
         "mult": iv.get("mult", 1)}
        for iv in obj["intervals"]
    ]}


# ---------------------------------------------------------------------------
# interval partitions


def sample_partition(series: dict, g, min_depth: int, rng: random.Random):
    """One interval partition of a truncated series, by randomized
    backtracking: cover the lexicographically first cell with positive
    residual by a shuffled choice of upper ends of contact >= min_depth.
    Returns the sorted list of (a, b) pairs."""
    residual = dict(series)
    order = sorted(residual)
    chosen = []

    def rec() -> bool:
        a = next((c for c in order if residual[c] > 0), None)
        if a is None:
            return True
        covers = [b for b in box(a, g)
                  if contact(b, g) >= min_depth and all(residual[c] > 0 for c in box(a, b))]
        rng.shuffle(covers)
        for b in covers:
            cells = list(box(a, b))
            for c in cells:
                residual[c] -= 1
            chosen.append((a, b))
            if rec():
                return True
            chosen.pop()
            for c in cells:
                residual[c] += 1
        return False

    if not rec():
        raise ValueError(f"series has no partition of depth {min_depth}")
    return sorted(chosen)


def sample_partitions(series: dict, g, min_depth: int, count: int, rng: random.Random):
    """count distinct partitions (fewer if the series has fewer)."""
    seen = {}
    for _ in range(50 * count):
        if len(seen) == count:
            break
        p = sample_partition(series, g, min_depth, rng)
        seen.setdefault(partition_key(p), p)
    return list(seen.values())


def partition_key(intervals) -> str:
    """Short stable identifier of an interval multiset."""
    text = ";".join(f"{','.join(map(str, a))}-{','.join(map(str, b))}"
                    for a, b in sorted((tuple(a), tuple(b)) for a, b in intervals))
    return hashlib.sha1(text.encode()).hexdigest()[:10]


def partition_obj(intervals) -> dict:
    return {"intervals": [{"a": list(a), "b": list(b)} for a, b in intervals]}


def partition_summands(intervals, g):
    """The induced decomposition: one summand (Z_b, c) per interval [a, b]
    and point c of [a, b] restricted to the coordinates outside Z_b."""
    out = []
    for a, b in intervals:
        zset = tuple(j for j in range(len(g)) if b[j] == g[j])
        upper = tuple(a[j] if j in zset else b[j] for j in range(len(g)))
        out.extend((tuple(c), zset) for c in box(a, upper))
    return out


def omega_names(g) -> list[tuple[tuple, tuple]]:
    """Every admissible (shift, Z) of the counting polytope on [0, g]."""
    n = len(g)
    out = []
    for b in box([0] * n, g):
        forced = [j for j in range(n) if b[j] == g[j]]
        free = [j for j in range(n) if b[j] != g[j]]
        for r in range(len(free) + 1):
            for ext in itertools.combinations(free, r):
                out.append((tuple(b), tuple(sorted(forced + list(ext)))))
    return out


def solution_text(intervals, g) -> str:
    """A solver point in the native "name value" format, every variable listed."""
    counts = {}
    for key in partition_summands(intervals, g):
        counts[key] = counts.get(key, 0) + 1
    lines = []
    for shift, zset in omega_names(g):
        name = f"u[{','.join(map(str, shift))};{{{','.join(str(j + 1) for j in zset)}}}]"
        lines.append(f"{name} {counts.pop((shift, zset), 0)}")
    if counts:
        raise ValueError(f"summands outside the polytope variables: {sorted(counts)}")
    return "\n".join(lines) + "\n"


def series_from_pin(pin: dict) -> dict:
    return {tuple(int(x) for x in k.split(",")): v for k, v in pin.items()}


def write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
    return path


def write_text(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
