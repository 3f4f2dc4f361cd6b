"""Independent reference implementations used only by the tests.

Everything here prefers the most obviously correct algorithm over speed:
Laplace determinants, rank via minors, permutation-sum symbolic
determinants, exhaustive subset conditions for transversals, depth-first
lattice enumeration, and brute-force partition search.  None of it
shares code paths with the algorithms under test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, permutations, product
from types import SimpleNamespace

from collections import Counter, deque

from stanleydepth import degrees as dg
from stanleydepth import hilbert, modules, polynomials, polytope
from stanleydepth.errors import InputFormatError, ResourceLimitError
from stanleydepth.fields import QQ
from stanleydepth.linalg import Matrix, Subspace


# ---------------------------------------------------------------------------
# numeric linear algebra


def det_laplace(field, rows):
    """Cofactor expansion along the first row."""
    rows = [list(r) for r in rows]
    n = len(rows)
    if n == 0:
        return field.one
    if n == 1:
        return rows[0][0]
    total = field.zero
    for j in range(n):
        if field.is_zero(rows[0][j]):
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = field.mul(rows[0][j], det_laplace(field, minor))
        total = field.add(total, term) if j % 2 == 0 else field.sub(total, term)
    return total


def rank_by_minors(field, rows):
    """Largest r with a nonvanishing r x r minor."""
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    for r in range(min(m, n), 0, -1):
        for rs in combinations(range(m), r):
            for cs in combinations(range(n), r):
                sub = [[rows[i][j] for j in cs] for i in rs]
                if not field.is_zero(det_laplace(field, sub)):
                    return r
    return 0


# ---------------------------------------------------------------------------
# symbolic polynomials on a plain-dict representation


def dict_from_poly(p):
    return dict(p.terms)


def dict_add(field, a, b):
    out = dict(a)
    for mono, coeff in b.items():
        acc = field.add(out.get(mono, field.zero), coeff)
        if field.is_zero(acc):
            out.pop(mono, None)
        else:
            out[mono] = acc
    return out


def dict_mul(field, a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            exps = {}
            for v, e in ma:
                exps[v] = exps.get(v, 0) + e
            for v, e in mb:
                exps[v] = exps.get(v, 0) + e
            mono = tuple(sorted(exps.items()))
            acc = field.add(out.get(mono, field.zero), field.mul(ca, cb))
            if field.is_zero(acc):
                out.pop(mono, None)
            else:
                out[mono] = acc
    return out


def det_permutation_sum(field, grid):
    """Leibniz formula with explicit inversion-count signs."""
    n = len(grid)
    total = {}
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        prod = {(): field.one}
        for i in range(n):
            prod = dict_mul(field, prod, dict_from_poly(grid[i][perm[i]]))
        if inversions % 2:
            prod = {m: field.neg(c) for m, c in prod.items()}
        total = dict_add(field, total, prod)
    return total


def eval_terms_mod(terms, assignment, q):
    """Evaluate a term dict over GF(q) with plain int arithmetic."""
    total = 0
    for mono, coeff in terms.items():
        value = int(coeff) % q
        for v, e in mono:
            value = (value * pow(int(assignment[v]) % q, e, q)) % q
        total = (total + value) % q
    return total


# ---------------------------------------------------------------------------
# partitions and lattice points


def brute_partitions(series, min_depth):
    """Every interval partition of the series, as sorted interval tuples.

    Covers the lexicographically least degree with positive residual;
    runs of intervals at one lower endpoint are forced non-decreasing in
    the upper endpoint, so each multiset appears exactly once.
    """
    g = series.g
    n = len(g)
    residual = dict(series.coefficients)
    found = set()

    def uppers(a):
        out = []
        for b in dg.box(a, g):
            if sum(1 for j in range(n) if b[j] == g[j]) >= min_depth:
                out.append(b)
        return out

    def rec(chosen, last):
        element = min((d for d, c in residual.items() if c > 0), default=None)
        if element is None:
            found.add(tuple(sorted(chosen)))
            return
        floor = last[1] if last is not None and last[0] == element else None
        for b in uppers(element):
            if floor is not None and b < floor:
                continue
            cells = list(dg.box(element, b))
            if any(residual[c] < 1 for c in cells):
                continue
            for c in cells:
                residual[c] -= 1
            chosen.append((element, b))
            rec(chosen, (element, b))
            chosen.pop()
            for c in cells:
                residual[c] += 1

    rec([], None)
    return found


def unpruned_partitions(series, min_depth):
    """The partition enumerator without feasibility pruning: the same
    cover order and the same non-decreasing runs, exploring every branch.
    The pruned enumerator must yield exactly this sequence."""
    g = series.g
    n = len(g)
    residual = dict(series.coefficients)
    degrees_lex = sorted(residual)
    chosen = []
    cover_cache = {}

    def covers(a):
        cached = cover_cache.get(a)
        if cached is None:
            cached = []
            for b in dg.box(a, g):
                rho = sum(1 for j in range(n) if b[j] == g[j])
                if rho >= min_depth:
                    cached.append(((-rho, b), b))
            cached.sort()
            cover_cache[a] = cached
        return cached

    def rec(prev_element, prev_key):
        element = next((a for a in degrees_lex if residual[a] > 0), None)
        if element is None:
            yield hilbert.HilbertPartition(chosen)
            return
        min_key = prev_key if element == prev_element else None
        for key, b in covers(element):
            if min_key is not None and key < min_key:
                continue
            cells = list(dg.box(element, b))
            if any(residual[c] < 1 for c in cells):
                continue
            for c in cells:
                residual[c] -= 1
            chosen.append(hilbert.Interval(element, b))
            yield from rec(element, key)
            chosen.pop()
            for c in cells:
                residual[c] += 1

    yield from rec(None, None)


def tight_refinement(partition, g, s):
    """The partition with every interval split until it is tight at level
    s, that is of contact max(s, contact(a)): [a, b] with a larger contact
    is split along the first j with b_j = g_j > a_j into [a, b'], b'_j =
    g_j - 1, and [a', b], a'_j = g_j; read on summands, that is the split
    of the Stanley space uK[Z] into the uX_j^k K[Z - {j}], k < g_j - a_j,
    and uX_j^(g_j - a_j) K[Z].  Every interval must have contact >= s."""
    def contact(c):
        return sum(1 for x, y in zip(c, g) if x == y)

    tight, pending = [], list(partition.intervals)
    while pending:
        a, b = pending.pop()
        assert contact(b) >= s, (a, b, s)
        if contact(b) == max(s, contact(a)):
            tight.append((a, b))
            continue
        j = next(j for j in range(len(g)) if b[j] == g[j] > a[j])
        pending.append((a, b[:j] + (g[j] - 1,) + b[j + 1 :]))
        pending.append((a[:j] + (g[j],) + a[j + 1 :], b))
    return hilbert.HilbertPartition(tight)


def ranked_cover_ends(a, g, min_depth, wide):
    """The upper ends b of cell a's covers and the index of the first
    tight one, by ranking the whole box [a, g]: by descending contact,
    then lexicographically, keeping contact max(min_depth, contact(a))
    and, when `wide`, every larger contact before it."""
    tight = max(min_depth, len(dg.touching(a, g)))
    ranked = sorted((-len(dg.touching(b, g)), b) for b in dg.box(a, g))
    wider = [b for rho, b in ranked if -rho > tight] if wide else []
    return wider + [b for rho, b in ranked if -rho == tight], len(wider)


def box_word(g, a, b, width):
    """The packed-residual word of the interval [a, b] over [0, g]: a 1 at
    the lowest bit of the width-bit field of each of its cells, with the
    cells of [0, g] numbered in lexicographic order, summed cell by cell."""
    index = {c: i for i, c in enumerate(sorted(product(*(range(x + 1) for x in g))))}
    return sum(1 << (index[c] * width) for c in product(*(range(x, y + 1) for x, y in zip(a, b))))


def brute_hdepth(series):
    """Largest s with a brute-force partition of contact >= s."""
    for s in range(len(series.g), -1, -1):
        if brute_partitions(series, s):
            return s
    raise AssertionError("the all-singleton partition always exists")


def z_graded_coefficients(series, r):
    """Coefficients of t^0 .. t^(|g|+n) of (1-t)^r * H(t), where
    H(t) = sum of dim M_a * t^|a| / (1-t)^k(a), k(a) = #{j : a_j = g_j}:
    each cell's term expanded on its own by the binomial theorem."""
    g = series.g
    n = len(g)
    top = sum(g) + n
    out = [0] * (top + 1)
    for a, count in series.coefficients.items():
        k = sum(1 for x, y in zip(a, g) if x == y)
        for m in range(top + 1 - sum(a)):
            if r >= k:
                term = (-1) ** m * math.comb(r - k, m)
            else:
                term = math.comb(m + k - r - 1, m)
            out[sum(a) + m] += count * term
    return out


def binomial_z_graded_hdepth(series):
    """Largest r <= n with no negative coefficient in (1-t)^r * H(t)."""
    for r in range(len(series.g), -1, -1):
        if min(z_graded_coefficients(series, r)) >= 0:
            return r
    raise AssertionError("(1-t)^0 * H(t) = H(t) never has a negative coefficient")


def equality_solutions(system):
    """All nonnegative integer points of the equality rows, by bounded DFS."""
    rows = [r for r in system.rows if r.sense == "=="]
    nvars = len(system.variables)
    touching = [[] for _ in range(nvars)]
    finish = {}
    for ri, row in enumerate(rows):
        for i in row.support:
            touching[i].append(ri)
        if row.support:
            finish.setdefault(max(row.support), []).append(ri)
    if any(row.rhs != 0 for row in rows if not row.support):
        return []
    remaining = [row.rhs for row in rows]
    values = [0] * nvars
    out = []

    def rec(i):
        if i == nvars:
            out.append(tuple(values))
            return
        cap = min((remaining[ri] for ri in touching[i]), default=0)
        for v in range(cap + 1):
            values[i] = v
            for ri in touching[i]:
                remaining[ri] -= v
            if all(remaining[ri] == 0 for ri in finish.get(i, ())):
                rec(i + 1)
            for ri in touching[i]:
                remaining[ri] += v
        values[i] = 0

    rec(0)
    return out


# ---------------------------------------------------------------------------
# transversals


def rado_full_transversal(field, ambient, families):
    """A full independent transversal exists iff every subfamily spans at
    least its own size."""
    m = len(families)
    for r in range(1, m + 1):
        for idx in combinations(range(m), r):
            vectors = [v for i in idx for v in families[i]]
            if Matrix(field, vectors, ambient).rank() < r:
                return False
    return True


def max_transversal_bound(field, ambient, families):
    """Matroid-intersection min-max value: min over subfamilies J of
    (m - |J| + dim span J)."""
    m = len(families)
    best = m
    for r in range(m + 1):
        for idx in combinations(range(m), r):
            vectors = [v for i in idx for v in families[i]]
            dim = Matrix(field, vectors, ambient).rank() if vectors else 0
            best = min(best, m - r + dim)
    return best


def unseeded_max_independent_transversal(field, ambient_dim, families):
    """Matroid intersection from the empty set: every augmentation finds a
    shortest path in a freshly built exchange digraph, with one row
    reduction per vector outside the current set.  The seeded search must
    return exactly these picks."""
    items = [(i, tuple(v)) for i, vectors in enumerate(families) for v in vectors]
    selected = set()
    while True:
        path = _unseeded_augmenting_path(field, ambient_dim, items, selected)
        if path is None:
            return [items[t] for t in sorted(selected)]
        selected.symmetric_difference_update(path)


def _unseeded_augmenting_path(f, ambient_dim, items, selected):
    sel = sorted(selected)
    used_classes = {items[t][0] for t in sel}
    span = Subspace(f, ambient_dim, [items[t][1] for t in sel])
    outside = [t for t in range(len(items)) if t not in selected]
    sources = [t for t in outside if items[t][0] not in used_classes]
    sinks = {t for t in outside if any(span.reduce(items[t][1]))}
    circuits = {}
    for t in outside:
        if t in sinks:
            continue
        if sel:
            coords = _solve_in_columns(f, [items[x][1] for x in sel], items[t][1])
            circuits[t] = {x for x, c in zip(sel, coords) if not f.is_zero(c)}
        else:
            circuits[t] = set()
    parent = {}
    queue = deque()
    for t in sources:
        parent[t] = None
        queue.append(t)
        if t in sinks:
            return [t]
    while queue:
        u = queue.popleft()
        if u not in selected:
            for x in circuits.get(u, ()):
                if x not in parent:
                    parent[x] = u
                    queue.append(x)
        else:
            for y in outside:
                if y not in parent and items[y][0] == items[u][0]:
                    parent[y] = u
                    if y in sinks:
                        path = [y]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        return path
                    queue.append(y)
    return None


def _solve_in_columns(f, columns, vector):
    """Coordinates of vector in independent columns, by one row reduction
    of [columns | vector]."""
    k = len(columns)
    augmented = Matrix(f, [[c[i] for c in columns] + [vector[i]] for i in range(len(vector))], k + 1)
    reduced, pivots = augmented.rref()
    coords = [f.zero] * k
    for r, p in enumerate(pivots):
        assert p < k, "vector is not in the column span"
        coords[p] = reduced.entries[r][k]
    return tuple(coords)


def evaluate_entrywise(fam, a, assignment):
    """A_a(y) by evaluating every Poly entry of the symbolic matrix."""
    rows = [[polynomials.evaluate(entry, assignment) for entry in row] for row in fam.matrices[a]]
    return Matrix(fam.field, rows, len(fam.columns[a]))


def lex_first_witness(fam):
    """The first point of the first stage that holds a witness, or None.

    B is the most symbolic matrices any one variable occurs in, read off
    the Poly entries.  If the field has more than B+1 elements the stages
    are {1..s}^vars for s = 1, ..., B+1, where stage s > 1 keeps only the
    points that use the value s; otherwise the one stage is GF(q)^vars in
    field order.  A point counts only if each summand's vector has first
    nonzero coordinate 1.  Every point is tried in lexicographic order
    and decided by Laplace determinants of the entrywise-evaluated
    matrices.
    """
    f = fam.field
    variables = fam.variables
    occurrences = Counter(
        var for rows in fam.matrices.values()
        for var in {var for row in rows for entry in row for mono in entry.terms for var, _e in mono}
    )
    bound = max(occurrences.values(), default=0)
    if f.cardinality > bound + 1:
        stages = [([f.from_int(v) for v in range(1, s + 1)], f.from_int(s) if s > 1 else None)
                  for s in range(1, bound + 2)]
    else:
        stages = [([f.from_int(v) for v in range(f.cardinality)], None)]
    for values, required in stages:
        for point in product(values, repeat=len(variables)):
            if required is not None and required not in point:
                continue
            assignment = dict(zip(variables, point))
            leading = {}
            for (i, _j), value in assignment.items():
                if not f.is_zero(value):
                    leading.setdefault(i, value)
            if any(value != f.one for value in leading.values()):
                continue
            if all(not f.is_zero(det_laplace(f, evaluate_entrywise(fam, a, assignment).entries))
                   for a in fam.degrees()):
                return assignment
    return None


def brute_check_induced(gm, d):
    """Per-degree exhaustive subset condition on the summand images."""
    for a in dg.box(dg.zero(gm.n), gm.g):
        families = [
            gm.power_map(shift, a).columns()
            for zset, shift in d.summands
            if dg.leq(shift, a) and dg.support(dg.sub(a, shift)) <= zset
        ]
        if not families:
            continue
        if not rado_full_transversal(gm.field, gm.dim(a), families):
            return False
    return True


def brute_sdepth(gm):
    series = hilbert.truncated_series(gm)
    for s in range(gm.n, -1, -1):
        for intervals in sorted(brute_partitions(series, s)):
            d = hilbert.partition_to_decomposition(
                hilbert.HilbertPartition(intervals), gm.g
            )
            if brute_check_induced(gm, d):
                return s
    raise AssertionError("the all-singleton partition is always induced")


def per_subset_stanley_inequalities(gm, max_subset=polytope.DEFAULT_MAX_SUBSET, min_depth=None):
    """The Stanley system with every rank row built on its own: one
    Subspace of all stacked images per (a, J), J from itertools.combinations,
    row supports from the alive predicate.  The shared-prefix builder must
    produce exactly these rows in this order."""
    variables = polytope.build_hilbert_system(gm).variables
    if min_depth is not None:
        variables = tuple(v for v in variables if len(v.zset) >= min_depth)
    box = list(dg.box(dg.zero(gm.n), gm.g))
    rows = []
    for a in box:
        alive = tuple(i for i, v in enumerate(variables) if _alive_at(v, a))
        rows.append(polytope.LinearRow(alive, "==", gm.dim(a), a))
    by_shift = {}
    for i, v in enumerate(variables):
        by_shift.setdefault(v.shift, []).append(i)
    for a in box:
        below = [b for b in dg.box(dg.zero(gm.n), a) if by_shift.get(b)]
        cap = len(below) if max_subset is None else min(max_subset, len(below))
        for size in range(1, cap + 1):
            for J in combinations(below, size):
                support = tuple(i for b in J for i in by_shift[b] if _alive_at(variables[i], a))
                vectors = [col for b in J for col in gm.power_map(b, a).columns()]
                rhs = Subspace(gm.field, gm.dim(a), vectors).dim if vectors else 0
                rows.append(polytope.LinearRow(support, "<=", rhs, (a, J)))
    return SimpleNamespace(variables=variables, rows=tuple(rows))


def distinct_span_shift_pairs(gm, max_subset=polytope.DEFAULT_MAX_SUBSET):
    """Summed over the degrees a, the number of distinct pairs (span of
    the images of J[:-1], J[-1]) over every J of 1..max_subset shifts
    below a, each span told apart by the basis of a fresh Subspace."""
    total = 0
    for a in dg.box(dg.zero(gm.n), gm.g):
        below = list(dg.box(dg.zero(gm.n), a))
        cap = len(below) if max_subset is None else min(max_subset, len(below))
        pairs = set()
        for size in range(1, cap + 1):
            for J in combinations(below, size):
                vectors = [col for b in J[:-1] for col in gm.power_map(b, a).columns()]
                pairs.add((Subspace(gm.field, gm.dim(a), vectors).basis, J[-1]))
        total += len(pairs)
    return total


def export_sip_by_row(system, comment=""):
    """The .sip text as it was first written: one line per row, each
    label and support formatted on its own."""
    lines = []
    if comment:
        for line in comment.splitlines():
            lines.append(f"# {line}" if line else "#")
    if system.max_subset is not None:
        lines.append(f"# relaxation: subset size capped at {system.max_subset}")
    lines.append(f"ip {system.n} " + " ".join(str(x) for x in system.g))
    names = system.table.names
    for name in names:
        lines.append(f"var {name} >= 0 integer")
    for row in system.rows:
        op = "==" if row.sense == "==" else "<="
        kind = "eq" if row.sense == "==" else "le"
        terms = " + ".join([names[i] for i in row.support]) or "0"
        lines.append(f"{kind} {_label_text_by_row(row.label)}: {terms} {op} {row.rhs}")
    return "\n".join(lines) + "\n"


def _label_text_by_row(label):
    if isinstance(label, tuple) and label and isinstance(label[0], tuple):
        a, J = label
        return f"[{','.join(map(str, a))}]{{{'|'.join([','.join(map(str, b)) for b in J])}}}"
    return f"[{','.join(map(str, label))}]"


def export_lp_by_row(system):
    """The .lp text as it was first written, one line per row."""
    names = system.table.lp_names
    lines = ["Minimize", " obj: 0", "Subject To"]
    for idx, row in enumerate(system.rows):
        terms = " + ".join([names[i] for i in row.support]) or f"0 {names[0]}"
        op = "=" if row.sense == "==" else "<="
        lines.append(f" r{idx}: {terms} {op} {row.rhs}")
    lines.append("Bounds")
    for name in names:
        lines.append(f" {name} >= 0")
    lines.append("General")
    for name in names:
        lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _alive_at(v, a):
    return is_alive(v.zset, v.shift, a)


def is_alive(zset, shift, a):
    """Summand (Z, b) is alive at degree a: b <= a and a - b is supported in Z."""
    return dg.leq(shift, a) and dg.support(dg.sub(a, shift)) <= zset


def decomposition_to_partition(d, g):
    """The summand (Z, s) spreads to the interval [s, b] with b_j = g_j on
    Z and b_j = s_j elsewhere."""
    n = len(g)
    return hilbert.HilbertPartition(
        (shift, tuple(g[j] if j in zset else shift[j] for j in range(n)))
        for zset, shift in d.summands
    )


# ---------------------------------------------------------------------------
# decomposition front end


def summand_walk_front_end(obj, gm):
    """A decomposition file object read against gm the long way: each
    interval entry checked, the intervals expanded by multiplicity and
    sorted, each spread over G[a, b] (b, with a_j wherever b_j = g_j),
    every entry cleaned by int(); then every summand's shape checked and
    its aliveness tested at every degree by `is_alive`, one power map per
    (summand, degree), and the exponent bound counted over (summand,
    coordinate) pairs.  Returns (summands, columns, image entries by
    degree, summand dims, exponent bound); the first error raises as the
    program would raise it."""
    g = gm.g
    if not isinstance(obj, dict):
        raise InputFormatError("decomposition file must be a JSON object")
    if "summands" in obj and "intervals" in obj:
        raise InputFormatError('decomposition file has both a "summands" and an "intervals" key')
    total, summands = 0, []
    if "summands" in obj:
        for item in dg.as_list(obj["summands"], '"summands"'):
            try:
                zset = frozenset(j - 1 for j in dg.as_degree(item["vars"]))
                shift = dg.as_degree(item["shift"])
                mult = dg.as_int(item.get("mult", 1))
            except (KeyError, TypeError, InputFormatError) as exc:
                raise InputFormatError(f"bad summand entry {item!r}") from exc
            if any(j < 0 for j in zset):
                raise InputFormatError(f"summand vars must be >= 1 in {item!r}")
            if mult < 0:
                raise InputFormatError(f"negative multiplicity in {item!r}")
            total += mult
            if total > hilbert.DECOMPOSITION_SUMMAND_LIMIT:
                raise ResourceLimitError(
                    "the decomposition has more than DECOMPOSITION_SUMMAND_LIMIT = "
                    f"{hilbert.DECOMPOSITION_SUMMAND_LIMIT} summands")
            summands += [(zset, shift)] * mult
    elif "intervals" in obj:
        intervals = []
        for item in dg.as_list(obj["intervals"], '"intervals"'):
            try:
                a, b = dg.as_degree(item["a"]), dg.as_degree(item["b"])
                mult = dg.as_int(item.get("mult", 1))
            except (KeyError, TypeError, InputFormatError) as exc:
                raise InputFormatError(f"bad interval entry {item!r}") from exc
            if len(a) != len(g) or len(b) != len(g):
                raise InputFormatError(f"interval endpoints must have length {len(g)} in {item!r}")
            if not dg.leq(a, b):
                raise InputFormatError(f"interval needs a <= b in {item!r}")
            if any(x < 0 for x in a):
                raise InputFormatError(f"interval lower bound {a} is negative")
            if not dg.leq(b, g):
                raise InputFormatError(f"interval upper bound {b} exceeds g = {g}")
            if mult < 0:
                raise InputFormatError(f"negative multiplicity in {item!r}")
            last = tuple(x if y == top else y for x, y, top in zip(a, b, g))
            total += mult * len(list(dg.box(a, last)))
            if total > hilbert.DECOMPOSITION_SUMMAND_LIMIT:
                raise ResourceLimitError(
                    "the decomposition has more than DECOMPOSITION_SUMMAND_LIMIT = "
                    f"{hilbert.DECOMPOSITION_SUMMAND_LIMIT} summands")
            intervals += [(a, b)] * mult
        for a, b in sorted(intervals):
            zset = frozenset(j for j in range(len(g)) if b[j] == g[j])
            last = tuple(a[j] if b[j] == g[j] else b[j] for j in range(len(g)))
            summands += [(zset, c) for c in dg.box(a, last)]
    else:
        raise InputFormatError('decomposition file needs a "summands" or "intervals" key')
    summands = [(frozenset(int(j) for j in z), tuple(int(x) for x in b)) for z, b in summands]
    n = len(g)
    for zset, shift in summands:
        forced = {j for j in range(n) if len(shift) == n and shift[j] == g[j]}
        if len(shift) != n:
            failure = f"summand shift {shift} is not a length-{n} vector"
        elif any(j < 0 or j >= n for j in zset):
            failure = f"summand variable set {sorted(zset)} is out of range for n = {n}"
        elif not all(0 <= x <= y for x, y in zip(shift, g)):
            failure = f"summand shift {shift} is outside [0, g] = [0, {g}]"
        elif not forced <= zset:
            failure = (f"summand (Z={sorted(j + 1 for j in zset)}, shift={shift}) misses the "
                       f"coordinates {sorted(j + 1 for j in forced - zset)} forced by shift_j = g_j")
        else:
            continue
        raise hilbert.ValidationFailure("shape", None, failure)
    columns, images = {}, {}
    for a in dg.box(dg.zero(n), g):
        alive = [i for i, (zset, shift) in enumerate(summands) if is_alive(zset, shift, a)]
        if len(alive) != gm.dim(a):
            raise hilbert.ValidationFailure(
                "count", a, f"decomposition covers {len(alive)}, module has {gm.dim(a)}")
        if alive:
            columns[a] = tuple(alive)
            images[a] = [gm.power_map(summands[i][1], a).entries for i in alive]
    counts = Counter(
        (i, j)
        for a, alive in columns.items()
        for i in alive
        for j, column in enumerate(zip(*gm.power_map(summands[i][1], a).entries))
        if any(column)
    )
    dims = tuple(gm.dim(shift) for _z, shift in summands)
    return summands, columns, images, dims, max(counts.values(), default=0)


# ---------------------------------------------------------------------------
# graded pieces


def unshared_build(presentation, g):
    """Every graded piece and multiplication map of a presentation on
    [0, g+1], each computed on its own degree by degree, with power maps
    composed from multiplication maps along a monotone path."""
    f = presentation.field
    n = presentation.n
    top = dg.add(g, dg.ones(n))
    pieces = {}
    coset_bases = {}
    mult_maps = {}
    for a in dg.box(dg.zero(n), top):
        gens = tuple(i for i, d in enumerate(presentation.generator_degrees) if dg.leq(d, a))
        position = {i: p for p, i in enumerate(gens)}
        ambient = len(gens)
        vectors = []
        for r in presentation.relations:
            if dg.leq(r.degree, a):
                vec = [f.zero] * ambient
                for gen, _shift, coeff in r.triples:
                    p = position[gen]
                    vec[p] = f.add(vec[p], coeff)
                vectors.append(vec)
        sub = Subspace(f, ambient, vectors)
        pivot_set = set(sub.pivots)
        nonpivots = tuple(c for c in range(ambient) if c not in pivot_set)
        coset_bases[a] = [tuple(f.one if i == c else f.zero for i in range(ambient)) for c in nonpivots]
        pieces[a] = modules.GradedPiece(gens, sub, nonpivots)
    for a in dg.box(dg.zero(n), top):
        src = pieces[a]
        for k in range(n):
            b = dg.add(a, dg.unit(n, k))
            if not dg.leq(b, top):
                continue
            dst = pieces[b]
            dst_position = {i: p for p, i in enumerate(dst.gens)}
            columns = []
            for vec in coset_bases[a]:
                image = [f.zero] * len(dst.gens)
                for p, gen in enumerate(src.gens):
                    if not f.is_zero(vec[p]):
                        image[dst_position[gen]] = f.add(image[dst_position[gen]], vec[p])
                columns.append(dst.coords(image))
            mult_maps[(a, k)] = Matrix.from_columns(f, columns, dst.dim)
    power_cache = {}

    def power_map(src, dst):
        key = (src, dst)
        cached = power_cache.get(key)
        if cached is not None:
            return cached
        if src == dst:
            out = Matrix(f, [[f.one if i == j else f.zero for j in range(pieces[src].dim)]
                             for i in range(pieces[src].dim)])
        else:
            k = max(i for i in range(n) if dst[i] > src[i])
            mid = dg.sub(dst, dg.unit(n, k))
            out = mult_maps[(mid, k)] @ power_map(src, mid)
        power_cache[key] = out
        return out

    return SimpleNamespace(pieces=pieces, mult_maps=mult_maps, power_map=power_map)


def looped_g_determined(gm):
    """`GradedModule.verify_g_determined` as a loop over every degree of
    [0, g+1] and coordinate, one `mult_map` per boundary (a, k) in
    (degree, coordinate) order, each distinct map ranked once."""
    isomorphisms = set()
    for a in dg.box(dg.zero(gm.n), gm.top):
        for k in range(gm.n):
            if a[k] != gm.g[k]:
                continue
            m = gm.mult_map(a, k)
            if id(m) in isomorphisms:
                continue
            if m.nrows != m.ncols or m.rank() != m.nrows:
                return (a, k)
            isomorphisms.add(id(m))
    return None


def unshared_g_violation(presentation, g):
    """The first (a, k) in (degree, coordinate) order whose boundary map
    X_k : M_a -> M_(a+e_k), a_k = g_k, is not square of full rank, each of
    the literal slabs of [0, g+1] read on `unshared_build`; None if every
    one is an isomorphism."""
    ref = unshared_build(presentation, g)
    for (a, k), m in ref.mult_maps.items():
        if a[k] == g[k]:
            if m.nrows != m.ncols or rank_by_minors(presentation.field, m.entries) != m.nrows:
                return (a, k)
    return None


# ---------------------------------------------------------------------------
# monomial modules


def monomial_in_ideal(a, gens):
    return any(dg.leq(e, a) for e in gens)


def monomial_dims(kind, n, gens, g):
    """Graded dimensions of a monomial ideal or its quotient ring."""
    dims = {}
    for a in dg.box(dg.zero(n), g):
        inside = monomial_in_ideal(a, gens)
        dims[a] = int(inside) if kind == "ideal" else int(not inside)
    return dims


def complete_intersections(count, seed, max_n=6):
    """Deterministic stream of (n, exponents): m monomials in n <= max_n
    variables with pairwise disjoint supports, so the ideal they generate
    is a complete intersection, of sdepth n - floor(m/2) (Shen, J. Algebra
    2009).  m is drawn from 1..n, each variable lies in one support or in
    none, each support is nonempty, and each exponent is 1 or 2."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        m = rng.randint(1, n)
        owner = list(range(m)) + [rng.randrange(-1, m) for _ in range(n - m)]  # -1: no support
        rng.shuffle(owner)
        out.append((n, [tuple(rng.randint(1, 2) if o == i else 0 for o in owner) for i in range(m)]))
    return out


def random_modules(count, seed, max_total_dim=6, max_box=20, allow_sums=True, field=QQ):
    """Deterministic stream of small monomial-ideal and quotient modules
    (optionally direct sums of two of them), over the rationals unless a
    field is given; the stream of shapes does not depend on the field."""
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 200:
        attempts += 1
        parts = []
        n = rng.choice([1, 2, 3])
        npieces = rng.choice([1, 1, 2]) if allow_sums else 1
        for _ in range(npieces):
            k = rng.randint(1, 3)
            gens = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(k)]
            if rng.random() < 0.5:
                parts.append(modules.monomial_ideal(field, n, gens))
            else:
                if any(all(x == 0 for x in e) for e in gens):
                    break
                parts.append(modules.quotient_by_monomial_ideal(field, n, gens))
        if len(parts) != npieces:
            continue
        pres = parts[0] if npieces == 1 else modules.direct_sum(parts)
        g = pres.default_g()
        if dg.box_size(dg.zero(n), g) > max_box:
            continue
        gm = modules.build(pres)
        total = sum(gm.dim(a) for a in dg.box(dg.zero(n), g))
        if not 1 <= total <= max_total_dim:
            continue
        out.append(gm)
    return out


def random_presentations(count, seed, field=QQ):
    """Deterministic stream of small presentations whose relations are not
    monomial: one to three terms, with coefficients a/b (b up to 4) over Q
    and random residues over GF(p), zero ones dropped.  The generators
    take their degrees from a pool of two, so some share one.  About a
    fifth of the relations are a combination of two earlier ones of their
    degree (so up to six terms), and another fifth have two terms that
    cancel, so they reduce to zero."""
    rng = random.Random(seed)

    def scalar():
        if field.modulus:
            return field.from_int(rng.randrange(field.modulus))
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    def nonzero():
        return next(c for c in iter(scalar, None) if not field.is_zero(c))

    out = []
    while len(out) < count:
        n = rng.choice([1, 2, 3])
        pool = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(2)]
        gens = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        rows = []  # (degree, [(gen, shift, coeff)..])
        for _ in range(rng.randint(1, 5)):
            kind = rng.random()
            if kind < 0.2 and rows:
                degree, first = rng.choice(rows)
                second = rng.choice([row for d, row in rows if d == degree])
                a, b = nonzero(), nonzero()
                rows.append((degree, [(i, s, field.mul(a, c)) for i, s, c in first]
                             + [(i, s, field.mul(b, c)) for i, s, c in second]))
                continue
            degree = tuple(rng.randint(0, 2) for _ in range(n))
            below = [i for i, d in enumerate(gens) if dg.leq(d, degree)]
            if not below:
                continue
            if kind < 0.4:
                i, c = rng.choice(below), nonzero()
                terms = [(i, c), (i, field.neg(c))]
            else:
                terms = [(i, scalar()) for i in rng.sample(below, rng.randint(1, min(3, len(below))))]
            rows.append((degree, [(i, dg.sub(degree, gens[i]), c) for i, c in terms]))
        out.append(modules.ModulePresentation(n, field, gens, [row for _d, row in rows]))
    return out
