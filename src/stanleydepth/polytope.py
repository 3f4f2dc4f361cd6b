"""Integer-programming view of Hilbert decompositions.

Variables u[b; Z] count summands K[Z](-b), one for each admissible pair:
b in [0, g] and Z containing every coordinate j with b_j = g_j.  The
equality system says the summands alive at each degree a of [0, g] add
up to dim M_a.  On top of that, rank inequalities bound, for each degree
a and each set J of shifts below a, the number of summands drawn from J
by the dimension of the sum of the image subspaces X^(a-b) M_b, b in J;
a nonnegative integer point of the equality system satisfies all rank
inequalities iff it is the shift multiset of a decomposition induced by
a Stanley decomposition (over an infinite field).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from typing import NamedTuple

from . import degrees as dg
from .errors import (
    InputFormatError,
    PreconditionError,
    RangeError,
    ResourceLimitError,
)
from .hilbert import HilbertDecomposition, admissible_shapes, alive_summands
from .linalg import Subspace
from .modules import GradedModule
from .stanley import check_transversal

DEFAULT_MAX_SUBSET = 4
INEQUALITY_ROW_BUDGET = 2 * 10**6
# Most equality-row support entries of one box's Ω table, counted before
# any variable is built (see `_omega_table`).
OMEGA_SUPPORT_BUDGET = 2 * 10**6
# Most boxes whose Ω table (`_omega_table`) is kept.
OMEGA_TABLE_LIMIT = 16


class OmegaVariable(NamedTuple):
    """An admissible summand shape K[Z](-b) as the pair (Z, b) that a
    HilbertDecomposition holds: a variable equals, and hashes as, the
    summand it counts, so either is looked up as the other."""

    zset: frozenset
    shift: tuple

    def name(self) -> str:
        coords = ",".join(str(x) for x in self.shift)
        zs = ",".join(str(j + 1) for j in sorted(self.zset))
        return f"u[{coords};{{{zs}}}]"

    def lp_name(self) -> str:
        coords = "_".join(str(x) for x in self.shift)
        zs = "_".join(str(j + 1) for j in sorted(self.zset))
        return f"u_{coords}__{zs}"


class _OmegaTable:
    """One tuple of Ω variables over the box [0, g], with what every layer
    reads of it: `names` and `lp_names` (the two spellings of each
    variable), `by_name` (either spelling -> position), `index` (variable
    -> position) and `supports` (degree -> positions of the variables
    alive there, the support of its equality row).  No part is handed
    out or changed, so one table serves every system of its variables."""

    def __init__(self, g: tuple, variables: tuple):
        self.variables = variables
        self.names = tuple(v.name() for v in variables)
        self.lp_names = tuple(v.lp_name() for v in variables)
        self.by_name = {name: i for names in (self.names, self.lp_names) for i, name in enumerate(names)}
        self.index = {v: i for i, v in enumerate(variables)}
        alive = alive_summands(variables, g)
        self.supports = {a: tuple(indices) for a, indices in alive.items()}


@lru_cache(maxsize=OMEGA_TABLE_LIMIT)
def _omega_table(n: int, g: tuple) -> _OmegaTable:
    """The table of every admissible shape of [0, g], in the order of
    `hilbert.admissible_shapes`; one per (n, g), the last
    OMEGA_TABLE_LIMIT kept.

    At coordinate j a summand alive at a_j has j in Z and b_j <= a_j, or
    b_j = a_j < g_j, so the equality rows hold prod_j (g_j + (g_j + 1)
    (g_j + 2) / 2) support entries in all; past OMEGA_SUPPORT_BUDGET the
    box is refused before any variable is built.
    """
    support = prod(x + (x + 1) * (x + 2) // 2 for x in g)
    if support > OMEGA_SUPPORT_BUDGET:
        raise ResourceLimitError(
            f"the polytope variables of g = {g} have {support} equality-row support "
            f"entries, more than OMEGA_SUPPORT_BUDGET = {OMEGA_SUPPORT_BUDGET}"
        )
    return _OmegaTable(g, tuple(OmegaVariable(*shape) for shape in admissible_shapes(g)))


class LinearRow(NamedTuple):
    """sum of u over `support` (indices into the variable list) compared
    with rhs; sense is "==" or "<="."""

    support: tuple
    sense: str
    rhs: int
    label: object


@dataclass(frozen=True)
class LinearSystem:
    """A tuple of rows over the variables of one Ω table.

    The system cannot change, so the table resolved once, when it is
    built, answers every later read: exports, point conversions and
    solution parsing.  A system of every variable of its box holds the
    shared table of (n, g); a `min_depth` system holds one of its own.
    """

    n: int
    g: tuple
    table: _OmegaTable
    rows: tuple
    max_subset: int | None = None

    @property
    def variables(self) -> tuple:
        return self.table.variables

    def violated_row(self, values) -> LinearRow | None:
        """First row the assignment breaks, or None."""
        for row in self.rows:
            total = sum(values[i] for i in row.support)
            if row.sense == "==" and total != row.rhs:
                return row
            if row.sense == "<=" and total > row.rhs:
                return row
        return None


def _equality_rows(gm: GradedModule, table: _OmegaTable) -> list[LinearRow]:
    """One row per degree a: the variables alive at a add up to dim M_a."""
    return [LinearRow(support, "==", gm.dim(a), a) for a, support in table.supports.items()]


def build_hilbert_system(gm: GradedModule) -> LinearSystem:
    """One equality per degree of [0, g]: alive summand count = dim M_a."""
    table = _omega_table(gm.n, gm.g)
    return LinearSystem(gm.n, gm.g, table, tuple(_equality_rows(gm, table)))


def build_stanley_inequalities(
    gm: GradedModule,
    max_subset: int | None = DEFAULT_MAX_SUBSET,
    min_depth: int | None = None,
) -> LinearSystem:
    """Equalities plus rank inequalities.

    max_subset caps |J| (None = all nonempty J); a cap below |[0, g]|
    keeps the system a relaxation whose integer points may still need
    the exact check, and a cap of |[0, g]| or more is None, since every
    J then has a row.
    min_depth drops every variable with |Z| below the bound.  Z = all
    coordinates is admissible, so the shifts below a are the box [0, a];
    its size counts a's rows before any is built.
    """
    if max_subset is not None and max_subset < 1:
        raise PreconditionError(f"max_subset must be at least 1, got {max_subset}")
    if min_depth is not None and not 0 <= min_depth <= gm.n:
        raise PreconditionError(f"min_depth must be within [0, {gm.n}], got {min_depth}")
    origin = dg.zero(gm.n)
    if max_subset is not None and max_subset >= dg.box_size(origin, gm.g):
        max_subset = None
    caps = {}
    count = 0
    for a in dg.box(origin, gm.g):
        size = dg.box_size(origin, a)
        caps[a] = size if max_subset is None else min(max_subset, size)
        for k in range(1, caps[a] + 1):
            count += comb(size, k)
            if count > INEQUALITY_ROW_BUDGET:
                raise ResourceLimitError(
                    f"more than INEQUALITY_ROW_BUDGET = {INEQUALITY_ROW_BUDGET} inequality rows; "
                    "pass a max_subset cap or lower max_subset"
                )
    table = _omega_table(gm.n, gm.g)
    if min_depth:
        table = _OmegaTable(gm.g, tuple(v for v in table.variables if len(v.zset) >= min_depth))
    rows = _equality_rows(gm, table)
    for a, support in table.supports.items():
        rows.extend(_rank_rows(gm, a, support, table.variables, caps[a]))
    return LinearSystem(gm.n, gm.g, table, tuple(rows), max_subset)


def _rank_rows(gm: GradedModule, a: tuple, alive: tuple, variables: tuple, cap: int) -> list[LinearRow]:
    """The rank rows at degree a, for every J of 1..cap shifts from the
    box [0, a], ordered by size and then lexicographically.

    The rows are built level by level: each row of size k extends a row
    of size k - 1, in order, by one later shift, and the span of J is the
    span of J[:-1] extended by the images of J[-1]'s summands.  The
    images grow with the shift (b <= b' <= a gives X^(a-b) M_b inside
    X^(a-b') M_b'), so few distinct spans occur: each is interned by its
    reduced-echelon basis, which is canonical, and the sum of interned
    span s with the images of shift k is reduced once and then read from
    `sums[s][k]`.  A span that fills M_a extends to itself.
    """
    below = list(dg.box(dg.zero(gm.n), a))
    position = {b: k for k, b in enumerate(below)}
    alive_from = [()] * len(below)
    for i in alive:
        k = position[variables[i].shift]
        alive_from[k] = alive_from[k] + (i,)
    images = [gm.power_map(b, a).columns() for b in below]
    spans = [Subspace.zero(gm.field, gm.dim(a))]
    dims = [0]
    index_of = {spans[0].basis: 0}
    sums = [[None] * len(below)]
    # builds a LinearRow without the NamedTuple's Python-level __new__
    new_row = tuple.__new__
    rows: list[LinearRow] = []
    # the rows of the last level (first the empty J), with the position of
    # each row's last shift and the index of its span
    level, lasts, span_ids = [LinearRow((), "<=", 0, (a, ()))], [-1], [0]
    for _ in range(cap):
        next_level, next_lasts, next_ids = [], [], []
        for (support, _, _, (_, J)), last, s in zip(level, lasts, span_ids):
            sum_of = sums[s]
            for k in range(last + 1, len(below)):
                t = sum_of[k]
                if t is None:
                    span = spans[s].extended(images[k])
                    t = index_of.setdefault(span.basis, len(spans))
                    if t == len(spans):
                        spans.append(span)
                        dims.append(len(span.basis))
                        sums.append([None] * len(below))
                    sum_of[k] = t
                next_level.append(new_row(LinearRow, (support + alive_from[k], "<=", dims[t], (a, J + (below[k],)))))
                next_lasts.append(k)
                next_ids.append(t)
        rows += next_level
        level, lasts, span_ids = next_level, next_lasts, next_ids
    return rows


def decomposition_to_point(system: LinearSystem, d: HilbertDecomposition) -> list[int]:
    index = system.table.index
    values = [0] * len(index)
    for summand in d.summands:
        i = index.get(summand)
        if i is None:
            raise InputFormatError(f"summand {OmegaVariable(*summand).name()} is not an admissible variable")
        values[i] += 1
    return values


def point_to_decomposition(system: LinearSystem, values) -> HilbertDecomposition:
    if len(values) != len(system.variables):
        raise InputFormatError(
            f"expected {len(system.variables)} values, got {len(values)}"
        )
    summands = []
    for v, count in zip(system.variables, values):
        if count < 0:
            raise InputFormatError(f"negative multiplicity for {v.name()}")
        if count:
            summands += [v] * count
    return HilbertDecomposition._of(tuple(summands))


def check_u_vector(gm: GradedModule, system: LinearSystem, values) -> tuple | None:
    """Decide whether a nonnegative integer point of the equality system
    is induced over an infinite field, degree by degree.

    At each a, the rank inequalities over every J below a hold iff the
    summand images admit an independent transversal there, so the check
    runs in polynomial time instead of enumerating subsets.  Returns None
    or the first failing degree.
    """
    if gm.field.is_finite():
        raise PreconditionError("the subspace-rank criterion needs an infinite field")
    return check_transversal(gm, point_to_decomposition(system, values)).failing_degree


# ---------------------------------------------------------------------------
# file formats
#
# .sip (native):
#   # comment lines
#   ip <n> <g_1> .. <g_n>
#   var u[b1,..,bn;{z1,..}] >= 0 integer          (one per variable, in order)
#   eq <label>: u[..] + u[..] + .. == <rhs>
#   le <label>: u[..] + .. <= <rhs>
#
# .lp (CPLEX LP, for external solvers): names sanitized to u_b1_.._bn__z1_z2.
#
# solution files: one "<name> <value>" pair per line, every variable
# present, names in either the native or the sanitized form.


def export_sip(system: LinearSystem, comment: str = "") -> str:
    """The system in the native format.  Each shift's coordinates are
    formatted once per call; a row's label joins the cached texts and its
    terms join the variable names, and the lines are joined once."""
    coords = _ShiftText()
    lines = [f"# {line}" if line else "#" for line in comment.splitlines()]
    if system.max_subset is not None:
        lines.append(f"# relaxation: subset size capped at {system.max_subset}")
    lines.append(f"ip {system.n} " + " ".join(str(x) for x in system.g))
    names = system.table.names
    lines += [f"var {name} >= 0 integer" for name in names]
    for support, sense, rhs, label in system.rows:
        kind, op = ("eq", "==") if sense == "==" else ("le", "<=")
        terms = " + ".join([names[i] for i in support]) or "0"
        lines.append(f"{kind} {_label_text(label, coords)}: {terms} {op} {rhs}")
    lines.append("")
    return "\n".join(lines)


def export_lp(system: LinearSystem) -> str:
    """The system as a CPLEX LP file; each row's terms join the variable
    names, and the lines are joined once."""
    names = system.table.lp_names
    lines = ["Minimize", " obj: 0", "Subject To"]
    for idx, (support, sense, rhs, _) in enumerate(system.rows):
        terms = " + ".join([names[i] for i in support]) or f"0 {names[0]}"
        lines.append(f" r{idx}: {terms} {'=' if sense == '==' else '<='} {rhs}")
    lines.append("Bounds")
    lines += [f" {name} >= 0" for name in names]
    lines.append("General")
    lines += [f" {name}" for name in names]
    lines += ["End", ""]
    return "\n".join(lines)


class _ShiftText(dict):
    """Shift -> its comma-joined coordinates, each formatted on first use."""

    def __missing__(self, shift):
        text = self[shift] = ",".join(map(str, shift))
        return text


def _label_text(label, coords: _ShiftText) -> str:
    """`[a]` for an equality row, `[a]{b1|b2|..}` for the rank row of (a, J)."""
    if isinstance(label, tuple) and label and isinstance(label[0], tuple):
        a, J = label
        return f"[{coords[a]}]{{{'|'.join(map(coords.__getitem__, J))}}}"
    return f"[{coords[label]}]"


def parse_solution(text: str, system: LinearSystem) -> list[int]:
    """Strict reader: every variable assigned exactly once, values are
    nonnegative integers, no unknown names.  Both spellings of every name
    are read from the system's Ω table."""
    table = system.table
    by_name = table.by_name
    values: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputFormatError(f"line {lineno}: expected '<name> <value>'")
        name, value_text = parts
        i = by_name.get(name)
        if i is None:
            raise InputFormatError(f"line {lineno}: unknown variable {name!r}")
        if i in values:
            raise InputFormatError(f"line {lineno}: {name!r} assigned twice")
        try:
            value = int(value_text)
        except ValueError as exc:
            raise InputFormatError(f"line {lineno}: {value_text!r} is not an integer") from exc
        if value < 0:
            raise InputFormatError(f"line {lineno}: {name!r} is negative")
        values[i] = value
    missing = [name for i, name in enumerate(table.names) if i not in values]
    if missing:
        raise InputFormatError(f"solution misses {len(missing)} variables, first {missing[0]}")
    return [values[i] for i in range(len(table.variables))]


def import_solution(gm: GradedModule, system: LinearSystem, text: str) -> HilbertDecomposition:
    """Parse, replay the equality rows, and hand back the decomposition.

    Raises RangeError when the point fails the equality system (it then
    does not even describe a Hilbert decomposition)."""
    values = parse_solution(text, system)
    violated = system.violated_row(values)
    if violated is not None and violated.sense == "==":
        raise RangeError(
            f"equality at degree {_label_text(violated.label, _ShiftText())} violated: "
            f"expected {violated.rhs}"
        )
    return point_to_decomposition(system, values)
