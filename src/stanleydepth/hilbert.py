"""Truncated Hilbert series, interval partitions, induced decompositions,
backtracking partition enumeration, and Hilbert depth.

A partition writes the truncated series as a sum of interval indicator
polynomials Q[a,b]; each interval [a,b] induces one summand (Z_b, c) per
lattice point c of G[a,b], where Z_b collects the coordinates at which b
touches g and G[a,b] freezes exactly those coordinates at a.  The depth
of the induced decomposition is min |Z_b| over the intervals.  One
backtracking walk (`_CoverSearch.walk`) both decides whether a partition
of depth >= r exists and lists every such partition, on frames that
hold their cell's covers and a residual of packed per-cell counters in
one integer, so testing, applying and undoing a cover are one operation.
"""

from __future__ import annotations

import math
from itertools import accumulate, combinations, product
from typing import NamedTuple

from . import degrees as dg
from .errors import InputFormatError, PreconditionError, ResourceLimitError, ShapeError
from .modules import GradedModule, _alive_cells

# Most summands a decomposition file may stand for, counted before any
# list of them is built; an interval counts every summand it stands for.
DECOMPOSITION_SUMMAND_LIMIT = 10**6
# Most residuals one partition search may remember as having no partition
# (`_CoverSearch.dead`); past it the search raises ResourceLimitError.
PARTITION_STATE_BUDGET = 10**6
# Most interval ends one partition search may list for its cover records
# (`_CoverSearch.covers`); past it the search raises ResourceLimitError.
COVER_RANK_BUDGET = 10**6


class TruncatedSeries:
    """Coefficients dim M_a for every a in [0, g], read by `dg.as_degree`
    and `dg.as_int`.  `_of` takes them checked, one for every a."""

    __slots__ = ("g", "coefficients")

    def __init__(self, g: tuple, coefficients: dict):
        self.g = dg.as_degree(g)
        self.coefficients = {
            dg.as_degree(a): c if type(c) is int else dg.as_int(c) for a, c in coefficients.items()
        }
        for a in dg.box(dg.zero(len(self.g)), self.g):
            self.coefficients.setdefault(a, 0)
        if len(self.coefficients) > dg.box_size(dg.zero(len(self.g)), self.g):
            raise ShapeError(f"a truncated series over [0, {self.g}] has a degree outside it")

    @classmethod
    def _of(cls, g: tuple, coefficients: dict) -> TruncatedSeries:
        series = object.__new__(cls)
        series.g, series.coefficients = g, coefficients
        return series

    def coefficient(self, a: tuple) -> int:
        return self.coefficients.get(tuple(a), 0)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.g == other.g
            and self.coefficients == other.coefficients
        )

    def __repr__(self):
        nonzero = {a: c for a, c in sorted(self.coefficients.items()) if c}
        return f"TruncatedSeries(g={self.g}, {nonzero})"


def truncated_series(gm: GradedModule) -> TruncatedSeries:
    return TruncatedSeries._of(gm.g, {a: gm.dim(a) for a in dg.box(dg.zero(gm.n), gm.g)})


class Interval(NamedTuple):
    a: tuple
    b: tuple


class HilbertPartition:
    """A multiset of intervals, stored canonically sorted; endpoints are
    read by `dg.as_degree`.  `_of` takes them checked and sorted."""

    __slots__ = ("intervals",)

    def __init__(self, intervals):
        self.intervals = tuple(sorted(Interval(dg.as_degree(a), dg.as_degree(b)) for a, b in intervals))
        for a, b in self.intervals:
            if not dg.leq(a, b):
                raise ShapeError(f"interval needs a <= b, got {a}, {b}")

    @classmethod
    def _of(cls, intervals: tuple) -> HilbertPartition:
        p = object.__new__(cls)
        p.intervals = intervals
        return p

    def series(self, g: tuple) -> TruncatedSeries:
        coeffs: dict[tuple, int] = {}
        for a, b in self.intervals:
            if not dg.leq(b, g):
                raise ShapeError(f"interval upper bound {b} exceeds g = {g}")
            for c in dg.box(a, b):
                coeffs[c] = coeffs.get(c, 0) + 1
        return TruncatedSeries(g, coeffs)

    def validates_against(self, series: TruncatedSeries) -> bool:
        return self.series(series.g) == series

    def depth(self, g: tuple):
        if not self.intervals:
            return math.inf
        return min(len(dg.touching(b, g)) for _, b in self.intervals)

    def __eq__(self, other):
        return isinstance(other, HilbertPartition) and self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __len__(self):
        return len(self.intervals)

    def __repr__(self):
        return f"HilbertPartition({list(self.intervals)})"


class HilbertDecomposition:
    """An ordered list of summands (Z, shift); order fixes the generic
    variable numbering Y[i,j], so it is preserved from the input.  Z and
    shift are read by `dg.as_degree`; `_of` takes them in stored form."""

    __slots__ = ("summands",)

    def __init__(self, summands):
        self.summands = tuple((frozenset(dg.as_degree(z)), dg.as_degree(shift)) for z, shift in summands)

    @classmethod
    def _of(cls, summands: tuple) -> HilbertDecomposition:
        d = object.__new__(cls)
        d.summands = summands
        return d

    def depth(self):
        if not self.summands:
            return math.inf
        return min(len(z) for z, _ in self.summands)

    def canonical(self) -> tuple:
        """Order-independent form, for multiset comparisons."""
        return tuple(sorted((shift, tuple(sorted(z))) for z, shift in self.summands))

    def __eq__(self, other):
        return isinstance(other, HilbertDecomposition) and self.summands == other.summands

    def __hash__(self):
        return hash(self.summands)

    def __len__(self):
        return len(self.summands)

    def __repr__(self):
        return f"HilbertDecomposition({[(sorted(z), s) for z, s in self.summands]})"


def partition_to_decomposition(p: HilbertPartition, g: tuple) -> HilbertDecomposition:
    """One summand (Z_b, c) per interval [a, b] and point c of G[a, b]."""
    g = tuple(g)
    for _a, b in p.intervals:
        if not dg.leq(b, g):
            raise ShapeError(f"interval upper bound {b} exceeds g = {g}")
    return _induced([(a, b, 1) for a, b in p.intervals], g)


def _induced(items, g: tuple) -> HilbertDecomposition:
    """The summands of intervals (a, b, mult), checked and sorted: (Z_b, c)
    for c in G[a, b] in lexicographic order, mult times over."""
    summands = []
    for a, b, mult in items:
        zset = dg.touching(b, g)
        ranges = [range(x, (x if y == top else y) + 1) for x, y, top in zip(a, b, g)]
        summands += [(zset, c) for c in product(*ranges)] * mult
    return HilbertDecomposition._of(tuple(summands))


def admissible_shapes(g: tuple):
    """Every summand shape (Z, b) that passes
    `modules._summand_shape_failure` over [0, g]: shifts in lex order, and
    at each shift the Z sets by the sorted tuple of their coordinates
    beyond the forced ones."""
    n = len(g)
    for b in dg.box(dg.zero(n), g):
        forced = dg.touching(b, g)
        free = [j for j in range(n) if j not in forced]
        extensions = sorted(ext for r in range(len(free) + 1) for ext in combinations(free, r))
        for ext in extensions:
            yield forced | frozenset(ext), b


def alive_summands(summands, g: tuple) -> dict[tuple, list[int]]:
    """For each degree a of [0, g], the ascending indices of the summands
    (Z, b) alive at a: b <= a and a - b is supported in Z.

    Every summand must be admissible; the first that is not raises
    ShapeError with `modules._summand_shape_failure`'s text.  Z and b may
    be any iterables; the dict and its lists are new on every call.
    """
    g = tuple(g)
    alive: dict[tuple, list[int]] = {a: [] for a in dg.box(dg.zero(len(g)), g)}
    for i, (zset, shift) in enumerate(summands):
        for a in _alive_cells(g, frozenset(zset), tuple(shift)):
            alive[a].append(i)
    return alive


class ValidationFailure(PreconditionError):
    """Not a Hilbert decomposition of the module: `kind` "shape" (a summand
    is not admissible, `detail` says why) or "count" (the summands alive at
    `degree` are not dim M_degree many); `reason` is the one-line account."""

    def __init__(self, kind: str, degree: tuple | None = None, detail: str = ""):
        self.kind, self.degree, self.detail = kind, degree, detail
        self.reason = f"summand count mismatch at degree {degree}: {detail}" if kind == "count" else detail
        super().__init__(f"not a Hilbert decomposition of the module: {self.reason}")


def validated_alive(d: HilbertDecomposition, gm: GradedModule) -> tuple[list, dict, dict]:
    """(records, alive, images) when d is a Hilbert decomposition of gm:
    each summand's ShapeRecord, and for every a in [0, g] the indices of
    the summands alive at a and their images there; otherwise raise
    ValidationFailure for the first failure.  One record lookup per
    summand checks its shape; then the summands alive at each a must be
    dim M_a many.  The dicts and lists are new on every call.
    """
    alive: dict[tuple, list[int]] = {a: [] for a in dg.box(dg.zero(gm.n), gm.g)}
    images: dict[tuple, list] = {a: [] for a in alive}
    records = []
    try:
        for i, summand in enumerate(d.summands):
            record = gm.record(summand)
            records.append(record)
            for a, image in zip(record.cells, record.images):
                alive[a].append(i)
                images[a].append(image)
    except ShapeError as exc:
        raise ValidationFailure("shape", None, str(exc)) from None
    for a, indices in alive.items():
        if len(indices) != gm.dim(a):
            raise ValidationFailure("count", a, f"decomposition covers {len(indices)}, module has {gm.dim(a)}")
    return records, alive, images


def validate_decomposition(d: HilbertDecomposition, gm: GradedModule) -> ValidationFailure | None:
    """None on success; otherwise the first failure (see `validated_alive`)."""
    try:
        validated_alive(d, gm)
    except ValidationFailure as failure:
        return failure
    return None


def enumerate_partitions(series: TruncatedSeries, min_depth: int):
    """Yield every partition of the series into intervals [a, b] with b
    touching g in at least min_depth coordinates, each multiset once, in
    the order of `_CoverSearch.walk`.  Consumers may stop iterating at any
    time."""
    n = len(series.g)
    if not 0 <= min_depth <= n:
        raise PreconditionError(f"min_depth must be within [0, {n}], got {min_depth}")
    yield from _partitions(_CoverSearch(series, min_depth))


def _partitions(search):
    """Every partition of the residual that `search.walk` lists."""
    if search.feasible():
        for frames in search.walk(tight=False):
            yield HilbertPartition._of(tuple(sorted(Interval(search.cells[f[1]], f[3][0][f[2] - 1]) for f in frames)))


class _CoverSearch:
    """The residual of a series under a set of applied interval covers,
    and the one backtracking walk over them (`walk`).

    Cells are the degrees of [0, g] in lexicographic order.  The residual
    is one integer `key` with a field of `width` bits per cell, cell i at
    bit i * width: the width is one more than the bit length of the
    largest coefficient, so the top bit of every field, whose mask is
    `guards`, stays clear.  The word of a cover [a, b] holds a 1 in the
    lowest bit of each field of [a, b]: it fits when subtracting it from
    the key with every guard bit set clears none of them, since a field
    borrows only from its own guard, and applying it is one subtraction.
    The key names the residual exactly; residuals proved to have no
    partition are remembered in `dead` by it, and those on the path of a
    partition found in `alive`.  A cell's covers are listed on its first
    visit, one sub-box of ends per set of coordinates they touch, and
    each word is made when first tried, so a chain of k cells does not
    build its O(k^2) intervals up front; a search that is not `wide`
    lists only the tight ones.  A search whose `dead` grows past
    PARTITION_STATE_BUDGET raises ResourceLimitError.
    """

    def __init__(self, series: TruncatedSeries, min_depth: int, wide: bool = True):
        self.g = series.g
        self.min_depth = min_depth
        self.wide = wide
        self.ranked = 0
        self.cells = list(dg.box(dg.zero(len(self.g)), self.g))
        counts = [series.coefficients[c] for c in self.cells]
        self.width = w = max(counts, default=0).bit_length() + 1
        self.key = sum(count << (i * w) for i, count in enumerate(counts))
        self.guards = sum(1 << (i * w + w - 1) for i in range(len(counts)))
        self.steps = [w * stride for stride in dg.strides(self.g)]
        self.dead: set[int] = set()
        self.alive: set[int] = {0}
        self._records: dict[int, tuple[list, int, list]] = {}

    def covers(self, element: int) -> tuple[list, int, list]:
        """The cover record of cell a: the ends b of contact >= min_depth,
        only the tight ones unless `wide`, by descending contact, then
        lexicographically; the index of the first tight one (contact
        max(min_depth, contact(a)), the least an [a, b] can have); and
        their words, each None until first tried.

        b touches g wherever a does, so the ends of contact c are the
        sub-boxes, one per set S of c - contact(a) coordinates where a does
        not touch, with b_j = g_j on S and a_j <= b_j < g_j off S and off
        a's contact; each level is sorted on its own.  Listing more than
        COVER_RANK_BUDGET ends in one search, each sub-box counted before
        it is built, raises ResourceLimitError."""
        record = self._records.get(element)
        if record is None:
            a, g = self.cells[element], self.g
            below = [range(x, y + (x == y)) for x, y in zip(a, g)]  # g_j where a touches, else a_j..g_j - 1
            free = [j for j, (x, y) in enumerate(zip(a, g)) if x < y]
            tight = max(self.min_depth, len(g) - len(free))
            ends: list[tuple] = []
            for contact in range(len(g) if self.wide else tight, tight - 1, -1):
                first_tight, level = len(ends), []
                for top in combinations(free, contact - len(g) + len(free)):
                    ranges = below.copy()
                    for j in top:
                        ranges[j] = range(g[j], g[j] + 1)
                    self.ranked += math.prod(map(len, ranges))
                    if self.ranked > COVER_RANK_BUDGET:
                        raise ResourceLimitError(
                            f"the partition search of depth >= {self.min_depth} ranks more than "
                            f"COVER_RANK_BUDGET = {COVER_RANK_BUDGET} interval ends"
                        )
                    level += product(*ranges)
                ends += sorted(level)
            record = self._records[element] = ends, first_tight, [None] * len(ends)
        return record

    def word(self, element: int, b: tuple) -> int:
        """The word of [a, b], a the cell at `element`, in closed form: c +
        e_k lies steps[k] = d bits above c, so it is 2^(width * element)
        times the product over k of 1 + 2^d + ... + 2^(d (b_k - a_k))."""
        sums = (((1 << d * (y - x + 1)) - 1) // ((1 << d) - 1) for x, y, d in zip(self.cells[element], b, self.steps))
        return math.prod(sums) << element * self.width

    def first_positive(self) -> int:
        """Index of the first cell with positive residual; the residual
        must not be zero."""
        key = self.key
        return ((key & -key).bit_length() - 1) // self.width

    def feasible(self) -> bool:
        """Whether the residual has a partition of depth >= min_depth: the
        first goal of the tight walk, whose path is then marked alive and
        restored."""
        if self.key in self.alive:
            return True
        if self.key in self.dead:
            return False
        for frames in self.walk(tight=True):
            self.alive.update(frame[0] for frame in frames)
            self.key = frames[0][0]
            return True
        return False

    def walk(self, tight: bool):
        """Backtrack depth-first over the residual on one stack of frames
        [residual key, cell index, next cover position, the cell's cover
        record, read once, when the frame is pushed]; yield the frames,
        their covers, ends[position - 1], still applied, each time the
        residual reaches the goal.  A frame covers the first positive cell:
        it is componentwise minimal, so it must be a lower endpoint, and
        its key, saved before its cover is applied, restores the residual.

        `tight` asks whether a partition exists instead of listing them:
        - covers: the tight tail (a wider interval splits along a touching
          j with a_j < g_j into two of contact >= min_depth), instead of
          the whole record with a run at one cell resuming at its last
          cover, so that each multiset is listed once;
        - goal: a residual in `alive`, instead of the zero residual;
        - child test: none, instead of `feasible` of the child;
        - exhaustion: the residual joins `dead`, instead of a plain pop.
        """
        dead, goal, guards = self.dead, self.alive if tight else {0}, self.guards
        if self.key in goal:
            yield []
            return
        element = self.first_positive()
        record = self.covers(element)
        frames = [[self.key, element, record[1] if tight else 0, record]]
        while frames:
            frame = frames[-1]
            key, element, pos, (ends, _tight, words) = frame
            self.key = key
            while pos < len(ends):
                word = words[pos]
                if word is None:
                    word = words[pos] = self.word(element, ends[pos])
                pos += 1
                if ((key | guards) - word) & guards == guards and key - word not in dead:
                    self.key = key - word
                    if tight or self.feasible():
                        break
                    self.key = key
            else:
                frames.pop()
                if tight:
                    dead.add(key)
                    if len(dead) > PARTITION_STATE_BUDGET:
                        raise ResourceLimitError(
                            f"the partition search of depth >= {self.min_depth} holds more than "
                            f"PARTITION_STATE_BUDGET = {PARTITION_STATE_BUDGET} residuals with no partition"
                        )
                continue
            frame[2] = pos
            if self.key in goal:
                yield frames
                continue
            following = self.first_positive()
            record = self.covers(following)
            resume = record[1] if tight else pos - 1 if following == element else 0
            frames.append([self.key, following, resume, record])


def require_g_determined(gm: GradedModule) -> None:
    """Raise PreconditionError unless gm is g-determined; the verdict,
    passing or not, is computed once per module (`gm.g_violation`)."""
    if gm.g_violation is not None:
        a, k = gm.g_violation
        raise PreconditionError(
            f"module is not g-determined for g = {gm.g}: multiplication by "
            f"X_{k + 1} at degree {a} is not an isomorphism"
        )


def z_graded_hdepth(series: TruncatedSeries) -> int:
    """The largest r <= n for which (1-t)^r * H(t) has no negative
    coefficient, where H(t) = sum over a in [0, g] of
    dim M_a * t^|a| / (1-t)^k(a), k(a) = #{j : a_j = g_j}, is the
    Z-graded Hilbert series read off the truncated series.

    This is the Z-graded Hilbert depth (Uliczka 2010).  A partition of
    depth >= r writes H as a sum of t^|c| / (1-t)^k with k >= r, so no
    partition has depth above this bound.

    Integers only: with A_k(t) the part of the series of contact k,
    Horner's rule q <- q*(1-t) + A_k for k = 0..n gives (1-t)^n * H, and
    each division by (1-t) is a prefix sum.  Only degrees 0..|g|+n are
    kept, which is exact: a coefficient depends on lower degrees only, and
    past |g|+n the polynomials A_k * (1-t)^(r-k), k <= r, vanish, leaving
    the series A_k / (1-t)^(k-r), k > r, with no negative coefficient.
    """
    g = series.g
    n = len(g)
    top = sum(g) + n
    by_contact = [[0] * (top + 1) for _ in range(n + 1)]
    for a, count in series.coefficients.items():
        if count:
            by_contact[len(dg.touching(a, g))][sum(a)] += count
    q = [0] * (top + 1)
    for part in by_contact:
        q = [x - y + z for x, y, z in zip(q, [0, *q], part)]
    r = n
    while r and min(q) < 0:
        q = list(accumulate(q))
        r -= 1
    return r


def partitions_by_depth(gm: GradedModule):
    """Yield (s, partition) for every partition of the truncated series
    into tight intervals, of depth exactly s, for s = `z_graded_hdepth`
    of the series (at most n) down to 0: level s lists the partitions
    whose every [a, b] has contact max(s, contact(a)) and keeps depth s.
    No level above that bound has a partition, and splitting [a, b] along
    a touching j with a_j < g_j refines one of depth >= s into a tight
    one, induced when it was.  The zero module yields (inf, the empty
    partition) alone.  Raises PreconditionError unless gm is g-determined."""
    require_g_determined(gm)
    if gm.is_zero_module():
        yield math.inf, HilbertPartition([])
        return
    series = truncated_series(gm)
    for s in range(z_graded_hdepth(series), -1, -1):
        for partition in _partitions(_CoverSearch(series, s, wide=False)):
            if partition.depth(gm.g) == s:
                yield s, partition


def hdepth(gm: GradedModule, return_partition: bool = False):
    """The largest s admitting a partition of the truncated series into
    intervals of contact count >= s, inf for the zero module: the first
    item of `partitions_by_depth`.  That walk starts at the Z-graded
    Hilbert depth (`z_graded_hdepth`), an upper bound, and goes down; the
    first level with a partition holds none deeper, so that partition is
    the level's first."""
    s, partition = next(partitions_by_depth(gm))
    return (s, partition) if return_partition else s


# ---------------------------------------------------------------------------
# JSON forms
#
# {"summands": [{"vars": [1-based ints], "shift": [..], "mult": int}, ..]}
# {"intervals": [{"a": [..], "b": [..], "mult": int}, ..]}


def _within_summand_limit(total: int) -> int:
    if total > DECOMPOSITION_SUMMAND_LIMIT:
        raise ResourceLimitError(
            "the decomposition has more than DECOMPOSITION_SUMMAND_LIMIT = "
            f"{DECOMPOSITION_SUMMAND_LIMIT} summands"
        )
    return total


def decomposition_from_json(obj, g: tuple):
    """Parse either decomposition form; interval form is converted via the
    induced-summand construction for the given g."""
    if not isinstance(obj, dict):
        raise InputFormatError("decomposition file must be a JSON object")
    if "summands" in obj and "intervals" in obj:
        raise InputFormatError('decomposition file has both a "summands" and an "intervals" key')
    total = 0
    if "summands" in obj:
        summands = []
        for item in dg.as_list(obj["summands"], '"summands"'):
            try:
                names = dg.as_degree(item["vars"])
                shift = dg.as_degree(item["shift"])
                mult = dg.as_int(item.get("mult", 1))
            except (KeyError, TypeError, InputFormatError) as exc:
                raise InputFormatError(f"bad summand entry {item!r}") from exc
            zset = frozenset(j - 1 for j in names)
            if len(zset) < len(names):
                raise InputFormatError(f"summand names a variable twice in {item!r}")
            if any(j < 0 for j in zset):
                raise InputFormatError(f"summand vars must be >= 1 in {item!r}")
            if mult < 0:
                raise InputFormatError(f"negative multiplicity in {item!r}")
            total = _within_summand_limit(total + mult)
            summands.extend([(zset, shift)] * mult)
        return HilbertDecomposition._of(tuple(summands))
    if "intervals" in obj:
        items = []
        for item in dg.as_list(obj["intervals"], '"intervals"'):
            try:
                a = dg.as_degree(item["a"])
                b = dg.as_degree(item["b"])
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
            size = math.prod(y - x + 1 for x, y, top in zip(a, b, g) if y < top)
            total = _within_summand_limit(total + mult * size)
            items.append((a, b, mult))
        items.sort()
        return _induced(items, g)
    raise InputFormatError('decomposition file needs a "summands" or "intervals" key')


def decomposition_to_json(d: HilbertDecomposition) -> dict:
    groups: dict[tuple, int] = {}
    for shift, zvars in d.canonical():
        key = (shift, zvars)
        groups[key] = groups.get(key, 0) + 1
    return {
        "summands": [
            {"vars": [j + 1 for j in zvars], "shift": list(shift), "mult": mult}
            for (shift, zvars), mult in sorted(groups.items())
        ]
    }


def partition_to_json(p: HilbertPartition) -> dict:
    groups: dict[Interval, int] = {}
    for iv in p.intervals:
        groups[iv] = groups.get(iv, 0) + 1
    return {
        "intervals": [
            {"a": list(a), "b": list(b), "mult": mult}
            for (a, b), mult in sorted(groups.items())
        ]
    }


def load_decomposition_file(path, g: tuple):
    return dg.read_json(path, lambda obj: decomposition_from_json(obj, g))
