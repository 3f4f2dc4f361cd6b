"""Multigraded modules presented by generators and relations.

A presentation lists generator degrees and homogeneous relation rows;
build() computes every graded piece M_a for a in the box [0, g+1] by
exact linear algebra; the maps X^(b-a) : M_a -> M_b between them are
formed on first use.

The degree-a piece is the span of the monomial multiples
{X^(a - deg e_i) e_i : deg e_i <= a} (one ambient coordinate per
generator, ordered by generator index) modulo the span of the degree-a
multiples of the relations.  Its coset basis is the canonical one of
linalg: the unit vectors at the non-pivot columns of the relation
subspace, by ascending column, which makes every downstream certificate
reproducible.

M_a depends only on the signature of a: which generators and which
relations have degree <= a.  The build reads each degree's signature as
a bitmask, the AND of one precomputed mask per coordinate, and decodes
each distinct signature once.  Degrees with one signature share one
immutable GradedPiece, whose relation subspace extends a lower
neighbour's by the relations new to it; the cells that asks for are
counted first, against BUILD_CELL_BUDGET.  A map X^(b-a) depends only
on the pieces at its two ends, so each is built once per pair of
pieces.  So is its integer form (`Matrix.integral`, kept by the map
itself), the rows and columns every rank question of `stanley` reads.

A module also keeps one ShapeRecord per summand shape (Z, b) it is
asked about: its alive cells, the maps X^(a-b) : M_b -> M_a into them
and dim M_b, so a family A_a is gathered by one lookup per summand.
Beside them it keeps one rank verdict per degree a and alive shapes:
keyed by a and the records alive there, in column order, whether A_a has
a full independent transversal.  The two memos share one bound,
SHAPE_MEMO_CELLS cells per module, a verdict counting one per record,
and start over together, so no verdict outlives its records.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from . import degrees as dg
from .errors import (
    BoxError,
    HomogeneityError,
    InputFormatError,
    RangeError,
    ResourceLimitError,
    ShapeError,
)
from .fields import Field, field_from_json
from .linalg import Matrix, Subspace

# Largest box [0, g+1], counted in degrees, that build() will fill.
BOX_DEGREE_LIMIT = 10**5

# Most cells build() will write for a box: its signature masks, and the
# rows each distinct signature reduces times its width (see _build).
BUILD_CELL_BUDGET = 5 * 10**6

# Most cells one module's shape records hold (see `GradedModule.shape_record`).
SHAPE_MEMO_CELLS = 2**18


@dataclass(frozen=True)
class Relation:
    """One homogeneous relation row: sum of coeff * X^shift * e_gen = 0."""

    triples: tuple[tuple[int, tuple, object], ...]
    degree: tuple


class ModulePresentation:
    """Generators with degrees plus homogeneous relations, over one field."""

    __slots__ = ("n", "field", "generator_degrees", "relations")

    def __init__(self, n: int, field: Field, generator_degrees, relations=()):
        if n < 1:
            raise InputFormatError("the ring needs at least one variable")
        gen_degs = []
        for d in generator_degrees:
            d = dg.as_degree(d)
            if len(d) != n or any(x < 0 for x in d):
                raise InputFormatError(f"generator degree {d} is not a length-{n} vector over N")
            gen_degs.append(d)
        rels = []
        for row in relations:
            triples = []
            degree = None
            for gen, shift, coeff in row:
                if not 0 <= gen < len(gen_degs):
                    raise InputFormatError(f"relation references generator {gen + 1} of {len(gen_degs)}")
                shift = dg.as_degree(shift)
                if len(shift) != n or any(x < 0 for x in shift):
                    raise InputFormatError(f"relation shift {shift} is not a length-{n} vector over N")
                if field.is_zero(coeff):
                    continue
                term_degree = dg.add(gen_degs[gen], shift)
                if degree is None:
                    degree = term_degree
                elif degree != term_degree:
                    raise HomogeneityError(
                        f"relation mixes degrees {degree} and {term_degree}"
                    )
                triples.append((gen, shift, coeff))
            if triples:
                rels.append(Relation(tuple(triples), degree))
        self.n = n
        self.field = field
        self.generator_degrees = tuple(gen_degs)
        self.relations = tuple(rels)

    def default_g(self) -> tuple:
        """Componentwise maximum of all generator and relation degrees."""
        g = dg.zero(self.n)
        for d in self.generator_degrees:
            g = dg.join(g, d)
        for r in self.relations:
            g = dg.join(g, r.degree)
        return g


@dataclass(frozen=True)
class GradedPiece:
    """One graded component M_a in ambient coordinates indexed by the
    generators alive at degree a."""

    gens: tuple[int, ...]
    relation_subspace: Subspace
    nonpivot_columns: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.nonpivot_columns)

    def coords(self, ambient_vector) -> tuple:
        """Coordinates of an ambient vector in the coset basis."""
        reduced = self.relation_subspace.reduce(ambient_vector)
        return tuple(reduced[c] for c in self.nonpivot_columns)


class ShapeRecord:
    """One summand shape (Z, b) of a module: the `cells` where it is alive,
    the map X^(a-b) : M_b -> M_a at each (`images`) and dim M_b.
    `exponent_count`, made on first use, is the most images in which one
    column is nonzero."""

    __slots__ = ("cells", "images", "dim", "_count")

    def __init__(self, cells: tuple, images: tuple, dim: int):
        self.cells, self.images, self.dim = cells, images, dim
        self._count = None

    @property
    def exponent_count(self) -> int:
        if self._count is None:
            counts = [0] * self.dim
            for image in self.images:
                for j, column in enumerate(image.integral().columns):
                    if any(column):
                        counts[j] += 1
            self._count = max(counts, default=0)
        return self._count


class GradedModule:
    """A presentation together with all graded pieces on [0, g+1]."""

    def __init__(self, presentation: ModulePresentation, g: tuple):
        g = dg.as_degree(g)
        if len(g) != presentation.n or any(x < 0 for x in g):
            raise InputFormatError(f"g must be a length-{presentation.n} vector over N, got {g}")
        if any(x + 2 > BOX_DEGREE_LIMIT for x in g):  # checked before any message prints g
            raise ResourceLimitError(
                f"a coordinate of g gives the box [0, g+1] more than BOX_DEGREE_LIMIT = "
                f"{BOX_DEGREE_LIMIT} degrees"
            )
        self.presentation = presentation
        self.n = presentation.n
        self.field = presentation.field
        self.g = g
        self.top = dg.add(g, dg.ones(self.n))
        for d in presentation.generator_degrees:
            if not dg.leq(d, self.top):
                raise BoxError(f"generator degree {d} exceeds the box [0, g+1] = [0, {self.top}]")
        for r in presentation.relations:
            if not dg.leq(r.degree, self.top):
                raise BoxError(f"relation degree {r.degree} exceeds the box [0, g+1] = [0, {self.top}]")
        size = dg.box_size(dg.zero(self.n), self.top)
        if size > BOX_DEGREE_LIMIT:
            raise ResourceLimitError(
                f"the box [0, g+1] = [0, {self.top}] has {size} degrees, "
                f"more than BOX_DEGREE_LIMIT = {BOX_DEGREE_LIMIT}"
            )
        self.pieces: dict[tuple, GradedPiece] = {}
        # the only table of maps: X^(b-a) keyed by the ids of its two shared
        # pieces, which self.pieces keeps alive for the module's lifetime
        self._transfers: dict[tuple, Matrix] = {}
        self.shapes: dict[tuple, ShapeRecord] = {}
        # (a, *the records alive at a, in column order) -> whether degree a
        # has a full independent transversal; a new dict at each start-over
        self.verdicts: dict[tuple, bool] = {}
        self._shape_cells = 0  # held by both memos
        self._build()

    def _build(self) -> None:
        """One GradedPiece per signature (the generators and relations of
        degree <= a), stored under every degree with that signature.

        Bit i of a mask stands for generator i, and bit G + j for relation
        j, G the number of generators.  For each coordinate k and value v,
        masks[k][v] holds the items whose k-th degree coordinate is <= v,
        so the signature of a is the AND of the masks[k][a_k].  Each
        distinct signature is decoded once, at its first degree a in
        lexicographic order.  For a != 0 it extends the piece of the lower
        neighbour a - e_k, k the first coordinate with a_k > 0, which is
        built already: that piece's relation subspace, with zero columns
        for the generators new at a, is spanned with the relations new at
        a.  A span has one reduced echelon basis, so this is the basis of
        all the relations of degree <= a.

        The cells this writes are counted before they are written, and
        before any row reduction: one per 64 items in each mask, for the
        masks[k][v] and for each new signature, and per new signature its
        width times the rows it reduces (the lower neighbour's rank,
        bounded by its generator and relation counts, plus the new
        relations).  Past BUILD_CELL_BUDGET the build stops.
        """
        pres = self.presentation
        f = self.field
        n_gens = len(pres.generator_degrees)
        gen_bits = (1 << n_gens) - 1
        items = pres.generator_degrees + tuple(r.degree for r in pres.relations)
        words = len(items) // 64 + 1  # the cells of one mask
        cells = (sum(self.top) + self.n) * words
        if cells > BUILD_CELL_BUDGET:
            raise self._over_budget()
        masks = []
        for k, top in enumerate(self.top):
            at = [0] * (top + 1)
            for i, d in enumerate(items):
                at[d[k]] |= 1 << i
            masks.append(tuple(itertools.accumulate(at, operator.or_)))
        strides = dg.strides(self.top)
        box = list(dg.box(dg.zero(self.n), self.top))
        signature = []  # per degree of box: its index into new
        new = []  # (mask, lower neighbour's mask, and index or None) per distinct signature
        index: dict[int, int] = {}
        for i, (a, ms) in enumerate(zip(box, itertools.product(*masks))):
            mask = functools.reduce(operator.and_, ms)
            s = index.get(mask)
            if s is None:
                k = next((k for k, x in enumerate(a) if x), None)
                below = None if k is None else signature[i - strides[k]]
                prev = 0 if below is None else new[below][0]
                rows = min((prev & gen_bits).bit_count(), (prev >> n_gens).bit_count())
                rows += ((mask ^ prev) >> n_gens).bit_count()
                cells += rows * (mask & gen_bits).bit_count() + words
                if cells > BUILD_CELL_BUDGET:
                    raise self._over_budget()
                s = index[mask] = len(new)
                new.append((mask, prev, below))
            signature.append(s)
        pieces: list[GradedPiece] = []
        for mask, prev, below in new:
            gens = tuple(_bits(mask & gen_bits))
            position = {gen: p for p, gen in enumerate(gens)}
            ambient = len(gens)
            if below is None:
                start = Subspace.zero(f, ambient)
            else:
                lower = pieces[below]
                start = lower.relation_subspace.embedded(ambient, [position[gen] for gen in lower.gens])
            vectors = []
            for j in _bits((mask ^ prev) >> n_gens):
                vec = [f.zero] * ambient
                for gen, _shift, coeff in pres.relations[j].triples:
                    p = position[gen]
                    vec[p] = f.add(vec[p], coeff)
                vectors.append(vec)
            sub = start.extended(vectors)
            pivot_set = set(sub.pivots)
            nonpivots = tuple(c for c in range(ambient) if c not in pivot_set)
            pieces.append(GradedPiece(gens, sub, nonpivots))
        self.pieces.update(zip(box, map(pieces.__getitem__, signature)))

    def _over_budget(self) -> ResourceLimitError:
        return ResourceLimitError(
            f"the pieces of the box [0, g+1] = [0, {self.top}] need more than "
            f"BUILD_CELL_BUDGET = {BUILD_CELL_BUDGET} cells of masks and row reduction"
        )

    def _transfer(self, src: GradedPiece, dst: GradedPiece) -> Matrix:
        """X^(b-a) : M_a -> M_b for pieces src = M_a, dst = M_b with a <= b.

        Each coset basis vector of src is a unit vector at a non-pivot
        column; multiplying by the monomial keeps its generator, so the
        image is that generator's ambient coordinate in dst, reduced there.
        Reduction commutes with inclusion, so the map depends only on the
        two pieces and is built once per pair, on first use.
        """
        key = (id(src), id(dst))
        out = self._transfers.get(key)
        if out is None:
            f = self.field
            position = {gen: p for p, gen in enumerate(dst.gens)}
            columns = []
            for c in src.nonpivot_columns:
                image = [f.zero] * len(dst.gens)
                image[position[src.gens[c]]] = f.one
                columns.append(dst.coords(image))
            out = self._transfers[key] = Matrix.from_columns(f, columns, dst.dim)
        return out

    def piece(self, a: tuple) -> GradedPiece:
        piece = self.pieces.get(tuple(a))
        if piece is None:
            raise RangeError(f"degree {tuple(a)} is outside the computed box [0, {self.top}]")
        return piece

    def dim(self, a: tuple) -> int:
        return self.piece(a).dim

    def mult_map(self, a: tuple, k: int) -> Matrix:
        """The map X_k : M_a -> M_(a+e_k)."""
        a = tuple(a)
        src = self.pieces.get(a)
        dst = self.pieces.get(a[:k] + (a[k] + 1,) + a[k + 1:]) if 0 <= k < len(a) else None
        if src is None or dst is None:
            raise RangeError(f"multiplication map at {(a, k)} is outside the computed box")
        return self._transfer(src, dst)

    def power_map(self, src: tuple, dst: tuple) -> Matrix:
        """The map X^(dst-src) : M_src -> M_dst."""
        src, dst = tuple(src), tuple(dst)
        if not dg.leq(src, dst):
            raise RangeError(f"power map needs src <= dst, got {src}, {dst}")
        return self._transfer(self.piece(src), self.piece(dst))

    def shape_record(self, summand: tuple, cells: tuple) -> ShapeRecord:
        """The record of summand = (Z, b), alive at `cells` (checked by the
        caller), kept in `shapes`: a record that would take the two memos
        past SHAPE_MEMO_CELLS cells starts them over first, and one of more
        cells than that is not kept."""
        shift = summand[1]
        record = ShapeRecord(cells, tuple(self.power_map(shift, a) for a in cells), self.dim(shift))
        if self._shape_cells + len(cells) > SHAPE_MEMO_CELLS:
            self._start_over()
        if len(cells) <= SHAPE_MEMO_CELLS:
            self.shapes[summand] = record
            self._shape_cells += len(cells)
        return record

    def remember_verdict(self, key: tuple, full: bool) -> None:
        """Keep a `verdicts` entry, one cell per record in its key; one that
        would pass SHAPE_MEMO_CELLS starts both memos over instead, so its
        records, no longer in `shapes`, are not kept by it."""
        if self._shape_cells + len(key) - 1 > SHAPE_MEMO_CELLS:
            self._start_over()
        else:
            self.verdicts[key] = full
            self._shape_cells += len(key) - 1

    def _start_over(self) -> None:
        self.shapes.clear()
        self.verdicts = {}
        self._shape_cells = 0

    def is_zero_module(self) -> bool:
        return all(p.dim == 0 for p in self.pieces.values())

    def verify_g_determined(self):
        """None if multiplication by X_k is an isomorphism on every boundary
        slab a_k = g_k; otherwise the first violating (a, k) in (degree,
        coordinate) order.

        The pieces are read by flat index in lexicographic order, where
        a + e_k lies strides[k] places after a, so each slab is a set of
        runs of strides[k] places, one every (g_k + 2) * strides[k]; it
        is sliced by runs or by columns, whichever takes fewer slices.
        Degrees that share a pair of pieces share its map, so each
        distinct pair is ranked once."""
        pieces = list(self.pieces.values())
        ids = list(map(id, pieces))
        strides = dg.strides(self.top)
        pairs = set()
        for x, stride in zip(self.g, strides):
            period = (x + 2) * stride
            if stride <= len(ids) // period:
                for i in range(x * stride, (x + 1) * stride):
                    pairs.update(zip(ids[i::period], ids[i + stride :: period]))
            else:
                for i in range(x * stride, len(ids), period):
                    pairs.update(zip(ids[i : i + stride], ids[i + stride : i + 2 * stride]))
        by_id = dict(zip(ids, pieces))
        maps = {pair: self._transfer(by_id[pair[0]], by_id[pair[1]]) for pair in pairs}
        failing = {pair for pair, m in maps.items() if m.nrows != m.ncols or m.rank() != m.nrows}
        if not failing:
            return None
        return next(
            (a, k)
            for i, a in enumerate(self.pieces)
            for k, stride in enumerate(strides)
            if a[k] == self.g[k] and (ids[i], ids[i + stride]) in failing
        )


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def build(presentation: ModulePresentation, g: tuple | None = None) -> GradedModule:
    """Compute all graded pieces on [0, g+1]."""
    if g is None:
        g = presentation.default_g()
    return GradedModule(presentation, g)


# ---------------------------------------------------------------------------
# canonical constructors


def free(field: Field, n: int, shifts) -> ModulePresentation:
    """A free module with one generator per shift, no relations."""
    return ModulePresentation(n, field, shifts)


def minimalize_monomials(exponents) -> list[tuple]:
    """Remove duplicate and divisible exponent vectors; sort the rest."""
    unique = sorted({dg.as_degree(e) for e in exponents})
    return [u for u in unique if not any(v != u and dg.leq(v, u) for v in unique)]


def monomial_ideal(field: Field, n: int, exponents) -> ModulePresentation:
    """The ideal generated by the monomials X^e, presented by its minimal
    generators with the pairwise syzygies X^(lcm/u) e_u - X^(lcm/v) e_v."""
    gens = minimalize_monomials(exponents)
    for e in gens:
        if len(e) != n:
            raise ShapeError(f"exponent vector {e} is not length {n}")
    relations = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            lcm = dg.join(gens[i], gens[j])
            relations.append(
                [
                    (i, dg.sub(lcm, gens[i]), field.one),
                    (j, dg.sub(lcm, gens[j]), field.neg(field.one)),
                ]
            )
    return ModulePresentation(n, field, gens, relations)


def quotient_by_monomial_ideal(field: Field, n: int, exponents) -> ModulePresentation:
    """R / (monomial ideal): one generator in degree 0, one relation per
    minimal ideal generator."""
    gens = minimalize_monomials(exponents)
    for e in gens:
        if len(e) != n:
            raise ShapeError(f"exponent vector {e} is not length {n}")
    relations = [[(0, e, field.one)] for e in gens]
    return ModulePresentation(n, field, [dg.zero(n)], relations)


def direct_sum(parts) -> ModulePresentation:
    """Concatenate presentations; generators and relations are reindexed."""
    parts = list(parts)
    if not parts:
        raise ShapeError("direct sum of no parts")
    n, field = parts[0].n, parts[0].field
    gen_degs = []
    relations = []
    for part in parts:
        if part.n != n or part.field != field:
            raise ShapeError("direct sum parts must share ring and field")
        offset = len(gen_degs)
        gen_degs.extend(part.generator_degrees)
        for r in part.relations:
            relations.append([(gen + offset, shift, coeff) for gen, shift, coeff in r.triples])
    return ModulePresentation(n, field, gen_degs, relations)


def maximal_ideal(field: Field, n: int) -> ModulePresentation:
    """The ideal (X_1, ..., X_n)."""
    return monomial_ideal(field, n, [dg.unit(n, k) for k in range(n)])


# ---------------------------------------------------------------------------
# JSON input
#
# {"ring": {"n": int, "field": "Q" | {"Fp": p}},
#  "g": [..],                              (optional, componentwise >= 0)
#  "module": {"kind": ..., ...}}
#
# kinds:
#   presentation:               {"generator_degrees": [[..]..],
#                                "relations": [[{"gen": 1-based int,
#                                                "shift": [..],
#                                                "coeff": "scalar"}..]..]}
#   monomial_ideal:             {"generators": [[..]..]}
#   quotient_by_monomial_ideal: {"generators": [[..]..]}
#   free:                       {"shifts": [[..]..]}
#   direct_sum:                 {"parts": [module objects..]}


def _parse_module_obj(obj, n: int, field: Field) -> ModulePresentation:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputFormatError('module object must be a dict with a "kind" key')
    kind = obj["kind"]
    try:
        if kind == "presentation":
            rows = []
            for row in dg.as_list(obj.get("relations", []), '"relations"'):
                triples = []
                for t in dg.as_list(row, "a relation row"):
                    if not isinstance(t, dict):
                        raise InputFormatError(f"relation term must be an object, got {t!r}")
                    triples.append((dg.as_int(t["gen"]) - 1, t["shift"], dg.as_scalar(field, t["coeff"])))
                rows.append(triples)
            degrees = dg.as_list(obj["generator_degrees"], '"generator_degrees"')
            return ModulePresentation(n, field, degrees, rows)
        if kind == "monomial_ideal":
            return monomial_ideal(field, n, dg.as_list(obj["generators"], '"generators"'))
        if kind == "quotient_by_monomial_ideal":
            return quotient_by_monomial_ideal(field, n, dg.as_list(obj["generators"], '"generators"'))
        if kind == "free":
            return free(field, n, dg.as_list(obj["shifts"], '"shifts"'))
        if kind == "direct_sum":
            parts = dg.as_list(obj["parts"], '"parts"')
            return direct_sum(_parse_module_obj(p, n, field) for p in parts)
    except KeyError as exc:
        raise InputFormatError(f"module kind {kind!r} is missing key {exc}") from exc
    raise InputFormatError(f"unknown module kind {kind!r}")


def load_module_json(obj, field_override: Field | None = None):
    """Parse a module JSON object into (presentation, explicit g or None)."""
    if not isinstance(obj, dict) or "ring" not in obj or "module" not in obj:
        raise InputFormatError('module file needs "ring" and "module" keys')
    ring = obj["ring"]
    try:
        n = dg.as_int(ring["n"])
    except (KeyError, TypeError, InputFormatError) as exc:
        raise InputFormatError('ring needs an integer "n"') from exc
    if n >= BOX_DEGREE_LIMIT.bit_length():  # 2^n > BOX_DEGREE_LIMIT, checked before any n-tuple is built
        raise ResourceLimitError(
            f"a ring with {n} variables has boxes [0, g+1] of at least 2^{n} degrees, "
            f"more than BOX_DEGREE_LIMIT = {BOX_DEGREE_LIMIT}"
        )
    field = field_override if field_override is not None else field_from_json(ring.get("field", "Q"))
    try:
        pres = _parse_module_obj(obj["module"], n, field)
    except RecursionError:
        raise InputFormatError("direct sums nest too deeply") from None
    g = obj.get("g")
    if g is not None:
        g = dg.as_degree(g)
        if len(g) != n or any(x < 0 for x in g):
            raise InputFormatError(f"g must be a length-{n} vector over N, got {g}")
    return pres, g


def load_module_file(
    path,
    field_override: Field | None = None,
    g_override: tuple | None = None,
) -> GradedModule:
    """Read a module JSON file and build it."""
    def parse(obj):
        pres, g = load_module_json(obj, field_override)
        if g_override is not None:
            g = dg.as_degree(g_override)
        return build(pres, g)
    return dg.read_json(path, parse)
