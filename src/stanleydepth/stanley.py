"""Decide whether a Hilbert decomposition is induced by a Stanley
decomposition; extract and verify witnesses; compute Stanley depth.

For each degree a in [0, g] the decomposition yields a square matrix A_a:
one column per summand alive at a, with entries linear in the generic
coefficients Y[i,j] of summand i's generator written in the canonical
basis of M_(S_i).  The decomposition is induced iff the generic
generators can be specialized so that all A_a have full rank
simultaneously: over an infinite field this means every det A_a is a
nonzero polynomial; over GF(q) the product of the determinants must
survive the exponent reduction modulo Y^q = Y.

det A_a is multilinear in its columns and column i holds only summand
i's variables, so det A_a is nonzero iff one image column per summand
can be picked linearly independent, over every field.  Every degree is
decided that way, by an independent transversal of the subspaces
X^(a-S_i) M_(S_i); no determinant is formed.  Only the GF(q) product,
needed when some variable may reach exponent q, expands the determinants
into packed maps {bitmask of variables: coefficient}, under a term
budget, and reduces it on packed exponent words.  A witness is the
lexicographically first point of the first stage that holds one: the
stages {1..s}^vars, s = 1..B+1, when the field has more than B+1
elements, else the whole field.  The search fixes one summand's
coefficient vector at a time, one coordinate at a time, and cuts a
prefix once at some degree every completion's column falls in the span
of the columns fixed before it; it evaluates no determinant.  Over
GF(q), where the product would need expanding, `sdepth` decides by that
search over the whole field instead.

Every rank question reads each image's integer form
(`Matrix.integral`): the transversals its columns, the exponent bound
their support, the search and the witness check its rows.  Every
witness check (after the search, in `verify_witness` and in
`verify-cert`) takes one Bareiss determinant of each A_a(y) on ints, an
elimination the search does not use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import mul

from . import degrees as dg
from .errors import (
    InputFormatError,
    ModeError,
    ResourceLimitError,
    UnboundVariableError,
    WitnessNotFoundError,
)
from .fields import Field, field_from_json
from .hilbert import (
    HilbertDecomposition,
    ValidationFailure,
    decomposition_from_json,
    partition_to_decomposition,
    partitions_by_depth,
    validated_alive,
)
from .linalg import IntegerEchelon, Matrix, bareiss_determinant, integral_rows
from .modules import GradedModule
from .polynomials import Poly, Var, parse_var_name, var_name
from .transversal import max_independent_transversal

BASIS_CONVENTION = "echelon-unit-cosets/1"
DEFAULT_TERM_BUDGET = 10**6
DEFAULT_SEARCH_BUDGET = 10**6
CHECK_MODES = ("auto", "unified")


class SymbolicMatrixFamily:
    """The matrices A_a of one decomposition, indexed by degree.

    The constructor validates the decomposition with one walk over the
    module's shape records (`validated_alive`, one lookup per summand,
    which raises ValidationFailure) and keeps, for every degree a with
    alive summands, their indices (`columns[a]`) and the images
    X^(a - shift) of their pieces (`images[a]`, power maps M_shift ->
    M_a).  Column i of A_a is image i applied to summand i's generic
    coefficients Y[i, *]; every rank question reads the image's integer
    form (`Matrix.integral`).
    `first_singular_degree` is the one per-degree answer every check
    reads, and `exponent_bound` the one bound on the determinant product
    that picks the finite-field check and the witness stages.
    `packed_det` expands a determinant from the images into a packed map
    {bitmask of variable positions: coefficient}, bit k standing for
    `variables[k]`, each time it is asked; `det` converts one to a Poly,
    and the Poly matrices are built only when asked for.
    """

    def __init__(self, gm: GradedModule, decomposition: HilbertDecomposition):
        self._verdicts = gm.verdicts  # replaced if the walk starts the memos over
        self._records, alive, images = validated_alive(decomposition, gm)
        self.module = gm
        self.field: Field = gm.field
        self.summand_dims = tuple(record.dim for record in self._records)
        self.columns: dict[tuple, tuple[int, ...]] = {
            a: tuple(indices) for a, indices in alive.items() if indices
        }
        self.images: dict[tuple, list[Matrix]] = {a: images[a] for a in self.columns}
        self._offsets = list(accumulate(self.summand_dims, initial=0))

    @cached_property
    def matrices(self) -> dict[tuple, list[list[Poly]]]:
        """A_a with entries linear in the Y[i,j], for every degree."""
        f = self.field
        return {
            a: [
                [Poly(f, {(((i, j), 1),): c for j, c in enumerate(image.entries[k])})
                 for i, image in zip(alive, self.images[a])]
                for k in range(self.module.dim(a))
            ]
            for a, alive in self.columns.items()
        }

    @property
    def variables(self) -> tuple[Var, ...]:
        return tuple((i, j) for i, l in enumerate(self.summand_dims) for j in range(l))

    def degrees(self) -> list[tuple]:
        """The degrees with alive summands, in lexicographic order: the
        order of `columns`, which follows the walk over the box [0, g]."""
        return list(self.columns)

    @cached_property
    def first_singular_degree(self) -> tuple | None:
        """The first degree whose det A_a is the zero polynomial, or None.

        Column i of A_a is image i applied to summand i's variables, so
        det A_a is the sum, over every pick of one image column per
        summand, of that pick's numeric determinant times a monomial that
        no other pick has: it is nonzero iff some pick is independent.
        An independent transversal decides that over every field, so no
        determinant is expanded.  It reads the integer columns of the
        images, which span the same subspaces.  The verdict depends only
        on a and the shapes alive there, so it is read from the module's
        `verdicts` first, and kept there while every record of this
        family is still in `shapes`.
        """
        gm, records = self.module, self._records
        for a, alive in self.columns.items():
            key = (a, *map(records.__getitem__, alive))
            full = gm.verdicts.get(key)
            if full is None:
                families = [image.integral().columns for image in self.images[a]]
                full = len(max_independent_transversal(self.field, len(alive), families)) == len(alive)
                if self._verdicts is gm.verdicts:
                    gm.remember_verdict(key, full)
            if not full:
                return a
        return None

    @cached_property
    def exponent_bound(self) -> int:
        """The most matrices A_a any one variable appears in: a bound B on
        its exponent in the product of the determinants, each squarefree.
        The unified check expands that product only when B >= q, and the
        witness search walks the stages {1..s}, s <= B+1, only when the
        field has more than B+1 elements.  Y[i,j] appears in A_a iff
        column j of image i is nonzero, which depends only on summand
        i's shape (`ShapeRecord.exponent_count`)."""
        return max((record.exponent_count for record in self._records), default=0)

    def packed_det(self, a: tuple) -> dict:
        """det A_a as {bitmask of variable positions: coefficient}.

        Cofactor expansion column by column, keeping one partial sum per
        set of rows used so far.  Column i holds only summand i's
        variables, so each monomial is squarefree and multiplying by an
        entry term is a bitwise or.  Coefficients are the images' own
        entries: ints reduced mod p after each column over GF(p), Fractions
        over Q.  Raises ResourceLimitError once the partial sums hold more
        than DEFAULT_TERM_BUDGET terms.  Only the GF(q) reduced product
        (`check_finite`, once per degree) and `det` call this, so nothing
        is cached.
        """
        p = self.field.modulus
        layer = {0: {0: self.field.one}}
        for i, image in zip(self.columns[a], self.images[a]):
            base = self._offsets[i]
            rows = []
            for r, row in enumerate(image.entries):
                terms = [(1 << (base + j), c) for j, c in enumerate(row) if c]
                if terms:
                    rows.append((r, terms, [(bit, -c) for bit, c in terms]))
            nxt: dict[int, dict] = {}
            held = 0
            for used, poly in layer.items():
                for r, terms, negated in rows:
                    if used >> r & 1:
                        continue
                    # one inversion for each used row after r
                    signed = negated if (used >> r).bit_count() & 1 else terms
                    target = nxt.setdefault(used | 1 << r, {})
                    before = len(target)
                    for mono, c in poly.items():
                        for bit, e in signed:
                            key = mono | bit
                            target[key] = target.get(key, 0) + c * e
                        if held + len(target) - before > DEFAULT_TERM_BUDGET:
                            raise ResourceLimitError(
                                f"the determinant at degree {a} exceeded the term budget "
                                f"of {DEFAULT_TERM_BUDGET} while expanding"
                            )
                    held += len(target) - before
            layer = {}
            for used, poly in nxt.items():
                poly = {m: c % p for m, c in poly.items() if c % p} if p else {m: c for m, c in poly.items() if c}
                if poly:
                    layer[used] = poly
        return next(iter(layer.values()), {})

    def det(self, a: tuple) -> Poly:
        """det A_a as a Poly, converted from `packed_det`."""
        variables = self.variables
        return Poly(self.field, {
            tuple((variables[k], 1) for k in range(mask.bit_length()) if mask >> k & 1): c
            for mask, c in self.packed_det(a).items()
        })

    def evaluate_at(self, a: tuple, assignment) -> Matrix:
        """The numeric matrix A_a(y)."""
        columns = []
        for i, image in zip(self.columns[a], self.images[a]):
            try:
                y = [assignment[(i, j)] for j in range(self.summand_dims[i])]
            except KeyError as exc:
                raise UnboundVariableError(f"no value assigned to {var_name(exc.args[0])}") from None
            columns.append(image.apply(y))
        return Matrix.from_columns(self.field, columns)


def build_matrices(gm: GradedModule, d: HilbertDecomposition) -> SymbolicMatrixFamily:
    return SymbolicMatrixFamily(gm, d)


@dataclass(frozen=True)
class CheckReport:
    verdict: str  # "induced" | "not_induced"
    mode: str
    failing_degree: tuple | None = None
    p_tilde_zero: bool | None = None
    detail: str = ""

    @property
    def induced(self) -> bool:
        return self.verdict == "induced"

    def verdict_line(self) -> str:
        """`verdict (failing degree a) [detail]`, each part only when known:
        the one form every command and error message gives a verdict in."""
        line = self.verdict
        if self.failing_degree is not None:
            line += f" (failing degree {','.join(str(x) for x in self.failing_degree)})"
        if self.detail:
            line += f" [{self.detail}]"
        return line


def check_infinite(fam: SymbolicMatrixFamily) -> CheckReport:
    """Induced iff no determinant is the zero polynomial (infinite field),
    decided by independent transversals."""
    if fam.field.is_finite():
        raise ModeError("per-degree checks need an infinite field: they do not glue over finite fields")
    a = fam.first_singular_degree
    return CheckReport("induced" if a is None else "not_induced", "transversal", a)


def _reduced_product(product: dict, factor: dict, q: int) -> dict:
    """product * factor with every exponent reduced by Y^q = Y.

    `product` maps exponent words to coefficients: variable k's exponent
    sits in bits [k*w, (k+1)*w) with w = q.bit_length(), so a field can
    hold q before it is reduced.  `factor` is a packed determinant
    (squarefree masks, one bit per variable).  Exponents already reduced
    lie in 1..q-1, and multiplying by a variable raises one by 1; the only
    exponent that needs reducing is q, which becomes 1.
    """
    w = q.bit_length()
    terms = []
    for mask, d in factor.items():
        spread = 0
        while mask:
            low = mask & -mask
            spread |= 1 << ((low.bit_length() - 1) * w)
            mask ^= low
        high = spread << (w - 1)
        terms.append((spread, spread * q, ~high, high - spread, high, d))
    out: dict[int, int] = {}
    for word, c in product.items():
        for spread, at_q, not_high, low_ones, high, d in terms:
            x = word + spread
            y = x ^ at_q  # a field of y is zero where x holds q
            full = ((~(((y & not_high) + low_ones) | y)) & high) >> (w - 1)
            x -= (q - 1) * full
            acc = (out.get(x, 0) + c * d) % q
            if acc:
                out[x] = acc
            else:
                out.pop(x, None)
        if len(out) > DEFAULT_TERM_BUDGET:
            raise ResourceLimitError(f"polynomial exceeded the term budget of {DEFAULT_TERM_BUDGET}")
    return out


def check_finite(fam: SymbolicMatrixFamily) -> CheckReport:
    """Induced iff the reduced product of all determinants is nonzero
    (field with q elements)."""
    if not fam.field.is_finite():
        raise ModeError("the reduced-product criterion needs a finite field")
    q = fam.field.cardinality
    product = {0: fam.field.one}
    for a in fam.degrees():
        try:
            factor = fam.packed_det(a)
            if factor:
                product = _reduced_product(product, factor, q)
        except ResourceLimitError as exc:
            raise ResourceLimitError(f"{exc}; the determinant product is too large to expand") from exc
        if not factor:
            return CheckReport("not_induced", "finite", failing_degree=a, p_tilde_zero=True)
        if not product:
            return CheckReport("not_induced", "finite", p_tilde_zero=True,
                               detail=f"reduced product vanishes after degree {a}")
    return CheckReport("induced", "finite", p_tilde_zero=False)


def check_unified(fam: SymbolicMatrixFamily) -> CheckReport:
    """One check for both field kinds.

    When the exponent bound stays below the field size, exponent
    reduction cannot change the product and per-factor nonzeroness
    decides; otherwise fall back to the expanded finite-field computation.
    """
    if not fam.field.is_finite():
        report = check_infinite(fam)
        return CheckReport(report.verdict, "unified", report.failing_degree,
                           detail="infinite field; per-factor determinants")
    q = fam.field.cardinality
    bound = fam.exponent_bound
    if bound < q:
        a = fam.first_singular_degree
        return CheckReport("induced" if a is None else "not_induced", "unified", a, a is not None,
                           detail=f"per-factor determinants (exponent bound {bound} < {q})")
    report = check_finite(fam)
    return CheckReport(report.verdict, "unified", report.failing_degree, report.p_tilde_zero,
                       detail=f"expanded product (exponent bound {bound} >= {q})")


def check_transversal(gm: GradedModule, d: HilbertDecomposition) -> CheckReport:
    """`check_infinite` of the family of d: per-degree independent
    transversals of the summand image subspaces, polynomial-time even when
    the matrices are large.  Per-degree checks do not suffice over finite
    fields, so those are rejected.
    """
    return check_infinite(build_matrices(gm, d))


def check(
    gm: GradedModule,
    d: HilbertDecomposition,
    mode: str = "auto",
    fam: SymbolicMatrixFamily | None = None,
) -> CheckReport:
    """Whether d is induced; fam, when given, is the family of d.

    auto picks the core from the field: finite fields use the unified
    check, infinite fields `check_infinite`.  "unified" runs the unified
    check over any field.
    """
    if mode not in CHECK_MODES:
        raise InputFormatError(f"unknown check mode {mode!r}")
    if fam is None:
        fam = build_matrices(gm, d)
    if mode == "unified" or fam.field.is_finite():
        return check_unified(fam)
    return check_infinite(fam)


@dataclass(frozen=True)
class StanleyWitness:
    """An explicit specialization of the generic coefficients."""

    assignment: dict

    def to_json(self, field: Field) -> dict:
        return {var_name(v): field.to_str(val) for v, val in sorted(self.assignment.items())}


def _witness_failure(fam: SymbolicMatrixFamily, assignment) -> tuple | None:
    """First degree where A_a(y) drops rank, or None; the assignment
    binds every variable of fam.

    Column i of A_a(y) is the integer rows of image i dotted with
    summand i's vector y_i, itself made one block of `integral_rows`.
    Both scales are nonzero and act on one column, so they keep every
    rank.  A_a(y) is square, and it has full rank iff its
    `bareiss_determinant` is nonzero; its columns serve as the rows, as
    det A = det A^T.
    """
    vectors = [integral_rows(fam.field, ([assignment[(i, j)] for j in range(dim)],))[0]
               for i, dim in enumerate(fam.summand_dims)]
    for a in fam.degrees():
        columns = [[sum(map(mul, row, vectors[i])) for row in image.integral().rows]
                   for i, image in zip(fam.columns[a], fam.images[a])]
        if not bareiss_determinant(fam.field, columns):
            return a
    return None


def _assignment_failure(fam: SymbolicMatrixFamily, assignment: dict) -> tuple | None:
    """`_witness_failure` of an assignment that must bind exactly fam's variables."""
    needed = set(fam.variables)
    given = set(assignment)
    if needed - given:
        raise UnboundVariableError(
            f"witness misses {', '.join(var_name(v) for v in sorted(needed - given))}"
        )
    if given - needed:
        raise InputFormatError(
            f"witness assigns unknown {', '.join(var_name(v) for v in sorted(given - needed))}"
        )
    return _witness_failure(fam, assignment)


def verify_witness(gm: GradedModule, d: HilbertDecomposition, witness) -> tuple | None:
    """Re-check a witness from scratch: evaluate every A_a at the
    assignment on ints and test full rank by a Bareiss determinant
    (`_witness_failure`).  None on success, else the first failing
    degree."""
    assignment = witness.assignment if isinstance(witness, StanleyWitness) else dict(witness)
    return _assignment_failure(build_matrices(gm, d), assignment)


def extract_witness(
    gm: GradedModule,
    d: HilbertDecomposition,
    fam: SymbolicMatrixFamily | None = None,
    check_first: bool = True,
) -> StanleyWitness:
    """The lexicographically first witness of the first stage that holds one.

    B is the family's exponent bound and q the field's size (math.inf
    over Q).  If q > B+1 the stages are s = 1, ..., B+1, stage s drawing
    every coordinate from {1, ..., s}; otherwise the one stage is the
    whole field {0, ..., q-1} in field order.  Every stage tries only
    summand vectors whose first nonzero coordinate is 1.  The rule is
    exact: A_a is linear in each column, so the product of the
    determinants is homogeneous in each summand's block, and setting
    every summand's first coordinate to 1 leaves a nonzero polynomial of
    degree <= B in each remaining variable; when q > B+1, {1, ..., B+1}
    are B+1 distinct field elements, so the Combinatorial
    Nullstellensatz (Alon 1999) puts a witness in the last stage; when
    q <= B+1 the one stage is the whole field, and scaling a summand's
    vector makes its first nonzero coordinate 1 without changing any
    rank.  Each stage is one `_search`, and its witness is re-verified by
    `_witness_failure`'s Bareiss determinants, not by the search's
    elimination.
    """
    if fam is None:
        fam = build_matrices(gm, d)
    if check_first:
        report = check(gm, d, fam=fam)
        if not report.induced:
            raise WitnessNotFoundError(f"no witness exists: {report.verdict_line()}")
    if fam.first_singular_degree is not None:
        raise WitnessNotFoundError("no witness exists: a determinant vanishes identically")
    bound, q = fam.exponent_bound, fam.field.cardinality
    stages = [range(1, s + 1) for s in range(1, bound + 2)] if q > bound + 1 else [range(q)]
    for values in stages:
        candidate = _search(fam, list(values))
        if candidate is not None:
            return candidate
    raise WitnessNotFoundError(f"no witness exists over {fam.field!r}")


def _search(fam: SymbolicMatrixFamily, values: list) -> StanleyWitness | None:
    """Depth-first search over the summands' coefficient vectors, each
    taken from values^dim in lexicographic order.

    `values` are ints: one stage of `extract_witness`.  A summand's
    column at a degree is the integer rows of its image there
    (`Matrix.integral`, a column scale that keeps every rank) dotted
    with its vector.  Every degree keeps an
    `IntegerEchelon` of the columns fixed so far: a summand's columns are
    pushed when its vector is fixed and popped when the search backs up
    past it.  A vector is fixed only when its column at every degree
    where its summand is alive grows the echelon there; no completion
    can otherwise give that matrix full rank.  A summand's vector is
    itself fixed one coordinate at a time.  Once a degree has rejected
    one of its vectors, a prefix is cut when at that degree the column
    the fixed coordinates give lies in the echelon's span, and so does
    the image column of every coordinate still free: each completion's
    column then lies in the span too.  So the first complete assignment
    is the lexicographically first witness.  A vector whose first
    nonzero coordinate is not 1 is skipped untried, over every field
    (`extract_witness` says why).  The stacks hold one iterator per
    fixed summand and one per fixed coordinate, so the depth is not
    bounded by the recursion limit; every prefix tried counts against
    DEFAULT_SEARCH_BUDGET.
    """
    f = fam.field
    dims = fam.summand_dims
    alive_at: list[list] = [[] for _ in dims]
    for k, a in enumerate(fam.degrees()):
        for i, image in zip(fam.columns[a], fam.images[a]):
            alive_at[i].append((k, image.integral().rows))
    bases = [IntegerEchelon(f, fam.module.dim(a)) for a in fam.degrees()]
    tried = 0

    def vectors(i):
        """Summand i's vectors in lexicographic order that grow every
        echelon it is alive at, each yielded with its columns pushed and
        popped again when the search resumes it; at each degree that has
        rejected one of them, a prefix no completion saves is cut."""
        nonlocal tried
        alive = [(bases[k], rows) for k, rows in alive_at[i]]
        cuts = {}  # alive position -> (the shortest prefix whose free columns all lie in the span, echelon, rows)
        y: list = []
        coordinates = [iter(values)]
        while coordinates:
            x = next(coordinates[-1], None)
            if x is None:
                coordinates.pop()
                if y:
                    y.pop()
                continue
            if x != 1 and x and not any(y):
                continue
            tried += 1
            if tried > DEFAULT_SEARCH_BUDGET:
                raise ResourceLimitError(
                    f"witness search exceeded the budget of {DEFAULT_SEARCH_BUDGET} candidates"
                )
            y.append(x)
            if len(y) < dims[i]:
                if not (cuts and any(m <= len(y) and echelon.spans([sum(map(mul, row, y)) for row in rows])
                                     for m, echelon, rows in cuts.values())):
                    coordinates.append(iter(values))
                    continue
            else:
                grown = []
                for j, (echelon, rows) in enumerate(alive):
                    if not echelon.push([sum(map(mul, row, y)) for row in rows]):
                        if dims[i] > 1 and j not in cuts:  # a one-coordinate vector has no prefix to cut
                            cuts[j] = (_free_span_start(echelon, rows, dims[i]), echelon, rows)
                        break
                    grown.append(echelon)
                else:
                    yield tuple(y)
                for echelon in grown:
                    echelon.pop()
            y.pop()

    chosen: list[tuple] = []
    stack = [vectors(0)] if dims else []
    while stack:
        del chosen[len(stack) - 1:]
        y = next(stack[-1], None)
        if y is None:
            stack.pop()
            continue
        chosen.append(y)
        if len(chosen) == len(dims):
            break
        stack.append(vectors(len(chosen)))
    if len(chosen) < len(dims):
        return None
    found = {(i, j): f.from_int(x) for i, y in enumerate(chosen) for j, x in enumerate(y)}
    failing = _witness_failure(fam, found)
    if failing is not None:
        raise AssertionError(f"search returned a non-witness failing at {failing}")
    return StanleyWitness(found)


def _free_span_start(echelon: IntegerEchelon, rows: list, dim: int) -> int:
    """The least m such that the columns m..dim-1 of rows all lie in the
    echelon's span."""
    m = dim
    while m and echelon.spans([row[m - 1] for row in rows]):
        m -= 1
    return m


@dataclass(frozen=True)
class SdepthResult:
    value: object  # int, or math.inf for the zero module
    decomposition: HilbertDecomposition
    witness: StanleyWitness | None


def sdepth(gm: GradedModule, with_witness: bool = True) -> SdepthResult:
    """Largest s such that some depth-s interval partition of the
    truncated series is induced by a Stanley decomposition: the first
    induced item of `partitions_by_depth`.  For the zero module that is
    the empty partition, induced with the empty witness.

    Searching box-truncated decompositions is lossless: every Stanley
    decomposition re-truncates to one of them with no smaller depth.

    Over GF(q) with exponent bound B >= q, a partition is induced iff
    some point of the field makes every A_a nonsingular, which is what
    the witness search over the whole field looks for.  There the search
    decides instead of `check`, which would expand the determinant
    product: a tight partition has many summands, and its product can
    pass the term budget.
    """
    for s, partition in partitions_by_depth(gm):
        d = partition_to_decomposition(partition, gm.g)
        fam = build_matrices(gm, d)
        searched = fam.exponent_bound >= fam.field.cardinality
        if not searched and not check(gm, d, fam=fam).induced:
            continue
        try:
            witness = extract_witness(gm, d, fam=fam, check_first=False) if with_witness or searched else None
        except WitnessNotFoundError:
            continue
        return SdepthResult(s, d, witness if with_witness else None)
    raise AssertionError("the all-singletons partition at s = 0 is always induced")


# ---------------------------------------------------------------------------
# certificates
#
# {"format": "stanleydepth-certificate/1",
#  "basis_convention": "echelon-unit-cosets/1",
#  "field": "Q" | {"Fp": p},
#  "g": [..],
#  "decomposition": {"summands": [{"vars": [..], "shift": [..]}, ..]},  (ordered)
#  "witness": {"Y[i,j]": "scalar", ..}}

CERTIFICATE_FORMAT = "stanleydepth-certificate/1"


def certificate_json(gm: GradedModule, d: HilbertDecomposition, witness: StanleyWitness) -> dict:
    summands = [
        {"vars": [j + 1 for j in sorted(zset)], "shift": list(shift)}
        for zset, shift in d.summands
    ]
    return {
        "format": CERTIFICATE_FORMAT,
        "basis_convention": BASIS_CONVENTION,
        "field": gm.field.to_json(),
        "g": list(gm.g),
        "decomposition": {"summands": summands},
        "witness": witness.to_json(gm.field),
    }


def verify_certificate(gm: GradedModule, cert: dict) -> tuple[bool, str]:
    """Re-check a certificate from scratch against the module.

    Returns (True, message) when the decomposition validates and the
    witness gives full rank at every degree; (False, reason) when the
    certificate is rejected as a verdict.  Malformed certificates raise.
    """
    if not isinstance(cert, dict) or cert.get("format") != CERTIFICATE_FORMAT:
        raise InputFormatError(f"not a {CERTIFICATE_FORMAT} certificate")
    if cert.get("basis_convention") != BASIS_CONVENTION:
        raise InputFormatError(
            f"certificate uses basis convention {cert.get('basis_convention')!r}, "
            f"this build uses {BASIS_CONVENTION!r}"
        )
    cert_field = field_from_json(cert.get("field", "Q"))
    if cert_field != gm.field:
        raise InputFormatError(f"certificate field {cert_field!r} does not match module field {gm.field!r}")
    if dg.as_degree(cert.get("g", ())) != gm.g:
        raise InputFormatError(f"certificate g {cert.get('g')} does not match module g {list(gm.g)}")
    if "decomposition" not in cert:
        raise InputFormatError("certificate has no decomposition")
    d = decomposition_from_json(cert["decomposition"], gm.g)
    try:
        fam = build_matrices(gm, d)
    except ValidationFailure as failure:
        return False, f"decomposition invalid: {failure.reason}"
    witness_obj = cert.get("witness")
    if not isinstance(witness_obj, dict):
        raise InputFormatError("certificate has no witness map")
    assignment, spelled = {}, {}
    for key, value in witness_obj.items():
        var = parse_var_name(key)
        if var in spelled:
            raise InputFormatError(f"witness assigns {var_name(var)} twice, as {spelled[var]!r} and {key!r}")
        spelled[var] = key
        assignment[var] = dg.as_scalar(gm.field, value)
    failing = _assignment_failure(fam, assignment)
    if failing is not None:
        return False, f"witness loses rank at degree {failing}"
    return True, ("witness gives full rank at every degree of "
                  f"[0, ({','.join(str(x) for x in gm.g)})]")
