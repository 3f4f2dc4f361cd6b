"""Decide whether a Hilbert decomposition is induced by a Stanley
decomposition; extract and verify witnesses; compute Stanley depth.

For each degree a in [0, g] the decomposition yields a square matrix A_a:
one column per summand alive at a, with entries linear in the generic
coefficients Y[i,j] of summand i's generator written in the canonical
basis of M_(S_i).  The decomposition is induced iff the generic
generators can be specialized so that all A_a have full rank
simultaneously: over an infinite field this means every det A_a is a
nonzero polynomial; over GF(q) the product of the determinants must
survive the exponent reduction modulo Y^q = Y.  Over infinite fields the
per-degree rank condition is also equivalent to the existence of an
independent transversal of the subspaces X^(a-S_i) M_(S_i), which
`check_transversal` decides without symbolic determinants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from . import degrees as dg
from .errors import (
    InputFormatError,
    ModeError,
    PreconditionError,
    ResourceLimitError,
    UnboundVariableError,
    WitnessNotFoundError,
)
from .fields import Field, field_from_json
from .hilbert import (
    HilbertDecomposition,
    decomposition_from_json,
    enumerate_partitions,
    partition_to_decomposition,
    require_g_determined,
    truncated_series,
    validated_alive,
)
from .linalg import Matrix
from .modules import GradedModule
from .polynomials import (
    Poly,
    Var,
    det_symbolic,
    evaluate,
    parse_var_name,
    poly_mul,
    reduce_exponents,
    var_name,
)
from .transversal import max_independent_transversal

BASIS_CONVENTION = "echelon-unit-cosets/1"
DEFAULT_TERM_BUDGET = 10**6
DEFAULT_SEARCH_BUDGET = 10**6
SYMBOLIC_SIZE_LIMIT = 6
CHECK_MODES = ("auto", "unified")


class _InvalidDecomposition(PreconditionError):
    """A decomposition that fails validation; `failure` says where."""

    def __init__(self, failure):
        super().__init__(f"not a Hilbert decomposition of the module: {failure}")
        self.failure = failure


class SymbolicMatrixFamily:
    """The matrices A_a of one decomposition, indexed by degree.

    The constructor validates the decomposition with one alive-summand
    walk and keeps, for every degree a with alive summands, their indices
    (`columns[a]`) and the images X^(a - shift) of their pieces
    (`images[a]`, power maps M_shift -> M_a).  Column i of A_a is image i
    applied to summand i's generic coefficients Y[i, *]; the Poly
    matrices and their determinants are built from the images on first
    use.
    """

    def __init__(self, gm: GradedModule, decomposition: HilbertDecomposition):
        alive, failure = validated_alive(decomposition, gm)
        if failure is not None:
            raise _InvalidDecomposition(failure)
        shifts = [shift for _z, shift in decomposition.summands]
        self.module = gm
        self.field: Field = gm.field
        self.summand_dims = tuple(gm.dim(shift) for shift in shifts)
        self.columns: dict[tuple, tuple[int, ...]] = {
            a: tuple(indices) for a, indices in alive.items() if indices
        }
        self.images: dict[tuple, list[Matrix]] = {
            a: [gm.power_map(shifts[i], a) for i in indices] for a, indices in self.columns.items()
        }
        self._det_cache: dict[tuple, Poly] = {}

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
        return sorted(self.columns)

    def det(self, a: tuple) -> Poly:
        a = tuple(a)
        cached = self._det_cache.get(a)
        if cached is None:
            cached = det_symbolic(self.matrices[a], self.field)
            self._det_cache[a] = cached
        return cached

    def max_dimension(self) -> int:
        """The largest dim M_a, which is the size of A_a."""
        return max((self.module.dim(a) for a in self.columns), default=0)

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


def _first_zero_det(fam: SymbolicMatrixFamily) -> tuple | None:
    """First degree whose determinant is the zero polynomial, or None."""
    return next((a for a in fam.degrees() if fam.det(a).is_zero()), None)


def check_infinite(fam: SymbolicMatrixFamily) -> CheckReport:
    """Induced iff no determinant is the zero polynomial (infinite field)."""
    if fam.field.is_finite():
        raise ModeError("the per-degree determinant criterion needs an infinite field")
    a = _first_zero_det(fam)
    return CheckReport("induced" if a is None else "not_induced", "symbolic", a)


def check_finite(fam: SymbolicMatrixFamily) -> CheckReport:
    """Induced iff the reduced product of all determinants is nonzero
    (field with q elements)."""
    if not fam.field.is_finite():
        raise ModeError("the reduced-product criterion needs a finite field")
    q = fam.field.cardinality
    product = Poly.one(fam.field)
    for a in fam.degrees():
        factor = fam.det(a)
        if factor.is_zero():
            return CheckReport("not_induced", "finite", failing_degree=a, p_tilde_zero=True)
        try:
            product = reduce_exponents(poly_mul(product, factor, DEFAULT_TERM_BUDGET), q)
        except ResourceLimitError as exc:
            raise ResourceLimitError(f"{exc}; the determinant product is too large to expand") from exc
        if product.is_zero():
            return CheckReport("not_induced", "finite", p_tilde_zero=True,
                               detail=f"reduced product vanishes after degree {a}")
    return CheckReport("induced", "finite", p_tilde_zero=False)


def check_unified(fam: SymbolicMatrixFamily) -> CheckReport:
    """One check for both field kinds.

    Every determinant is squarefree in the Y[i,j] (one column per
    summand, linear entries), so each variable's exponent in the expanded
    product is at most the number of matrices it appears in.  When that
    bound stays below the field size, exponent reduction cannot change
    the product and per-factor nonzeroness decides; otherwise fall back
    to the expanded finite-field computation.
    """
    if not fam.field.is_finite():
        report = check_infinite(fam)
        return CheckReport(report.verdict, "unified", report.failing_degree,
                           detail="infinite field; per-factor determinants")
    q = fam.field.cardinality
    occurrences: dict[Var, int] = {}
    for a in fam.degrees():
        seen = set()
        for row in fam.matrices[a]:
            for entry in row:
                seen.update(entry.variables())
        for v in seen:
            occurrences[v] = occurrences.get(v, 0) + 1
    bound = max(occurrences.values(), default=0)
    if bound < q:
        a = _first_zero_det(fam)
        return CheckReport("induced" if a is None else "not_induced", "unified", a, a is not None,
                           detail=f"per-factor determinants (exponent bound {bound} < {q})")
    report = check_finite(fam)
    return CheckReport(report.verdict, "unified", report.failing_degree, report.p_tilde_zero,
                       detail=f"expanded product (exponent bound {bound} >= {q})")


def _check_images(fam: SymbolicMatrixFamily) -> CheckReport:
    """Whether every A_a has an independent transversal of its image columns."""
    if fam.field.is_finite():
        raise ModeError(
            "the transversal check needs an infinite field: per-degree checks do "
            "not glue over finite fields"
        )
    for a in fam.degrees():
        dim = fam.module.dim(a)
        families = [image.columns() for image in fam.images[a]]
        if len(max_independent_transversal(fam.field, dim, families)) < dim:
            return CheckReport("not_induced", "transversal", failing_degree=a)
    return CheckReport("induced", "transversal")


def check_transversal(gm: GradedModule, d: HilbertDecomposition) -> CheckReport:
    """Per-degree independent transversals of the summand image subspaces.

    Equivalent to the determinant criterion over infinite fields, and
    polynomial-time even when the matrices are large.  Per-degree checks
    do not suffice over finite fields, so those are rejected.
    """
    return _check_images(build_matrices(gm, d))


def check(
    gm: GradedModule,
    d: HilbertDecomposition,
    mode: str = "auto",
    fam: SymbolicMatrixFamily | None = None,
) -> CheckReport:
    """Whether d is induced; fam, when given, is the family of d.

    auto picks the core from the field and the matrix sizes: finite
    fields use the unified check; infinite fields use symbolic
    determinants while every dim M_a is at most SYMBOLIC_SIZE_LIMIT, and
    independent transversals beyond that.  "unified" runs the unified
    check over any field.
    """
    if mode not in CHECK_MODES:
        raise InputFormatError(f"unknown check mode {mode!r}")
    if fam is None:
        fam = build_matrices(gm, d)
    if mode == "unified" or fam.field.is_finite():
        return check_unified(fam)
    if fam.max_dimension() > SYMBOLIC_SIZE_LIMIT:
        return _check_images(fam)
    return check_infinite(fam)


@dataclass(frozen=True)
class StanleyWitness:
    """An explicit specialization of the generic coefficients."""

    assignment: dict

    def to_json(self, field: Field) -> dict:
        return {var_name(v): field.to_str(val) for v, val in sorted(self.assignment.items())}


def _witness_failure(fam: SymbolicMatrixFamily, assignment) -> tuple | None:
    """First degree where A_a(y) drops rank, or None."""
    for a in fam.degrees():
        m = fam.evaluate_at(a, assignment)
        if m.rank() < m.nrows:
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
    assignment and test full rank.  None on success, else the first
    failing degree."""
    assignment = witness.assignment if isinstance(witness, StanleyWitness) else dict(witness)
    return _assignment_failure(build_matrices(gm, d), assignment)


def _det_prunes(fam: SymbolicMatrixFamily):
    """Determinant support sets for search pruning, if affordable."""
    if fam.max_dimension() > SYMBOLIC_SIZE_LIMIT:
        return None
    prunes = []
    for a in fam.degrees():
        det = fam.det(a)
        if det.is_zero():
            return "zero"
        prunes.append((tuple(sorted(det.variables())), det))
    return prunes


def extract_witness(
    gm: GradedModule,
    d: HilbertDecomposition,
    fam: SymbolicMatrixFamily | None = None,
    check_first: bool = True,
) -> StanleyWitness:
    """Deterministic witness search.

    Over the rationals, candidates are integer points enumerated by
    increasing maximum entry and lexicographically within each stage; a
    witness among {1, ..., D+1}^vars always exists when the decomposition
    is induced (D = number of degrees with a matrix), so the search
    terminates.  Over GF(q) the q^|vars| points are searched
    depth-first.  Both searches prune on vanishing determinants when the
    matrices are small enough to expand, and every candidate that
    survives is verified by exact rank checks.
    """
    if fam is None:
        fam = build_matrices(gm, d)
    if check_first:
        report = check(gm, d, fam=fam)
        if not report.induced:
            raise WitnessNotFoundError(
                f"no witness exists: decomposition is not induced ({report.mode} "
                f"check{f' fails at degree {report.failing_degree}' if report.failing_degree else ''})"
            )
    variables = fam.variables
    prunes = _det_prunes(fam)
    if prunes == "zero":
        raise WitnessNotFoundError("no witness exists: a determinant vanishes identically")

    if fam.field.is_finite():
        values = list(fam.field.elements())
        candidate = _search(fam, variables, prunes, values, require_max=None)
        if candidate is None:
            raise WitnessNotFoundError(f"no witness exists over {fam.field!r}")
        return candidate

    stages = len(fam.columns) + 1
    for stage in range(1, stages + 1):
        values = [fam.field.from_int(v) for v in range(1, stage + 1)]
        candidate = _search(fam, variables, prunes, values, require_max=values[-1] if stage > 1 else None)
        if candidate is not None:
            return candidate
    raise WitnessNotFoundError(
        "no witness within the guaranteed bound; the decomposition is not induced"
    )


def _search(fam, variables, prunes, values, require_max):
    """DFS in lexicographic order over the value grid; prune a branch as
    soon as some determinant has all variables assigned and evaluates to
    zero.  require_max skips points already tried at earlier stages.
    The stack holds, per depth, the index of the next value to try and
    whether a value above that depth equals require_max, so the depth is
    not bounded by the recursion limit."""
    f = fam.field
    n = len(variables)
    position = {v: i for i, v in enumerate(variables)}
    watched: dict[int, list] = {}
    if isinstance(prunes, list):
        for vars_, det in prunes:
            last = max((position[v] for v in vars_), default=-1)
            watched.setdefault(last, []).append(det)
    assignment: dict = {}
    tried = 0
    found = None
    stack = [[0, False]]
    while stack:
        i = len(stack) - 1
        k, has_max = stack[i]
        if i == n:
            stack.pop()
            if require_max is not None and not has_max:
                continue
            tried += 1
            if tried > DEFAULT_SEARCH_BUDGET:
                raise ResourceLimitError(
                    f"witness search exceeded the budget of {DEFAULT_SEARCH_BUDGET} candidates"
                )
            if isinstance(prunes, list) or _witness_failure(fam, assignment) is None:
                found = dict(assignment)
                break
            continue
        if k == len(values):
            stack.pop()
            del assignment[variables[i]]
            continue
        stack[i][0] = k + 1
        value = values[k]
        assignment[variables[i]] = value
        if not any(f.is_zero(evaluate(det, assignment)) for det in watched.get(i, ())):
            stack.append([0, has_max or value == require_max])
    if found is None:
        return None
    failing = _witness_failure(fam, found)
    if failing is not None:
        raise AssertionError(f"search returned a non-witness failing at {failing}")
    return StanleyWitness(found)


@dataclass(frozen=True)
class SdepthResult:
    value: object  # int, or math.inf for the zero module
    decomposition: HilbertDecomposition
    witness: StanleyWitness | None
    partition: object = None


def sdepth(gm: GradedModule, with_witness: bool = True) -> SdepthResult:
    """Largest s such that some depth-s interval partition of the
    truncated series is induced by a Stanley decomposition.

    Searching box-truncated decompositions is lossless: every Stanley
    decomposition re-truncates to one of them with no smaller depth.
    """
    require_g_determined(gm)
    if gm.is_zero_module():
        return SdepthResult(math.inf, HilbertDecomposition([]), None)
    series = truncated_series(gm)
    for s in range(gm.n, -1, -1):
        for partition in enumerate_partitions(series, s):
            if partition.depth(gm.g) > s:
                continue  # enumerated, and refuted, at a higher level
            d = partition_to_decomposition(partition, gm.g)
            fam = build_matrices(gm, d)
            if check(gm, d, fam=fam).induced:
                witness = None
                if with_witness:
                    witness = extract_witness(gm, d, fam=fam, check_first=False)
                return SdepthResult(s, d, witness, partition)
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
    except _InvalidDecomposition as exc:
        return False, f"decomposition invalid: {exc.failure}"
    witness_obj = cert.get("witness")
    if not isinstance(witness_obj, dict):
        raise InputFormatError("certificate has no witness map")
    assignment = {parse_var_name(k): gm.field.parse(str(v)) for k, v in witness_obj.items()}
    failing = _assignment_failure(fam, assignment)
    if failing is not None:
        return False, f"witness loses rank at degree {failing}"
    return True, ("witness gives full rank at every degree of "
                  f"[0, ({','.join(str(x) for x in gm.g)})]")
