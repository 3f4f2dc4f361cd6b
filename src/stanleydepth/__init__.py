"""Exact Hilbert depth and Stanley depth for finitely generated
multigraded modules over polynomial rings.

Workflow: build a GradedModule from a presentation (or load one from
JSON), enumerate interval partitions of its truncated Hilbert series,
and decide which of the resulting Hilbert decompositions are induced by
Stanley decompositions, with extractable and independently verifiable
witnesses.
"""

from .errors import (
    BoxError,
    DimensionMismatchError,
    HomogeneityError,
    InputFormatError,
    ModeError,
    PreconditionError,
    RangeError,
    ResourceLimitError,
    ShapeError,
    StanleyDepthError,
    UnboundVariableError,
    WitnessNotFoundError,
)
from .fields import GF, QQ, Field, PrimeField, RationalField, field_from_name
from .hilbert import (
    HilbertDecomposition,
    HilbertPartition,
    Interval,
    TruncatedSeries,
    ValidationFailure,
    alive_summands,
    decomposition_from_json,
    decomposition_to_json,
    enumerate_partitions,
    hdepth,
    partition_to_decomposition,
    partitions_by_depth,
    truncated_series,
    validate_decomposition,
)
from .linalg import Matrix, Subspace
from .modules import (
    GradedModule,
    ModulePresentation,
    Relation,
    build,
    direct_sum,
    free,
    load_module_file,
    maximal_ideal,
    monomial_ideal,
    quotient_by_monomial_ideal,
)
from .polynomials import Poly, evaluate, reduce_exponents
from .polytope import (
    LinearSystem,
    build_hilbert_system,
    build_stanley_inequalities,
    check_u_vector,
    export_lp,
    export_sip,
    import_solution,
    parse_solution,
)
from .stanley import (
    CheckReport,
    StanleyWitness,
    SymbolicMatrixFamily,
    build_matrices,
    certificate_json,
    check,
    check_finite,
    check_infinite,
    check_transversal,
    check_unified,
    extract_witness,
    sdepth,
    verify_certificate,
    verify_witness,
)
from .transversal import max_independent_transversal

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
