"""mvamp: worst-case amplification of average-case matrix-vector solvers.

A solver that multiplies an n x n matrix by a vector over a prime field
correctly on only an alpha fraction of uniform inputs can be lifted to one
that is correct on every input with high probability, at an O(1/alpha^2)
overhead in solver calls. This package simulates that amplification with
explicit query accounting and ships the measurement harness around it.
"""

__version__ = "0.1.0"

from .field import PrimeField
from .linalg import FpMatrix, FpVector, matvec, random_matrix, random_vector
from .oracle import (
    SOURCE_ALG,
    SOURCE_MATRIX,
    SOURCE_SCRATCH,
    SOURCE_VECTOR,
    SOURCE_VERIFIER,
    MatrixOracleHandle,
    QueryLedger,
    VectorOracleHandle,
    extract_block,
    extract_subvector,
    pad_square_matrix,
    pad_vector,
    wrap_matrix,
    wrap_vector,
)
from .reduction import (
    ReductionConfig,
    ReductionOutcome,
    ReductionReport,
    ReductionRun,
    StageStats,
    boost,
    boost_rounds_for,
    choose_block_count,
    good_fraction_exhaustive,
    solve_block,
    solve_block_any_input,
    solve_strip,
    solve_strip_any_matrix,
    worst_case_matvec,
)
from .sampler import (
    BaseDomain,
    DenseSet,
    QueryGraph,
    check_sampler,
    lemma_condition,
    theorem_condition,
)
from .solver import (
    GoodBadProfile,
    NoisySolver,
    PlantedAdversarialProfile,
    SolverProfile,
    UniformProfile,
    exact_average_success,
    invoke,
)
from .verify import VerifierConfig, charged_queries, draw_challenges, verified_call, verify_product

__all__ = [
    "__version__",
    "PrimeField",
    "FpMatrix",
    "FpVector",
    "matvec",
    "random_matrix",
    "random_vector",
    "SOURCE_ALG",
    "SOURCE_MATRIX",
    "SOURCE_SCRATCH",
    "SOURCE_VECTOR",
    "SOURCE_VERIFIER",
    "MatrixOracleHandle",
    "QueryLedger",
    "VectorOracleHandle",
    "extract_block",
    "extract_subvector",
    "pad_square_matrix",
    "pad_vector",
    "wrap_matrix",
    "wrap_vector",
    "ReductionConfig",
    "ReductionOutcome",
    "ReductionReport",
    "ReductionRun",
    "StageStats",
    "boost",
    "boost_rounds_for",
    "choose_block_count",
    "good_fraction_exhaustive",
    "solve_block",
    "solve_block_any_input",
    "solve_strip",
    "solve_strip_any_matrix",
    "worst_case_matvec",
    "BaseDomain",
    "DenseSet",
    "QueryGraph",
    "check_sampler",
    "lemma_condition",
    "theorem_condition",
    "GoodBadProfile",
    "NoisySolver",
    "PlantedAdversarialProfile",
    "SolverProfile",
    "UniformProfile",
    "exact_average_success",
    "invoke",
    "VerifierConfig",
    "charged_queries",
    "draw_challenges",
    "verified_call",
    "verify_product",
]
