"""factorlab: a deterministic integer-factorization laboratory.

Exact difference-of-squares searches with cycle accounting, partial-residue
bilinear factoring polynomials, one all-integer LLL for every basis (its
swap test screened by bit lengths and doubles, its answers exact) with a
certified property checker, a bivariate small-root solver, and a
reproducible experiment harness around them.
"""

from .fermat import (
    DegenerateDenominator,
    Exhausted,
    FermatReport,
    compute_initial_u,
    fermat_factor,
    residue_class_fermat,
    shifted_fermat,
)
from .harness import (
    Balance,
    BoundScanRow,
    Factorization,
    GenerationExhausted,
    Method,
    PipelineFailure,
    SemiprimeSpec,
    TrialRecord,
    bound_scan,
    experiment_run,
    factor_auto,
    gen_semiprime,
    run_pipeline,
)
from .lattice import (
    BoundsTooLarge,
    CoppersmithResult,
    DependentRows,
    LatticeFailure,
    ReducibleInput,
    check_reduction,
    coppersmith_bivariate,
    exhaustive_roots,
    gram_det,
    lll_reduce,
)
from .ntheory import (
    NotInvertible,
    PrimeModulus,
    SelectionExhausted,
    iroot,
    is_perfect_square,
    is_prime,
    isqrt,
    modinv,
    next_prime,
    select_modulus,
)
from .polybuild import (
    BilinearPoly,
    FactorCenter,
    PartialResidue,
    RootBounds,
    bound_margin,
    build_polynomial,
    is_reducible,
    poly_height,
    recover_factor,
    solve_companion_residue,
)

__version__ = "0.1.0"

__all__ = [
    "Balance",
    "BilinearPoly",
    "BoundScanRow",
    "BoundsTooLarge",
    "CoppersmithResult",
    "DegenerateDenominator",
    "DependentRows",
    "Exhausted",
    "FactorCenter",
    "Factorization",
    "FermatReport",
    "GenerationExhausted",
    "LatticeFailure",
    "Method",
    "NotInvertible",
    "PartialResidue",
    "PipelineFailure",
    "PrimeModulus",
    "ReducibleInput",
    "RootBounds",
    "SelectionExhausted",
    "SemiprimeSpec",
    "TrialRecord",
    "bound_margin",
    "bound_scan",
    "build_polynomial",
    "check_reduction",
    "compute_initial_u",
    "coppersmith_bivariate",
    "exhaustive_roots",
    "experiment_run",
    "factor_auto",
    "fermat_factor",
    "gen_semiprime",
    "gram_det",
    "iroot",
    "is_perfect_square",
    "is_prime",
    "is_reducible",
    "isqrt",
    "lll_reduce",
    "modinv",
    "next_prime",
    "poly_height",
    "recover_factor",
    "residue_class_fermat",
    "run_pipeline",
    "select_modulus",
    "shifted_fermat",
    "solve_companion_residue",
]
