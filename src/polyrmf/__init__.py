"""Random multiplicative functions at polynomial arguments.

Exact sieving and factor tables for polynomial values, squarefree-kernel
moment counts, Pell-type curve point enumeration, seeded Monte Carlo CLT
experiments on random multiplicative functions, and multi-scale fluctuation
scans.
"""
from .errors import DomainError, InfeasibleScaleError
from .poly import (
    IRREDUCIBLE_QUADRATIC,
    LINEAR_FACTORS,
    UNSUPPORTED,
    IntPolynomial,
    PolyClass,
    classify,
    fixed_divisor,
    is_admissible,
)
from .sieve import (
    LargestPrimeStats,
    ValueRecord,
    ValueTable,
    kappa_euler,
    largest_prime_stats,
    sieve_values,
    smooth_count,
)
from .moments import (
    GcdHistogram,
    MomentReport,
    fourth_moment_exact,
    gcd_class_histogram,
    mcleish_condition_sums,
    moment_report,
    second_moment_exact,
)
from .curves import CurveScanReport, exponent_scan, integral_points
from .rmf import CltReport, monte_carlo_clt
from .fluctuations import (
    FluctuationReport,
    PrimeClassSets,
    ScaleSet,
    build_prime_class_sets,
    lil_scan,
    scale_set,
    three_sum_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "InfeasibleScaleError",
    "IntPolynomial",
    "PolyClass",
    "LINEAR_FACTORS",
    "IRREDUCIBLE_QUADRATIC",
    "UNSUPPORTED",
    "classify",
    "fixed_divisor",
    "is_admissible",
    "ValueRecord",
    "ValueTable",
    "LargestPrimeStats",
    "sieve_values",
    "kappa_euler",
    "largest_prime_stats",
    "smooth_count",
    "MomentReport",
    "GcdHistogram",
    "second_moment_exact",
    "fourth_moment_exact",
    "mcleish_condition_sums",
    "moment_report",
    "gcd_class_histogram",
    "CurveScanReport",
    "integral_points",
    "exponent_scan",
    "CltReport",
    "monte_carlo_clt",
    "ScaleSet",
    "PrimeClassSets",
    "FluctuationReport",
    "scale_set",
    "build_prime_class_sets",
    "three_sum_decomposition",
    "lil_scan",
    "__version__",
]
