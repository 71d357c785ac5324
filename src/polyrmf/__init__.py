"""Random multiplicative functions at polynomial arguments.

Exact sieving and factor tables for polynomial values, squarefree-kernel
moment counts, Pell-type curve point enumeration, seeded Monte Carlo CLT
experiments on random multiplicative functions, and multi-scale fluctuation
scans.
"""
import importlib

__version__ = "0.1.0"

# each submodule and the public names it defines; both load on first access
_PUBLIC = {
    "errors": ("DomainError", "InfeasibleScaleError"),
    "intmath": (),
    "poly": ("IRREDUCIBLE_QUADRATIC", "LINEAR_FACTORS", "UNSUPPORTED", "IntPolynomial",
             "PolyClass", "classify", "fixed_divisor", "is_admissible"),
    "sieve": ("LargestPrimeStats", "ValueRecord", "ValueTable", "kappa_euler",
              "largest_prime_stats", "sieve_values", "smooth_count"),
    "moments": ("GcdHistogram", "MomentReport", "fourth_moment_exact", "gcd_class_histogram",
                "mcleish_condition_sums", "moment_report", "second_moment_exact"),
    "curves": ("CurveScanReport", "exponent_scan", "integral_points"),
    "rmf": ("CltReport", "monte_carlo_clt"),
    "fluctuations": ("FluctuationReport", "PrimeClassSets", "ScaleSet", "build_prime_class_sets",
                     "lil_scan", "scale_set", "three_sum_decomposition"),
}

__all__ = [name for names in _PUBLIC.values() for name in names] + ["__version__"]


def __getattr__(name):
    # PEP 562: only rmf and fluctuations import scipy, so `import polyrmf` imports
    # no submodule, and a name is read from its module at each access
    for module, names in _PUBLIC.items():
        if name == module or name in names:
            mod = importlib.import_module(f".{module}", __name__)
            return mod if name == module else getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
