"""The public API of polyrmf, pinned name by name.

A name enters or leaves polyrmf.__all__ only by an edit of PUBLIC below, and
no package module may import the scalar oracles of tests/oracles.py.
"""
import ast
from pathlib import Path

import polyrmf

PUBLIC = [
    "CltReport",
    "CurveScanReport",
    "DomainError",
    "FluctuationReport",
    "GcdHistogram",
    "IRREDUCIBLE_QUADRATIC",
    "InfeasibleScaleError",
    "IntPolynomial",
    "LINEAR_FACTORS",
    "LargestPrimeStats",
    "MomentReport",
    "PolyClass",
    "PrimeClassSets",
    "ScaleSet",
    "UNSUPPORTED",
    "ValueRecord",
    "ValueTable",
    "__version__",
    "build_prime_class_sets",
    "classify",
    "exponent_scan",
    "fixed_divisor",
    "fourth_moment_exact",
    "gcd_class_histogram",
    "integral_points",
    "is_admissible",
    "kappa_euler",
    "largest_prime_stats",
    "lil_scan",
    "mcleish_condition_sums",
    "moment_report",
    "monte_carlo_clt",
    "scale_set",
    "second_moment_exact",
    "sieve_values",
    "smooth_count",
    "three_sum_decomposition",
]


def test_public_names_are_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(polyrmf.__all__) == PUBLIC
    assert len(set(polyrmf.__all__)) == len(polyrmf.__all__)


def test_every_public_name_resolves():
    missing = [name for name in polyrmf.__all__ if not hasattr(polyrmf, name)]
    assert missing == []


def test_no_package_module_imports_the_oracles():
    src = Path(polyrmf.__file__).resolve().parent
    modules = sorted(src.rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            assert not any("oracles" in name.split(".") for name in names), (path, node.lineno)
