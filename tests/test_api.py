"""The public API of polyrmf, pinned name by name, and its import contract.

A name enters or leaves polyrmf.__all__ only by an edit of PUBLIC below, and
no package module may import the scalar oracles of tests/oracles.py. Only rmf
and fluctuations import scipy, and neither `import polyrmf` nor the commands
that never sum f import those two.
"""
import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import polyrmf

SRC = Path(polyrmf.__file__).resolve().parent
MODULES = ("errors", "intmath", "poly", "sieve", "moments", "curves", "rmf", "fluctuations")
SCIPY_MODULES = ("polyrmf.rmf", "polyrmf.fluctuations")

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


def test_every_public_name_is_its_defining_module_attribute():
    homes = {}
    for m in MODULES:
        module = importlib.import_module(f"polyrmf.{m}")
        for name, obj in vars(module).items():
            if callable(obj) and getattr(obj, "__module__", None) == module.__name__:
                homes[name] = module
    homes.update(dict.fromkeys(("IRREDUCIBLE_QUADRATIC", "LINEAR_FACTORS", "UNSUPPORTED"),
                               polyrmf.poly))
    for name in polyrmf.__all__:
        if name != "__version__":
            assert getattr(polyrmf, name) is getattr(homes[name], name), name


def test_submodules_are_attributes_and_unknown_names_are_not():
    for m in MODULES:
        assert getattr(polyrmf, m) is importlib.import_module(f"polyrmf.{m}")
    for name in ("no_such_name", "_sum_squares", "trial_sums"):
        with pytest.raises(AttributeError):
            getattr(polyrmf, name)


def _module_level_imports(path: Path) -> list[str]:
    """The dotted names a package module imports when it is itself imported.

    Imports inside function bodies run only when the function does, so they
    are left out; class bodies and top-level if/try blocks run at import.
    """
    found, pending = [], list(ast.parse(path.read_text(), filename=str(path)).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(p for p in ("polyrmf", base) if p)
            found += [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            pending += ast.iter_child_nodes(node)
    return found


def test_only_rmf_and_fluctuations_import_scipy_and_cli_reaches_neither():
    graph = {
        "polyrmf" if path.stem == "__init__" else f"polyrmf.{path.stem}":
            _module_level_imports(path)
        for path in sorted(SRC.glob("*.py"))
    }
    for module, names in graph.items():
        if module not in SCIPY_MODULES:
            assert not [n for n in names if n.split(".")[0] == "scipy"], module
    for start in ("polyrmf", "polyrmf.cli"):
        # every package module that importing start imports, directly or not
        reached, pending = set(), [start]
        while pending:
            module = pending.pop()
            if module not in reached:
                reached.add(module)
                pending += [n for n in graph[module] if n in graph]
        assert not reached & set(SCIPY_MODULES), (start, sorted(reached))
    # start-up cost: importing the CLI, the last start, loads no third-party
    # package but numpy
    third_party = {n.split(".")[0] for m in reached for n in graph[m]}
    assert third_party - {"polyrmf"} - sys.stdlib_module_names == {"numpy"}, sorted(reached)


_IMPORT_PROBE = """
import json, os, sys
from polyrmf.cli import main

def run(*argv):
    assert main([*argv, "--output", os.devnull]) == 0, argv

run("kappa", "--poly", "1,0,1", "--prime-bound", "1000")
run("sieve-dump", "--poly", "1,0,1", "--n-max", "50")
run("moments", "--poly", "1,0,1", "--n-max", "50")
run("quadruples", "--poly", "1,0,1", "--n-grid", "50,100")
run("curves", "--poly", "1,0,1", "--n-grid", "50", "--ab-samples", "5")
run("smooth", "--x", "100", "--y", "5")
before = "scipy" in sys.modules
run("clt", "--poly", "1,0,1", "--n-max", "100", "--trials", "10")
print(json.dumps({"before_clt": before, "after_clt": "scipy" in sys.modules}))
"""


def test_commands_that_never_sum_f_do_not_import_scipy(src_env):
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=src_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"before_clt": False, "after_clt": True}


def test_no_package_module_imports_the_oracles():
    modules = sorted(SRC.rglob("*.py"))
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
