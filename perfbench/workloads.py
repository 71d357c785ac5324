"""Seeded job lists for the benchmark workloads.

A workload seed fixes every polynomial constant, every RMF seed and (through
the curves seed) every curve pair; the program receives only the argv lists
built here.
"""
from __future__ import annotations

import random

WORKLOADS = ("tables", "exact", "clt", "fluctuations")

# The quadratics and the product of two linear factors are translates of
# x^2 + 1 and x(x + 1): P(x + s) with s from the seed. A translate has the
# same root counts modulo every prime, so factor counts, squarefree density
# and hence the work per job are the same for every seed up to the shift of
# the range, while the coefficients still change with it. With a free
# constant the work follows a's residues: moments at N = 3000 takes 0.4 s for
# x^2 + 7 (half its values are divisible by 8) and 1.4 s for x^2 + 1.
_MAX_SHIFT = 1000

# x^3 + x + a has the rational root -r exactly when a = r^3 + r; those a
# would move the cubic into another root-finding class.
_CUBIC_REDUCIBLE = {r**3 + r for r in range(1, 11)}


def quadratic(rng: random.Random) -> str:
    """(x + s)^2 + 1, constant term first."""
    s = rng.randrange(_MAX_SHIFT)
    return f"{s * s + 1},{2 * s},1"


def linear_product(rng: random.Random) -> str:
    """(x + b)(x + b + 1), constant term first."""
    b = rng.randrange(1, _MAX_SHIFT)
    return f"{b * (b + 1)},{2 * b + 1},1"


def cubic(rng: random.Random) -> str:
    a = rng.choice([a for a in range(1, 1000) if a not in _CUBIC_REDUCIBLE])
    return f"{a},1,0,1"


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1 << 31))


def _tables(rng, smoke):
    n_quad, n_cubic = (2000, 100) if smoke else (500_000, 1000)
    return [
        ["sieve-dump", "--poly", quadratic(rng), "--n-max", str(n_quad), "--max-rows", "1000"],
        ["sieve-dump", "--poly", linear_product(rng), "--n-max", str(n_quad), "--max-rows", "1000"],
        ["sieve-dump", "--poly", cubic(rng), "--n-max", str(n_cubic), "--max-rows", "1000"],
    ]


def _exact(rng, smoke):
    # kappa runs at the CLI default prime bound (10**5) unless smoke. It
    # allocates and frees about 10**4 arrays of up to 800 kB; glibc serves
    # them from fresh mmaps until a large free raises its mmap threshold, so
    # kappa takes about twice as long in a fresh process as after moments.
    # moments runs first so that every pass, the first included, sees the
    # same allocator state.
    kappa = ["kappa", "--poly", quadratic(rng)] + (["--prime-bound", "2000"] if smoke else [])
    n_moments, grid = (150, "200,400") if smoke else (3000, "4000,16000,64000")
    moments = ["moments", "--poly", quadratic(rng), "--n-max", str(n_moments)]
    return [
        moments,
        kappa,
        ["curves", "--poly", quadratic(rng), "--n-grid", grid, "--seed", _seed(rng)],
    ]


def _clt(rng, smoke):
    small, big, trials_small, trials_big = (
        (500, 2000, 50, 20) if smoke else (10_000, 100_000, 2000, 300)
    )
    out = []
    for model, n, trials in (("rademacher", small, trials_small),
                             ("steinhaus", small, trials_small),
                             ("rademacher", big, trials_big)):
        out.append(["clt", "--poly", quadratic(rng), "--n-max", str(n), "--trials", str(trials),
                    "--model", model, "--normalization", "exact", "--seed", _seed(rng)])
    return out


def _fluctuations(rng, smoke):
    base, scales, cap, trials = (16, 6, 5000, 30) if smoke else (64, 64, 100_000, 500)
    return [["fluctuations", "--base", str(base), "--scales", str(scales), "--cap", str(cap),
             "--trials", str(trials), "--verify", "--seed", _seed(rng)]]


_BUILDERS = {"tables": _tables, "exact": _exact, "clt": _clt, "fluctuations": _fluctuations}


def jobs(workload: str, seed: int, smoke: bool = False) -> list[list[str]]:
    """The argv list of every job in one pass of the workload."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, smoke)
