"""End-to-end checks of every headline quantity at pinned tolerances.

Each test prints one PASS/FAIL line (visible under pytest -s) and then
asserts, so a red run still reports every criterion it reached.
"""
import math
import time

import numpy as np
import pytest
import sympy

from polyrmf.curves import exponent_scan, integral_points
from polyrmf.fluctuations import build_prime_class_sets, lil_scan, scale_set
from polyrmf.moments import (
    fourth_moment_exact,
    mcleish_condition_sums,
    moment_report,
    second_moment_exact,
)
from polyrmf.poly import IntPolynomial
from polyrmf.rmf import monte_carlo_clt
from polyrmf.sieve import kappa_euler, largest_prime_stats, sieve_values

GRID = (500, 1000, 2000, 4000)


@pytest.fixture(scope="module")
def poly():
    return IntPolynomial((1, 0, 1))


@pytest.fixture(scope="module")
def table_1e4(poly):
    return sieve_values(poly, 10**4)


@pytest.fixture(scope="module")
def grid_tables(poly):
    return {n: sieve_values(poly, n) for n in GRID}


def check(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_squarefree_density(poly):
    t0 = time.perf_counter()
    table = sieve_values(poly, 10**6)
    density = np.asarray(table.is_squarefree).mean()
    euler = kappa_euler(poly, prime_bound=10**5)
    wall = time.perf_counter() - t0
    ok = (
        abs(density - euler) <= 0.005
        and abs(density - 0.8948) <= 0.003
        and abs(euler - 0.8948) <= 0.003
        and wall < 60.0
    )
    check(1, ok, f"density={density:.6f} euler={euler:.6f} "
                 f"diff={abs(density - euler):.2e} wall={wall:.1f}s")


def _quadruple_prefix_oracle(coeffs, n_top):
    """Square-test count of value quadruples, for every range cutoff at once.

    Works from raw integer products and sympy factorizations only. Ordered
    pairs are sorted by their larger index; a double cumulative sum of the
    pairwise square-test matrix then gives every prefix count.
    """
    vals = [sum(c * n**i for i, c in enumerate(coeffs)) for n in range(1, n_top + 1)]
    rows = [i for i, v in enumerate(vals)
            if all(e == 1 for e in sympy.factorint(v).values())]
    v = np.array([vals[i] for i in rows], dtype=np.int64)
    m = np.array(rows, dtype=np.int64)
    pp = (v[:, None] * v[None, :]).ravel()
    pm = np.maximum(m[:, None], m[None, :]).ravel()
    order = np.argsort(pm, kind="stable")
    spp, spm = pp[order], pm[order]
    npairs = len(spp)
    sq = np.empty((npairs, npairs), dtype=bool)
    for s in range(0, npairs, 512):
        block = spp[s:s + 512, None] * spp[None, :]
        r = np.rint(np.sqrt(block.astype(np.float64))).astype(np.int64)
        sq[s:s + 512] = r * r == block
    S = sq.cumsum(axis=0, dtype=np.int32).cumsum(axis=1, dtype=np.int32)
    k = np.searchsorted(spm, np.arange(n_top), side="right")
    return {N: int(S[k[N - 1] - 1, k[N - 1] - 1]) if k[N - 1] else 0
            for N in range(1, n_top + 1)}


def test_criterion_2_quadruple_counts():
    bad = []
    for coeffs in [(1, 0, 1), (0, 1, 1), (0, 2, 1)]:
        P = IntPolynomial(coeffs)
        oracle = _quadruple_prefix_oracle(coeffs, 60)
        for N in range(1, 61):
            got = fourth_moment_exact(sieve_values(P, N))
            if got != oracle[N]:
                bad.append((coeffs, N, got, oracle[N]))
    check(2, not bad, f"3 polynomials x 60 cutoffs, mismatches={bad[:3]}")


def test_criterion_3_off_diagonal_decay(grid_tables):
    ratios = [moment_report(grid_tables[n]).off_diagonal / n**2 for n in GRID]
    slope = np.polyfit(np.log(GRID), np.log(ratios), 1)[0]
    ok = all(b <= a for a, b in zip(ratios, ratios[1:]))
    check(3, ok, "ratios=" + "/".join(f"{r:.4f}" for r in ratios)
                 + f" loglog_slope={slope:.3f}")


def test_criterion_4_normalized_moments(table_1e4):
    rep = monte_carlo_clt(table_1e4, 2000, seed=0)
    srep = monte_carlo_clt(table_1e4, 2000, seed=0, model="steinhaus")
    ok = (
        abs(rep.m2 - 1.0) <= 0.1
        and abs(rep.m4 - 3.0) <= 0.5
        and rep.ks <= 0.06
        and abs(srep.m2 - 1.0) <= 0.1
    )
    check(4, ok, f"m2={rep.m2:.4f} m4={rep.m4:.4f} ks={rep.ks:.4f} "
                 f"complex_m2={srep.m2:.4f}")


def test_criterion_5_martingale_condition_sums(table_1e4, grid_tables):
    s2_hi, s4_hi, cross_hi = mcleish_condition_sums(table_1e4)
    _, s4_lo, _ = mcleish_condition_sums(grid_tables[1000])
    ok = s2_hi == 1.0 and s4_hi < s4_lo and cross_hi <= 1.05
    check(5, ok, f"s2={s2_hi!r} s4={s4_hi:.5f} (was {s4_lo:.5f} at N=1e3) "
                 f"cross={cross_hi:.4f}")


def test_criterion_6_monte_carlo_anchoring(grid_tables):
    t = grid_tables[2000]
    rep = monte_carlo_clt(t, 2000, seed=0)
    b = second_moment_exact(t)
    f4 = fourth_moment_exact(t)
    rel2 = abs(rep.raw_m2 - b) / b
    rel4 = abs(rep.raw_m4 - f4) / f4
    ok = rel2 <= 0.10 and rel4 <= 0.15
    check(6, ok, f"var_rel_err={rel2:.4f} (tol 0.10) "
                 f"fourth_rel_err={rel4:.4f} (tol 0.15)")


def test_criterion_7_curve_counts(poly):
    pell = integral_points(poly, 1, 2, 100)
    scan = exponent_scan(poly, (10**4,), ab_samples=100, seed=0, ab_max=1000)
    ok = (
        sorted(pell) == [(3, 2), (17, 12), (99, 70)]
        and scan.max_count[0] <= 20
        and scan.diagonal_count[0] >= 10**4
    )
    check(7, ok, f"pell={sorted(pell)} scan_max={scan.max_count[0]} "
                 f"diagonal={scan.diagonal_count[0]}")


def test_criterion_8_largest_prime_proportion(poly):
    stats = largest_prime_stats(sieve_values(poly, 10**5))
    ok = stats.proportion_gt_n >= 0.49
    check(8, ok, f"fraction with largest prime factor > n: "
                 f"{stats.proportion_gt_n:.4f} (need >= 0.49)")


def test_criterion_9_fluctuation_machinery():
    scales = scale_set(1000, 64, cap=10**4)
    sets = build_prime_class_sets(scales, c=0.01)
    inv = sets.verify_invariants()
    rep = lil_scan(sets, trials=500, seed=0)
    u, frac = rep.threshold_fractions[0]
    ok = all(inv.values()) and rep.partition_exact and frac >= 0.9
    check(9, ok, f"invariants={'all ok' if all(inv.values()) else inv} "
                 f"partition_exact={rep.partition_exact} "
                 f"P(max>{u:.3f})={frac:.3f} (need >= 0.9, "
                 f"{len(rep.degenerate_scales)} degenerate scales)")
