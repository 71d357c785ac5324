"""Multi-scale decomposition behind the lower bound on sum fluctuations.

A geometric ladder of 16 scales is carved out of n <= 5000. At each scale
the construction keeps large primes that divide n^2 + 1 for exactly one
fresh n, giving disjoint prime sets and an exact three-way split of every
partial sum. Across trials, the piece carried by the fresh primes at each
scale is an independent block, so the maximum of the studentized blocks
beats the sqrt(log k) level far more often than any single block would.
"""
from polyrmf.fluctuations import build_prime_class_sets, lil_scan, scale_set


def main() -> None:
    scales = scale_set(64, 16, cap=5000)
    sets = build_prime_class_sets(scales, c=0.01)
    print("scale ladder:", scales.xs)
    print()
    print(f"{'i':>3} {'x_i':>5} {'|A_i|':>5} {'class1 sf rows':>14}")
    for i, x in enumerate(scales.xs):
        print(f"{i + 1:>3} {x:>5} {sets.sizes[i]:>5} {sets.class1_sf[i]:>14}")

    checks = sets.verify_invariants()
    print()
    print("set invariants:", "all hold" if all(checks.values()) else checks)

    rep = lil_scan(sets, trials=400, seed=0)
    u, frac = rep.threshold_fractions[0]
    print(f"classes 2 and 3 match direct sums on the first 64 trials: {rep.partition_exact}")
    print(f"fraction of trials with studentized max > {u:.3f}: {frac:.3f}")
    print("median studentized max:",
          f"{dict(rep.max_stat_quantiles)[0.5]:.3f}")


if __name__ == "__main__":
    main()
