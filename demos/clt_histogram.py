"""Monte Carlo check that S_N / sqrt(B_N) looks standard normal.

Runs 2000 independent copies of the random multiplicative function over
n^2 + 1 up to 10^4, prints the sample moments and the Kolmogorov-Smirnov
distance, and draws a terminal histogram against the normal density. The
complex (unit circle) model is summarized at the end.
"""
import math

from polyrmf.poly import IntPolynomial
from polyrmf.rmf import monte_carlo_clt
from polyrmf.sieve import sieve_values


def bar(count: int, scale: float) -> str:
    return "#" * max(0, round(count * scale))


def main() -> None:
    P = IntPolynomial((1, 0, 1))
    table = sieve_values(P, 10**4)
    rep = monte_carlo_clt(table, 2000, seed=0)
    print(f"P = {P}, N = 10^4, trials = {rep.trials}, seed = {rep.seed}")
    print(f"normalizer sqrt(B) = {rep.normalizer:.3f}")
    print(f"sample m2 = {rep.m2:.4f} (want 1)  m4 = {rep.m4:.4f} (want 3)")
    print(f"KS distance to N(0,1) = {rep.ks:.4f}")
    print()

    edges, counts = rep.hist_edges, rep.hist_counts
    total = sum(counts)
    width = edges[1] - edges[0]
    scale = 60.0 / max(counts)
    for i, c in enumerate(counts):
        mid = (edges[i] + edges[i + 1]) / 2
        if abs(mid) > 3.2:
            continue
        expect = total * width * math.exp(-mid * mid / 2) / math.sqrt(2 * math.pi)
        print(f"{mid:>6.2f} {bar(c, scale)}  ({c}, normal {expect:.0f})")

    srep = monte_carlo_clt(table, 2000, seed=0, model="steinhaus")
    print()
    print(f"complex model: mean |S/sqrt(N)|^2 = {srep.m2:.4f} (want 1), "
          f"mean = {srep.mean_real:+.4f}{srep.mean_imag:+.4f}i")


if __name__ == "__main__":
    main()
