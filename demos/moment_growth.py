"""Exact moments of the random sum S_N = sum of f(P(n)).

The second moment counts squarefree values; the fourth moment counts value
quadruples whose product is a perfect square. Writing the fourth moment as
3 B^2 - 2 F + off_diagonal isolates the pairing count from the genuinely
four-dimensional solutions, and the off-diagonal part shrinks relative to
N^2 as the range grows. The martingale condition sums printed last are the
quantities whose limits (1, 0, and at most s2^2) drive the normal limit.
"""
from polyrmf.moments import mcleish_condition_sums, moment_report
from polyrmf.poly import IntPolynomial
from polyrmf.sieve import sieve_values


def main() -> None:
    P = IntPolynomial((1, 0, 1))
    # one table at the largest cutoff; each smaller cutoff is a prefix of it
    table = sieve_values(P, 10_000)
    print(f"P = {P}")
    print()
    head = f"{'N':>5} {'B=m2':>6} {'m4':>10} {'diagonal':>10} {'off':>6} {'off/N^2':>9}"
    print(head)
    for N in (250, 500, 1000, 2000, 4000):
        r = moment_report(table.prefix(N))
        print(f"{N:>5} {r.second_moment:>6} {r.fourth_moment:>10} "
              f"{r.diagonal_term:>10} {r.off_diagonal:>6} "
              f"{r.off_diagonal / N**2:>9.5f}")

    print()
    print("martingale condition sums (normalized variance, fourth moment, cross):")
    # condition sums alone stay cheap; the exact fourth moment would not:
    # its kernel table grows with the square of its pruned core, about a
    # third of the squarefree rows for x^2 + 1
    for N in (1000, 10_000):
        s2, s4, cross = mcleish_condition_sums(table.prefix(N))
        print(f"  N={N:>6}: s2={s2!r}  s4={s4:.6f}  cross={cross:.6f}")


if __name__ == "__main__":
    main()
