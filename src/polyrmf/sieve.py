"""Exact factor tables for polynomial values over 1..N.

sieve_values finds, for every prime p up to sqrt(max value), the arithmetic
progressions n = r (mod p) on which p divides P(n) (via the root sets of P
mod p). It sieves the rows 1..N in segments of fixed length, as a segmented
sieve of Eratosthenes does (Bays and Hudson, BIT 17, 1977). In each segment
it strikes every progression with whole-array operations: one (row, p) hit
per member in the segment, then exact prime powers are divided out of all
hits at once, one more power of p per pass on the hits whose residual p
still divides. Whatever remains is either 1 or a single prime: a composite
leftover would need two prime factors above the sieve bound, exceeding the
value itself. Factor data is stored columnar (flat prime/exponent arrays
plus row offsets), written segment by segment into columns sized from the
known hit count, so the scratch memory stays bounded as N grows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .intmath import primes_up_to
from .poly import (
    IntPolynomial,
    count_roots_mod_prime_squares,
    is_admissible,
    roots_mod_primes,
    values,
)

# hard cap on the prime sieve bound; values whose square root exceeds this
# cannot be factored at acceptable cost. Every sieved value stays below
# (2**27 + 1)**2 < 2**55, so the table built from values is int64.
_MAX_SIEVE_BOUND = 1 << 27

# rows per sieve segment: the strike scratch of one segment is all that the
# sieve holds beside the table (2**15 was fastest from 2**12 to 2**20). At
# most 2**15: _sieve sorts a segment's 0-based rows as int16 keys.
_SEGMENT_ROWS = 1 << 15


@dataclass(frozen=True)
class ValueRecord:
    """One row of a value table.

    factors lists (prime, exponent) pairs in ascending prime order and
    multiplies out to value exactly. largest_prime is None only for value 1.
    """

    n: int
    value: int
    factors: tuple[tuple[int, int], ...]
    is_squarefree: bool
    largest_prime: int | None


class ValueTable:
    """Columnar table of ValueRecords for P(n), 1 <= n <= n_max.

    Every column is a numpy array: values, largest and flat_primes are int64.
    """

    def __init__(self, poly, n_max, values, is_sf, largest, flat_primes, flat_exps, row_ptr):
        self.poly = poly
        self.n_max = int(n_max)
        self.values = values
        self.is_squarefree = is_sf
        self.largest = largest  # 0 marks a unit value
        self.flat_primes = flat_primes
        self.flat_exps = flat_exps
        self.row_ptr = row_ptr
        self._prime_index = self._entry_rows = self._core = None

    def __len__(self) -> int:
        return self.n_max

    def record(self, n: int) -> ValueRecord:
        if not 1 <= n <= self.n_max:
            raise IndexError(f"n = {n} outside 1..{self.n_max}")
        i = n - 1
        lo, hi = int(self.row_ptr[i]), int(self.row_ptr[i + 1])
        factors = tuple(
            (int(self.flat_primes[j]), int(self.flat_exps[j])) for j in range(lo, hi)
        )
        lp = int(self.largest[i])
        return ValueRecord(
            n=n,
            value=int(self.values[i]),
            factors=factors,
            is_squarefree=bool(self.is_squarefree[i]),
            largest_prime=lp if lp else None,
        )

    def __iter__(self):
        for n in range(1, self.n_max + 1):
            yield self.record(n)

    def prime_index(self):
        """(distinct primes ascending, flat index into them) for vector work."""
        if self._prime_index is None:
            primes, inverse = np.unique(self.flat_primes, return_inverse=True)
            self._prime_index = (primes, inverse.astype(np.int64))
        return self._prime_index

    def entry_rows(self):
        """The 0-based row of every factor entry, cached beside prime_index."""
        if self._entry_rows is None:
            self._entry_rows = np.repeat(np.arange(self.n_max), np.diff(self.row_ptr))
        return self._entry_rows

    def core(self):
        """Boolean mask of the core rows, cached beside prime_index.

        The core is what is left of the squarefree rows once every row holding
        a prime that no other remaining row holds is dropped, round by round,
        as in singleton removal in number-field-sieve filtering (Cavallar,
        ANTS-IV, 2000). Every prime of a core row is held by at least two core
        rows; rows of value 1 hold no prime and always stay. A prefix peels
        its own rows: a row its parent keeps may hold a prime lone below n.

        Core lemma: under Rademacher f, the m dropped rows take i.i.d. uniform
        signs, independent of the core, so the sum of f over the squarefree
        rows is, in law, the sum over the core plus m i.i.d. signs. Proof:
        give each dropped row r_k a prime q_k that no row remaining in its
        round holds. Then q_k is held by r_k and by rows dropped in earlier
        rounds only, so the q_k are distinct and no core row holds one, and
        f(r_k) = f(q_k) * g_k with g_k a product over primes outside q_k and
        the q_j of rows dropped no later than r_k. Fix every sign off the
        q_k: the map from (f(q_k)) to (f(r_k)) is triangular with unit
        diagonal, a bijection of {+1, -1}^m. The same holds for any row set
        in which each row holds a prime no other row of the set holds.
        """
        if self._core is None:
            primes, ids = self.prime_index()
            keep = self.is_squarefree.copy()
            live = keep[self.entry_rows()]
            ids, owner = ids[live], self.entry_rows()[live]
            held = np.bincount(ids, minlength=len(primes))
            while (lone := held[ids] == 1).any():
                keep[owner[lone]] = False
                gone = ~keep[owner]
                held -= np.bincount(ids[gone], minlength=len(held))
                ids, owner = ids[~gone], owner[~gone]
            self._core = keep
        return self._core

    def prefix(self, n: int) -> ValueTable:
        """The table of rows 1..n: views of this table's columns, with caches of its own."""
        if not 1 <= n <= self.n_max:
            raise ValueError(f"prefix length {n} outside 1..{self.n_max}")
        end = self.row_ptr[n]
        return ValueTable(self.poly, n, self.values[:n], self.is_squarefree[:n], self.largest[:n],
                          self.flat_primes[:end], self.flat_exps[:end], self.row_ptr[: n + 1])


def multi_slice(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices covering [s, s+l) for each (s, l) pair, concatenated."""
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offs = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return np.arange(total, dtype=np.int64) - offs + np.repeat(starts, lengths)


def _sieve(P: IntPolynomial, N: int, vals: np.ndarray, ps: np.ndarray,
           rs: np.ndarray) -> ValueTable:
    # progression (p, r) holds the rows n = r (mod p); nxt is the 0-based
    # offset of its next row not yet struck
    nxt = (rs - 1) % ps
    # every hit, and at most one leftover prime per row
    size = int(((N - 1 - nxt) // ps + 1).sum()) + N
    flat_primes = np.empty(size, dtype=np.int64)
    flat_exps = np.empty(size, dtype=np.int16)
    row_ptr = np.zeros(N + 1, dtype=np.int64)
    sf = np.ones(N, dtype=bool)
    largest = np.zeros(N, dtype=np.int64)
    for lo in range(0, N, _SEGMENT_ROWS):
        hi = min(lo + _SEGMENT_ROWS, N)
        # one (row, p) hit for every row of the segment on a progression
        live = np.nonzero(nxt < hi)[0]
        step, first = ps[live], nxt[live] - lo
        counts = (hi - lo - 1 - first) // step + 1
        nxt[live] += counts * step
        primes = np.repeat(step, counts)
        rows = np.arange(len(primes), dtype=np.int64)
        rows -= np.repeat(np.cumsum(counts) - counts, counts)
        rows *= primes
        rows += np.repeat(first, counts)
        # divide out exact prime powers: p once per hit, then p again on the
        # hits whose residual it still divides, until none is left
        residual = vals[lo:hi].copy()
        np.floor_divide.at(residual, rows, primes)
        exps = np.ones(len(rows), dtype=np.int16)
        again = np.nonzero(residual[rows] % primes == 0)[0]
        while len(again):
            np.floor_divide.at(residual, rows[again], primes[again])
            exps[again] += 1
            again = again[residual[rows[again]] % primes[again] == 0]
        sf[lo + rows[exps > 1]] = False
        left = np.nonzero(residual > 1)[0]
        rows = np.concatenate([rows, left])
        primes = np.concatenate([primes, residual[left]])
        exps = np.concatenate([exps, np.ones(len(left), dtype=np.int16)])
        ptr = row_ptr[lo : hi + 1]
        np.cumsum(np.bincount(rows, minlength=hi - lo), out=ptr[1:])
        ptr[1:] += ptr[0]
        # the stable order by row: numpy radix-sorts 16-bit keys
        order = np.argsort(rows.astype(np.int16), kind="stable")
        flat_primes[ptr[0] : ptr[-1]] = primes[order]
        flat_exps[ptr[0] : ptr[-1]] = exps[order]
        nonempty = ptr[1:] > ptr[:-1]
        largest[lo:hi][nonempty] = flat_primes[ptr[1:][nonempty] - 1]
    # shrink in place: a copy would hold both columns at once
    flat_primes.resize(row_ptr[-1], refcheck=False)
    flat_exps.resize(row_ptr[-1], refcheck=False)
    return ValueTable(P, N, vals, sf, largest, flat_primes, flat_exps, row_ptr)


def sieve_values(P: IntPolynomial, N: int) -> ValueTable:
    """Factor P(n) for every 1 <= n <= N into a ValueTable.

    Raises DomainError unless P(n) >= 1 on the whole range; for polynomials
    dipping to zero or below, shift the argument (replace x by x + s) until
    values are positive.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    limit = (_MAX_SIEVE_BOUND + 1) ** 2  # smallest value needing a prime past the bound
    # the ends first: a range already past the limit there is refused unevaluated
    maxv = max(P(1), P(N))
    if maxv < limit:
        vals = values(P, 1, N + 1)
        arg = int(np.argmin(vals))
        if vals[arg] < 1:
            raise DomainError(
                f"P({arg + 1}) = {vals[arg]} is not positive; shift the polynomial "
                f"(replace x by x + s) so that values on [1, {N}] are at least 1"
            )
        maxv = int(vals.max())
    if maxv >= limit:
        raise DomainError(
            f"values reach {maxv}; sieving would need primes up to {math.isqrt(maxv)}, "
            f"beyond the supported bound {_MAX_SIEVE_BOUND}"
        )
    return _sieve(P, N, vals, *roots_mod_primes(P, primes_up_to(math.isqrt(maxv))))


def kappa_euler(P: IntPolynomial, prime_bound: int = 100_000) -> float:
    """Truncated Euler product for the squarefree density of P's values.

    Product over primes p <= prime_bound of (1 - rho(p^2)/p^2), where rho
    counts roots of P modulo p^2. The product is truncated at prime_bound and
    no bound on the error of the truncation is given: large coefficients can
    move it far, e.g. for x^2 + M^2 with M the product of the primes in
    (10**5, 1.03 * 10**5) the value at prime_bound = 10**5 is 0.26% off.
    Requires an admissible polynomial; otherwise some factor vanishes and
    the product is meaningless. Raises DomainError for an inadmissible
    polynomial, and when is_admissible cannot decide (a fixed divisor of at
    least 2**63 whose part free of primes up to 2**21 is at least 2**63).
    """
    if not is_admissible(P):
        raise DomainError("polynomial is inadmissible: some p^2 divides every value")
    primes = primes_up_to(prime_bound)
    rho = count_roots_mod_prime_squares(P, primes)
    # one factor per prime, multiplied left to right as accumulate does
    factors = 1.0 - rho / (primes * primes)
    return float(np.multiply.accumulate(factors)[-1]) if len(factors) else 1.0


@dataclass(frozen=True)
class LargestPrimeStats:
    """Distribution summary of the largest prime factor over a table."""

    n_max: int
    c: float
    proportion_gt_n: float
    proportion_gt_nlogn: float
    hist_edges: tuple[float, ...]
    hist_counts: tuple[int, ...]


def largest_prime_stats(table: ValueTable, c: float = 0.01) -> LargestPrimeStats:
    """Summaries of P+(P(n)) against n: how often it beats n and c*n*log n.

    Unit values count as never exceeding. The histogram collects
    log P+ / log n over n >= 2.
    """
    N = table.n_max
    n = np.arange(1, N + 1, dtype=np.float64)
    lp = table.largest.astype(np.float64)
    gt_n = lp > n
    with np.errstate(divide="ignore"):
        logn = np.log(n)
    logn[0] = 0.0
    gt_nlogn = lp > c * n * logn
    gt_nlogn &= lp > 0
    mask = (n >= 2) & (lp >= 2)
    ratios = np.log(lp[mask]) / np.log(n[mask])
    top = table.poly.degree + 0.5
    edges = np.linspace(0.0, top, int(top * 10) + 1)
    counts, edges = np.histogram(ratios, bins=edges)
    return LargestPrimeStats(
        n_max=N,
        c=c,
        proportion_gt_n=float(gt_n.mean()),
        proportion_gt_nlogn=float(gt_nlogn.mean()),
        hist_edges=tuple(float(e) for e in edges),
        hist_counts=tuple(int(x) for x in counts),
    )


def smooth_count(x: int, y: int) -> int:
    """psi(x, y): how many n <= x have every prime factor <= y (1 included).

    With r = isqrt(x), an n <= x has at most one prime factor above r. Let A
    hold the n <= x with a prime factor in (y, r], struck one such prime at a
    time, and C(t) count the members of A up to t. Any other n that is not
    y-smooth is p * m for a prime p > max(y, r) and m <= x // p <= r, and
    p * m lies in A exactly when m does. So psi(x, y) is x - |A| minus the
    sum of x // p - C(x // p) over the primes p in (max(y, r), x].
    """
    if x < 2 or y < 2:
        raise ValueError("smooth_count needs x >= 2 and y >= 2")
    r = math.isqrt(x)
    primes = primes_up_to(x)
    in_a = np.zeros(x + 1, dtype=bool)
    for p in primes[(primes > y) & (primes <= r)].tolist():
        in_a[p::p] = True
    c = np.cumsum(in_a[: r + 1])
    t = x // primes[primes > max(y, r)]
    return x - int(np.count_nonzero(in_a) + t.sum() - c[t].sum())
