"""Exact moment counts via squarefree kernels.

For squarefree a and b, write d = gcd(a, b); then a*b = mu * d**2 where mu,
the kernel, is the product of the primes dividing exactly one of a and b. A
product of four squarefree values is a perfect square exactly when the two
pair kernels agree, so the fourth moment of a Rademacher f-sum is the sum of
squared kernel-bucket counts over all ordered value pairs, and cross moments
between largest-prime classes pair buckets across classes. All counts here
are exact integers; no probabilistic hashing is involved (buckets are keyed
by exact kernels, with Python's hash-then-compare dict semantics providing
the collision check).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .intmath import trial_factorize
from .sieve import ValueRecord, ValueTable

# integer kernels of int64 value pairs stay within int64 below this
_INT64_VALUE_LIMIT = 1 << 31


@dataclass(frozen=True)
class KernelKey:
    """Canonical identifier of the squarefree kernel of a value pair.

    primes is the sorted tuple of primes dividing exactly one of the two
    values. Two keys are equal exactly when the kernels agree as integers.
    """

    primes: tuple[int, ...]

    @property
    def value(self) -> int:
        out = 1
        for p in self.primes:
            out *= p
        return out


def _prime_set(x) -> frozenset[int]:
    if isinstance(x, ValueRecord):
        if not x.is_squarefree:
            raise ValueError(f"record n={x.n} is not squarefree")
        return frozenset(p for p, _ in x.factors)
    x = int(x)
    if x < 1:
        raise ValueError("values must be positive")
    fac = trial_factorize(x)
    if any(e > 1 for _, e in fac):
        raise ValueError(f"{x} is not squarefree")
    return frozenset(p for p, _ in fac)


def pair_kernel(a, b) -> KernelKey:
    """KernelKey of two squarefree values (ValueRecords or plain ints).

    Works off the factor lists; the kernel integer itself is never formed
    unless KernelKey.value is asked for.
    """
    sa, sb = _prime_set(a), _prime_set(b)
    return KernelKey(tuple(sorted(sa.symmetric_difference(sb))))


def _value_multiplicities(table: ValueTable) -> dict[int, int]:
    u, c = np.unique(table.values[table.is_squarefree], return_counts=True)
    return dict(zip(u.tolist(), c.tolist()))


def second_moment_exact(table: ValueTable) -> int:
    """Ordered pairs (n1, n2) with P(n1) = P(n2), both squarefree.

    This is the exact second moment of the Rademacher partial sum; it equals
    the squarefree count when P is injective on the range.
    """
    return sum(m * m for m in _value_multiplicities(table).values())


def _kernel_counts_int64(vals: np.ndarray, chunk: int = 1024):
    """(kernels, counts) over all ordered pairs of vals; exact int64 path."""
    parts_v, parts_c = [], []
    for lo in range(0, len(vals), chunk):
        block = vals[lo : lo + chunk, None]
        g = np.gcd(block, vals[None, :])
        k = (block // g) * (vals[None, :] // g)
        u, c = np.unique(k, return_counts=True)
        parts_v.append(u)
        parts_c.append(c)
    allv = np.concatenate(parts_v)
    allc = np.concatenate(parts_c)
    u, inv = np.unique(allv, return_inverse=True)
    out = np.zeros(len(u), dtype=np.int64)
    np.add.at(out, inv, allc)
    return u, out


def fourth_moment_exact(table: ValueTable) -> int:
    """Ordered squarefree quadruples (n1..n4) whose value product is a square.

    Equals sum over kernels mu of c_mu**2 with c_mu the ordered-pair count of
    kernel mu. Runs the O(S^2) pair scan with integer kernels; values whose
    pair kernels could pass int64 fall back to exact prime-set arithmetic.
    """
    vals = table.values[table.is_squarefree]
    if len(vals) == 0:
        return 0
    if int(vals.max()) < _INT64_VALUE_LIMIT:
        _, counts = _kernel_counts_int64(vals)
        if len(vals) ** 4 < 1 << 62:
            return int(np.dot(counts, counts))
        return sum(int(c) * int(c) for c in counts)
    cnt: Counter = Counter()
    sets = [frozenset(p for p, _ in r.factors) for r in table if r.is_squarefree]
    for sa in sets:
        for sb in sets:
            cnt[sa.symmetric_difference(sb)] += 1
    return sum(c * c for c in cnt.values())


def off_diagonal_count(table: ValueTable) -> int:
    """Square quadruples not equal in pairs under any of the three pairings.

    Subtracts the inclusion-exclusion count of value-level diagonal
    quadruples, 3*Q**2 - 2*F with Q = sum of squared value multiplicities and
    F = sum of fourth powers, which reduces to 3*S**2 - 2*S for injective P.
    """
    mult = _value_multiplicities(table)
    q = sum(m * m for m in mult.values())
    f = sum(m**4 for m in mult.values())
    return fourth_moment_exact(table) - (3 * q * q - 2 * f)


def _kernel_int(a: int, b: int) -> int:
    g = math.gcd(a, b)
    return (a // g) * (b // g)


def _class_members(table: ValueTable) -> dict[int | None, list[int]]:
    """Squarefree values grouped by largest prime factor (None for value 1)."""
    groups: dict[int | None, list[int]] = {}
    items = zip(table.values.tolist(), table.largest.tolist(), table.is_squarefree.tolist())
    for v, lp, ok in items:
        if ok:
            groups.setdefault(lp or None, []).append(v)
    return groups


def mcleish_condition_sums(table: ValueTable) -> tuple[float, float, float]:
    """(s2, s4, cross): the three martingale-CLT condition sums, exactly.

    Classes are the largest-prime classes of squarefree values (value 1 forms
    its own unit class). With M_p the f-sum over class p and B the exact
    second moment,
      s2 = sum_p E[M_p^2] / B, s4 = sum_p E[M_p^4] / B^2,
      cross = sum_{p != q} E[M_p^2 M_q^2] / B^2.
    Classes partition the squarefree support, so s2 is exactly 1 whenever the
    second moment is nonzero.
    """
    groups = _class_members(table)
    t1: Counter = Counter()
    t2: Counter = Counter()
    q_sum = 0
    for members in groups.values():
        local: Counter = Counter()
        for a in members:
            for b in members:
                local[_kernel_int(a, b)] += 1
        q_sum += local.get(1, 0)
        for k, c in local.items():
            t1[k] += c
            t2[k] += c * c
    if q_sum == 0:
        raise ValueError("table has no squarefree values; condition sums undefined")
    b = second_moment_exact(table)
    s2 = q_sum / b
    s4 = sum(t2.values()) / b**2
    cross = sum(t1[k] * t1[k] - t2[k] for k in t1) / b**2
    return s2, s4, cross


@dataclass(frozen=True)
class MomentReport:
    """Exact moment counts and condition sums for one value table."""

    n_max: int
    squarefree_count: int
    unit_count: int
    second_moment: int
    fourth_moment: int
    diagonal_term: int
    off_diagonal: int
    s2: float
    s4: float
    cross: float


def moment_report(table: ValueTable) -> MomentReport:
    """All exact moment quantities in one pass.

    Includes the fourth moment, so memory grows with the square of the
    squarefree count; ranges up to a few thousand are the practical limit.
    The condition sums alone stay linear, use mcleish_condition_sums for
    large ranges.
    """
    mult = _value_multiplicities(table)
    q = sum(m * m for m in mult.values())
    f = sum(m**4 for m in mult.values())
    fourth = fourth_moment_exact(table)
    diagonal = 3 * q * q - 2 * f
    s2, s4, cross = mcleish_condition_sums(table)
    return MomentReport(
        n_max=table.n_max,
        squarefree_count=int(np.asarray(table.is_squarefree).sum()),
        unit_count=mult.get(1, 0),
        second_moment=q,
        fourth_moment=fourth,
        diagonal_term=diagonal,
        off_diagonal=fourth - diagonal,
        s2=s2,
        s4=s4,
        cross=cross,
    )


@dataclass(frozen=True)
class GcdHistogram:
    """Distribution of gcd(P(n1), P(n2)) over squarefree pairs."""

    threshold: int
    total_pairs: int
    above_threshold: int
    counts: tuple[tuple[int, int], ...]  # (gcd value, count), ascending


def gcd_class_histogram(
    table: ValueTable,
    threshold: int,
    pairs: int | None = None,
    seed: int = 0,
) -> GcdHistogram:
    """Histogram of pairwise gcds over squarefree records.

    pairs = None scans every ordered pair (including n1 = n2, whose gcd is
    the value itself); otherwise that many pairs are drawn uniformly with a
    seeded generator. Gcds come from the factor lists: the product of shared
    primes.
    """
    recs = [r for r in table if r.is_squarefree]
    sets = [frozenset(p for p, _ in r.factors) for r in recs]
    cnt: Counter = Counter()
    if not recs:
        return GcdHistogram(threshold, 0, 0, ())

    def gcd_of(i: int, j: int) -> int:
        out = 1
        for p in sets[i] & sets[j]:
            out *= p
        return out

    if pairs is None:
        total = len(recs) ** 2
        for i in range(len(recs)):
            for j in range(len(recs)):
                cnt[gcd_of(i, j)] += 1
    else:
        rng = np.random.default_rng(seed)
        total = pairs
        ii = rng.integers(0, len(recs), size=pairs)
        jj = rng.integers(0, len(recs), size=pairs)
        for i, j in zip(ii.tolist(), jj.tolist()):
            cnt[gcd_of(i, j)] += 1
    above = sum(c for d, c in cnt.items() if d > threshold)
    return GcdHistogram(
        threshold=threshold,
        total_pairs=total,
        above_threshold=above,
        counts=tuple(sorted(cnt.items())),
    )
