"""Exact moment counts via squarefree kernels.

For squarefree a and b, write d = gcd(a, b); then a*b = mu * d**2 where mu,
the kernel, is the product of the primes dividing exactly one of a and b. A
product of four squarefree values is a perfect square exactly when the two
pair kernels agree, so the fourth moment of a Rademacher f-sum is the sum of
squared kernel-bucket counts over all ordered value pairs, and cross moments
between largest-prime classes pair buckets across classes. All counts here
are exact integers; no probabilistic hashing is involved. Every pair count
comes from one chunked scan (_pair_scan), and buckets are keyed by exact
int64 kernel keys, counted by one sort and its run lengths.

The fourth moment scans pairs of its core only: what is left of the
squarefree rows once every row holding a prime that no other remaining row
holds is dropped, round by round, as in singleton removal in number-field
sieve filtering. A square quadruple holding a dropped row pairs off in
values: its first-dropped row r held a prime that no other row of the
quadruple holds, so r occurs twice or four times and the rest multiply to a
square; squarefree, they are equal. Hence fourth = diagonal(all) +
fourth(core) - diagonal(core), with diagonal the value-level 3*Q**2 - 2*F.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .sieve import ValueTable, multi_slice

# pairs handed to numpy at once by the pair scan
_PAIR_CHUNK = 1 << 20
# kernels below this are their own int64 keys; each wider one is keyed past it
_WIDE = 1 << 62


def _multiplicity_sums(vals: np.ndarray) -> tuple[int, int, int]:
    """(Q, 3*Q**2 - 2*F, units) of squarefree values vals: Q and F sum the
    squares and fourth powers of the value multiplicities, 3*Q**2 - 2*F
    counts the value-level diagonal quadruples, and units is the
    multiplicity of value 1."""
    u, m = np.unique(vals, return_counts=True)
    q, f = _sum_squares(m), _sum_squares(m, power=4)
    return q, 3 * q * q - 2 * f, int(m[0]) if len(u) and u[0] == 1 else 0


def second_moment_exact(table: ValueTable) -> int:
    """Ordered pairs (n1, n2) with P(n1) = P(n2), both squarefree.

    This is the exact second moment of the Rademacher partial sum; it equals
    the squarefree count when P is injective on the range.
    """
    return _multiplicity_sums(table.values[table.is_squarefree])[0]


def _pair_scan(x: np.ndarray, y: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Yield (rows, g, kernel) for chunks of whole rows of about _PAIR_CHUNK pairs.

    Row i of x meets y[starts[i] : starts[i] + lengths[i]]; rows is the x row
    of each pair, g = gcd(a, b), and kernel() gives int64 keys of the kernels
    (a/g)*(b/g), equal exactly when the kernels are (_kernel_keys).
    An empty scan yields one empty chunk, so every tally has its columns.
    """
    wide: dict[int, int] = {}
    marks = np.arange(_PAIR_CHUNK, int(lengths.sum()), _PAIR_CHUNK)
    bounds = [0, *np.unique(np.searchsorted(np.cumsum(lengths), marks)).tolist(), len(x)]
    for lo, hi in zip(bounds, bounds[1:]):
        rows = np.repeat(np.arange(lo, hi), lengths[lo:hi])
        a = x[rows]
        b = y[multi_slice(starts[lo:hi], lengths[lo:hi])]
        g = np.gcd(a, b)
        a, b = a // g, b // g
        yield rows, g, lambda a=a, b=b: _kernel_keys(a, b, wide)


def _kernel_keys(a: np.ndarray, b: np.ndarray, wide: dict[int, int]) -> np.ndarray:
    """int64 keys of the kernels a*b: a kernel below _WIDE is its own key, a
    wider one _WIDE plus its index in wide, the scan's distinct wide kernels."""
    keys = a * b
    if int(a.max(initial=0)) * int(b.max(initial=0)) >= _WIDE:
        # a float64 product below _WIDE / 2 proves the exact one below _WIDE
        at = np.flatnonzero(a.astype(np.float64) * b >= _WIDE / 2)
        kernels = [p * q for p, q in zip(a[at].tolist(), b[at].tolist())]
        keys[at] = [k if k < _WIDE else _WIDE + wide.setdefault(k, len(wide)) for k in kernels]
    return keys


def _tally(keys: tuple[np.ndarray, ...], weights: np.ndarray | None = None):
    """(distinct key columns, counts) by one sort and its run lengths.

    keys are equal-length columns compared as tuples; weights default to 1.
    np.sort is ten times faster than lexsort on a random int64 column, and
    lexsort, a merge sort, is fast on the sorted runs of merged tallies.
    """
    if len(keys) == 1 and weights is None:
        keys = (np.sort(keys[0]),)
    else:
        order = np.lexsort(keys)
        keys = tuple(k[order] for k in keys)
        weights = None if weights is None else weights[order]
    new = np.arange(len(keys[0])) == 0
    for k in keys:
        new[1:] |= k[1:] != k[:-1]
    firsts = np.flatnonzero(new)
    counts = np.add.reduceat(np.ones(len(new), np.int64) if weights is None else weights, firsts)
    return tuple(k[firsts] for k in keys), counts


def _scan_tally(x, y, starts, lengths, key, diagonal=None):
    """_tally of key(rows, g, kernel) over the pairs of the scan.

    With diagonal, the scan meets each unordered pair of x with itself once:
    the count is over both orders plus the pairs (i, i), keyed by diagonal.
    """
    parts = [_tally(key(*chunk)) for chunk in _pair_scan(x, y, starts, lengths)]
    if diagonal is not None:
        parts = [(k, 2 * c) for k, c in parts] + [(diagonal, np.ones(len(x), np.int64))]
    keys = tuple(np.concatenate(col) for col in zip(*(k for k, _ in parts)))
    counts = np.concatenate([c for _, c in parts])
    del parts
    return _tally(keys, counts)


def _sum_squares(counts: np.ndarray, power: int = 2) -> int:
    """Exact sum of counts**power (squares by default), in Python ints, one
    term per distinct count."""
    u, m = np.unique(counts, return_counts=True)
    return sum(c**power * k for c, k in zip(u.tolist(), m.tolist()))


def _core(table: ValueTable) -> np.ndarray:
    """Values of the squarefree rows left once every row holding a prime that
    no other remaining row holds is dropped, round by round.

    Every prime of a core row is held by at least two core rows; rows of
    value 1 hold no prime and always stay.
    """
    primes, ids = table.prime_index()
    keep = table.is_squarefree.copy()
    live = keep[table.entry_rows()]
    ids, owner = ids[live], table.entry_rows()[live]
    held = np.bincount(ids, minlength=len(primes))
    while True:
        lone = held[ids] == 1
        if not lone.any():
            return table.values[keep]
        keep[owner[lone]] = False
        gone = ~keep[owner]
        held -= np.bincount(ids[gone], minlength=len(held))
        ids, owner = ids[~gone], owner[~gone]


def fourth_moment_exact(table: ValueTable) -> int:
    """Ordered squarefree quadruples (n1..n4) whose value product is a square.

    The value-level diagonal of all rows plus the off-diagonal count of the
    core (module docstring). On the core the count is the sum over kernels mu
    of c_mu**2, with c_mu the ordered-pair count of kernel mu, from the pair
    scan over i < j and the diagonal (kernel 1).
    """
    core = _core(table)
    i, ones = np.arange(len(core)), np.ones(len(core), np.int64)
    _, counts = _scan_tally(core, core, i + 1, len(core) - i - 1, lambda r, g, k: (k(),), (ones,))
    diagonal = _multiplicity_sums(table.values[table.is_squarefree])[1]
    return diagonal + _sum_squares(counts) - _multiplicity_sums(core)[1]


def mcleish_condition_sums(table: ValueTable) -> tuple[float, float, float]:
    """(s2, s4, cross): the three martingale-CLT condition sums, exactly.

    Classes are the largest-prime classes of squarefree values (value 1 forms
    its own unit class). With M_p the f-sum over class p and B the exact
    second moment,
      s2 = sum_p E[M_p^2] / B, s4 = sum_p E[M_p^4] / B^2,
      cross = sum_{p != q} E[M_p^2 M_q^2] / B^2.
    Classes partition the squarefree support, so s2 is exactly 1 whenever the
    second moment is nonzero. Only pairs inside a class are scanned.
    """
    sf = table.is_squarefree
    order = np.argsort(table.largest[sf], kind="stable")
    vals, cls = table.values[sf][order], table.largest[sf][order]
    s = len(vals)
    if s == 0:
        raise DomainError("table has no squarefree values; condition sums undefined")
    # ordered pairs inside each class, by (class, kernel)
    i, ends = np.arange(s), np.searchsorted(cls, cls, side="right")
    (_, kernels), local = _scan_tally(
        vals, vals, i + 1, ends - i - 1, lambda r, g, k: (cls[r], k()), (cls, np.ones(s, np.int64))
    )
    # t1 by kernel, kernel 1 first: it holds every diagonal pair
    _, t1 = _tally((kernels,), local)
    t2, b = _sum_squares(local), second_moment_exact(table)
    return int(t1[0]) / b, t2 / b**2, (_sum_squares(t1) - t2) / b**2


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

    Includes the fourth moment, whose memory grows with the distinct kernels
    of its core, up to half the squared core size: for x^2 + 1 the core is
    about a third of the squarefree rows, and N = 2*10^4 peaks past 1 GB.
    The condition sums alone scan only pairs inside a class, use
    mcleish_condition_sums for large ranges.
    """
    q, diagonal, units = _multiplicity_sums(table.values[table.is_squarefree])
    fourth = fourth_moment_exact(table)
    s2, s4, cross = mcleish_condition_sums(table)
    return MomentReport(
        n_max=table.n_max,
        squarefree_count=int(np.asarray(table.is_squarefree).sum()),
        unit_count=units,
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
    seeded generator. Gcds come from the pair scan, as np.gcd of the values.
    """
    vals = table.values[table.is_squarefree]
    s = len(vals)
    if s == 0:
        return GcdHistogram(threshold, 0, 0, ())
    if pairs is None:
        i = np.arange(s)
        (gcds,), counts = _scan_tally(vals, vals, i + 1, s - i - 1, lambda r, g, k: (g,), (vals,))
    else:
        rng = np.random.default_rng(seed)
        ii = rng.integers(0, s, size=pairs)
        jj = rng.integers(0, s, size=pairs)
        lengths = np.ones(pairs, dtype=np.int64)
        (gcds,), counts = _scan_tally(vals[ii], vals, jj, lengths, lambda r, g, k: (g,))
    return GcdHistogram(
        threshold=threshold,
        total_pairs=int(counts.sum()),
        above_threshold=int(counts[gcds > threshold].sum()),
        counts=tuple(zip(gcds.tolist(), counts.tolist())),
    )
