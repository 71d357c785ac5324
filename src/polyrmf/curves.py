"""Integral points on a*P(x) = b*P(y) and scan statistics over (a, b).

The solve is exact: values P(1..N) are computed once, the range [1, N] is cut
into integer intervals on which P is monotone (cuts at the integer neighbors
of the critical points), and each quotient a*P(x)/b is located by binary
search inside every piece. Every reported point is verified by an exact
integer identity, so false positives are impossible; completeness rests on
the monotone decomposition, which the tests check against a quadratic-time
scan.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .poly import IntPolynomial, monotone_cuts, value_range, values_int64


def monotone_pieces(P: IntPolynomial, n_max: int) -> list[tuple[int, int]]:
    """Closed integer intervals covering [1, n_max], P monotone on each.

    Consecutive pieces share an endpoint; the cuts are those of
    poly.monotone_cuts.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    cs = monotone_cuts(P, 1, n_max)
    if len(cs) == 1:
        return [(1, 1)]
    return list(zip(cs, cs[1:]))


def _locate_in_pieces_int64(vals, pieces, targets):
    """Yield (target_index, y) with P(y) == targets[target_index], exactly."""
    out = []
    for lo, hi in pieces:
        seg = vals[lo - 1 : hi]
        asc = bool(seg[0] <= seg[-1])
        s = seg if asc else seg[::-1]
        left = np.searchsorted(s, targets, side="left")
        right = np.searchsorted(s, targets, side="right")
        for idx in np.nonzero(right > left)[0]:
            for pos in range(int(left[idx]), int(right[idx])):
                y = lo + pos if asc else hi - pos
                out.append((int(idx), y))
    return out


def _integral_points_exact(P, a, b, n_max, vals) -> set[tuple[int, int]]:
    points: set[tuple[int, int]] = set()
    pieces = monotone_pieces(P, n_max)
    segs = []
    for lo, hi in pieces:
        seg = vals[lo - 1 : hi]
        asc = seg[0] <= seg[-1]
        segs.append((lo, hi, asc, seg if asc else seg[::-1]))
    for x in range(1, n_max + 1):
        t, r = divmod(a * vals[x - 1], b)
        if r:
            continue
        for lo, hi, asc, s in segs:
            i = bisect_left(s, t)
            while i < len(s) and s[i] == t:
                points.add((x, lo + i if asc else hi - i))
                i += 1
    return points


def integral_points(
    P: IntPolynomial, a: int, b: int, n_max: int
) -> list[tuple[int, int]]:
    """All (x, y) in [1, n_max]^2 with a*P(x) == b*P(y), sorted.

    a and b must be positive. The count is exact; for a == b and injective P
    this is the diagonal x == y.
    """
    if a < 1 or b < 1:
        raise ValueError("coefficients a and b must be positive integers")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    (lo_v, _), (hi_v, _) = value_range(P, 1, n_max)
    if max(a, b) * max(-lo_v, hi_v, 1) >= 1 << 62:  # a, b or a * P(x) would not fit int64
        vals = [P.eval(x) for x in range(1, n_max + 1)]
        return sorted(_integral_points_exact(P, a, b, n_max, vals))
    vals = values_int64(P, 1, n_max + 1)
    pieces = monotone_pieces(P, n_max)
    scaled = a * vals
    rem = scaled % b
    ok = rem == 0
    xs = np.nonzero(ok)[0] + 1
    targets = scaled[ok] // b
    points: set[tuple[int, int]] = set()
    for idx, y in _locate_in_pieces_int64(vals, pieces, targets):
        x = int(xs[idx])
        assert a * int(vals[x - 1]) == b * int(vals[y - 1])
        points.add((x, y))
    return sorted(points)


@dataclass(frozen=True)
class CurveScanReport:
    """Counts of a*P(x) = b*P(y) solutions over sampled coefficient pairs."""

    poly: str
    n_values: tuple[int, ...]
    ab_max: int
    seed: int
    pairs: tuple[tuple[int, int], ...]
    counts_by_n: tuple[tuple[int, ...], ...]  # [n_index][pair_index]
    max_count: tuple[int, ...]
    mean_count: tuple[float, ...]
    diagonal_count: tuple[int, ...]
    top_examples: tuple[tuple[int, int, int, tuple[tuple[int, int], ...]], ...]


def exponent_scan(
    P: IntPolynomial,
    n_values: list[int] | tuple[int, ...],
    ab_samples: int = 100,
    seed: int = 0,
    ab_max: int = 1000,
) -> CurveScanReport:
    """Solution counts over random a != b pairs, at each range cutoff.

    The same coefficient pairs are reused for every N so counts are paired
    across cutoffs. top_examples lists the five largest counts at the final
    N with at most twenty points each.
    """
    if ab_samples < 1 or ab_max < 2:
        raise ValueError("need ab_samples >= 1 and ab_max >= 2")
    ns = tuple(sorted(set(int(n) for n in n_values)))
    if not ns or ns[0] < 1:
        raise ValueError("n_values must be positive")
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < ab_samples:
        a = int(rng.integers(1, ab_max + 1))
        b = int(rng.integers(1, ab_max + 1))
        if a != b:
            pairs.append((a, b))
    counts_by_n = []
    diag = []
    for n in ns:
        counts_by_n.append(tuple(len(integral_points(P, a, b, n)) for a, b in pairs))
        diag.append(len(integral_points(P, 1, 1, n)))
    last = counts_by_n[-1]
    top_idx = sorted(range(len(pairs)), key=lambda i: -last[i])[:5]
    examples = []
    for i in top_idx:
        a, b = pairs[i]
        pts = integral_points(P, a, b, ns[-1])[:20]
        examples.append((a, b, last[i], tuple(pts)))
    return CurveScanReport(
        poly=str(P),
        n_values=ns,
        ab_max=ab_max,
        seed=seed,
        pairs=tuple(pairs),
        counts_by_n=tuple(counts_by_n),
        max_count=tuple(max(c) for c in counts_by_n),
        mean_count=tuple(sum(c) / len(c) for c in counts_by_n),
        diagonal_count=tuple(diag),
        top_examples=tuple(examples),
    )
