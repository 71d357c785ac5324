"""Integral points on a*P(x) = b*P(y) and scan statistics over (a, b).

The solve is exact and needs no critical points of P. With g = gcd(a, b),
a' = a/g and b' = b/g, the equation holds exactly when P(x) = b'k and
P(y) = a'k for one integer k. So the exact values P(1..N) give one key per
admissible x and one per admissible y, and an equal-key join over the sorted
y-keys lists every point. Keys never exceed |P|, and every reported point is
verified by an exact integer identity.

Admissible x are found by residue class: P(x + d) = P(x) (mod d) for integer
P, so d | P(x) depends on x mod d alone. The first d values give the residues
r with d | P(r), each a progression of step d, and a pair costs
O(d + N*rho(d)/d) rather than O(N), rho(d) counting those residues.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly import IntPolynomial, values
from .sieve import multi_slice


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
    px, py = _points(values(P, 1, n_max + 1), a, b)
    return list(zip(px.tolist(), py.tolist()))


def _divisible(vals: np.ndarray, d: int) -> np.ndarray:
    """Ascending 0-based i with d | vals[i], where vals[i] = P(i + 1): i does
    exactly when i mod d does, so each residue from vals[:d] is a progression."""
    if d >= len(vals):
        return np.flatnonzero(vals % d == 0)
    idx = (np.arange(0, len(vals), d)[:, None] + np.flatnonzero(vals[:d] % d == 0)).ravel()
    return idx[idx < len(vals)]


def _points(vals: np.ndarray, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """1-based arrays (px, py) of all (x, y) with a*vals[x-1] == b*vals[y-1], sorted."""
    g = math.gcd(a, b)
    a1, b1 = a // g, b // g  # b1 | P(x), a1 | P(y) and P(x)/b1 == P(y)/a1
    if max(a1, b1) >= 1 << 63:  # divide in Python ints
        vals = vals.astype(object)
    xs, ys = _divisible(vals, b1), _divisible(vals, a1)
    x_keys = vals[xs] // b1
    y_keys = vals[ys] // a1
    order = np.argsort(y_keys, kind="stable")  # ys stay ascending within a key
    ys, y_keys = ys[order], y_keys[order]
    left = np.searchsorted(y_keys, x_keys, side="left")
    counts = np.searchsorted(y_keys, x_keys, side="right") - left
    px, py = np.repeat(xs, counts), ys[multi_slice(left, counts)]
    # a*u == b*w with coprime a1, b1: b1 | u, a1 | w and u/b1 == w/a1
    u, w = vals[px], vals[py]
    if not ((u % b1 == 0) & (w % a1 == 0) & (u // b1 == w // a1)).all():
        raise RuntimeError(f"a joined point fails a*P(x) == b*P(y) for (a, b) = ({a}, {b})")
    return px + 1, py + 1


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
    # one solve per pair at the last cutoff, all from one evaluation of P; a
    # point counts at cutoff n when max(x, y) <= n, so each count is one
    # search in the sorted maxima
    vals = values(P, 1, ns[-1] + 1)
    solved = [_points(vals, a, b) for a, b in pairs + [(1, 1)]]
    *reach, diag_reach = [np.sort(np.maximum(px, py)) for px, py in solved]
    by_pair = [np.searchsorted(r, ns, side="right").tolist() for r in reach]
    counts_by_n = [tuple(c) for c in zip(*by_pair)]
    diag = np.searchsorted(diag_reach, ns, side="right").tolist()
    last = counts_by_n[-1]
    top_idx = sorted(range(len(pairs)), key=lambda i: -last[i])[:5]
    examples = [(*pairs[i], last[i], tuple(zip(*(c[:20].tolist() for c in solved[i]))))
                for i in top_idx]
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
