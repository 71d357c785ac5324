"""Multi-scale fluctuation scan for partial sums of f(n^2 + 1).

A growing ladder of scales x_1 < ... < x_k is fixed, and for each scale a set
A_i of large primes is extracted: p in A_i when p exceeds c * x_i * log x_i,
p divides n^2 + 1 for exactly one n <= x_i, and that n exceeds x_{i-1}. No
two chosen primes then share their witness n. A prime p <= x_i dividing some
n^2 + 1 has two witnesses up to x_i (r and p - r, or 1 and 3 for p = 2), so
every prime of A_i exceeds x_i >= n; and n^2 + 1 < (n + 1)^2 holds at most
one prime factor above n. The sets are pairwise disjoint, so the partial sum
at scale i splits exactly into the rows seeing one A_i prime, the rows
seeing some other scale's prime, and the untouched rows. The first piece
behaves like an independent block across scales, which is what the
studentized-maximum statistic exercises.

Every sum of f over rows goes through rmf.trial_sums with one group label
per row. PrimeClassSets.labels puts each row below x_k in one of 3k groups,
three per band of rows [x_{i-1}, x_i) (0-based rows, x_0 = 0): group
3i - 3 when its only scale prime is of scale i (class 1 of scale i: an A_i
prime has its one witness below x_i inside band i), 3i - 2 when it holds
another scale's prime, 3i - 1 when it is untouched. The partial sum at
scale i is then the cumulative sum of the band totals, class 3 the
cumulative sum of the untouched groups and class 2 the partial sum less
classes 1 and 3, all exact integers in float64 under Rademacher f. The
direct recheck of classes 2 and 3 in lil_scan labels each row twice, with a
touched or untouched group of its band and with an own-prime-only group of
its scale.

build_prime_class_sets decides every scale in one pass over the table's
distinct primes, each prime's first witness fixing its band, and labels the
rows from that selection. The checks take another route: _scale_hits finds
the factor entries holding a scale prime from the published prime sets, for
the direct recheck and verify_invariants. The group rule above is written
once, in _band_labels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleScaleError
from .poly import IntPolynomial
from .rmf import RADEMACHER, derive_seeds, trial_sums
from .sieve import ValueTable, sieve_values

THEORETICAL = "theoretical"
GEOMETRIC = "geometric"
_MODES = (THEORETICAL, GEOMETRIC)

_TARGET_POLY = (1, 0, 1)  # x^2 + 1
_MAX_SCALES = 64  # per-row scale membership lives in one uint64


@dataclass(frozen=True)
class ScaleSet:
    """Strictly increasing integer scales x_1 < ... < x_k."""

    base: int
    k: int
    mode: str
    cap: int
    xs: tuple[int, ...]


def _theoretical_exponent(i: int) -> float:
    return i * math.log(3 * i) ** 2


def scale_set(base: int, k: int, mode: str = GEOMETRIC, cap: int = 10**6) -> ScaleSet:
    """Build the scale ladder.

    'theoretical' uses x_i = round(base ** (i * log(3i)^2)), which outgrows
    any cap almost immediately and raises InfeasibleScaleError when it does;
    'geometric' places k scales in geometric progression from base to cap
    (x_k = cap exactly), the practical surrogate.
    """
    if base < 16:
        raise ValueError("base scale must be >= 16")
    if k < 2:
        raise ValueError("need at least two scales")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    if cap <= base + k:
        raise InfeasibleScaleError(
            f"cap {cap} cannot hold {k} strictly increasing scales above {base}"
        )
    xs: list[int] = []
    if mode == THEORETICAL:
        lb = math.log(base)
        for i in range(1, k + 1):
            e = _theoretical_exponent(i)
            if e * lb > math.log(cap) + 1e-12:
                feasible = max(
                    (j for j in range(1, k) if _theoretical_exponent(j) * lb <= math.log(cap)),
                    default=0,
                )
                raise InfeasibleScaleError(
                    f"scale {i} of the theoretical schedule is "
                    f"base**{e:.3f} > cap {cap}; at this base the cap "
                    f"admits at most {feasible} scale(s)"
                )
            xs.append(round(math.exp(e * lb)))
        for a, b in zip(xs, xs[1:]):
            if b <= a:
                raise InfeasibleScaleError("theoretical schedule is not strictly increasing")
    else:
        r = (cap / base) ** (1.0 / k)
        prev = base
        for i in range(1, k + 1):
            x = max(prev + 1, round(base * r**i))
            xs.append(x)
            prev = x
        xs[-1] = cap
        if len(xs) >= 2 and xs[-1] <= xs[-2]:
            raise InfeasibleScaleError("geometric schedule collapsed at the cap")
    return ScaleSet(base=base, k=k, mode=mode, cap=cap, xs=tuple(xs))


@dataclass
class PrimeClassSets:
    """Disjoint per-scale prime sets and the induced row partition.

    table holds x^2 + 1 for n <= x_k. labels holds, for each of its x_k
    0-based rows, the one of the 3k band groups laid out in the module
    docstring that the row sits in. Classes 2 and 3 of a scale are not
    groups; they are derived from the band sums.
    """

    scales: ScaleSet
    c: float
    table: ValueTable
    prime_sets: tuple[np.ndarray, ...]
    first_occurrence: tuple[np.ndarray, ...]
    sizes: tuple[int, ...]
    candidate_sizes: tuple[int, ...]
    labels: np.ndarray = field(repr=False)
    class1_sf: tuple[int, ...] = ()

    def verify_invariants(self) -> dict[str, bool]:
        """Recheck every set invariant directly against the table.

        A prime in two sets fails "disjoint" and is checked only in the first.
        The hits come from _scale_hits, which reads prime_sets, not the
        builder's selection; "partition" holds when labels equals what
        _band_labels computes from them.
        """
        xs, k = self.scales.xs, len(self.scales.xs)
        theta = np.array([self.c * x * math.log(x) for x in xs])
        allp = np.concatenate(self.prime_sets)
        scale_of = np.repeat(np.arange(k), [len(a) for a in self.prime_sets])
        hit, rows, label = _scale_hits(self.table, self.prime_sets)
        below = rows < np.array(xs)[label]
        _, per_prime = np.unique(self.table.flat_primes[hit[below]], return_counts=True)
        _, per_row = np.unique(rows[below] * k + label[below], return_counts=True)
        return {
            "disjoint": bool((np.diff(np.sort(allp)) != 0).all()),
            "threshold": bool((allp > theta[scale_of]).all()),
            "single_witness": len(per_prime) == len(allp) and bool((per_prime == 1).all()),
            "fresh": bool((rows >= np.append(0, xs[:-1])[label]).all()),
            "no_shared_value": bool((per_row == 1).all()),
            "partition": np.array_equal(self.labels, _band_labels(xs, rows, label)),
        }


def _scale_hits(table: ValueTable, prime_sets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every factor entry of table that holds a prime of some set.

    Returns the entries' positions in flat_primes, their 0-based rows and the
    0-based scale of their prime, from the prime sets and the table alone. A
    prime in two sets is labelled with the first; a set prime that no row
    holds matches no entry. This is the checks' lookup (verify_invariants,
    _direct_classes_2_3); build_prime_class_sets labels rows without it.
    """
    primes, inverse = table.prime_index()
    # int8 scale labels (k <= _MAX_SCALES) keep the per-entry gather small
    label_of = np.full(len(primes), -1, dtype=np.int8)
    # the last set is labelled first, so that the first set's label wins
    for i in reversed(range(len(prime_sets))):
        pos = np.searchsorted(primes, prime_sets[i])
        label_of[pos[primes[np.minimum(pos, len(primes) - 1)] == prime_sets[i]]] = i
    label = label_of[inverse]
    hit = np.flatnonzero(label >= 0)
    return hit, table.entry_rows()[hit], label[hit]


def _row_bitmask(rows: np.ndarray, label: np.ndarray, n: int) -> np.ndarray:
    """n words; bit i of word r is set when row r holds a prime of scale i + 1."""
    bitmask = np.zeros(n, dtype=np.uint64)
    np.bitwise_or.at(bitmask, rows, np.uint64(1) << label.astype(np.uint64))
    return bitmask


def _band_labels(xs, rows: np.ndarray, label: np.ndarray) -> np.ndarray:
    """labels for the scale-prime hits (rows, label), laid out as the module docstring says."""
    bitmask = _row_bitmask(rows, label, xs[-1])
    band = np.searchsorted(xs, np.arange(xs[-1]), side="right")
    # a row whose only bit is its band's holds exactly one A_i prime: each
    # such prime occurs once below x_i, at a witness no other kept prime
    # shares, and that witness lies in band i
    own = bitmask == np.uint64(1) << band.astype(np.uint64)
    return 3 * band + np.where(own, 0, np.where(bitmask != 0, 1, 2))


def build_prime_class_sets(scales: ScaleSet, c: float = 0.01) -> PrimeClassSets:
    """Extract the per-scale prime sets for x^2 + 1 and classify every row.

    c must be finite and positive. The values of x^2 + 1 are sieved up to
    x_k, the largest scale; the table is kept as sets.table. Every set is in
    ascending prime order, and candidate_sizes equals sizes: no witness is
    shared (module docstring), so no candidate is dropped.
    """
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"threshold constant c must be finite and positive, got {c}")
    if scales.k > _MAX_SCALES:
        raise ValueError(f"at most {_MAX_SCALES} scales are supported")
    xs = scales.xs
    table = sieve_values(IntPolynomial(_TARGET_POLY), xs[-1])
    primes, inverse = table.prime_index()
    rows = table.entry_rows()
    # a prime's first witness n (its first row + 1) lies in one band
    # (x_{i-1}, x_i], which fixes the one scale i whose set it can join
    first_row = np.full(len(primes), table.n_max)
    np.minimum.at(first_row, inverse, rows)
    band = np.searchsorted(xs, first_row, side="right")
    bound = np.array(xs)[band]
    below = np.bincount(inverse[rows < bound[inverse]], minlength=len(primes))
    theta = np.array([c * x * math.log(x) for x in xs])
    # above the threshold, with no second witness up to x_i
    kept = np.flatnonzero((primes > theta[band]) & (below == 1))
    sizes = np.bincount(band[kept], minlength=scales.k)
    # a stable sort by band keeps every set in ascending prime order
    kept = kept[np.argsort(band[kept], kind="stable")]
    cuts = np.cumsum(sizes)[:-1]
    prime_sets = np.split(primes[kept], cuts)
    first_occ = np.split(first_row[kept] + 1, cuts)
    # int8 scale labels (k <= _MAX_SCALES) keep the per-entry gather small
    scale_of = np.full(len(primes), -1, dtype=np.int8)
    scale_of[kept] = band[kept]
    label = scale_of[inverse]
    hit = label >= 0
    labels = _band_labels(xs, rows[hit], label[hit])
    sf_counts = np.bincount(labels[np.asarray(table.is_squarefree)], minlength=3 * scales.k)
    return PrimeClassSets(
        scales=scales,
        c=c,
        table=table,
        prime_sets=tuple(prime_sets),
        first_occurrence=tuple(first_occ),
        sizes=tuple(int(n) for n in sizes),
        candidate_sizes=tuple(int(n) for n in sizes),
        labels=labels,
        class1_sf=tuple(int(n) for n in sf_counts[0::3]),
    )


def _class_sums(sums: np.ndarray):
    """Classes 1, 2 and 3 and the partial sum at every scale, from band sums.

    sums[:, 3i:3i + 3] are trial sums over the three groups of band i + 1.
    Returns (s1, s2, s3, msum), each trials by scales.
    """
    bands = sums.reshape(len(sums), -1, 3)
    msum = np.cumsum(bands.sum(axis=2), axis=1)
    s1 = bands[:, :, 0]
    s3 = np.cumsum(bands[:, :, 2], axis=1)
    return s1, msum - s1 - s3, s3, msum


def _direct_classes_2_3(sets: PrimeClassSets, seeds) -> tuple[np.ndarray, ...]:
    """Band sums, and classes 2 and 3 of every scale summed from their definitions.

    Returns the sums over sets.labels' 3k groups and (d2, d3), each trials
    by scales, from one hash of seeds. Class 2 of scale i is the rows below
    x_i holding any scale's prime less those whose only scale prime is of
    scale i, and class 3 the untouched rows below x_i. So two more label
    rows add 3k groups: each band's touched and untouched rows, and each
    scale's own-prime-only rows below its x_i, from the scale-prime hits
    that _scale_hits finds in the prime sets and the table, not from labels.
    """
    xs = np.array(sets.scales.xs)
    k, xk = len(xs), xs[-1]
    _, rows, label = _scale_hits(sets.table, sets.prime_sets)
    bitmask = _row_bitmask(rows, label, xk)
    below = rows < xs[label]
    rows, label = rows[below], label[below]
    only = bitmask[rows] == np.uint64(1) << label.astype(np.uint64)
    own = np.full(xk, -1)
    own[rows[only]] = 5 * k + label[only].astype(np.int64)
    band = np.searchsorted(xs, np.arange(xk), side="right")
    labels = np.stack([sets.labels, 3 * k + 2 * band + (bitmask == 0), own])
    sums = trial_sums(sets.table, seeds, RADEMACHER, (labels, 6 * k))
    bands = np.cumsum(sums[:, 3 * k:5 * k].reshape(len(sums), k, 2), axis=1)
    return sums[:, :3 * k], bands[:, :, 0] - sums[:, 5 * k:], bands[:, :, 1]


@dataclass(frozen=True)
class FluctuationReport:
    """Across-trial statistics of the multi-scale decomposition.

    s2 and s3 are derived from the band sums (see the module docstring).
    partition_exact is True when classes 2 and 3 of every scale, summed
    directly from their definitions for the first min(trials, 64) trials,
    equal the derived values; the direct sums are those of
    _direct_classes_2_3, built from the scale-prime hits that _scale_hits
    finds in the prime sets, not from labels. candidate_sizes counts the
    primes passing every condition but the shared-witness one, which never
    binds for x^2 + 1, so it equals sizes.
    """

    xs: tuple[int, ...]
    mode: str
    c: float
    trials: int
    seed: int
    sizes: tuple[int, ...]
    candidate_sizes: tuple[int, ...]
    class1_sf: tuple[int, ...]
    beta_exact: tuple[float, ...]
    beta_hat: tuple[float, ...]
    sigma_hat: tuple[float, ...]
    norm_stat_mean: tuple[float, ...]
    s1_mean: tuple[float, ...]
    s2_mean: tuple[float, ...]
    s3_mean: tuple[float, ...]
    s1_sq_mean: tuple[float, ...]
    s2_sq_mean: tuple[float, ...]
    s3_sq_mean: tuple[float, ...]
    max_stat_quantiles: tuple[tuple[float, float], ...]
    threshold_fractions: tuple[tuple[float, float], ...]
    partition_exact: bool
    degenerate_scales: tuple[int, ...]


def lil_scan(sets: PrimeClassSets, trials: int = 500, seed: int = 0) -> FluctuationReport:
    """Monte Carlo scan of the scale decomposition under Rademacher f.

    The scales, the threshold constant and the row classes all come from
    sets, as built by build_prime_class_sets. Each trial sums f over the
    3k band groups once and derives the three classes and the partial sum
    of every scale; the first word of trials also rechecks classes 2 and 3
    directly in the same pass (partition_exact). The per-scale single-prime
    sums are then studentized by their across-trial standard deviation and
    the maximum over scales is compared against sqrt(log k).
    Scales whose single-prime sum never varies are excluded from the maximum
    and reported.
    """
    if trials < 2:
        raise ValueError("need at least two trials")
    xs = sets.scales.xs
    k = len(xs)
    xarr = np.array(xs, dtype=np.int64)
    seeds = derive_seeds(seed, trials)
    # one word of Rademacher trials is 64 seeds
    first, d2, d3 = _direct_classes_2_3(sets, seeds[:64])
    rest = trial_sums(sets.table, seeds[64:], RADEMACHER, (sets.labels, 3 * k))
    s1, s2, s3, msum = _class_sums(np.concatenate([first, rest]))
    partition_exact = np.array_equal(d2, s2[:len(d2)]) and np.array_equal(d3, s3[:len(d3)])
    lnln = np.log(np.log(xarr.astype(np.float64)))
    norm_stat = np.abs(msum) / np.sqrt(xarr * lnln)
    sigma = s1.std(axis=0, ddof=1)
    beta_hat = s1.var(axis=0, ddof=1) / xarr
    beta_exact = np.array(sets.class1_sf, dtype=np.float64) / xarr
    alive = sigma > 0
    degenerate = tuple(int(i + 1) for i in np.nonzero(~alive)[0])
    if alive.any():
        stud = np.abs(s1[:, alive]) / sigma[alive]
        max_stud = stud.max(axis=1)
    else:
        max_stud = np.zeros(trials)
    qs = (0.1, 0.25, 0.5, 0.75, 0.9)
    quants = tuple((float(q), float(np.quantile(max_stud, q))) for q in qs)
    u = math.sqrt(math.log(k))
    fractions = ((u, float((max_stud > u).mean())),)
    return FluctuationReport(
        xs=xs,
        mode=sets.scales.mode,
        c=sets.c,
        trials=trials,
        seed=seed,
        sizes=sets.sizes,
        candidate_sizes=sets.candidate_sizes,
        class1_sf=sets.class1_sf,
        beta_exact=tuple(float(b) for b in beta_exact),
        beta_hat=tuple(float(b) for b in beta_hat),
        sigma_hat=tuple(float(s) for s in sigma),
        norm_stat_mean=tuple(float(m) for m in norm_stat.mean(axis=0)),
        s1_mean=tuple(float(m) for m in s1.mean(axis=0)),
        s2_mean=tuple(float(m) for m in s2.mean(axis=0)),
        s3_mean=tuple(float(m) for m in s3.mean(axis=0)),
        s1_sq_mean=tuple(float(m) for m in (s1**2).mean(axis=0)),
        s2_sq_mean=tuple(float(m) for m in (s2**2).mean(axis=0)),
        s3_sq_mean=tuple(float(m) for m in (s3**2).mean(axis=0)),
        max_stat_quantiles=quants,
        threshold_fractions=fractions,
        partition_exact=partition_exact,
        degenerate_scales=degenerate,
    )
