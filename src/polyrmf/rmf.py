"""Random multiplicative functions and Monte Carlo partial-sum statistics.

Prime signs/angles come from a counter-based hash of (seed, prime),
mix64(mix64(p ^ _PRIME_TWEAK) ^ mix64(seed ^ _SEED_TWEAK)) with mix64 the
splitmix64 finalizer, so a trial is a pure function of its seed: no state
and no order dependence. Rademacher f takes f(p) = +-1 i.i.d., the sign bit
of the hash, with f supported on squarefree values; Steinhaus f takes f(p)
uniform on the unit circle, at the angle 2 pi (hash >> 11) / 2**53, extended
completely multiplicatively.

trial_sums is the one place f is summed, over groups of rows given by one
label per row. Rademacher trials run 64 to a word: bit t of a prime's uint64
sign word is the sign bit of its hash under seed t, the XOR of a squarefree
row's prime words holds f at that row for all 64 trials, and the group sums
come from counts of set bits per group and trial. Steinhaus angles are held
as exact uint64 words, theta_p * 2**64 = hash with its low 11 bits cleared,
so the phase of a row, sum of e * theta_p mod 1, comes exactly from A @ words
in wrapping uint64 arithmetic, with A the table's sparse incidence matrix
(rows by distinct primes, holding exponents), built once per call. f =
exp(2 pi i phase) is then a table entry exp(2 pi i k / 2**12) times short
Taylor polynomials for the cosine and sine of the rest, and is summed by a
0/1 group matrix. Results depend neither on trial order nor on block size.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import ndtr

from .errors import DomainError
from .moments import _sum_squares, second_moment_exact
from .poly import IRREDUCIBLE_QUADRATIC, LINEAR_FACTORS, classify, is_admissible
from .sieve import ValueTable, kappa_euler

RADEMACHER = "rademacher"
STEINHAUS = "steinhaus"
_MODELS = (RADEMACHER, STEINHAUS)

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SEED_TWEAK = 0xA0761D6478BD642F
_PRIME_TWEAK = 0xE7037ED1A0B428DB
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB
# f-values held at once by trial_sums: rows x trials per product or unpacking
_BLOCK_ENTRIES = 1 << 17
# primes hashed at once against a word of 64 Rademacher seeds
_HASH_TILE = 1024
# a Steinhaus angle theta_p = (hash >> 11) / 2**53 as the word theta_p * 2**64
_ANGLE_MASK = np.uint64(_MASK ^ 0x7FF)
# phases split into the nearest multiple k / 2**_TURN_BITS of a full turn and
# a rest of at most half a step, in units of 2**-64 turn
_TURN_BITS = 12
_STEP_SHIFT = np.uint64(64 - _TURN_BITS)
_HALF_STEP = 1 << (63 - _TURN_BITS)
_REST_MASK = np.uint64((1 << (64 - _TURN_BITS)) - 1)
_RADIANS_PER_UNIT = 2 * np.pi * 2.0**-64


def _turn_table(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi k / 2**bits for k < 2**bits.

    Each is evaluated at an angle of at most pi/4 and turned into place by a
    power of i, which only swaps and negates parts, so every entry is within
    2e-16 of the true value and entry 0 is exactly 1 + 0i.
    """
    k = np.arange(1 << bits)
    quarter = (k + (1 << (bits - 3))) >> (bits - 2)
    z = np.exp(2j * np.pi * (k - (quarter << (bits - 2))) / (1 << bits))
    z *= np.array([1, 1j, -1, -1j])[quarter % 4]
    return z.real.copy(), z.imag.copy()


_TURN_COS, _TURN_SIN = _turn_table(_TURN_BITS)


def _mix64_u64(z: np.ndarray) -> np.ndarray:
    """mix64, the splitmix64 finalizer, on every uint64 word of z."""
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(_MIX_C1)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(_MIX_C2)
    return z ^ (z >> np.uint64(31))


def derive_seeds(seed: int, count: int) -> list[int]:
    """Stream seeds of trials 0..count-1: trial t gets mix64(seed + (t + 1) * _GOLDEN)."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    return _mix64_u64(steps + np.uint64(seed & _MASK)).tolist()


def _sign_words(pm: np.ndarray, s0: np.ndarray) -> np.ndarray:
    """One word per prime whose bit t is the sign bit of the hash of (seeds[t], p).

    pm holds mix64(p ^ _PRIME_TWEAK) per prime and s0 mix64(seed ^ _SEED_TWEAK)
    for at most 64 seeds. The hash runs in place on tiles of _HASH_TILE
    primes. Its last step, z ^ (z >> 31), leaves bit 63 as it is, so it is
    skipped.
    """
    packed = np.zeros((len(pm), 8), dtype=np.uint8)
    z = np.empty((min(len(pm), _HASH_TILE), len(s0)), dtype=np.uint64)
    tmp = np.empty_like(z)
    for lo in range(0, len(pm), _HASH_TILE):
        hi = min(lo + _HASH_TILE, len(pm))
        zt, tt = z[:hi - lo], tmp[:hi - lo]
        np.bitwise_xor(pm[lo:hi, None], s0, out=zt)
        np.right_shift(zt, np.uint64(30), out=tt)
        zt ^= tt
        zt *= np.uint64(_MIX_C1)
        np.right_shift(zt, np.uint64(27), out=tt)
        zt ^= tt
        zt *= np.uint64(_MIX_C2)
        signs = np.packbits(zt >= np.uint64(1 << 63), axis=1, bitorder="little")
        packed[lo:hi, :signs.shape[1]] = signs
    return packed.view("<u8")[:, 0]


def _unit_circle(phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of exp(2 pi i phase / 2**64), elementwise.

    phase is uint64 and is overwritten. Its top _TURN_BITS bits, rounded to
    nearest, pick k and the table entry exp(2 pi i k / 2**_TURN_BITS); the
    signed rest, t radians with |t| <= pi / 2**_TURN_BITS, turns that entry
    by cos t = 1 - t**2/2 + t**4/24 and sin t = t - t**3/6, whose dropped
    terms are below 3e-18. A phase of 0 gives exactly 1 + 0i.
    """
    phase += np.uint64(_HALF_STEP)
    k = (phase >> _STEP_SHIFT).view(np.int64)
    phase &= _REST_MASK
    t = phase.astype(np.float64)
    t -= _HALF_STEP
    t *= _RADIANS_PER_UNIT
    t2 = t * t
    cos_t = np.multiply(t2, 1 / 24)
    cos_t -= 0.5
    cos_t *= t2
    cos_t += 1.0
    sin_t = np.multiply(t2, -1 / 6, out=t2)
    sin_t += 1.0
    sin_t *= t
    # t, phase and k are spent from here on: their buffers hold the table
    # entries and re, so the whole kernel needs five arrays of phase's size
    table_cos = np.take(_TURN_COS, k, out=t, mode="wrap")
    table_sin = np.take(_TURN_SIN, k, out=phase.view(np.float64), mode="wrap")
    re = np.multiply(table_cos, cos_t, out=k.view(np.float64))
    cos_t *= table_sin
    table_sin *= sin_t
    re -= table_sin
    sin_t *= table_cos
    sin_t += cos_t
    return re, sin_t


def _row_parity_words(table: ValueTable, words: np.ndarray) -> np.ndarray:
    """Per row, the XOR of its primes' sign words.

    Bit t of a squarefree row's word is 1 exactly when f(P(n)) = -1 in trial
    t; f is 0 on the other rows, which trial_sums leaves out. A unit row
    holds no prime, so its word is 0 and f = 1 there.
    """
    out = np.zeros(table.n_max, dtype="<u8")
    starts = table.row_ptr[:-1]
    nonempty = starts < table.row_ptr[1:]
    out[nonempty] = np.bitwise_xor.reduceat(words[table.prime_index()[1]], starts[nonempty])
    return out


def trial_sums(table: ValueTable, seeds, model: str, groups=None) -> np.ndarray:
    """Group sums of f(P(n)), one row per trial seed: shape (len(seeds), n_groups).

    groups is (labels, n_groups): labels holds each table row's group in
    [0, n_groups), or -1 for none, or is a 2-D stack of such label arrays,
    and row t is every group's sum of f for seeds[t]; groups=None is one
    group of all rows. Each trial depends on its own seed only, not on trial
    order or block size.

    Rademacher trials run in words of 64 seeds. A word's sign bits are one
    uint64 per prime (bit t is the sign of f(p) in trial t), and the XOR of
    the words of a squarefree row's primes holds f at that row for all 64
    trials. With the squarefree rows sorted by label once, a group's sum in
    trial t is its size less twice the count of its row words with bit t set
    (unpacked max(1, _BLOCK_ENTRIES // 64) at a time): exact, in float64.

    Steinhaus trials run in blocks of max(1, _BLOCK_ENTRIES // n_max) seeds:
    each block hashes its seeds against every prime and clears the low 11
    bits of each hash, which leaves theta_p * 2**64 exactly for the angle
    theta_p = (hash >> 11) / 2**53. The product A @ words with the uint64
    incidence matrix A (rows by primes, holding exponents) wraps mod 2**64,
    so it is the exact phase sum of e * theta_p mod 1 of every row, times
    2**64. f = exp(2 pi i phase) comes from a table of 2**12 points on the
    unit circle and Taylor polynomials for the rest (_unit_circle), with no
    complex exponential per row. Every row was within 3.2e-16 of the
    correctly rounded exp(2 pi i phase) in the exact-phase tests, and a unit
    row gives exactly 1.
    """
    if model not in _MODELS:
        raise ValueError(f"model must be one of {_MODELS}")
    labels, n_groups = (np.zeros(table.n_max, dtype=np.int64), 1) if groups is None else groups
    labels, n_groups = np.asarray(labels), int(n_groups)
    if not (np.issubdtype(labels.dtype, np.integer) and labels.ndim in (1, 2)
            and labels.shape[-1] == table.n_max and ((labels >= -1) & (labels < n_groups)).all()):
        raise ValueError(f"labels must be ints in [-1, {n_groups}), {table.n_max} to a row")
    flat = np.flatnonzero((labels >= 0) & (table.is_squarefree if model == RADEMACHER else True))
    flat = flat[np.argsort(labels.ravel()[flat], kind="stable")]
    rows, labels = flat % table.n_max, labels.ravel()[flat].astype(np.int64, copy=False)
    sizes = np.bincount(labels, minlength=n_groups)
    pm = _mix64_u64(table.prime_index()[0].astype(np.uint64) ^ np.uint64(_PRIME_TWEAK))
    seeds = (np.asarray(seeds, dtype=object) & _MASK).astype(np.uint64)
    s0 = _mix64_u64(seeds ^ np.uint64(_SEED_TWEAK))
    dtype = np.float64 if model == RADEMACHER else np.complex128
    out = np.empty((len(seeds), n_groups), dtype=dtype)
    if model == RADEMACHER:
        chunk = max(1, _BLOCK_ENTRIES // 64)
        for lo in range(0, len(seeds), 64):
            hi = min(lo + 64, len(seeds))
            words = _row_parity_words(table, _sign_words(pm, s0[lo:hi]))[rows]
            ones = np.zeros((n_groups, 64), dtype=np.int64)
            for c in range(0, len(rows), chunk):
                # a chunk's bits, one row per word, summed from each group start
                bits = np.unpackbits(words[c:c + chunk].view(np.uint8), bitorder="little")
                at = np.flatnonzero(np.diff(labels[c:c + chunk], prepend=-1))
                ones[labels[c + at]] += np.add.reduceat(bits.reshape(-1, 64), at, dtype=np.int64)
            out[lo:hi] = (sizes[:, None] - 2 * ones[:, :hi - lo]).T
        return out
    gT = sparse.csr_matrix((np.ones(len(rows)), rows, np.append(0, np.cumsum(sizes))),
                           shape=(n_groups, table.n_max))
    A = sparse.csr_matrix((table.flat_exps.astype(np.uint64), table.prime_index()[1],
                           table.row_ptr), shape=(table.n_max, len(pm)))
    block = max(1, _BLOCK_ENTRIES // table.n_max)
    for lo in range(0, len(seeds), block):
        words = _mix64_u64(pm[:, None] ^ s0[lo:lo + block])
        words &= _ANGLE_MASK
        re, im = _unit_circle(A @ words)
        out[lo:lo + block].real = (gT @ re).T
        out[lo:lo + block].imag = (gT @ im).T
    return out


@dataclass(frozen=True)
class CltReport:
    """Summary statistics of Monte Carlo normalized partial sums."""

    poly: str
    n_max: int
    trials: int
    seed: int
    model: str
    normalization: str
    normalizer: float
    outside_proven_class: bool
    mean_real: float
    mean_imag: float
    m2: float
    m4: float
    ks: float
    ks_vacuous: bool
    raw_m2: float
    raw_m4: float
    hist_edges: tuple[float, ...]
    hist_counts: tuple[int, ...]


def _ks_against_normal(x: np.ndarray) -> float:
    xs = np.sort(x)
    n = len(xs)
    cdf = ndtr(xs)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def monte_carlo_clt(
    table: ValueTable,
    trials: int,
    seed: int = 0,
    model: str = RADEMACHER,
    normalization: str = "exact",
    prime_bound: int = 100_000,
) -> CltReport:
    """Monte Carlo check of the central limit behavior of f-partial sums.

    The sums run over P(n), n <= N, with P = table.poly and N = table.n_max.
    normalization 'exact' divides by the exact L2 norm of the sum (the
    square root of the ordered equal-value squarefree pair count, or of the
    all-value count for Steinhaus); 'kappa' divides by sqrt(kappa * N), with
    kappa's Euler product cut at prime_bound (sqrt(N) for Steinhaus, which
    never reads prime_bound), and requires an admissible polynomial.
    The Kolmogorov statistic is computed against the standard normal (the
    real part scaled by sqrt(2) for Steinhaus) and flagged vacuous below 100
    trials.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if model not in _MODELS:
        raise ValueError(f"model must be one of {_MODELS}")
    if normalization not in ("exact", "kappa"):
        raise ValueError("normalization must be 'exact' or 'kappa'")
    P, n_max = table.poly, table.n_max
    kind = classify(P).kind
    outside = kind not in (LINEAR_FACTORS, IRREDUCIBLE_QUADRATIC) or not is_admissible(P)
    if normalization == "kappa":
        if model == RADEMACHER:
            normalizer = float(np.sqrt(kappa_euler(P, prime_bound) * n_max))
        else:
            if not is_admissible(P):
                raise DomainError("kappa normalization needs an admissible polynomial")
            normalizer = float(np.sqrt(n_max))
    else:
        if model == RADEMACHER:
            b = second_moment_exact(table)
        else:
            b = _sum_squares(np.unique(table.values, return_counts=True)[1])
        if b == 0:
            raise DomainError("partial sum is identically zero on this range")
        normalizer = float(np.sqrt(b))

    raw = trial_sums(table, derive_seeds(seed, trials), model)[:, 0]
    z = raw / normalizer
    if model == RADEMACHER:
        mean_real, mean_imag = float(z.mean()), 0.0
        m2 = float(np.mean(z**2))
        m4 = float(np.mean(z**4))
        raw_m2 = float(np.mean(raw**2))
        raw_m4 = float(np.mean(raw**4))
        ks_input = z
    else:
        mean_real, mean_imag = float(z.real.mean()), float(z.imag.mean())
        a2 = np.abs(z) ** 2
        m2 = float(a2.mean())
        m4 = float((a2**2).mean())
        ra = np.abs(raw) ** 2
        raw_m2 = float(ra.mean())
        raw_m4 = float((ra**2).mean())
        ks_input = z.real * np.sqrt(2.0)
    ks = _ks_against_normal(np.asarray(ks_input, dtype=np.float64))
    counts, edges = np.histogram(
        np.asarray(ks_input, dtype=np.float64), bins=np.linspace(-5.0, 5.0, 41)
    )
    return CltReport(
        poly=str(P),
        n_max=n_max,
        trials=trials,
        seed=seed,
        model=model,
        normalization=normalization,
        normalizer=normalizer,
        outside_proven_class=outside,
        mean_real=mean_real,
        mean_imag=mean_imag,
        m2=m2,
        m4=m4,
        ks=ks,
        ks_vacuous=trials < 100,
        raw_m2=raw_m2,
        raw_m4=raw_m4,
        hist_edges=tuple(float(e) for e in edges),
        hist_counts=tuple(int(c) for c in counts),
    )
