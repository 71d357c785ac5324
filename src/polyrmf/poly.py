"""Integer polynomials: exact evaluation, classification, and roots modulo m.

Coefficients are stored ascending (constant term first). Scalar arithmetic
on polynomial values is exact Python-integer arithmetic; values evaluates
whole ranges exactly, in wrapping 64-bit arithmetic (values_int64) when a
bound on the coefficients proves every value fits int64 and in Python
integers otherwise. Roots modulo primes come from one algorithm for every
degree: roots_mod_primes splits the primes in blocks of a fixed size and
splits P modulo a whole block at once by Cantor-Zassenhaus gcds with
(x + a)**((p - 1)/2) -+ 1, in int64 arithmetic that is exact while
(deg P + 1) * p**2 < 2**63 and refused with DomainError past it. Roots
modulo p**2 are counted, not listed, by Hensel lifting the roots modulo p:
count_roots_mod_prime_squares counts the simple ones for all primes at once
and lifts the few singular ones in Python integers. classify
decides every degree on one path: the rational roots of P are found
p-adically from the roots modulo a prime, lifted and reconstructed as
fractions, so no divisor of a coefficient is enumerated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .intmath import is_squarefree_int, primes_up_to

LINEAR_FACTORS = "distinct_linear_factors"
IRREDUCIBLE_QUADRATIC = "irreducible_quadratic"
UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class PolyClass:
    """Structural class of an integer polynomial.

    kind is one of LINEAR_FACTORS (product of at least two pairwise
    non-proportional integer linear factors a*x + b, listed in factors, whose
    product is P exactly: the content of P is folded into the first),
    IRREDUCIBLE_QUADRATIC, or UNSUPPORTED (everything else: linear P,
    repeated factors, irreducible degree >= 3, mixed factorizations). The
    first two make up the class for which the paper proves the Gaussian
    limit.
    """

    kind: str
    factors: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, coefficients ascending; degree >= 1."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs) -> None:
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if len(cs) < 2:
            raise ValueError("polynomial must have degree at least 1")
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def from_string(cls, text: str) -> "IntPolynomial":
        """Parse a comma-separated ascending coefficient list, e.g. '1,0,1'."""
        return cls([int(part) for part in text.split(",")])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    def eval(self, n: int) -> int:
        """P(n) by Horner's rule, exact."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    __call__ = eval

    def derivative_coeffs(self) -> tuple[int, ...]:
        return tuple(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    def __str__(self) -> str:
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                term = f"{mag}x" if i == 1 else f"{mag}x^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def fixed_divisor(P: IntPolynomial) -> int:
    """gcd of P(n) over all integers n, computed as gcd(P(0), ..., P(d)).

    The gcd of any d+1 consecutive values already equals the gcd over all of
    Z, by finite differences.
    """
    g = 0
    for n in range(P.degree + 1):
        g = math.gcd(g, P(n))
    if g == 0:
        raise ValueError("polynomial vanishes at 0..d; cannot happen for degree >= 1")
    return g


def is_admissible(P: IntPolynomial) -> bool:
    """True when no prime p has p**2 dividing every value P(n).

    Equivalent to the fixed divisor being squarefree, since p**2 | P(n) for
    all n exactly when p**2 divides gcd of all values. Raises DomainError
    when is_squarefree_int cannot decide that, which needs a fixed divisor
    of at least 2**63; it divides every value, so this never happens for a
    polynomial whose values sieve_values accepts.
    """
    return is_squarefree_int(fixed_divisor(P))


# ---------------------------------------------------------------------------
# values over integer ranges

_U64_MASK = (1 << 64) - 1


def values_int64(P: IntPolynomial, lo: int, hi: int) -> np.ndarray:
    """P(n) mod 2**64, as int64, for lo <= n < hi.

    Horner's rule runs in wrapping uint64 arithmetic with every coefficient
    reduced mod 2**64. Reduction mod 2**64 is a ring map from Z, so each
    entry is P(n) itself whenever every value lies in int64, however large
    the coefficients or the intermediates; values decides when that holds.
    """
    n = np.arange(lo, hi, dtype=np.int64).view(np.uint64)
    acc = np.full(len(n), P.leading & _U64_MASK, dtype=np.uint64)
    for c in reversed(P.coeffs[:-1]):
        acc *= n
        acc += np.uint64(c & _U64_MASK)
    return acc.view(np.int64)


def values(P: IntPolynomial, lo: int, hi: int) -> np.ndarray:
    """P(n) for lo <= n < hi, exact.

    The array is int64 exactly when every value fits it, and holds Python
    ints otherwise. When sum |c_i| * M**i < 2**63 for M = max(|lo|, |hi - 1|)
    every value fits, and values_int64 computes them; past that bound they
    are evaluated in Python ints and cast to int64 if they all fit.
    """
    m = max(abs(lo), abs(hi - 1))
    if sum(abs(c) * m**i for i, c in enumerate(P.coeffs)) < 1 << 63:
        return values_int64(P, lo, hi)
    vals = [P.eval(n) for n in range(lo, hi)]
    try:
        return np.array(vals, dtype=np.int64)
    except OverflowError:
        return np.array(vals, dtype=object)


@lru_cache(maxsize=512)
def classify(P: IntPolynomial) -> PolyClass:
    """Classify P by its factorization over Z.

    A linear P is UNSUPPORTED: it lies outside the paper's class. Every
    other degree takes one path: P is LINEAR_FACTORS when _rational_roots
    finds deg P distinct rational roots num/den, with the factors
    den*x - num and the content lead / prod den (an integer by Gauss's
    lemma) folded into the first. Otherwise a quadratic with b**2 != 4ac is
    IRREDUCIBLE_QUADRATIC and everything else is UNSUPPORTED.
    """
    if P.degree < 2:
        return PolyClass(UNSUPPORTED)
    roots = _rational_roots(P)
    if roots is not None:
        factors = [(den, -num) for num, den in roots]
        const = P.leading // math.prod(den for _, den in roots)
        factors[0] = (const * factors[0][0], const * factors[0][1])
        return PolyClass(LINEAR_FACTORS, tuple(factors))
    if P.degree == 2:
        c, b, a = P.coeffs
        if b * b != 4 * a * c:
            return PolyClass(IRREDUCIBLE_QUADRATIC)
    return PolyClass(UNSUPPORTED)


# ---------------------------------------------------------------------------
# roots modulo primes and root counts modulo prime squares


def _eval_mod(coeffs, x: int, m: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _newton_step(P: IntPolynomial, r: int, inv: int, m: int) -> tuple[int, int]:
    """The root mod m**2 above a root r of P mod m, and P' of it inverted mod m**2.

    inv is P'(r)**-1 mod m. The root is r - P(r) * inv; as it is r mod m, inv
    inverts P' at it mod m too, and one Newton step for the inverse,
    inv * (2 - P' * inv), lifts that to mod m**2 without a modular inversion.
    """
    mm = m * m
    r = (r - _eval_mod(P.coeffs, r, mm) * inv) % mm
    return r, inv * (2 - _eval_mod(P.derivative_coeffs(), r, mm) * inv) % mm


# Roots modulo many primes at once. Every array below holds one row per prime
# (q is the row's prime); a polynomial is one int64 array per coefficient, or
# a 2-D array with one column per coefficient where rows differ in degree.
# Entries stay below (d + 1) * q**2 for d = deg P, which is what the bound
# check in roots_mod_primes guarantees to fit int64: a value reduced mod q
# counts as one q**2 and a product of two reduced values as one more, and a
# sum is reduced before it would hold more than k + 1 <= d + 1 of them.

_INT64_LIMIT = 1 << 63


def _mod_primes(c: int, q: np.ndarray) -> np.ndarray:
    """c mod every entry of q, exact for an integer of any size."""
    if abs(c) < _INT64_LIMIT:
        return np.int64(c) % q
    return (c % q.astype(object)).astype(np.int64)


def _inv_rows(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """a**-1 mod q row by row, as a**(q - 2); every a is a unit mod its q."""
    out = np.ones_like(q)
    e = q - 2
    for bit in range(int(e.max(initial=0)).bit_length()):
        out = np.where((e >> bit) & 1, out * a % q, out)
        a = a * a % q
    return out


def _degrees(m: np.ndarray) -> np.ndarray:
    """Degree of each row of a 2-D coefficient array; -1 for a zero row."""
    nz = m != 0
    deg = m.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1)
    deg[~nz.any(axis=1)] = -1
    return deg


def _sqr_mod(r: list, nf: list, q: np.ndarray) -> list:
    """r**2 mod f; nf holds -f_i mod q for the monic f = x**k + sum f_i x**i."""
    k = len(r)
    c = [None] * (2 * k - 1)
    units = [0] * (2 * k - 1)  # each c[j] < units[j] * q**2
    for i in range(k):
        for j in range(i, k):
            t = r[i] * r[j] if i == j else 2 * r[i] * r[j]
            c[i + j] = t if c[i + j] is None else c[i + j] + t
            units[i + j] += 1 if i == j else 2
    # x**m = x**(m - k) * (x**k - f) for m = 2k - 2 down to k
    for m in range(2 * k - 2, k - 1, -1):
        t = c[m] % q
        for i in range(k):
            j = m - k + i
            if units[j] > k:
                c[j] %= q
                units[j] = 1
            c[j] += t * nf[i]
            units[j] += 1
    return [c[j] % q for j in range(k)]


def _half_power(f: list, a: int, q: np.ndarray) -> list:
    """(x + a)**((q - 1)/2) mod the monic f = x**k + sum f_i x**i, row by row."""
    k = len(f)
    nf = [q - fi for fi in f]
    e = (q - 1) // 2
    r = [np.ones_like(q)] + [np.zeros_like(q) for _ in range(k - 1)]
    for bit in reversed(range(int(e.max(initial=0)).bit_length())):
        r = _sqr_mod(r, nf, q)
        # multiply by (x + a) on the rows whose exponent has this bit: by
        # b*x + (b*a + 1 - b), with b the bit
        b = (e >> bit) & 1
        lo = 1 + b * (a - 1)
        top = b * r[-1]
        r = [(lo * r[0] + top * nf[0]) % q] + [
            (b * r[i - 1] + lo * r[i] + top * nf[i]) % q for i in range(1, k)
        ]
    return r


def _gcd_rows(r0: np.ndarray, r1: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise gcd over F_q of r0 (degree k, k + 1 columns) and r1 (k columns).

    Bernstein and Yang's division steps ("Fast constant-time gcd computation
    and modular inversion", TCHES 2019, Theorem 6.2) on the reversals
    f = x**k r0(1/x) and g = x**(k - 1) r1(1/x): 2k - 1 steps, the same for
    every row, each with no branch and no inverse. After them the gcd has
    degree delta/2 and is x**(delta/2) f(1/x) up to a unit. Returns the gcd
    rows (ascending, not monic) and their degrees.
    """
    n, width = r0.shape
    f = r0[:, ::-1]
    g = np.zeros_like(r0)
    g[:, :-1] = r1[:, ::-1]
    delta = np.ones(n, dtype=np.int64)
    for _ in range(2 * width - 3):
        swap = (delta > 0) & (g[:, 0] != 0)
        f, g = np.where(swap[:, None], g, f), np.where(swap[:, None], f, g)
        delta = np.where(swap, 1 - delta, 1 + delta)
        # (f(0) g - g(0) f) / x; its constant term is 0 by construction
        g[:, :-1] = (f[:, :1] * g[:, 1:] - g[:, :1] * f[:, 1:]) % q[:, None]
        g[:, -1] = 0
    deg = delta // 2
    idx = deg[:, None] - np.arange(width)
    return np.where(idx >= 0, np.take_along_axis(f, np.maximum(idx, 0), axis=1), 0), deg


def _monic_pieces(m: np.ndarray, deg: np.ndarray, q: np.ndarray, found: list) -> dict:
    """Sort rows of positive degree into roots and pieces to split further.

    A row of degree 1 appends its root to found as (q, r); a row of degree
    k >= 2 is made monic and returned under key k as (q, low coefficients).
    """
    keep = np.nonzero(deg >= 1)[0]
    m, deg, q = m[keep], deg[keep], q[keep]
    lead = m[np.arange(len(q)), deg]
    inv = np.ones_like(q)
    scale = np.nonzero(lead != 1)[0]
    inv[scale] = _inv_rows(lead[scale], q[scale])
    m = m * inv[:, None] % q[:, None]
    pieces = {}
    for k in np.unique(deg).tolist():
        rows = deg == k
        if k == 1:
            found.append((q[rows], -m[rows, 0] % q[rows]))
        else:
            pieces[k] = (q[rows], m[rows, :k])
    return pieces


def _split_pieces(pieces: dict, found: list) -> None:
    """Append to found the roots of every monic piece mod its odd prime.

    Round a splits every piece f by gcd(f, (x + a)**((q - 1)/2) -+ 1) and
    tests the root -a by evaluation. Both gcds hold only linear factors: if
    an irreducible h of degree >= 2 divided one, (x + a)**(q - 1) = 1 in the
    field F_q[x]/h would put x + a, and so x, in F_q. So after round 0 every
    piece is a product of distinct linear factors. One whose roots r all give
    r + a the same quadratic character waits for the next a, merged with the
    other pieces of its degree. By a = q - 1 every root has been tested, so
    the rounds end.
    """
    a = 0
    while pieces:
        merged: dict = {}
        for k, (q, f) in pieces.items():
            at = np.ones_like(q)
            for i in reversed(range(k)):
                at = (at * (q - a) + f[:, i]) % q
            hit = at == 0
            found.append((q[hit], (q[hit] - a) % q[hit]))
            w = np.column_stack(_half_power([np.ascontiguousarray(f[:, i]) for i in range(k)], a, q))
            w = np.concatenate([w, w])
            qq = np.concatenate([q, q])
            w[:, 0] = (w[:, 0] + np.repeat([-1, 1], len(q))) % qq
            ff = np.column_stack([f, np.ones_like(q)])
            g, dg = _gcd_rows(np.concatenate([ff, ff]), w, qq)
            for kk, (qk, fk) in _monic_pieces(g, dg, qq, found).items():
                merged.setdefault(kk, []).append((qk, fk))
        pieces = {k: tuple(np.concatenate(part) for part in zip(*v)) for k, v in merged.items()}
        a += 1


# primes split together: the splitting scratch of one block is all that
# roots_mod_primes holds beside the roots it returns
_PRIME_BLOCK = 1 << 14


def _block_roots(P: IntPolynomial, q: np.ndarray, found: list) -> None:
    """Append to found, as (ps, rs) array pairs, every root of P modulo every q."""
    m = np.column_stack([_mod_primes(c, q) for c in P.coeffs])
    deg = _degrees(m)
    zero = deg < 0
    if zero.any():  # P = 0 mod q: every residue
        qz = q[zero]
        found.append((np.repeat(qz, qz), np.arange(int(qz.sum())) - np.repeat(np.cumsum(qz) - qz, qz)))
    two = (q == 2) & ~zero
    for r, value in ((0, m[two, 0]), (1, m[two].sum(axis=1))):  # P(0) and P(1)
        hit = value % 2 == 0
        found.append((q[two][hit], np.full(int(hit.sum()), r, dtype=np.int64)))
    odd = np.nonzero(~zero & ~two)[0]
    _split_pieces(_monic_pieces(m[odd], deg[odd], q[odd], found), found)


def roots_mod_primes(P: IntPolynomial, primes) -> tuple[np.ndarray, np.ndarray]:
    """Every root r of P modulo every prime p in primes, as int64 arrays (ps, rs).

    Pairs are sorted by (p, r); a prime dividing every coefficient gives all
    p residues. The primes are split in blocks of _PRIME_BLOCK at a time, so
    the scratch memory stays bounded however many there are, in int64
    arithmetic, exact while (deg P + 1) * p**2 < 2**63; past that bound this
    raises DomainError.
    """
    try:
        q = np.asarray(primes, dtype=np.int64).reshape(-1)
    except OverflowError:
        raise DomainError("a prime exceeds int64") from None
    if len(q) and (P.degree + 1) * int(q.max()) ** 2 >= _INT64_LIMIT:
        raise DomainError(
            f"prime {int(q.max())} is too large for exact int64 roots of a degree "
            f"{P.degree} polynomial: needs (deg + 1) * p**2 < 2**63"
        )
    found = []
    for lo in range(0, len(q), _PRIME_BLOCK):
        _block_roots(P, q[lo : lo + _PRIME_BLOCK], found)
    ps = np.concatenate([p for p, _ in found] + [np.empty(0, np.int64)])
    rs = np.concatenate([r for _, r in found] + [np.empty(0, np.int64)])
    order = np.lexsort((rs, ps))
    return ps[order], rs[order]


def _lift_kinds(P: IntPolynomial, ps: np.ndarray, rs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hensel's lemma for the roots rs[i] of P mod ps[i], as masks (simple, fibre).

    No ps[i] may divide every coefficient. A simple root r mod p (P'(r) != 0
    mod p) lifts to exactly one root mod p**2, r - P(r)/P'(r). A singular
    root is a fibre, all of whose p lifts r + t*p are roots mod p**2, when
    p**2 divides P(r), and lifts to no root otherwise. Slopes are taken for
    all roots at once; only singular roots are evaluated mod p**2, in Python
    integers.
    """
    slope = np.zeros_like(rs)
    for c in reversed(P.derivative_coeffs()):
        slope = (slope * rs + _mod_primes(c, ps)) % ps
    simple = slope != 0
    fibre = np.zeros_like(simple)
    for i in np.nonzero(~simple)[0].tolist():
        p = int(ps[i])
        fibre[i] = _eval_mod(P.coeffs, int(rs[i]), p * p) == 0
    return simple, fibre


def _rational_roots(P: IntPolynomial) -> list[tuple[int, int]] | None:
    """The d = deg P roots (num, den) of P, in lowest terms with den > 0, when
    P has d distinct rational roots; None otherwise.

    The roots are found p-adically (Loos, "Computing rational zeros of
    integral polynomials by p-adic expansion", SIAM J. Comput. 12, 1983).
    At a prime p that does not divide the leading coefficient, P mod p has
    degree d; if P has d distinct rational roots, those reduce to d roots mod
    p, all simple, unless p divides some num_i den_j - num_j den_i. Every
    root has |num|, den <= h = max |c_i|, so these differences are nonzero
    with product D, 0 < |D| <= budget = (2h**2)**(d(d-1)/2), and primes
    whose product passes budget cannot all divide D. So the primes that do
    not divide the leading coefficient are scanned in chunks of doubling
    size, up to the first modulo which P has d roots or until their product
    passes budget. Those d roots are Newton-lifted to p**(2**j) > 2h**2,
    recovered as fractions by rational reconstruction and checked exactly
    against P. Raises DomainError, as roots_mod_primes does, if the scan
    reaches a prime p with (d + 1) * p**2 >= 2**63.
    """
    d, coeffs = P.degree, P.coeffs
    h = max(abs(c) for c in coeffs)
    budget = (2 * h * h) ** (d * (d - 1) // 2)
    bound, seen, covered = 32, 0, 1
    while covered <= budget:
        bound *= 2
        q = primes_up_to(bound)[seen:]
        seen += len(q)
        q = q[_mod_primes(P.leading, q) != 0]
        covered *= math.prod(q.tolist())
        ps, rs = roots_mod_primes(P, q)
        split, counts = np.unique(ps, return_counts=True)
        split = split[counts == d]
        if len(split):
            break
    else:
        return None
    p = int(split[0])
    dP = P.derivative_coeffs()
    lifted = [(r, pow(_eval_mod(dP, r, p), -1, p)) for r in rs[ps == p].tolist()]
    m = p
    while m <= 2 * h * h:
        lifted = [_newton_step(P, r, inv, m) for r, inv in lifted]
        m *= m
    roots = []
    for r, _ in lifted:
        # rational reconstruction: Euclid's algorithm on (m, r), stopped at
        # the first remainder num <= h, gives num = den * r mod m with den its
        # cofactor; as m > 2h**2, no other fraction with |num|, den <= h does
        r0, r1, s0, s1 = m, r, 0, 1
        while r1 > h:
            k = r0 // r1
            r0, r1, s0, s1 = r1, r0 - k * r1, s1, s0 - k * s1
        g = math.gcd(r1, s1) if s1 > 0 else -math.gcd(r1, s1)
        num, den = r1 // g, s1 // g
        if sum(c * num**i * den ** (d - i) for i, c in enumerate(coeffs)) != 0:
            return None
        roots.append((num, den))
    return roots


def count_roots_mod_prime_squares(P: IntPolynomial, primes) -> np.ndarray:
    """rho(p**2) for every prime p in primes, as an int64 array in their order.

    rho(p**2) counts the residues r mod p**2 with P(r) = 0 mod p**2: one for
    each simple root mod p and p for each fibre (see _lift_kinds), found for
    all primes at once. A prime dividing every coefficient counts p for each
    root of P/p mod p. Raises DomainError once (deg P + 1) * p**2 >= 2**63, as
    roots_mod_primes does.
    """
    q, at = np.unique(np.asarray(primes).reshape(-1), return_inverse=True)
    ps, rs = roots_mod_primes(P, q)
    q = q.astype(np.int64)
    content = q[np.logical_and.reduce([_mod_primes(c, q) == 0 for c in P.coeffs])]
    keep = ~np.isin(ps, content)
    ps, rs = ps[keep], rs[keep]
    simple, fibre = _lift_kinds(P, ps, rs)
    lifts = np.where(simple, 1, np.where(fibre, ps, 0))
    # the float sums are exact: each is at most deg P * p < 2**53
    rho = np.bincount(np.searchsorted(q, ps), weights=lifts, minlength=len(q)).astype(np.int64)
    for p in content.tolist():  # P = 0 mod p**2 exactly when P/p = 0 mod p
        quotient = IntPolynomial([c // p for c in P.coeffs])
        rho[np.searchsorted(q, p)] = p * len(roots_mod_primes(quotient, [p])[0])
    return rho[at]
