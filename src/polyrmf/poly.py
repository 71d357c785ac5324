"""Integer polynomials: exact evaluation, classification, and roots modulo m.

Coefficients are stored ascending (constant term first). Scalar arithmetic
on polynomial values is exact Python-integer arithmetic; values_int64
evaluates whole ranges in wrapping 64-bit arithmetic, exact whenever the
values themselves fit int64, which value_range decides exactly. Root finding
modulo a prime uses an exhaustive residue scan for small moduli and
closed-form solving (linear inversion, quadratic formula with a
Tonelli-Shanks square root) for large primes; the two paths agree exactly
and are cross-checked in tests. Roots modulo p**2 come from Hensel lifting
the roots modulo p, in Python integers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .intmath import (
    crt_pair,
    inv_mod,
    is_perfect_square,
    is_squarefree_int,
    sqrt_mod_prime,
    trial_factorize,
)

LINEAR_FACTORS = "distinct_linear_factors"
IRREDUCIBLE_QUADRATIC = "irreducible_quadratic"
UNSUPPORTED = "unsupported"

# below this, root finding mod p just scans every residue
_SCAN_LIMIT = 1024


@dataclass(frozen=True)
class PolyClass:
    """Structural class of a polynomial of degree >= 2.

    kind is one of LINEAR_FACTORS (product of pairwise non-proportional
    integer linear factors a*x + b, listed in factors), IRREDUCIBLE_QUADRATIC,
    or UNSUPPORTED (everything else: repeated factors, irreducible degree >= 3,
    mixed factorizations).
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
    all n exactly when p**2 divides gcd of all values.
    """
    return is_squarefree_int(fixed_divisor(P))


# ---------------------------------------------------------------------------
# values over integer ranges

_U64_MASK = (1 << 64) - 1


def values_int64(P: IntPolynomial, lo: int, hi: int) -> np.ndarray:
    """P(n) for lo <= n < hi as an int64 array.

    Horner's rule runs in wrapping uint64 arithmetic with every coefficient
    reduced mod 2**64. Reduction mod 2**64 is a ring map from Z, so each
    entry is P(n) mod 2**64, which is P(n) itself whenever every value lies in
    int64, however large the coefficients or the intermediates. Callers
    establish that first with value_range.
    """
    n = np.arange(lo, hi, dtype=np.int64).view(np.uint64)
    acc = np.full(len(n), P.leading & _U64_MASK, dtype=np.uint64)
    for c in reversed(P.coeffs[:-1]):
        acc *= n
        acc += np.uint64(c & _U64_MASK)
    return acc.view(np.int64)


def monotone_cuts(P: IntPolynomial, lo: int, hi: int) -> list[int]:
    """Sorted integers of [lo, hi], lo and hi included, with P monotone between neighbours.

    Besides lo and hi, the cuts are floor(r) - 1 .. floor(r) + 2 for the
    real part r of every root of P'. The padding absorbs the floating-point
    error of np.roots; the interval between two adjacent integers is
    trivially monotone, so a critical point strictly inside one is harmless.
    Non-real roots contribute as well: an extra cut costs one evaluation, and
    two close real critical points can come back as a complex pair.

    np.roots works in floats, so the coefficients of P' are first divided by
    the largest power of two not above its leading coefficient; that leaves
    the roots unchanged and takes coefficients of any size. Raises DomainError
    when a coefficient exceeds the leading one by a factor of about 10**308,
    past the float range.
    """
    cuts = {lo, hi}
    if P.degree >= 2:
        d = P.derivative_coeffs()[::-1]
        scale = 1 << (abs(d[0]).bit_length() - 1)
        try:
            scaled = [c / scale for c in d]
        except OverflowError:
            raise DomainError(
                "a coefficient exceeds the leading one by more than the float range"
            ) from None
        for r in np.roots(scaled):
            base = math.floor(r.real)
            cuts.update(c for c in range(base - 1, base + 3) if lo <= c <= hi)
    return sorted(cuts)


def value_range(P: IntPolynomial, lo: int, hi: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """((min P(n), argmin), (max P(n), argmax)) over the integers lo..hi, exact.

    The extrema lie among the monotone cuts, where P is evaluated in Python
    integers; ties go to the smallest n.
    """
    vals = [(P(c), c) for c in monotone_cuts(P, lo, hi)]
    return min(vals, key=lambda vc: vc[0]), max(vals, key=lambda vc: vc[0])


def _is_rational_root(coeffs: tuple[int, ...], num: int, den: int) -> bool:
    # P(num/den) == 0 iff sum c_i num^i den^(d-i) == 0
    d = len(coeffs) - 1
    acc = 0
    for i, c in enumerate(coeffs):
        acc += c * num**i * den ** (d - i)
    return acc == 0


def _positive_divisors(n: int) -> list[int]:
    n = abs(n)
    small, big = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                big.append(n // i)
        i += 1
    return small + big[::-1]


def _find_rational_root(coeffs: tuple[int, ...]) -> tuple[int, int] | None:
    """A root num/den of the polynomial, in lowest terms with den > 0, or None."""
    if coeffs[0] == 0:
        return (0, 1)
    for den in _positive_divisors(coeffs[-1]):
        for num in _positive_divisors(coeffs[0]):
            if math.gcd(num, den) != 1:
                continue
            for s in (num, -num):
                if _is_rational_root(coeffs, s, den):
                    return (s, den)
    return None


def _divide_linear(coeffs: tuple[int, ...], den: int, num: int) -> tuple[int, ...]:
    """Quotient of the polynomial by (den*x - num); the division must be exact."""
    work = [Fraction(c) for c in reversed(coeffs)]  # descending
    quot: list[Fraction] = []
    carry = Fraction(0)
    for c in work[:-1]:
        q = (c + carry) / den
        quot.append(q)
        carry = q * num
    assert work[-1] + carry == 0, "linear factor does not divide exactly"
    out = []
    for q in reversed(quot):
        assert q.denominator == 1, "quotient is not an integer polynomial"
        out.append(int(q))
    return tuple(out)


def _split_linear_factors(P: IntPolynomial) -> tuple[tuple[int, int], ...] | None:
    """Write P as a product of integer linear factors (a, b) ~ a*x + b, or None.

    The returned factors multiply out to P exactly; any constant content is
    absorbed into the first factor.
    """
    work = P.coeffs
    factors: list[tuple[int, int]] = []
    while len(work) > 1:
        root = _find_rational_root(work)
        if root is None:
            return None
        num, den = root
        factors.append((den, -num))
        work = _divide_linear(work, den, num)
    const = work[0]
    if const != 1:
        a, b = factors[0]
        factors[0] = (a * const, b * const)
    return tuple(factors)


@lru_cache(maxsize=512)
def classify(P: IntPolynomial) -> PolyClass:
    """Classify a polynomial of degree >= 2 by its factorization over Z."""
    if P.degree < 2:
        raise ValueError("classification needs degree >= 2")
    if P.degree == 2:
        # decided from the discriminant: no divisor search, whatever the size
        # of the coefficients. A nonzero square D gives the rational roots
        # (-b +- sqrt D)/2a, and the content goes into the first factor.
        c, b, a = P.coeffs
        disc = b * b - 4 * a * c
        if disc == 0:
            return PolyClass(UNSUPPORTED)
        if not is_perfect_square(disc):
            return PolyClass(IRREDUCIBLE_QUADRATIC)
        s = math.isqrt(disc)
        r1, r2 = Fraction(-b + s, 2 * a), Fraction(-b - s, 2 * a)
        const = a // (r1.denominator * r2.denominator)
        first = (const * r1.denominator, -const * r1.numerator)
        return PolyClass(LINEAR_FACTORS, (first, (r2.denominator, -r2.numerator)))
    factors = _split_linear_factors(P)
    if factors is not None:
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                (a1, b1), (a2, b2) = factors[i], factors[j]
                if a1 * b2 - a2 * b1 == 0:  # proportional: same root
                    return PolyClass(UNSUPPORTED)
        return PolyClass(LINEAR_FACTORS, factors)
    return PolyClass(UNSUPPORTED)


# ---------------------------------------------------------------------------
# roots modulo primes, prime squares, and squarefree m


def _eval_mod(coeffs, x: int, m: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _roots_scan_vector(coeffs_mod: list[int], p: int) -> list[int]:
    # Horner over all residues at once; safe in int64 while p*p < 2**63
    x = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs_mod):
        acc = (acc * x + c) % p
    return np.nonzero(acc == 0)[0].tolist()


def _roots_linear(a: int, b: int, p: int) -> list[int] | range:
    a %= p
    b %= p
    if a == 0:
        return range(p) if b == 0 else []
    return [(-b) * inv_mod(a, p) % p]


def _roots_quadratic(c0: int, c1: int, c2: int, p: int) -> list[int]:
    """Roots of c2 x^2 + c1 x + c0 mod an odd prime p with p not dividing c2."""
    disc = (c1 * c1 - 4 * c2 * c0) % p
    s = sqrt_mod_prime(disc, p)
    if s is None:
        return []
    inv2a = inv_mod(2 * c2 % p, p)
    r1 = (-c1 + s) * inv2a % p
    r2 = (-c1 - s) * inv2a % p
    return sorted({r1, r2})


def roots_mod_prime(P: IntPolynomial, p: int) -> list[int] | range:
    """Sorted roots of P mod prime p; range(p) when P vanishes identically mod p."""
    coeffs_mod = [c % p for c in P.coeffs]
    if all(c == 0 for c in coeffs_mod):
        return range(p)
    if p <= _SCAN_LIMIT:
        return _roots_scan_vector(coeffs_mod, p)
    deg = P.degree
    if deg == 1:
        return _roots_linear(P.coeffs[1], P.coeffs[0], p)
    cls = classify(P)
    if cls.kind == LINEAR_FACTORS:
        roots: set[int] = set()
        for a, b in cls.factors:
            r = _roots_linear(a, b, p)
            if isinstance(r, range):
                return r
            roots.update(r)
        return sorted(roots)
    if deg == 2:
        c0, c1, c2 = coeffs_mod
        if c2 == 0:
            r = _roots_linear(c1, c0, p)
            return r if isinstance(r, range) else sorted(r)
        return _roots_quadratic(c0, c1, c2, p)
    return _roots_scan_vector(coeffs_mod, p)


def _hensel_lifts(P: IntPolynomial, p: int) -> tuple[list[int], list[int] | range]:
    """Roots of P mod p**2 as (single, fibres).

    single lists roots mod p**2. Each r in fibres is a root mod p all of whose
    p lifts r + t*p are roots mod p**2. By Hensel's lemma a simple root r mod p
    (P'(r) != 0 mod p) lifts to exactly one root, r - P(r)/P'(r) mod p**2; a
    singular root lifts to all p residues when p**2 divides P(r) and to none
    otherwise. When p divides every coefficient, P = p*Q and P(x) = 0 mod p**2
    exactly when Q(x) = 0 mod p. Everything is exact Python-integer arithmetic,
    so no size of p overflows.
    """
    if all(c % p == 0 for c in P.coeffs):
        return [], roots_mod_prime(IntPolynomial([c // p for c in P.coeffs]), p)
    m = p * p
    dcoeffs = P.derivative_coeffs()
    single, fibres = [], []
    for r in roots_mod_prime(P, p):
        v = _eval_mod(P.coeffs, r, m)
        d = _eval_mod(dcoeffs, r, p)
        if d:
            single.append((r - v * inv_mod(d, p)) % m)
        elif v == 0:
            fibres.append(r)
    return single, fibres


def _roots_mod_prime_square(P: IntPolynomial, p: int) -> list[int] | range:
    single, fibres = _hensel_lifts(P, p)
    if isinstance(fibres, range):  # P = 0 mod p**2
        return range(p * p)
    return sorted(single + [r + t * p for r in fibres for t in range(p)])


def count_roots_mod_prime_square(P: IntPolynomial, p: int) -> int:
    """Number of residues r mod p**2 with P(r) = 0 mod p**2."""
    single, fibres = _hensel_lifts(P, p)
    return len(single) + p * len(fibres)


def roots_mod(P: IntPolynomial, m: int) -> list[int] | range:
    """Sorted residues r in [0, m) with P(r) = 0 mod m.

    m must be squarefree or the square of a prime; these are the only two
    shapes the rest of the package needs. Root sets are found per prime (or
    prime square) and recombined with the Chinese Remainder Theorem, so the
    count is multiplicative over coprime factors. A prime square on which P
    vanishes identically gives range(m).
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return [0]
    fac = trial_factorize(m)
    if len(fac) == 1 and fac[0][1] == 2:
        return _roots_mod_prime_square(P, fac[0][0])
    if any(e != 1 for _, e in fac):
        raise ValueError("modulus must be squarefree or a prime square")
    residues = [0]
    modulus = 1
    for p, _ in fac:
        pr = roots_mod_prime(P, p)
        pr_list = list(pr)
        if not pr_list:
            return []
        residues = [crt_pair(r, modulus, s, p) for r in residues for s in pr_list]
        modulus *= p
    return sorted(residues)
