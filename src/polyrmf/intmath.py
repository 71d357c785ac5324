"""Small exact integer helpers: primes, factorization, modular square roots, CRT."""
from __future__ import annotations

import math

import numpy as np


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n, ascending, as an int64 array."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


def trial_factorize(n: int) -> list[tuple[int, int]]:
    """Factor n >= 1 by trial division; returns (prime, exponent) pairs ascending."""
    if n < 1:
        raise ValueError("trial_factorize expects n >= 1")
    out: list[tuple[int, int]] = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    # remaining factors are 6k +/- 1
    p = 5
    while p * p <= n:
        for q in (p, p + 2):
            if n % q == 0:
                e = 0
                while n % q == 0:
                    n //= q
                    e += 1
                out.append((q, e))
        p += 6
    if n > 1:
        out.append((n, 1))
    return out


def is_squarefree_int(n: int) -> bool:
    """True when no prime square divides n (n >= 1)."""
    if n < 1:
        raise ValueError("is_squarefree_int expects n >= 1")
    if n % 4 == 0 or n % 9 == 0 or n % 25 == 0:
        return False
    return all(e == 1 for _, e in trial_factorize(n))


def inv_mod(a: int, m: int) -> int:
    return pow(a, -1, m)


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a mod prime p, or None when a is a non-residue.

    Tonelli-Shanks; returns the smaller of the two roots for determinism.
    """
    a %= p
    if p == 2 or a == 0:
        return a % p
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # p = 1 mod 4: full Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m_, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m_ - i - 1), p)
        m_, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """The residue mod m1*m2 that is r1 mod m1 and r2 mod m2 (m1, m2 coprime)."""
    t = (r2 - r1) * inv_mod(m1 % m2, m2) % m2
    return (r1 + m1 * t) % (m1 * m2)
