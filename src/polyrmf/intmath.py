"""Small exact integer helpers: primes, factorization and squarefreeness."""
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

