"""Small exact integer helpers: primes and squarefreeness."""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# trial primes stop here, so squarefreeness is decided for every cofactor
# below _TRIAL_BOUND**3 = 2**63, and in particular for every n below 2**63
_TRIAL_BOUND = 1 << 21


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n, ascending, as an int64 array."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).astype(np.int64, copy=False)


def is_squarefree_int(n: int) -> bool:
    """True when no prime square divides n (n >= 1), decided without factoring.

    Divides n by the primes p <= b, where b is the least integer with
    b**3 > n, capped at 2**21. The cofactor m has no prime factor <= b, so
    when m < b**3 it is 1, a prime, a product of two distinct primes or a
    prime square, and only the last is not squarefree. Raises DomainError
    when m >= b**3, which needs n >= 2**63: the answer would then need a
    factorization past the trial bound.
    """
    if n < 1:
        raise ValueError("is_squarefree_int expects n >= 1")
    b = _TRIAL_BOUND
    if n < b**3:
        b = int(n ** (1 / 3))
        while b**3 <= n:
            b += 1
    ps = primes_up_to(b)
    rem = n % (ps.astype(object) if n >= 1 << 63 else ps)
    m = n
    for p in ps[rem == 0].tolist():
        m //= p
        if m % p == 0:
            return False
    if m >= b**3:
        raise DomainError(
            f"cannot decide whether a {n.bit_length()}-bit integer is squarefree: its "
            f"{m.bit_length()}-bit cofactor has no prime factor up to {b} and is at "
            f"least {b}**3"
        )
    return m == 1 or math.isqrt(m) ** 2 != m
