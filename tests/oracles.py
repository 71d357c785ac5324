"""Scalar reference implementations that the tests check the package against.

Nothing here is imported by polyrmf. Each oracle restates one definition
plainly, one prime or one record at a time, with its own copy of the hash
constants, so that a change to the fast paths in polyrmf.rmf or
polyrmf.sieve cannot change the oracle with it.
"""
from __future__ import annotations

import cmath

import mpmath
import numpy as np

from polyrmf.sieve import ValueRecord, ValueTable

RADEMACHER = "rademacher"

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SEED_TWEAK = 0xA0761D6478BD642F
_PRIME_TWEAK = 0xE7037ED1A0B428DB
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit word."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX_C1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_C2) & _MASK
    return z ^ (z >> 31)


def prime_hash(seed: int, p: int) -> int:
    """64-bit hash of (seed, p); the sole source of randomness for f(p)."""
    return mix64(mix64(p ^ _PRIME_TWEAK) ^ mix64(seed ^ _SEED_TWEAK))


def derive_seed(seed: int, index: int) -> int:
    """Stream seed for trial number index, independent across indices."""
    if index < 0:
        raise ValueError("index must be >= 0")
    return mix64((seed + (index + 1) * _GOLDEN) & _MASK)


def _angle_fraction(h: int) -> float:
    return (h >> 11) * 2.0**-53


def f_prime(seed: int, p: int, model: str = RADEMACHER):
    """f(p) under seed: +-1 for Rademacher, a unit complex for Steinhaus."""
    h = prime_hash(seed, p)
    if model == RADEMACHER:
        return 1 if (h >> 63) == 0 else -1
    return cmath.exp(2j * cmath.pi * _angle_fraction(h))


def f_value(seed: int, record: ValueRecord, model: str = RADEMACHER):
    """f at one table record: int for Rademacher, complex for Steinhaus."""
    if model == RADEMACHER:
        if not record.is_squarefree:
            return 0
        out = 1
        for p, _ in record.factors:
            out *= f_prime(seed, p)
        return out
    frac = 0.0
    for p, e in record.factors:
        frac += e * _angle_fraction(prime_hash(seed, p))
    return cmath.exp(2j * cmath.pi * (frac % 1.0))


def f_value_exact_phase(seed: int, record: ValueRecord) -> complex:
    """Steinhaus f at one table record from its exact phase.

    The phase sum of e * theta_p mod 1, theta_p = (hash >> 11) / 2**53, is
    summed times 2**64 in Python ints, and exp(2 pi i phase) is evaluated
    with mpmath at 30 digits, so the result is the correctly rounded value.
    """
    phase = sum(e * ((prime_hash(seed, p) >> 11) << 11) for p, e in record.factors) & _MASK
    with mpmath.workdps(30):
        return complex(mpmath.expjpi(mpmath.mpf(phase) / 2**63))


def table_from_records(poly, records) -> ValueTable:
    """A ValueTable built directly from records, for tables no polynomial gives.

    Validates that each factor list multiplies out to its value and that
    the value stays below 2**62; does not re-check value == poly(n).
    """
    records = sorted(records, key=lambda r: r.n)
    if [r.n for r in records] != list(range(1, len(records) + 1)):
        raise ValueError("records must cover n = 1..N exactly once")
    values, sf, largest, fp, fe, ptr = [], [], [], [], [], [0]
    for r in records:
        prod = 1
        for p, e in r.factors:
            prod *= p**e
        if prod != r.value:
            raise ValueError(f"factors of record n={r.n} do not multiply to value")
        if r.value >= 1 << 62:
            raise ValueError(f"value of record n={r.n} is not below 2**62")
        values.append(r.value)
        sf.append(r.is_squarefree)
        largest.append(r.largest_prime or 0)
        for p, e in r.factors:
            fp.append(p)
            fe.append(e)
        ptr.append(len(fp))
    return ValueTable(
        poly,
        len(records),
        np.array(values, np.int64),
        np.array(sf, bool),
        np.array(largest, np.int64),
        np.array(fp, np.int64),
        np.array(fe, np.int16),
        np.array(ptr, np.int64),
    )


def roots_mod_scan(coeffs, m: int, candidates=None) -> list[int]:
    """The residues x among candidates (default: all of 0..m-1) with P(x) = 0 mod m.

    P has the ascending coefficients coeffs; Horner's rule runs mod m in
    int64, exact while m**2 < 2**63.
    """
    x = np.arange(m, dtype=np.int64) if candidates is None else np.asarray(candidates, np.int64)
    acc = np.zeros(len(x), dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * x + c % m) % m
    return x[acc == 0].tolist()
