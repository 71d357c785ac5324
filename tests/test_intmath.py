import numpy as np
import pytest
import sympy

from polyrmf.errors import DomainError
from polyrmf.intmath import is_squarefree_int, primes_up_to


def test_primes_up_to_matches_sympy():
    ours = primes_up_to(1000).tolist()
    ref = list(sympy.primerange(2, 1001))
    assert ours == ref


def test_primes_up_to_small_edges():
    assert primes_up_to(1).tolist() == []
    assert primes_up_to(2).tolist() == [2]


def _constructed_cases():
    """p, pq, p^2, 4p, 3p^2 and 6pq for seeded primes in (2^20, 2^31), primes
    just below 2^62, and cases past 2^63 whose cofactor is decided."""
    rng = np.random.default_rng(7)
    cases = []
    for lo, hi in rng.integers(2**20, 2**31, size=(40, 2)).tolist():
        p, q = sympy.nextprime(lo), sympy.nextprime(hi)
        cases += [p, p * q, p * p, 4 * p, 3 * p * p, 6 * p * q]
    for k in rng.integers(0, 10**6, size=10).tolist():
        cases.append(sympy.prevprime(2**62 - k))
    return cases + [6 * cases[-1], 2**100, 3 * 2**200]


def test_is_squarefree_int_matches_factorization():
    for n in [*range(1, 5001), *_constructed_cases()]:
        expected = all(e == 1 for e in sympy.factorint(n).values())
        assert is_squarefree_int(n) == expected, n


def test_is_squarefree_int_refuses_a_large_cofactor():
    assert sympy.isprime(10**20 + 39)
    with pytest.raises(DomainError):
        is_squarefree_int(10**20 + 39)
    with pytest.raises(ValueError):
        is_squarefree_int(0)
