import math

import numpy as np
import pytest
import sympy

from polyrmf.intmath import (
    crt_pair,
    inv_mod,
    is_squarefree_int,
    primes_up_to,
    sqrt_mod_prime,
    trial_factorize,
)


def test_primes_up_to_matches_sympy():
    ours = primes_up_to(1000).tolist()
    ref = list(sympy.primerange(2, 1001))
    assert ours == ref


def test_primes_up_to_small_edges():
    assert primes_up_to(1).tolist() == []
    assert primes_up_to(2).tolist() == [2]


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, []),
        (2, [(2, 1)]),
        (12, [(2, 2), (3, 1)]),
        (50, [(2, 1), (5, 2)]),
        (97, [(97, 1)]),
        (2**10 * 3**4, [(2, 10), (3, 4)]),
    ],
)
def test_trial_factorize_examples(n, expected):
    assert trial_factorize(n) == expected


def test_trial_factorize_roundtrip():
    rng = np.random.default_rng(1)
    for n in rng.integers(1, 10**6, size=50).tolist():
        fac = trial_factorize(n)
        assert math.prod(p**e for p, e in fac) == n
        assert all(sympy.isprime(p) for p, _ in fac)


def test_is_squarefree_int_matches_factorization():
    for n in range(1, 500):
        expected = all(e == 1 for e in sympy.factorint(n).values())
        assert is_squarefree_int(n) == expected


def test_inv_mod():
    assert inv_mod(3, 7) == 5
    with pytest.raises(ValueError):
        inv_mod(2, 4)


def test_sqrt_mod_prime_brute():
    for p in [3, 5, 7, 11, 13, 17, 101, 103]:
        residues = {(x * x) % p for x in range(p)}
        for a in range(p):
            r = sqrt_mod_prime(a, p)
            if a in residues:
                assert r is not None and (r * r) % p == a
            else:
                assert r is None


def test_crt_pair():
    r = crt_pair(2, 5, 5, 13)
    assert r % 5 == 2 and r % 13 == 5 and 0 <= r < 65
    assert crt_pair(1, 2, 2, 3) == 5
