import math

import numpy as np
import pytest
import sympy

from polyrmf.intmath import is_squarefree_int, primes_up_to, trial_factorize


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

