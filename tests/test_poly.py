import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from polyrmf.errors import DomainError
from polyrmf.poly import (
    _sqr_mod,
    IRREDUCIBLE_QUADRATIC,
    LINEAR_FACTORS,
    UNSUPPORTED,
    IntPolynomial,
    PolyClass,
    classify,
    count_roots_mod_prime_squares,
    fixed_divisor,
    is_admissible,
    roots_mod_primes,
    values,
    values_int64,
)

from oracles import roots_mod_scan

_SMALL_PRIMES = tuple(sympy.primerange(2, 212))


def test_construction_trims_and_validates():
    p = IntPolynomial((1, 2, 3, 0, 0))
    assert p.coeffs == (1, 2, 3)
    assert p.degree == 2
    with pytest.raises(ValueError):
        IntPolynomial((5,))  # constant
    with pytest.raises(ValueError):
        IntPolynomial(())


def test_from_string_and_str():
    p = IntPolynomial.from_string("1,0,1")
    assert p.coeffs == (1, 0, 1)
    assert str(p) == "x^2 + 1"
    assert str(IntPolynomial((0, 1, 1))) == "x^2 + x"
    assert str(IntPolynomial((-4, 1))) == "x - 4"


def test_eval_matches_power_sum():
    rng = np.random.default_rng(7)
    for _ in range(20):
        coeffs = tuple(int(c) for c in rng.integers(-50, 51, size=4))
        if coeffs[-1] == 0:
            coeffs = coeffs[:-1] + (3,)
        p = IntPolynomial(coeffs)
        for x in (-10, -1, 0, 1, 2, 117):
            assert p.eval(x) == sum(c * x**i for i, c in enumerate(coeffs))


def test_mul_matches_eval_product():
    a = IntPolynomial((1, 2, 3))
    b = IntPolynomial((-1, 0, 0, 5))
    ab = a * b
    for x in range(-5, 6):
        assert ab.eval(x) == a.eval(x) * b.eval(x)


def test_derivative_coeffs():
    p = IntPolynomial((7, -3, 0, 2))  # 2x^3 - 3x + 7
    assert p.derivative_coeffs() == (-3, 0, 6)


@pytest.mark.parametrize(
    "coeffs,expected",
    [
        ((0, 1, 1), 2),  # x(x+1)
        ((1, 0, 1), 1),  # x^2+1
        ((0, 2), 2),  # 2x
        ((2, 4), 2),  # 4x+2
    ],
)
def test_fixed_divisor_examples(coeffs, expected):
    assert fixed_divisor(IntPolynomial(coeffs)) == expected


def test_fixed_divisor_four_consecutive():
    p = IntPolynomial((0, 1, 1)) * IntPolynomial((6, 5, 1))  # x(x+1)(x+2)(x+3)
    assert fixed_divisor(p) == 24
    assert not is_admissible(p)


def test_fixed_divisor_is_gcd_of_many_values():
    rng = np.random.default_rng(3)
    for _ in range(15):
        coeffs = tuple(int(c) for c in rng.integers(-9, 10, size=int(rng.integers(2, 5))))
        if all(c == 0 for c in coeffs[1:]):
            coeffs = coeffs[:-1] + (2,)
        p = IntPolynomial(coeffs)
        g = 0
        for x in range(0, 1000):
            g = math.gcd(g, p.eval(x))
        assert fixed_divisor(p) == g


def test_admissibility_examples():
    assert is_admissible(IntPolynomial((1, 0, 1)))
    assert is_admissible(IntPolynomial((0, 1, 1)))  # divisor 2, squarefree
    assert is_admissible(IntPolynomial((2, 4)))
    assert not is_admissible(IntPolynomial((0, 0, 4)))  # 4x^2, divisor 4


def test_admissibility_against_density_oracle():
    # admissible iff no p^2 divides every value; check by scanning n < p^2
    rng = np.random.default_rng(11)
    polys = []
    while len(polys) < 12:
        coeffs = tuple(int(c) for c in rng.integers(-10, 11, size=int(rng.integers(2, 5))))
        if coeffs[-1] != 0:
            polys.append(IntPolynomial(coeffs))
    for p in polys:
        blocked = False
        for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            if all(p.eval(n) % (q * q) == 0 for n in range(q * q)):
                blocked = True
                break
        assert is_admissible(p) == (not blocked)


def _product(factors):
    """The polynomial prod (a x + b) over the pairs (a, b)."""
    p = IntPolynomial(factors[0][::-1])
    for a, b in factors[1:]:
        p = p * IntPolynomial((b, a))
    return p


# 6 (10**15 x + 37)(3x - 10**15 - 7): a split quadratic with content 6 whose
# coefficients are far too large for a divisor search
_HUGE_SPLIT = (IntPolynomial((6 * 37, 6 * 10**15)) * IntPolynomial((-(10**15) - 7, 3))).coeffs
# x (x - M)(x - 2M) with M the product of the primes below 240: its roots
# coincide modulo each of those primes, so none of them shows three simple roots
_M = math.prod(sympy.primerange(2, 240))
_COINCIDENT_MOD_SMALL_PRIMES = _product([(1, 0), (1, -_M), (1, -2 * _M)]).coeffs


def test_classify_examples():
    assert classify(IntPolynomial((1, 0, 1))).kind == IRREDUCIBLE_QUADRATIC
    assert classify(IntPolynomial((3, 0, 1))).kind == IRREDUCIBLE_QUADRATIC
    got = classify(IntPolynomial((0, 1, 1)))
    assert got.kind == LINEAR_FACTORS
    assert sorted(got.factors) == [(1, 0), (1, 1)]
    got = classify(IntPolynomial((2, 7, 6)))  # (2x+1)(3x+2)
    assert got.kind == LINEAR_FACTORS
    assert classify(IntPolynomial((0, 3, 1))).kind == LINEAR_FACTORS  # x(x+3)
    assert classify(IntPolynomial((0, 0, 1))).kind == UNSUPPORTED  # x^2
    assert classify(IntPolynomial((1, 4, 4))).kind == UNSUPPORTED  # (2x+1)^2
    assert classify(IntPolynomial((2, 0, 0, 1))).kind == UNSUPPORTED  # x^3+2
    # no divisor of a coefficient is searched, whatever its size
    assert classify(IntPolynomial((10**20 + 1, 0, 1))).kind == IRREDUCIBLE_QUADRATIC
    assert classify(IntPolynomial((-(10**20), 1, 1))).kind == IRREDUCIBLE_QUADRATIC
    assert classify(IntPolynomial((1, 2 * 10**15, 10**30))).kind == UNSUPPORTED
    assert classify(IntPolynomial(_HUGE_SPLIT)).kind == LINEAR_FACTORS
    assert classify(IntPolynomial((10**20 + 1, 1, 0, 1))).kind == UNSUPPORTED
    assert classify(IntPolynomial(_COINCIDENT_MOD_SMALL_PRIMES)).kind == LINEAR_FACTORS
    assert classify(IntPolynomial((0, 1))) == PolyClass(UNSUPPORTED)  # x: one factor
    assert classify(IntPolynomial((1, 1))).kind == UNSUPPORTED


def test_classify_factors_multiply_back():
    # (0, -1, 0, 1) is x(x-1)(x+1)
    for coeffs in [(0, 1, 1), (2, 7, 6), (0, -1, 0, 1), (-6, 1, 2), _HUGE_SPLIT,
                   _COINCIDENT_MOD_SMALL_PRIMES]:
        p = IntPolynomial(coeffs)
        cls = classify(p)
        if cls.kind != LINEAR_FACTORS:
            continue
        assert _product(cls.factors).coeffs == p.coeffs


def _sympy_kind(coeffs):
    """The class of P from sympy's factorization over Z."""
    x = sympy.Symbol("x")
    _, parts = sympy.factor_list(sum(c * x**i for i, c in enumerate(coeffs)), x)
    degrees = [(sympy.degree(f, x), e) for f, e in parts]
    if all(d == 1 and e == 1 for d, e in degrees):
        return LINEAR_FACTORS
    if degrees == [(2, 1)]:
        return IRREDUCIBLE_QUADRATIC
    return UNSUPPORTED


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-30, 30), min_size=3, max_size=7),
    # products of linear factors a x + b drawn from a pool of at most three,
    # so that repeated factors are common, times a content
    st.lists(st.tuples(st.integers(1, 6), st.integers(-9, 9)), min_size=1, max_size=3),
    st.lists(st.integers(0, 2), min_size=2, max_size=6),
    st.integers(-6, 6).filter(bool),
    st.booleans(),
)
def test_classify_matches_sympy_hypothesis(coeffs, pool, picks, content, split):
    # degrees 2-6 against sympy's factorization over Z
    if split:
        factors = [pool[i % len(pool)] for i in picks]
        factors[0] = (content * factors[0][0], content * factors[0][1])
        p = _product(factors)
    else:
        if coeffs[-1] == 0:
            coeffs = coeffs[:-1] + [1]
        p = IntPolynomial(coeffs)
    cls = classify(p)
    assert cls.kind == _sympy_kind(p.coeffs), p.coeffs
    if cls.kind == LINEAR_FACTORS:
        assert len(cls.factors) == p.degree
        assert _product(cls.factors).coeffs == p.coeffs


def test_roots_mod_brute_force():
    # roots modulo small primes and root counts modulo their squares
    rng = np.random.default_rng(5)
    primes = [2, 3, 5, 7, 11, 13]
    for _ in range(12):
        coeffs = tuple(int(c) for c in rng.integers(-8, 9, size=int(rng.integers(2, 5))))
        if coeffs[-1] == 0:
            coeffs = coeffs[:-1] + (1,)
        p = IntPolynomial(coeffs)
        ps, rs = roots_mod_primes(p, primes)
        got = count_roots_mod_prime_squares(p, primes).tolist()
        for q, rho in zip(primes, got):
            assert rs[ps == q].tolist() == roots_mod_scan(coeffs, q), (coeffs, q)
            assert rho == len(roots_mod_scan(coeffs, q * q)), (coeffs, q)


def test_roots_mod_prime_matches_scan_above_dispatch_cutoff():
    # the gcd splitting must agree with an exhaustive scan for split,
    # irreducible and repeated factors alike, with huge coefficients too
    polys = [
        IntPolynomial((1, 0, 1)),
        IntPolynomial((0, 1, 1)),
        IntPolynomial((2, 7, 6)),
        IntPolynomial((3, -1, 2)),
        IntPolynomial((5, 4, 0, 1)),  # irreducible cubic
        IntPolynomial(_HUGE_SPLIT),
        IntPolynomial((3, 7, 5, 1)),  # (x + 1)^2 (x + 3)
        IntPolynomial((0, 0, 0, 0, 1)),  # x^4
        IntPolynomial((6, 5, -3, 0, 7, 2)),  # degree 5
    ]
    for p in [1031, 2003, 5003]:
        for poly in polys:
            got = roots_mod_primes(poly, [p])[1].tolist()
            expected = [x for x in range(p) if poly.eval(x) % p == 0]
            assert got == expected, (poly.coeffs, p)


_PRIMES_BELOW_2000 = np.array(list(sympy.primerange(2, 2000)), dtype=np.int64)


@settings(max_examples=12, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=2, max_size=6),
    st.integers(1, 9),
)
def test_roots_mod_primes_match_scan_hypothesis(coeffs, content):
    # degrees 1-5 over every prime below 2000, content primes included
    if coeffs[-1] == 0:
        coeffs = coeffs[:-1] + [1]
    coeffs = [content * c for c in coeffs]
    poly = IntPolynomial(coeffs)
    ps, rs = roots_mod_primes(poly, _PRIMES_BELOW_2000)
    assert ps.dtype == rs.dtype == np.int64
    expected = [(p, r) for p in _PRIMES_BELOW_2000.tolist() for r in roots_mod_scan(coeffs, p)]
    assert list(zip(ps.tolist(), rs.tolist())) == expected


def test_roots_mod_primes_exact_past_the_scan_range():
    p = 10**9 + 7
    poly = IntPolynomial((-4, 0, 1))
    ps, rs = roots_mod_primes(poly, [p])
    assert ps.tolist() == [p, p] and rs.tolist() == [2, p - 2]
    # the largest primes inside the int64 bound (deg + 1) * p**2 < 2**63,
    # where every intermediate runs closest to overflow; x^2 + x + 1 has no
    # root modulo 1239850223 = 2 mod 3
    assert roots_mod_primes(poly, [1753413037])[1].tolist() == [2, 1753413035]
    quintic = IntPolynomial((-6, 11, -6, 1)) * IntPolynomial((1, 1, 1))
    assert roots_mod_primes(quintic, [1239850223])[1].tolist() == [1, 2, 3]


def test_squaring_mod_f_stays_exact_at_the_int64_bound():
    # inputs near the largest the bound allows, modulo the largest prime with
    # 6 q^2 < 2^63: summing the products unreduced would pass 2^63 here
    q = 1239850223
    r = [1226923535, 1225738182, 1238491792, 1231162418, 1222694690]
    nf = [1223545196, 1226262889, 1229672737, 1223858283, 1227836080]  # -f_i mod q
    c = [0] * 9
    for i, a in enumerate(r):
        for j, b in enumerate(r):
            c[i + j] += a * b
    for m in range(8, 4, -1):  # x^m = x^(m - 5) (x^5 - f)
        for i in range(5):
            c[m - 5 + i] += c[m] * nf[i]
    qa = np.array([q], dtype=np.int64)
    got = _sqr_mod([np.array([v]) for v in r], [np.array([v]) for v in nf], qa)
    assert [int(v[0]) for v in got] == [v % q for v in c[:5]]


def test_roots_mod_primes_refuses_primes_past_int64():
    # 3 * p**2 >= 2**63 for a quadratic modulo the prime 2**31 - 1
    poly = IntPolynomial((-4, 0, 1))
    with pytest.raises(DomainError):
        roots_mod_primes(poly, [3, 2**31 - 1])
    with pytest.raises(DomainError):
        roots_mod_primes(poly, [2**31 - 1])
    with pytest.raises(DomainError):
        roots_mod_primes(poly, [2**89 - 1])


def test_roots_mod_prime_content_prime_returns_range():
    ps, rs = roots_mod_primes(IntPolynomial((0, 2, 2)), [2, 3])  # 2x^2+2x: 0 mod 2 always
    assert ps.tolist() == [2, 2, 3, 3] and rs.tolist() == [0, 1, 0, 2]


def test_root_count_lagrange_bound():
    rng = np.random.default_rng(9)
    for _ in range(20):
        coeffs = tuple(int(c) for c in rng.integers(-20, 21, size=4))
        if coeffs[-1] == 0:
            coeffs = coeffs[:-1] + (1,)
        poly = IntPolynomial(coeffs)
        ps, _ = roots_mod_primes(poly, [101, 211, 307])
        for p in (101, 211, 307):
            if poly.leading % p == 0:
                continue
            assert (ps == p).sum() <= poly.degree


def test_count_roots_mod_prime_square_brute():
    # every Hensel case: simple roots, singular roots lifting to all p
    # residues or to none, and content primes; the batched count gets the
    # primes out of order, one of them twice
    polys = [(1, 0, 1), (0, 1, 1), (4, 0, 2), (2, 2, 2), (6, 0, 6), (0, 0, 1, 1), (3, 7, 5, 1),
             (0, 0, 0, 0, 9), (12, 0, 4)]
    primes = list(reversed(_SMALL_PRIMES[:12])) + [3]
    for coeffs in polys:
        poly = IntPolynomial(coeffs)
        expected = [len(roots_mod_scan(coeffs, p * p)) for p in primes]
        assert count_roots_mod_prime_squares(poly, primes).tolist() == expected


def test_count_roots_mod_prime_square_past_int64_cubes():
    # p**3 > 2**63 here; the count must still find both roots of -1 mod p**2
    p = 4000037
    assert p % 4 == 1
    assert count_roots_mod_prime_squares(IntPolynomial((1, 0, 1)), [p]).tolist() == [2]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=5),
    st.sampled_from((1, 1, 1, 2, 3, 4, 9, 25, 49)),
    st.sampled_from(_SMALL_PRIMES),
)
def test_roots_mod_prime_square_brute_force_hypothesis(coeffs, content, p):
    # degrees 1-4, with content primes and prime squares mixed in
    if coeffs[-1] == 0:
        coeffs = coeffs[:-1] + [1]
    coeffs = [content * c for c in coeffs]
    poly = IntPolynomial(coeffs)
    expected = roots_mod_scan(coeffs, p * p)
    assert count_roots_mod_prime_squares(poly, [p]).tolist() == [len(expected)]


def _vanishing(lo, length):
    """(x - lo)(x - lo - 1)...(x - lo - length + 1)."""
    vanish = IntPolynomial((-lo, 1))
    for n in range(lo + 1, lo + length):
        vanish = vanish * IntPolynomial((-n, 1))
    return vanish


def _wrap64(v):
    return (v + 2**63) % 2**64 - 2**63


@given(
    st.lists(st.integers(-2**70, 2**70), min_size=2, max_size=7),
    st.integers(-10**6, 10**6),
    st.integers(1, 40),
)
def test_values_int64_is_horner_mod_2_64_hypothesis(coeffs, lo, length):
    if coeffs[-1] == 0:
        coeffs = coeffs[:-1] + [1]
    poly = IntPolynomial(coeffs)
    got = values_int64(poly, lo, lo + length)
    assert got.dtype == np.int64
    assert got.tolist() == [_wrap64(poly.eval(n)) for n in range(lo, lo + length)]


@given(
    st.lists(st.integers(-200, 200), min_size=2, max_size=7),
    st.integers(-2**70, 2**70),
    st.integers(-50, 50),
    st.integers(1, 6),
)
def test_values_int64_exact_with_huge_cancelling_coefficients_hypothesis(small, k, lo, length):
    # P = Q + k * (x - lo)(x - lo - 1)...: huge coefficients, P = Q on the range
    if small[-1] == 0:
        small = small[:-1] + [1]
    vanish = _vanishing(lo, length)
    width = max(len(small), len(vanish.coeffs))
    q = small + [0] * (width - len(small))
    w = list(vanish.coeffs) + [0] * (width - len(vanish.coeffs))
    coeffs = [a + k * b for a, b in zip(q, w)]
    if all(c == 0 for c in coeffs[1:]):
        return
    poly = IntPolynomial(coeffs)
    exact = [poly.eval(n) for n in range(lo, lo + length)]
    assert all(-(2**63) <= v < 2**63 for v in exact)
    assert values_int64(poly, lo, lo + length).tolist() == exact


@given(
    st.lists(st.integers(-5, 5), min_size=2, max_size=5),
    st.sampled_from((0, 1, -3, 2**40, 2**70, -(2**90))),
    st.sampled_from((0, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**80)),
    st.integers(-1000, 1000),
    st.integers(1, 6),
)
def test_values_match_eval_hypothesis(small, k, edge, lo, length):
    # P = Q + k * (x - lo)...(x - lo - length + 1) with Q(lo) = edge: values
    # at and around the int64 boundary, from coefficients that cancel on the
    # range when k is huge
    if small[-1] == 0:
        small = small[:-1] + [1]
    small = [small[0] + edge - IntPolynomial(small).eval(lo), *small[1:]]
    w = list(_vanishing(lo, length).coeffs)
    width = max(len(small), len(w))
    q = small + [0] * (width - len(small))
    w += [0] * (width - len(w))
    coeffs = [a + k * b for a, b in zip(q, w)]
    if all(c == 0 for c in coeffs[1:]):
        return
    poly = IntPolynomial(coeffs)
    exact = [poly.eval(n) for n in range(lo, lo + length)]
    got = values(poly, lo, lo + length)
    fits = all(-(2**63) <= v < 2**63 for v in exact)
    assert got.dtype == (np.int64 if fits else object)
    assert got.tolist() == exact


@given(st.lists(st.integers(-30, 30), min_size=2, max_size=5))
def test_eval_int_exactness_hypothesis(coeffs):
    if all(c == 0 for c in coeffs[1:]):
        coeffs = coeffs[:-1] + [1]
    p = IntPolynomial(tuple(coeffs))
    for x in (-3, 0, 4, 1000003):
        assert p.eval(x) == sum(c * x**i for i, c in enumerate(p.coeffs))
