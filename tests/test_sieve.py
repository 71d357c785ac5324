import math
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from polyrmf import poly, sieve
from polyrmf.errors import DomainError
from polyrmf.intmath import primes_up_to
from polyrmf.poly import IntPolynomial, roots_mod_primes
from polyrmf.sieve import (
    _MAX_SIEVE_BOUND,
    LargestPrimeStats,
    ValueRecord,
    kappa_euler,
    largest_prime_stats,
    sieve_values,
    smooth_count,
)

from oracles import roots_mod_scan, table_from_records


def test_small_table_exact(x2p1):
    t = sieve_values(x2p1, 10)
    rows = {r.n: r for r in t}
    assert rows[1] == ValueRecord(1, 2, ((2, 1),), True, 2)
    assert rows[4].value == 17 and rows[4].largest_prime == 17
    assert rows[7] == ValueRecord(7, 50, ((2, 1), (5, 2)), False, 5)
    assert int(t.is_squarefree.sum()) == 9


def test_rows_outside_the_range_are_refused(x2p1, table_60):
    assert table_60.record(60).n == 60
    for n in (0, 61):
        with pytest.raises(IndexError, match=f"n = {n} outside 1..60"):
            table_60.record(n)
    with pytest.raises(ValueError, match="N must be at least 1"):
        sieve_values(x2p1, 0)


def test_factorizations_match_sympy(x2p1):
    t = sieve_values(x2p1, 2000)
    rng = np.random.default_rng(0)
    for n in rng.integers(1, 2001, size=300).tolist():
        rec = t.record(n)
        ref = sympy.factorint(n * n + 1)
        assert dict(rec.factors) == ref
        assert rec.is_squarefree == all(e == 1 for e in ref.values())
        assert rec.largest_prime == max(ref)


def test_factorizations_linear_factor_poly():
    p = IntPolynomial((0, 2, 1))  # x(x+2)
    t = sieve_values(p, 500)
    for n in (1, 2, 17, 128, 399, 500):
        rec = t.record(n)
        assert rec.value == n * (n + 2)
        assert dict(rec.factors) == sympy.factorint(rec.value)


def test_factor_lists_are_prime_ascending(x2p1):
    t = sieve_values(x2p1, 300)
    for rec in t:
        ps = [p for p, _ in rec.factors]
        assert ps == sorted(ps)


def test_unit_rows():
    t = sieve_values(IntPolynomial((0, 0, 1)), 4)  # x^2: value 1 at n=1
    rec = t.record(1)
    assert rec.value == 1 and rec.factors == () and rec.largest_prime is None
    assert rec.is_squarefree
    assert not t.record(2).is_squarefree


def test_object_path_small_range_with_huge_coefficients():
    # the cancelling coefficients overflow int64 intermediates while the
    # value itself stays tiny; the wrapping evaluation still gets it exactly
    p = IntPolynomial((50 - 2**62, 2**62))  # P(1) = 50
    t = sieve_values(p, 1)
    for col in (t.values, t.largest, t.flat_primes):
        assert isinstance(col, np.ndarray) and col.dtype == np.int64
    rec = t.record(1)
    assert rec.value == 50
    assert rec.factors == ((2, 1), (5, 2))
    assert not rec.is_squarefree


def test_huge_values_raise_domain_error():
    with pytest.raises(DomainError):
        sieve_values(IntPolynomial((1 + 2**70, 0, 1)), 40)
    with pytest.raises(DomainError, match="values reach"):
        sieve_values(IntPolynomial((1, 0, 10**400)), 3)  # past float range too


def test_negative_values_raise_domain_error():
    with pytest.raises(DomainError, match="shift"):
        sieve_values(IntPolynomial((-4, 1)), 10)  # x - 4 is <= 0 at n <= 4
    # x^2-6x+10 has value 1 at its vertex but stays positive, so it is fine:
    t = sieve_values(IntPolynomial((10, -6, 1)), 5)
    assert [r.value for r in t] == [5, 2, 1, 2, 5]


def test_from_records_roundtrip(x2p1):
    t = sieve_values(x2p1, 30)
    rebuilt = table_from_records(x2p1, list(t))
    assert rebuilt.n_max == 30
    for n in range(1, 31):
        assert rebuilt.record(n) == t.record(n)


def test_from_records_validates_coverage(x2p1):
    t = sieve_values(x2p1, 5)
    recs = [r for r in t if r.n != 3]
    with pytest.raises(ValueError):
        table_from_records(x2p1, recs)


def test_from_records_rejects_values_past_int64_range():
    p = IntPolynomial((0, 1))
    ok = ValueRecord(1, 2**62 - 1, ((3, 1), (715827883, 1), (2147483647, 1)), True, 2147483647)
    assert table_from_records(p, [ok]).values.tolist() == [2**62 - 1]
    big = ValueRecord(1, 2**62, ((2, 62),), False, 2)
    with pytest.raises(ValueError, match="2\\*\\*62"):
        table_from_records(p, [big])


def test_kappa_euler_quadratic_oracle(x2p1):
    # independent product over p = 1 mod 4 (two roots of -1), p = 2 and
    # p = 3 mod 4 contribute nothing
    bound = 20000
    prod = 1.0
    for p in sympy.primerange(2, bound + 1):
        if p % 4 == 1:
            prod *= 1.0 - 2.0 / (p * p)
    assert kappa_euler(x2p1, bound) == pytest.approx(prod, abs=1e-14)
    assert kappa_euler(x2p1, 2) == 1.0  # no root of -1 modulo 4


def test_kappa_euler_linear_factor_oracle():
    # x(x+1): two roots mod p^2 for every p
    bound = 5000
    prod = 1.0
    for p in sympy.primerange(2, bound + 1):
        prod *= 1.0 - 2.0 / (p * p)
    assert kappa_euler(IntPolynomial((0, 1, 1)), bound) == pytest.approx(prod, abs=1e-14)


@pytest.mark.parametrize(
    "coeffs",
    [
        (2, 2, 2),  # content prime 2
        (6, 0, 6),  # content primes 2 and 3
        (0, 0, 1, 1),  # x^2(x+1): the singular root 0 lifts to all p residues
        (3, 7, 5, 1),  # (x+1)^2(x+3): the singular root -1 does too
    ],
)
def test_kappa_euler_singular_and_content_primes(coeffs):
    # the product of the per-prime counts, taken left to right, exactly
    P = IntPolynomial(coeffs)
    bound = 2000
    prod = 1.0
    for p in sympy.primerange(2, bound + 1):
        p = int(p)
        # every root mod p**2 lifts a root mod p
        lifts = [r + t * p for r in roots_mod_scan(coeffs, p) for t in range(p)]
        prod *= 1.0 - len(roots_mod_scan(coeffs, p * p, lifts)) / (p * p)
    assert kappa_euler(P, bound) == prod


def test_kappa_euler_rejects_inadmissible():
    p = IntPolynomial((0, 1, 1)) * IntPolynomial((6, 5, 1))
    with pytest.raises(DomainError):
        kappa_euler(p, 100)
    with pytest.raises(DomainError):  # 4 divides every value
        kappa_euler(IntPolynomial((4, 4, 4)), 100)


def test_largest_prime_stats_brute(x2p1):
    t = sieve_values(x2p1, 200)
    stats = largest_prime_stats(t, c=0.01)
    gt_n = sum(1 for r in t if r.largest_prime and r.largest_prime > r.n)
    assert isinstance(stats, LargestPrimeStats)
    assert stats.proportion_gt_n == pytest.approx(gt_n / 200)
    assert 0.0 <= stats.proportion_gt_n <= 1.0
    assert sum(stats.hist_counts) <= 200


def test_smooth_count_brute():
    # every case around r = isqrt(x): y below, at and above r, y = 2 and
    # y = x, for composite and prime x
    largest = [1, 1] + [max(sympy.factorint(n)) for n in range(2, 1001)]
    for x in list(range(2, 150)) + [200, 961, 997, 1000]:
        r = math.isqrt(x)
        for y in {2, 3, 5, r - 1, r, r + 1, x - 1, x}:
            if y >= 2:
                got = smooth_count(x, y)
                assert type(got) is int
                assert got == sum(lp <= y for lp in largest[1 : x + 1]), (x, y)
    assert smooth_count(100, 2) == 7
    assert smooth_count(77, 77) == 77


def test_smooth_count_validates():
    with pytest.raises(ValueError):
        smooth_count(1, 5)
    with pytest.raises(ValueError):
        smooth_count(10, 1)


def test_extrema_on_range():
    # sieve_values checks the exact extrema of P on [1, N], here found in
    # Python ints: (x - 10**4)**4 vanishes inside the range, and
    # limit - (x - 10**4)**2 needs a prime past the sieve bound only at 10**4
    limit = (_MAX_SIEVE_BOUND + 1) ** 2
    quartic = IntPolynomial((10**16, -4 * 10**12, 6 * 10**8, -4 * 10**4, 1))
    hump = IntPolynomial((limit - 10**8, 2 * 10**4, -1))
    for P, N in ((IntPolynomial((10, -6, 1)), 5), (quartic, 2 * 10**4), (hump, 2 * 10**4)):
        vals = [P(n) for n in range(1, N + 1)]
        low, high = min(vals), max(vals)
        if low < 1:
            with pytest.raises(DomainError, match=rf"P\({vals.index(low) + 1}\) = {low} is not"):
                sieve_values(P, N)
        elif high >= limit:
            assert max(P(1), P(N)) < limit
            with pytest.raises(DomainError, match=f"values reach {high};"):
                sieve_values(P, N)
        else:
            assert sieve_values(P, N).values.tolist() == vals


def test_prime_index_consistency(x2p1):
    t = sieve_values(x2p1, 150)
    primes, inverse = t.prime_index()
    assert np.array_equal(primes[inverse], t.flat_primes)
    assert np.array_equal(primes, np.unique(t.flat_primes))
    entries = np.arange(len(t.flat_primes))
    assert np.array_equal(t.entry_rows(), np.searchsorted(t.row_ptr, entries, side="right") - 1)


# named shapes the random draw rarely hits: a content prime (roots_mod_primes
# returns every residue mod 2), a repeated factor, a monomial power (high
# powers of 2) and an irreducible cubic
_SIEVE_SHAPES = (
    (2, 2, 2),  # 2x^2 + 2x + 2
    (3, 7, 5, 1),  # (x + 1)^2 (x + 3)
    (0, 0, 1),  # x^2
    (0, 0, 0, 0, 1),  # x^4
    (1, 1, 0, 1),  # x^3 + x + 1
)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        st.sampled_from(_SIEVE_SHAPES),
        st.lists(st.integers(-9, 9), min_size=2, max_size=5),
    ),
    st.sampled_from((1, 1, 1, 2, 3, 4, 6, 9)),
    st.integers(1, 400),
)
def test_sieve_values_match_factorint_hypothesis(coeffs, content, N):
    # degrees 1-4. N is halved until |P| stays below 10**10 on [1, N], which
    # keeps sympy's factorint of every value quick; the sieve then needs the
    # roots modulo every prime up to 10**5. A polynomial that dips below 1 is
    # then shifted up.
    coeffs = [content * c for c in coeffs]
    if coeffs[-1] == 0:
        coeffs[-1] = content
    P = IntPolynomial(coeffs)
    while True:
        vals = [P(n) for n in range(1, N + 1)]
        minv, maxv = min(vals), max(vals)
        if max(-minv, maxv) <= 10**10:
            break
        N //= 2
    if minv < 1:
        P = IntPolynomial([coeffs[0] + 1 - minv] + coeffs[1:])
    t = sieve_values(P, N)
    assert t.flat_exps.dtype == np.int16
    for n in range(1, N + 1):
        rec = t.record(n)
        value = P(n)
        ref = sympy.factorint(value) if value > 1 else {}
        assert rec.value == value
        assert rec.factors == tuple(sorted(ref.items()))
        assert rec.is_squarefree == all(e == 1 for e in ref.values())
        assert rec.largest_prime == (max(ref) if ref else None)


def test_sieve_values_match_factorint_on_a_quartic():
    # 18x^4 + 36x^3 + 42x^2 - 6x - 48 = 6(3x^4 + 6x^3 + 7x^2 - x - 8) has no
    # rational root and reaches 1.07 * 10**10 at N = 156: a sieve bound of
    # 1.04 * 10**5
    P = IntPolynomial((-48, -6, 42, 36, 18))
    t = sieve_values(P, 156)
    for n in range(1, 157):
        rec = t.record(n)
        ref = sympy.factorint(P(n))
        assert rec.value == P(n)
        assert rec.factors == tuple(sorted(ref.items()))
        assert rec.is_squarefree == all(e == 1 for e in ref.values())
        assert rec.largest_prime == max(ref)


_TABLE_COLUMNS = ("values", "is_squarefree", "largest", "flat_primes", "flat_exps", "row_ptr")


@pytest.mark.parametrize(
    "coeffs",
    _SIEVE_SHAPES
    + (
        (0, 1, 1),  # x(x + 1)
        (26, -10, 1),  # (x - 5)^2 + 1, which repeats values
        (2, 0, 0, 1),  # x^3 + 2
    ),
)
def test_tables_do_not_depend_on_segment_or_block_size(coeffs, monkeypatch):
    # N is a multiple of no segment length, so every build ends on a short
    # segment; the default build sieves one segment and splits one block
    P = IntPolynomial(coeffs)
    N = {2: 1000, 3: 201, 4: 61}[P.degree]
    ref = sieve_values(P, N)
    for rows, block in ((1, 16), (7, 3), (64, 1)):
        monkeypatch.setattr(sieve, "_SEGMENT_ROWS", rows)
        monkeypatch.setattr(poly, "_PRIME_BLOCK", block)
        t = sieve_values(P, N)
        for name in _TABLE_COLUMNS:
            got, want = getattr(t, name), getattr(ref, name)
            assert got.dtype == want.dtype, (name, rows, block)
            assert np.array_equal(got, want), (name, rows, block)


def test_segment_rows_fit_the_int16_row_keys():
    # _sieve orders a segment's 0-based rows as int16 keys, which a segment of
    # more than 2**15 rows would wrap
    assert 1 <= sieve._SEGMENT_ROWS <= 1 << 15


@pytest.mark.parametrize(
    "coeffs, N",
    [
        ((1, 0, 1), 10**5),  # x^2 + 1
        ((26, -10, 1), 2 * 10**4),  # (x - 5)^2 + 1, which repeats values
        ((0, 1, 1), 2 * 10**4),  # x(x + 1)
        ((0, 1), 2 * 10**4),  # x, whose first row is the unit
        ((2, 0, 0, 1), 3000),  # x^3 + 2
    ],
)
def test_prefix_is_the_table_of_the_shorter_range(coeffs, N):
    P = IntPolynomial(coeffs)
    big = sieve_values(P, N)
    for n in sorted({m for m in (1, 2, 999, 3000, N // 2, N) if m <= N}):
        pre, fresh = big.prefix(n), sieve_values(P, n)
        assert pre.poly == P and pre.n_max == len(pre) == n
        for name in _TABLE_COLUMNS:
            got, want = getattr(pre, name), getattr(fresh, name)
            assert got.dtype == want.dtype, (name, n)
            assert np.array_equal(got, want), (name, n)
            assert np.shares_memory(got, getattr(big, name)) or got.size == 0, (name, n)
        # the indexes built from the columns: a prefix builds its own
        for got, want in zip(pre.prime_index(), fresh.prime_index()):
            assert np.array_equal(got, want)
        assert np.array_equal(pre.entry_rows(), fresh.entry_rows())
        assert np.array_equal(pre.core(), fresh.core())
        assert big._prime_index is None and big._entry_rows is None and big._core is None
    big.prime_index(), big.entry_rows(), big.core()
    pre = big.prefix(N)
    assert pre._prime_index is None and pre._entry_rows is None and pre._core is None
    for n in (0, N + 1):
        with pytest.raises(ValueError):
            big.prefix(n)


@pytest.mark.parametrize(
    "coeffs", [(1, 0, 1), (1, 1, 0, 1), (2, 2, 2), (6, 0, 6), (0, 0, 1, 1), (3, 7, 5, 1)]
)
def test_roots_and_kappa_do_not_depend_on_block_size(coeffs, monkeypatch):
    # 168 primes up to 1000: many blocks of each size
    P = IntPolynomial(coeffs)
    primes = primes_up_to(1000)
    ps, rs = roots_mod_primes(P, primes)
    kappa = kappa_euler(P, 1000)
    for block in (1, 3, 16):
        monkeypatch.setattr(poly, "_PRIME_BLOCK", block)
        bps, brs = roots_mod_primes(P, primes)
        assert bps.dtype == brs.dtype == np.int64
        assert np.array_equal(bps, ps) and np.array_equal(brs, rs)
        assert kappa_euler(P, 1000).hex() == kappa.hex()
    # the primes in any order, repeats included, give the same pairs
    shuffled = np.concatenate([primes[::-1], primes[:5]])
    assert all(np.array_equal(a, b) for a, b in zip(roots_mod_primes(P, shuffled), (ps, rs)))


def _traced_peak(P, N):
    """sieve_values(P, N) and the peak of the bytes it allocated on the way."""
    tracemalloc.start()
    try:
        t = sieve_values(P, N)
        return t, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table_building_needs_little_beyond_the_table():
    # tracemalloc sees numpy's array allocations, so the peaks are exact
    # and repeatable. x(x + 1) at 2 * 10**5 sieves 7 segments; x^3 + 2 at
    # 2 * 10**4 splits 205,414 primes in 13 blocks for a 1.2 MB table
    t, peak = _traced_peak(IntPolynomial((0, 1, 1)), 2 * 10**5)
    assert peak <= 2 * sum(getattr(t, name).nbytes for name in _TABLE_COLUMNS)
    _, peak = _traced_peak(IntPolynomial((2, 0, 0, 1)), 2 * 10**4)
    assert peak < 32 * 10**6
