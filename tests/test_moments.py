import math
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyrmf import moments
from polyrmf.moments import (
    GcdHistogram,
    _core,
    _kernel_keys,
    _pair_scan,
    _scan_tally,
    fourth_moment_exact,
    gcd_class_histogram,
    mcleish_condition_sums,
    moment_report,
    second_moment_exact,
)
from polyrmf.poly import IntPolynomial
from polyrmf.sieve import ValueRecord, sieve_values

from oracles import table_from_records


def test_kernel_identity_against_gcd():
    # the pair scan's kernel (a/d)(b/d), d = gcd(a, b), is the product of the
    # primes dividing exactly one of a and b; below 2**62 it is its own key
    rng = np.random.default_rng(2)
    squarefree = [n for n in range(1, 400) if all(
        e == 1 for e in Counter(_factor(n)).values())]
    a, b = rng.choice(squarefree, size=(2, 200))
    (rows, g, kernel), = _pair_scan(a, b, np.arange(200), np.ones(200, np.int64))
    for i, d, k in zip(rows.tolist(), g.tolist(), kernel().tolist()):
        x, y = int(a[i]), int(b[i])
        assert d == math.gcd(x, y)
        assert k == math.prod(set(_factor(x)) ^ set(_factor(y)))


def _factor(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def test_second_moment_counts_equal_value_pairs():
    t = sieve_values(IntPolynomial((10, -6, 1)), 5)  # values 5,2,1,2,5
    assert second_moment_exact(t) == 9
    inj = sieve_values(IntPolynomial((1, 0, 1)), 10)
    assert second_moment_exact(inj) == 9  # 9 squarefree rows, injective


def test_diagonal_term_counts_equal_value_pairings():
    # (x-6)^2+1 at N=11 takes values 26,17,10,5,2,1,2,5,10,17,26: multiplicity 2
    # separates the fourth powers in 3*Q**2 - 2*F from lower powers
    t = sieve_values(IntPolynomial((37, -12, 1)), 11)
    v = [r.value for r in t if r.is_squarefree]
    count = sum(
        (v[a] == v[b] and v[c] == v[d]) or (v[a] == v[c] and v[b] == v[d])
        or (v[a] == v[d] and v[b] == v[c])
        for a, b, c, d in product(range(len(v)), repeat=4)
    )
    assert moment_report(t).diagonal_term == count == 3 * 21**2 - 2 * 81
    assert moment_report(t).off_diagonal == fourth_moment_exact(t) - count


def test_fourth_moment_small_example(x2p1):
    t = sieve_values(x2p1, 3)  # values 2, 5, 10: 2*5=10 gives extra squares
    assert fourth_moment_exact(t) == 21
    assert moment_report(t).off_diagonal == 0


def test_fourth_moment_brute_force():
    for coeffs in [(1, 0, 1), (0, 1, 1), (0, 2, 1), (3, 0, 1)]:
        p = IntPolynomial(coeffs)
        t = sieve_values(p, 14)
        vals = [(r.value, r.is_squarefree) for r in t]
        count = 0
        for quad in product(range(14), repeat=4):
            if all(vals[i][1] for i in quad):
                prod = math.prod(vals[i][0] for i in quad)
                r = math.isqrt(prod)
                count += r * r == prod
        assert fourth_moment_exact(t) == count, coeffs


# small primes and primes near 10**5: a product of two large ones passes
# 2**31, and a kernel of four large ones passes 2**62, so it takes a wide key
_SMALL = (2, 3, 5, 7, 11, 13)
_LARGE = (99901, 99923, 99961, 99971, 99989, 99991)


def _table_of(factor_lists):
    """ValueTable whose row n holds the product of factor_lists[n - 1]."""
    recs = []
    for n, fac in enumerate(factor_lists, start=1):
        fac = tuple(sorted(fac))
        recs.append(ValueRecord(
            n, math.prod(p**e for p, e in fac), fac, all(e == 1 for _, e in fac),
            fac[-1][0] if fac else None,
        ))
    return table_from_records(IntPolynomial((0, 1)), recs)


def test_fourth_moment_kernels_past_int64_match_prime_set_oracle():
    rng = np.random.default_rng(5)
    rows = []
    for _ in range(60):
        small = [p for p in _SMALL if rng.random() < 0.4]
        large = rng.choice(_LARGE, size=2, replace=False).tolist()
        rows.append([(p, 1) for p in small + large])
    rows += [rows[3], rows[17], [], [(2, 2), (_LARGE[0], 1)]]
    t = _table_of(rows)
    assert t.values[t.is_squarefree].min() == 1
    assert t.values[t.is_squarefree].max() >= 1 << 31
    cnt = Counter()
    sets = [frozenset(p for p, _ in r.factors) for r in t if r.is_squarefree]
    for sa in sets:
        for sb in sets:
            cnt[sa.symmetric_difference(sb)] += 1
    assert max(math.prod(k) for k in cnt) >= 1 << 63
    assert fourth_moment_exact(t) == sum(c * c for c in cnt.values())
    _assert_scan_exact(t)


def _assert_scan_exact(t):
    """_pair_scan over all ordered pairs gives each pair's row and gcd exactly,
    and a key that names its kernel (_assert_keys_name_kernels)."""
    vals = t.values[t.is_squarefree]
    s = len(vals)
    scanned = []
    for rows, g, kernel in _pair_scan(vals, vals, np.zeros(s, np.int64), np.full(s, s)):
        keys = kernel()
        assert keys.dtype == np.int64
        scanned += zip(rows.tolist(), g.tolist(), keys.tolist())
    want = []
    for i, a in enumerate(vals.tolist()):
        for b in vals.tolist():
            g = math.gcd(a, b)
            want.append((i, g, a * b // g**2))
    assert [(i, g) for i, g, _ in scanned] == [(i, g) for i, g, _ in want]
    _assert_keys_name_kernels([k for *_, k in scanned], [k for *_, k in want])


def _assert_keys_name_kernels(keys, kernels):
    """Each key is its Python-int kernel below 2**62 and at least 2**62 past
    it, and two keys are equal exactly when their kernels are."""
    wide = 1 << 62
    assert all(k == m if m < wide else k >= wide for k, m in zip(keys, kernels))
    pairs = set(zip(keys, kernels))
    assert len(pairs) == len({k for k, _ in pairs}) == len({m for _, m in pairs})


def test_kernel_keys_on_both_sides_of_2_62():
    # kernels 1, 35, 2**62 - 1 (a float64 product of 2**62), 2**62 and 3 * 2**61,
    # whose max(a) * max(b) is below 2**64, then 2**63, 2**70 twice and 3 * 2**61
    # again: the second call shares the first's wide kernels
    calls = [
        ([1, 5, (1 << 31) + 1, 1 << 31, 3 << 30], [1, 7, (1 << 31) - 1, 1 << 31, 1 << 31]),
        ([1 << 40, 1 << 40, 1 << 30, 1 << 31], [1 << 23, 1 << 30, 1 << 40, 3 << 30]),
    ]
    wide, keys, kernels = {}, [], []
    for a, b in calls:
        keys += _kernel_keys(np.array(a), np.array(b), wide).tolist()
        kernels += [p * q for p, q in zip(a, b)]
    _assert_keys_name_kernels(keys, kernels)
    assert sorted(wide) == sorted({m for m in kernels if m >= 1 << 62})


def test_wide_kernels_keep_one_key_across_chunks(monkeypatch):
    # L0*L1*L2*L3 > 2**62 is the kernel of two row pairs inside the class of
    # L5, each row thrice; chunks of a few pairs hold one row each
    L0, L1, L2, L3, L4, L5 = _LARGE
    quartet = [[L0, L1, L5], [L2, L3, L5], [L0, L2, L5], [L1, L3, L5]]
    rows = 3 * quartet + [[2, 3, L5], [5, L4], [2, L4], [3, 5], [7], []]
    t = _table_of([[(p, 1) for p in r] for r in rows])
    vals = t.values[t.is_squarefree]
    s = len(vals)

    def scanned():
        return (fourth_moment_exact(t), mcleish_condition_sums(t),
                gcd_class_histogram(t, threshold=1))

    default = scanned()
    monkeypatch.setattr(moments, "_PAIR_CHUNK", 3)
    chunks = [set(kernel().tolist()) for _, _, kernel in
              _pair_scan(vals, vals, np.zeros(s, np.int64), np.full(s, s))]
    assert len(chunks) >= s
    spread = Counter(k for c in chunks for k in c if k >= 1 << 62)
    assert max(spread.values()) > 1
    assert scanned() == default
    _assert_scan_exact(t)
    sets = [frozenset(r) for r in rows]
    assert default[0] == sum(c * c for c in Counter(a ^ b for a in sets for b in sets).values())
    assert default[1] == pytest.approx(_exhaustive_condition_sums(t), rel=1e-12)
    brute = Counter(math.gcd(a, b) for a in vals.tolist() for b in vals.tolist())
    assert dict(default[2].counts) == dict(brute)


def test_pair_scan_chunks_are_never_empty(monkeypatch, table_60):
    # a first row longer than _PAIR_CHUNK puts no cut before it; an empty
    # scan still yields its one chunk
    vals = np.arange(2, 20, dtype=np.int64)
    s = len(vals)
    (rows, g, kernel), = _pair_scan(vals, vals, np.zeros(s, np.int64), np.full(s, s))
    whole = rows, g, kernel()
    default = (fourth_moment_exact(table_60), mcleish_condition_sums(table_60),
               gcd_class_histogram(table_60, threshold=1))
    monkeypatch.setattr(moments, "_PAIR_CHUNK", 3)
    chunks = [(rows, g, kernel()) for rows, g, kernel in
              _pair_scan(vals, vals, np.zeros(s, np.int64), np.full(s, s))]
    assert len(chunks) == s and all(len(rows) == s for rows, _, _ in chunks)
    for got, want in zip(zip(*chunks), whole):
        assert np.array_equal(np.concatenate(got), want)
    empty = np.zeros(0, np.int64)
    (rows, g, kernel), = _pair_scan(empty, empty, empty, empty)
    assert len(rows) == len(g) == len(kernel()) == 0
    assert (fourth_moment_exact(table_60), mcleish_condition_sums(table_60),
            gcd_class_histogram(table_60, threshold=1)) == default


@st.composite
def _prime_pool_tables(draw):
    """Tables over at most 12 primes, with repeats, value 1 and squares."""
    row = st.tuples(
        st.sets(st.sampled_from(_SMALL)),
        st.sets(st.sampled_from(_LARGE), max_size=2),
        st.sampled_from((None,) + _SMALL),
    )
    base = draw(st.lists(row, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=10))
    rows = []
    for i in picks:
        small, large, square = base[i]
        fac = {p: 1 for p in small | large}
        if square is not None:
            fac[square] = 2
        rows.append(list(fac.items()))
    return _table_of(rows)


@settings(max_examples=60, deadline=None)
@given(_prime_pool_tables())
def test_pair_scan_callers_match_brute_force_hypothesis(t):
    vals = [r.value for r in t if r.is_squarefree]
    _assert_scan_exact(t)
    square = 0
    for quad in product(vals, repeat=4):
        prod = math.prod(quad)
        square += math.isqrt(prod) ** 2 == prod
    assert fourth_moment_exact(t) == square
    brute = Counter(math.gcd(a, b) for a in vals for b in vals)
    hist = gcd_class_histogram(t, threshold=1)
    assert hist.total_pairs == len(vals) ** 2
    assert dict(hist.counts) == dict(brute)
    if not vals:
        return
    got = mcleish_condition_sums(t)
    want = _exhaustive_condition_sums(t)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def _pruned_by_rounds(table):
    """(sorted core values, rounds): squarefree rows holding a prime that no
    other remaining row holds are dropped, one round at a time, on prime sets."""
    recs = [r for r in table if r.is_squarefree]
    alive, rounds = set(range(len(recs))), 0
    while True:
        held = Counter(p for i in alive for p, _ in recs[i].factors)
        drop = {i for i in alive if any(held[p] == 1 for p, _ in recs[i].factors)}
        if not drop:
            return sorted(recs[i].value for i in alive), rounds
        alive -= drop
        rounds += 1


def _square_quadruples(vals):
    count = 0
    for quad in product(vals, repeat=4):
        prod = math.prod(quad)
        count += math.isqrt(prod) ** 2 == prod
    return count


def test_core_prunes_a_chain_over_several_rounds():
    # the chain 2-3-5-7-13 hangs off the cycle 13-17-19-13; each round drops
    # the chain's end, whose lone prime only the row before it held. The
    # non-squarefree row holds 2 and 3 but keeps no squarefree row alive.
    chain = [[(2, 1), (3, 1)], [(3, 1), (5, 1)], [(5, 1), (7, 1)], [(7, 1), (13, 1)]]
    cycle = [[(13, 1), (17, 1)], [(17, 1), (19, 1)], [(13, 1), (19, 1)]]
    t = _table_of(chain + cycle + [[], [(2, 2), (3, 1)], [(23, 1)]])
    core, rounds = _pruned_by_rounds(t)
    assert rounds == 4
    assert sorted(_core(t).tolist()) == core == [1, 221, 247, 323]
    vals = t.values[t.is_squarefree].tolist()
    assert fourth_moment_exact(t) == _square_quadruples(vals)
    # 1 * 221 * 247 * 323 is a square, so the count is past the diagonal
    assert moment_report(t).off_diagonal > 0


@pytest.mark.parametrize(
    "coeffs, n",
    [((1, 0, 1), 1500), ((0, 1, 1), 2000), ((2, 2, 2), 1500), ((1, 1, 0, 1), 1300),
     ((26, -10, 1), 1500)],
    ids=["x^2+1", "x(x+1)", "2x^2+2x+2", "x^3+x+1", "(x-5)^2+1"],
)
def test_fourth_moment_from_core_matches_unpruned_scan(coeffs, n):
    # x^3+x+1 passes 2**31 at N = 1300: its unpruned reference meets 75 pairs
    # with kernels past 2**62, its core none
    t = sieve_values(IntPolynomial(coeffs), n)
    vals = t.values[t.is_squarefree]
    s = len(vals)
    i, ones = np.arange(s), np.ones(s, np.int64)
    _, counts = _scan_tally(vals, vals, i + 1, s - i - 1, lambda r, g, k: (k(),), (ones,))
    assert fourth_moment_exact(t) == sum(c * c for c in counts.tolist())
    # the core is the fixed point: every prime of a core row is held by at
    # least two core rows, and it is what pruning round by round leaves
    core = _core(t).tolist()
    assert 0 < len(core) < s
    primes = {r.value: [p for p, _ in r.factors] for r in t if r.is_squarefree}
    held = Counter(p for v in core for p in primes[v])
    assert min(held.values()) >= 2
    assert sorted(core) == _pruned_by_rounds(t)[0]


def test_no_relation_table_hits_diagonal_floor():
    # distinct primes as values: only paired-off quadruples are squares
    primes = [2, 3, 5, 7, 11, 13, 17, 19]
    recs = [ValueRecord(i + 1, p, ((p, 1),), True, p) for i, p in enumerate(primes)]
    t = table_from_records(IntPolynomial((0, 1)), recs)
    s = len(primes)
    assert fourth_moment_exact(t) == 3 * s * s - 2 * s
    assert moment_report(t).off_diagonal == 0


def test_off_diagonal_nonnegative_and_monotone_ratio(x2p1):
    offs = {}
    for n in (100, 200, 400):
        offs[n] = moment_report(sieve_values(x2p1, n)).off_diagonal
        assert offs[n] >= 0
    assert offs[100] / 100**2 >= offs[200] / 200**2 >= offs[400] / 400**2


def _exhaustive_condition_sums(table):
    """Exact class-moment sums by enumerating all sign assignments."""
    recs = [r for r in table if r.is_squarefree]
    primes = sorted({p for r in recs for p, _ in r.factors})
    assert len(primes) <= 16, "too many primes for exhaustive enumeration"
    classes = sorted({r.largest_prime for r in recs}, key=lambda x: (x is None, x))
    total2 = {c: 0.0 for c in classes}
    total4 = {c: 0.0 for c in classes}
    total_m2 = 0.0
    cross = 0.0
    n_assign = 2 ** len(primes)
    for bits in range(n_assign):
        sign = {p: (1 if bits >> i & 1 else -1) for i, p in enumerate(primes)}
        sums = {c: 0 for c in classes}
        for r in recs:
            f = math.prod(sign[p] for p, _ in r.factors)
            sums[r.largest_prime] += f
        total_m2 += sum(sums.values()) ** 2
        for c in classes:
            total2[c] += sums[c] ** 2
            total4[c] += sums[c] ** 4
        for a in classes:
            for b in classes:
                if a != b:
                    cross += sums[a] ** 2 * sums[b] ** 2
    b2 = total_m2 / n_assign  # second moment of the full sum, independently
    s2 = sum(total2.values()) / n_assign / b2
    s4 = sum(total4.values()) / n_assign / b2**2
    return s2, s4, cross / n_assign / b2**2


def test_mcleish_sums_match_exhaustive_expectation(x2p1):
    t = sieve_values(x2p1, 10)  # primes {2,5,13,17,37,41,101}: 2^7 assignments
    s2, s4, cross = mcleish_condition_sums(t)
    e2, e4, ec = _exhaustive_condition_sums(t)
    assert s2 == pytest.approx(e2, abs=1e-12)
    assert s4 == pytest.approx(e4, abs=1e-12)
    assert cross == pytest.approx(ec, abs=1e-12)


def test_mcleish_sums_match_exhaustive_with_unit_class():
    t = sieve_values(IntPolynomial((10, -6, 1)), 5)  # values 5,2,1,2,5
    s2, s4, cross = mcleish_condition_sums(t)
    e2, e4, ec = _exhaustive_condition_sums(t)
    assert s2 == pytest.approx(e2, abs=1e-12)
    assert s4 == pytest.approx(e4, abs=1e-12)
    assert cross == pytest.approx(ec, abs=1e-12)


def test_s2_is_exactly_one_on_polynomial_tables():
    for coeffs, n in [((1, 0, 1), 200), ((0, 1, 1), 150), ((0, 2, 1), 150), ((3, 0, 1), 100)]:
        t = sieve_values(IntPolynomial(coeffs), n)
        s2, _, _ = mcleish_condition_sums(t)
        assert s2 == 1.0, coeffs


def test_s4_shrinks_and_cross_stays_bounded(x2p1, table_1e3):
    _, s4_small, _ = mcleish_condition_sums(sieve_values(x2p1, 300))
    _, s4_big, cross = mcleish_condition_sums(table_1e3)
    assert s4_big < s4_small
    assert cross <= 1.05


def test_moment_report_consistency(table_60):
    rep = moment_report(table_60)
    assert rep.fourth_moment == fourth_moment_exact(table_60)
    assert rep.second_moment == second_moment_exact(table_60)
    assert rep.off_diagonal == rep.fourth_moment - rep.diagonal_term
    assert rep.fourth_moment == 8777 and rep.off_diagonal == 456
    assert rep.s2 == 1.0
    assert rep.squarefree_count == 53


def test_gcd_histogram_exhaustive(x2p1):
    t = sieve_values(x2p1, 12)
    hist = gcd_class_histogram(t, threshold=4)
    recs = [r for r in t if r.is_squarefree]
    brute = Counter()
    for a in recs:
        for b in recs:
            brute[math.gcd(a.value, b.value)] += 1
    assert hist.total_pairs == len(recs) ** 2
    assert dict(hist.counts) == dict(brute)
    assert hist.above_threshold == sum(c for d, c in brute.items() if d > 4)


def test_gcd_histogram_sampled_is_deterministic(table_60):
    h1 = gcd_class_histogram(table_60, threshold=10, pairs=500, seed=3)
    h2 = gcd_class_histogram(table_60, threshold=10, pairs=500, seed=3)
    assert h1 == h2
    assert isinstance(h1, GcdHistogram)
    assert h1.total_pairs == 500
    assert sum(c for _, c in h1.counts) == 500


def test_gcd_histogram_sampled_matches_its_draws(table_60):
    tables = [table_60, _table_of([[(p, 1), (q, 1)] for p in _LARGE for q in _SMALL] + [[]])]
    for t in tables:
        vals = t.values[t.is_squarefree].tolist()
        rng = np.random.default_rng(7)
        ii = rng.integers(0, len(vals), size=400)
        jj = rng.integers(0, len(vals), size=400)
        brute = Counter(math.gcd(vals[i], vals[j]) for i, j in zip(ii.tolist(), jj.tolist()))
        hist = gcd_class_histogram(t, threshold=3, pairs=400, seed=7)
        assert dict(hist.counts) == dict(brute)
        assert hist.above_threshold == sum(c for d, c in brute.items() if d > 3)
        assert [d for d, _ in hist.counts] == sorted(brute)
    empty = gcd_class_histogram(table_60, threshold=3, pairs=0, seed=7)
    assert empty.total_pairs == 0 and empty.above_threshold == 0 and empty.counts == ()
