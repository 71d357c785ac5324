import dataclasses
import functools
import math

import numpy as np
import pytest
import sympy

from polyrmf import fluctuations
from polyrmf.errors import InfeasibleScaleError
from polyrmf.fluctuations import (
    GEOMETRIC,
    THEORETICAL,
    build_prime_class_sets,
    lil_scan,
    scale_set,
)
from polyrmf.rmf import derive_seeds, trial_sums

from oracles import RADEMACHER, f_value


def test_theoretical_schedule_pins():
    s = scale_set(16, 2, THEORETICAL, cap=10**8)
    assert s.xs == (28, 53878859)


def test_theoretical_schedule_outgrows_small_caps():
    with pytest.raises(InfeasibleScaleError, match="at most 1 scale"):
        scale_set(16, 2, THEORETICAL, cap=10**6)
    with pytest.raises(InfeasibleScaleError, match="at most 2 scale"):
        scale_set(16, 3, THEORETICAL, cap=10**8)


def test_geometric_schedule_shape():
    s = scale_set(16, 8, GEOMETRIC, cap=2000)
    assert len(s.xs) == 8
    assert s.xs[-1] == 2000
    assert all(b > a for a, b in zip(s.xs, s.xs[1:]))
    assert s.xs[0] >= 17


def test_scale_set_validation():
    with pytest.raises(ValueError):
        scale_set(8, 4)
    with pytest.raises(ValueError):
        scale_set(16, 1)
    with pytest.raises(ValueError):
        scale_set(16, 4, mode="linear")
    with pytest.raises(InfeasibleScaleError):
        scale_set(16, 4, GEOMETRIC, cap=19)  # no room above the base


@functools.lru_cache(maxsize=None)
def _brute_sets(xs, c, cap):
    """Reference construction from raw factorizations, no shared code."""
    occ = {}
    for n in range(1, cap + 1):
        for p in sympy.factorint(n * n + 1):
            occ.setdefault(p, []).append(n)
    sets = []
    cand_sizes = []
    for idx, x in enumerate(xs):
        prev = xs[idx - 1] if idx else 0
        theta = c * x * math.log(x)
        cands = [
            p
            for p, ns in occ.items()
            if p > theta and prev < ns[0] <= x and (len(ns) == 1 or ns[1] > x)
        ]
        cand_sizes.append(len(cands))
        witness = {}
        for p in cands:
            witness.setdefault(occ[p][0], []).append(p)
        kept = sorted(p for ps in witness.values() if len(ps) == 1 for p in ps)
        sets.append(kept)
    classes = []
    for idx, x in enumerate(xs):
        c1, c2, c3 = [], [], []
        for n in range(1, x + 1):
            ps = set(sympy.factorint(n * n + 1))
            hits = [i for i, a in enumerate(sets) if ps & set(a)]
            total = sum(len(ps & set(a)) for a in sets)
            if hits == [idx] and total == 1:
                c1.append(n - 1)
            elif set(hits) - {idx}:
                c2.append(n - 1)
            elif not hits:
                c3.append(n - 1)
            else:
                # two same-scale primes sharing a row would have shared
                # their witness and been dropped, so this cannot happen
                raise AssertionError(f"impossible same-scale double hit at n={n}")
        classes.append((c1, c2, c3))
    return sets, cand_sizes, classes


def _column_rows(sets, j):
    return np.flatnonzero(sets.labels == j).tolist()


@pytest.mark.parametrize(
    "k, cap, c",
    [
        (4, 600, 0.05),
        # c * x_i * log x_i > x_i at every scale: the threshold binds
        (10, 1500, 0.5),
    ],
)
def test_class_sets_match_brute_force(k, cap, c):
    scales = scale_set(16, k, GEOMETRIC, cap=cap)
    sets = build_prime_class_sets(scales, c=c)
    brute_sets, brute_cands, brute_classes = _brute_sets(scales.xs, c, cap)
    assert sets.candidate_sizes == tuple(brute_cands)
    # no candidate is dropped for a shared witness (module docstring)
    assert sets.candidate_sizes == sets.sizes
    for i in range(k):
        assert sets.prime_sets[i].tolist() == brute_sets[i]
        assert (sets.prime_sets[i] > scales.xs[i]).all()
        first = sets.first_occurrence[i]
        for p, n in zip(sets.prime_sets[i], first):
            assert (n * n + 1) % p == 0
        c1, c2, c3 = brute_classes[i]
        lo = scales.xs[i - 1] if i else 0
        # band i's three columns are the brute-force classes restricted to it
        assert all(r >= lo for r in c1)
        assert _column_rows(sets, 3 * i) == c1
        assert _column_rows(sets, 3 * i + 1) == [r for r in c2 if r >= lo]
        assert _column_rows(sets, 3 * i + 2) == [r for r in c3 if r >= lo]
        # classes 2 and 3 of scale i, rebuilt from the band columns
        touched = [3 * j + m for j in range(i) for m in (0, 1)] + [3 * i + 1]
        assert sorted(r for j in touched for r in _column_rows(sets, j)) == c2
        assert sorted(r for j in range(i + 1) for r in _column_rows(sets, 3 * j + 2)) == c3
    assert sets.labels.shape == (scales.xs[-1],)
    assert sets.labels.min() >= 0 and sets.labels.max() < 3 * k


def test_invariants_hold_on_larger_ladder():
    scales = scale_set(16, 8, GEOMETRIC, cap=2000)
    sets = build_prime_class_sets(scales, c=0.01)
    checks = sets.verify_invariants()
    assert all(checks.values()), checks


def _small_sets():
    scales = scale_set(16, 4, GEOMETRIC, cap=600)
    return build_prime_class_sets(scales, c=0.05)


def _with_set(sets, i, primes):
    prime_sets = list(sets.prime_sets)
    prime_sets[i] = np.sort(np.asarray(primes, dtype=np.int64))
    return dataclasses.replace(sets, prime_sets=tuple(prime_sets))


def _shared_prime(sets):
    # the last scale gets a prime of the first scale
    return _with_set(sets, 3, np.append(sets.prime_sets[3], sets.prime_sets[0][0]))


def _low_threshold(sets):
    # every first-scale prime is now below c * x_1 * log x_1
    return dataclasses.replace(sets, c=1.0)


def _two_witnesses(sets):
    # a prime p = 1 mod 4 below x_4 divides n^2 + 1 at n and at p - n
    x = sets.scales.xs[3]
    theta = sets.c * x * math.log(x)
    used = set(np.concatenate(sets.prime_sets).tolist())
    p = next(q for q in sympy.primerange(math.ceil(theta), x) if q % 4 == 1 and q not in used)
    return _with_set(sets, 3, np.append(sets.prime_sets[3], p))


def _stale_prime(sets):
    # move a first-scale prime, witnessed below x_1, to the second scale
    p = sets.prime_sets[0][0]
    moved = _with_set(sets, 0, sets.prime_sets[0][1:])
    return _with_set(moved, 1, np.append(sets.prime_sets[1], p))


def _shared_value(sets):
    # add a second prime factor of a witness value to the same set
    used = set(np.concatenate(sets.prime_sets).tolist())
    for p, n in zip(sets.prime_sets[3].tolist(), sets.first_occurrence[3].tolist()):
        others = [q for q in sympy.factorint(n * n + 1) if q != p and q not in used]
        if others:
            return _with_set(sets, 3, np.append(sets.prime_sets[3], max(others)))
    raise AssertionError("every witness value is prime")


def _absent_prime(sets):
    # a prime above every table prime: no row holds it, and the lookup's
    # search lands past the end of the table's distinct primes
    p = sympy.nextprime(int(sets.table.prime_index()[0][-1]))
    return _with_set(sets, 3, np.append(sets.prime_sets[3], p))


def _unheld_small_prime(sets):
    # 3 never divides n^2 + 1, so no row holds it, though the table holds
    # larger primes
    return _with_set(sets, 3, np.append(sets.prime_sets[3], 3))


def _dropped_row(sets):
    # row 0 leaves every group of the first band
    labels = sets.labels.copy()
    labels[0] = -1
    return dataclasses.replace(sets, labels=labels)


def _misplaced_row(sets):
    # an untouched row of the second band moves to its other-touched group
    labels = sets.labels.copy()
    labels[np.flatnonzero(labels == 5)[0]] = 4
    return dataclasses.replace(sets, labels=labels)


@pytest.mark.parametrize(
    "flag, corrupt",
    [
        ("disjoint", _shared_prime),
        ("threshold", _low_threshold),
        ("single_witness", _two_witnesses),
        ("single_witness", _absent_prime),
        ("single_witness", _unheld_small_prime),
        ("fresh", _stale_prime),
        ("no_shared_value", _shared_value),
        ("partition", _dropped_row),
        ("partition", _misplaced_row),
    ],
)
def test_invariants_catch_corruption(flag, corrupt):
    sets = _small_sets()
    assert all(sets.verify_invariants().values())
    checks = corrupt(sets).verify_invariants()
    assert set(checks) == {
        "disjoint", "threshold", "single_witness", "fresh", "no_shared_value", "partition"
    }
    assert checks[flag] is False, checks


def _moved_hit(hits):
    # the first scale-3 hit moves to the next row holding no scale prime
    def mutant(table, prime_sets):
        hit, rows, label = hits(table, prime_sets)
        j = np.flatnonzero(label == 2)[0]
        rows = rows.copy()
        rows[j] = np.setdiff1d(np.arange(rows[j] + 1, table.n_max), rows)[0]
        return hit, rows, label
    return mutant


def _relabelled_hit(hits):
    # the first scale-3 hit is labelled scale 4
    def mutant(table, prime_sets):
        hit, rows, label = hits(table, prime_sets)
        label = label.copy()
        label[np.flatnonzero(label == 2)[0]] = 3
        return hit, rows, label
    return mutant


@pytest.mark.parametrize("mutant", [_moved_hit, _relabelled_hit])
def test_checks_catch_a_wrong_hit_lookup(monkeypatch, mutant):
    # the sets are built with the checks' lookup broken: a builder that
    # labelled its rows through that lookup would agree with it
    monkeypatch.setattr(fluctuations, "_scale_hits", mutant(fluctuations._scale_hits))
    sets = _small_sets()
    assert sets.verify_invariants()["partition"] is False
    if mutant is _moved_hit:
        assert not lil_scan(sets, trials=20, seed=0).partition_exact


def test_builder_does_not_use_the_checks_lookup(monkeypatch):
    def refuse(table, prime_sets):
        raise AssertionError("the builder called _scale_hits")

    reference = _small_sets()
    monkeypatch.setattr(fluctuations, "_scale_hits", refuse)
    sets = _small_sets()
    assert sets.sizes == reference.sizes
    assert np.array_equal(sets.labels, reference.labels)


def test_empty_sets_pass_every_check():
    # no prime clears c * x * log x at c = 1000: every row is untouched
    sets = build_prime_class_sets(scale_set(16, 4, GEOMETRIC, cap=600), c=1000)
    assert sets.sizes == (0, 0, 0, 0)
    checks = sets.verify_invariants()
    assert all(checks.values()), checks
    assert lil_scan(sets, trials=20, seed=1).partition_exact


def test_build_validation():
    scales = scale_set(16, 4, GEOMETRIC, cap=600)
    for c in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            build_prime_class_sets(scales, c=c)
    wide = scale_set(16, 65, GEOMETRIC, cap=10**6)
    with pytest.raises(ValueError):
        build_prime_class_sets(wide)


def test_three_sum_is_exact_partition():
    # classes 1, 2 and 3 of every scale from one trial's band sums, against
    # the brute-force classes summed one f_value at a time
    scales = scale_set(16, 4, GEOMETRIC, cap=600)
    sets = build_prime_class_sets(scales, c=0.05)
    t = sets.table
    _, _, classes = _brute_sets(scales.xs, 0.05, 600)
    for seed in (0, 5, 11):
        f = [f_value(seed, t.record(n)) for n in range(1, 601)]
        sums = trial_sums(t, [seed], RADEMACHER, (sets.labels, 3 * scales.k))
        s1, s2, s3, msum = (part[0] for part in fluctuations._class_sums(sums))
        for i, x in enumerate(scales.xs):
            parts = (s1[i], s2[i], s3[i])
            assert parts == tuple(sum(f[r] for r in rows) for rows in classes[i])
            assert msum[i] == sum(parts) == sum(f[:x])


@pytest.mark.parametrize("seed", [4, 19])
def test_lil_scan_classes_match_class_columns(seed):
    # classes 2 and 3 summed over one group per class and scale, built
    # from the brute-force classes, against the derived lil_scan sums
    scales = scale_set(16, 4, GEOMETRIC, cap=600)
    sets = build_prime_class_sets(scales, c=0.05)
    t = sets.table
    _, _, classes = _brute_sets(scales.xs, 0.05, 600)
    labels = np.full((4, 600), -1)  # one stacked label row per scale
    for i, (_, c2, c3) in enumerate(classes):
        labels[i, c2] = 2 * i
        labels[i, c3] = 2 * i + 1
    sums = trial_sums(t, derive_seeds(seed, 100), "rademacher", (labels, 8))
    s2, s3 = sums[:, 0::2], sums[:, 1::2]
    rep = lil_scan(sets, trials=100, seed=seed)
    assert rep.partition_exact
    assert rep.s2_mean == tuple(float(m) for m in s2.mean(axis=0))
    assert rep.s3_mean == tuple(float(m) for m in s3.mean(axis=0))
    assert rep.s2_sq_mean == tuple(float(m) for m in (s2**2).mean(axis=0))
    assert rep.s3_sq_mean == tuple(float(m) for m in (s3**2).mean(axis=0))


@pytest.mark.parametrize("column", [4, 11])
def test_partition_exact_catches_a_wrong_band_sum(monkeypatch, column):
    # group 4 is the second band's other-touched rows, 11 the last band's
    # untouched rows: s2 and s3 are derived from them. Every band sum call
    # holds the band groups first, the first word's call the direct groups
    # after them
    sets = _small_sets()
    real = fluctuations.trial_sums

    def skewed(table, seeds, model, groups=None):
        out = real(table, seeds, model, groups)
        out[:, column] += 2
        return out

    assert lil_scan(sets, trials=20, seed=1).partition_exact
    monkeypatch.setattr(fluctuations, "trial_sums", skewed)
    assert not lil_scan(sets, trials=20, seed=1).partition_exact


@pytest.mark.parametrize("band", [1, 3])
@pytest.mark.parametrize("source", [0, 2])
def test_partition_exact_catches_a_misplaced_row(band, source):
    # one squarefree row of the band's class-1 (source 0) or untouched
    # (source 2) group moved to its other-touched group
    sets = _small_sets()
    src, dst = 3 * band + source, 3 * band + 1
    labels = sets.labels.copy()
    rows = np.flatnonzero(labels == src)
    labels[rows[sets.table.is_squarefree[rows]][0]] = dst
    moved = dataclasses.replace(sets, labels=labels)
    assert lil_scan(sets, trials=20, seed=1).partition_exact
    assert not lil_scan(moved, trials=20, seed=1).partition_exact


def test_direct_sums_follow_the_definitions_on_any_sets():
    # a small prime of a scale-2 witness joins A_2: rows now hold two primes
    # of one scale, and scale primes sit in every band and past x_2
    sets = _small_sets()
    t, xs = sets.table, sets.scales.xs
    p, q = next((p, q) for p, w in zip(sets.prime_sets[1], sets.first_occurrence[1])
                for q, _ in t.record(int(w)).factors if q != p)
    bent = _with_set(sets, 1, [*sets.prime_sets[1], q])
    scale_of = {int(r): i for i, a in enumerate(bent.prime_sets) for r in a}
    held = [{scale_of[r] for r, _ in t.record(n).factors if r in scale_of}
            for n in range(1, xs[-1] + 1)]
    seeds = derive_seeds(3, 4)
    bands, d2, d3 = fluctuations._direct_classes_2_3(bent, seeds)
    assert np.array_equal(bands, trial_sums(t, seeds, "rademacher", (bent.labels, 3 * len(xs))))
    for j, seed in enumerate(seeds):
        f = [f_value(seed, t.record(n)) for n in range(1, xs[-1] + 1)]
        for i, x in enumerate(xs):
            assert d2[j, i] == sum(f[r] for r in range(x) if held[r] - {i})
            assert d3[j, i] == sum(f[r] for r in range(x) if not held[r])


def test_direct_check_sums_at_most_two_columns_per_row(monkeypatch):
    # the first word sums the 3k band groups and, in the same call, the 3k
    # direct groups (touched and untouched per band, own-prime-only per
    # scale) that hold every row below x_k at most twice; later words sum
    # the band groups alone
    sets = _small_sets()
    k, xk = len(sets.scales.xs), sets.scales.xs[-1]
    real = fluctuations.trial_sums
    seen = []

    def spy(table, seeds, model, groups=None):
        seen.append((len(seeds), groups))
        return real(table, seeds, model, groups)

    monkeypatch.setattr(fluctuations, "trial_sums", spy)
    assert lil_scan(sets, trials=70, seed=1).partition_exact
    (first, (stack, n_first)), (rest, (labels, n_rest)) = seen
    assert (first, rest) == (64, 6) and (n_first, n_rest) == (6 * k, 3 * k)
    assert labels is sets.labels
    assert stack.shape == (3, xk) and np.array_equal(stack[0], sets.labels)
    # the touched and untouched band groups partition the rows below x_k
    assert ((stack[1] >= 3 * k) & (stack[1] < 5 * k)).all()
    own = stack[2][stack[2] >= 0]
    assert ((own >= 5 * k) & (own < 6 * k)).all() and (stack[2] >= -1).all()


def test_single_prime_sum_second_moment():
    # class-1 rows at a scale carry disjoint fresh primes, so the sum over
    # them has variance equal to the number of squarefree class-1 rows
    scales = scale_set(16, 4, GEOMETRIC, cap=600)
    sets = build_prime_class_sets(scales, c=0.05)
    rep = lil_scan(sets, trials=1500, seed=123)
    assert rep.partition_exact
    for i in range(4):
        assert rep.beta_exact[i] * scales.xs[i] == pytest.approx(rep.class1_sf[i])
        m = rep.class1_sf[i]
        if m >= 2:
            assert rep.s1_sq_mean[i] == pytest.approx(m, rel=0.15)


def test_single_prime_sums_uncorrelated_across_scales():
    scales = scale_set(16, 4, GEOMETRIC, cap=600)
    sets = build_prime_class_sets(scales, c=0.05)
    class1 = np.where(sets.labels % 3 == 0, sets.labels // 3, -1)
    s1 = trial_sums(sets.table, derive_seeds(9, 1500), "rademacher", (class1, 4))
    sd = s1.std(axis=0)
    for i in range(4):
        for j in range(i):
            if sd[i] > 0 and sd[j] > 0:
                r = np.corrcoef(s1[:, i], s1[:, j])[0, 1]
                assert abs(r) < 0.12


def test_lil_scan_report_shape():
    scales = scale_set(16, 8, GEOMETRIC, cap=2000)
    rep = lil_scan(build_prime_class_sets(scales, c=0.01), trials=200, seed=0)
    k = 8
    assert rep.xs == scales.xs
    assert len(rep.sizes) == k
    assert len(rep.sigma_hat) == k
    assert len(rep.norm_stat_mean) == k
    assert rep.partition_exact
    assert rep.degenerate_scales == ()
    assert len(rep.max_stat_quantiles) == 5
    (u, frac), = rep.threshold_fractions
    assert u == pytest.approx(math.sqrt(math.log(k)))
    assert 0.0 <= frac <= 1.0
    qs = [q for _, q in rep.max_stat_quantiles]
    assert qs == sorted(qs)


def test_lil_scan_validation():
    sets = build_prime_class_sets(scale_set(16, 4, GEOMETRIC, cap=600), c=0.05)
    with pytest.raises(ValueError):
        lil_scan(sets, trials=1)


def test_lil_scan_deterministic():
    scales = scale_set(16, 4, GEOMETRIC, cap=600)
    a = lil_scan(build_prime_class_sets(scales, c=0.05), trials=50, seed=7)
    b = lil_scan(build_prime_class_sets(scales, c=0.05), trials=50, seed=7)
    assert a == b
