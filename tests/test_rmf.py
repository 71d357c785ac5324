import cmath
import math
import tracemalloc

import numpy as np
import pytest

from polyrmf import rmf
from polyrmf.errors import DomainError
from polyrmf.moments import fourth_moment_exact, second_moment_exact
from polyrmf.poly import IntPolynomial
from polyrmf.rmf import CltReport, derive_seeds, monte_carlo_clt, trial_sums
from polyrmf.sieve import sieve_values

from oracles import derive_seed, f_prime, f_value, f_value_exact_phase, mix64, prime_hash


def test_hash_pins():
    # frozen from the initial run; these must never change silently
    assert derive_seed(0, 0) == 16294208416658607535
    assert derive_seed(0, 1) == 7960286522194355700
    assert prime_hash(0, 2) == 7891318372903466208
    assert mix64(mix64(123)) != mix64(123)


def test_sign_pins():
    signs = [f_prime(7, p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)]
    assert signs == [-1, -1, -1, -1, 1, 1, 1, -1, 1, 1]


def test_partial_sum_pins(x2p1, table_1e3):
    assert trial_sums(table_1e3, [2024], "rademacher")[0, 0] == 21
    t300 = sieve_values(x2p1, 300)
    assert trial_sums(t300, [2024], "rademacher")[0, 0] == -11


def test_steinhaus_pin():
    z = f_prime(7, 2, "steinhaus")
    assert z.real == pytest.approx(-0.308663144849301, abs=1e-14)
    assert z.imag == pytest.approx(-0.951171416208319, abs=1e-14)
    assert abs(z) == pytest.approx(1.0, abs=1e-14)


def test_sampler_validation(table_1e3):
    with pytest.raises(ValueError):
        trial_sums(table_1e3, [0], "gaussian")
    # seeds normalize to 64 bits
    for model in ("rademacher", "steinhaus"):
        same = trial_sums(table_1e3, [-1, (1 << 64) - 1], model)
        assert same[0, 0] == same[1, 0]


def test_f_value_multiplicative(x2p1):
    t = sieve_values(x2p1, 50)
    for n in (1, 3, 5, 8, 9):
        rec = t.record(n)
        expected = math.prod(f_prime(99, p) for p, _ in rec.factors)
        assert f_value(99, rec) == expected
    assert f_value(99, t.record(7)) == 0  # 50 = 2 * 5^2


def test_f_value_on_units():
    t = sieve_values(IntPolynomial((0, 0, 1)), 4)  # x^2
    assert f_value(5, t.record(1)) == 1  # value 1
    assert trial_sums(t, [5], "rademacher")[0, 0] == 1  # all other rows are squares
    assert f_value(5, t.record(1), "steinhaus") == 1


def test_steinhaus_completely_multiplicative(x2p1):
    t = sieve_values(x2p1, 50)
    rec = t.record(7)  # 50 = 2 * 5^2
    expected = f_prime(31, 2, "steinhaus") * f_prime(31, 5, "steinhaus") ** 2
    assert cmath.isclose(f_value(31, rec, "steinhaus"), expected, abs_tol=1e-12)
    assert abs(f_value(31, rec, "steinhaus")) == pytest.approx(1.0)


def test_scalar_and_vector_paths_agree():
    for coeffs in [(1, 0, 1), (0, 1, 1)]:
        t = sieve_values(IntPolynomial(coeffs), 400)
        rows = (np.arange(t.n_max), t.n_max)
        vec = trial_sums(t, [12345], "rademacher", rows)[0]
        sca = np.array([f_value(12345, rec) for rec in t], dtype=float)
        assert np.array_equal(vec, sca)
        vecs = trial_sums(t, [12345], "steinhaus", rows)[0]
        scas = np.array([f_value(12345, rec, "steinhaus") for rec in t], dtype=complex)
        assert np.allclose(vecs, scas, atol=1e-12)


def test_derive_seeds_matches_derive_seed():
    for seed in (0, 7, -1, (1 << 64) + 5):
        assert derive_seeds(seed, 6) == [derive_seed(seed, t) for t in range(6)]
    assert derive_seeds(3, 0) == []


@pytest.mark.parametrize("coeffs", [(1, 0, 1), (0, 1, 1), (0, 0, 1)])
@pytest.mark.parametrize("model", ["rademacher", "steinhaus"])
def test_trial_sums_match_scalar_oracle(coeffs, model):
    t = sieve_values(IntPolynomial(coeffs), 200)
    labels = np.random.default_rng(len(coeffs) + coeffs[0]).integers(-1, 5, 200)
    seeds = [3, 1 << 40, 99]
    got = trial_sums(t, seeds, model, (labels, 5))
    whole = trial_sums(t, seeds, model)
    assert got.shape == (3, 5) and whole.shape == (3, 1)
    for row, seed in enumerate(seeds):
        f = [f_value(seed, rec, model) for rec in t]
        want = [sum(f[n] for n in range(200) if labels[n] == j) for j in range(5)]
        if model == "rademacher":
            assert got[row].tolist() == want
            assert whole[row, 0] == sum(f)
        else:
            assert np.allclose(got[row], want, atol=1e-9)
            assert np.allclose(whole[row, 0], sum(f), atol=1e-9)


def test_packed_rademacher_words_match_f_value(monkeypatch, table_1e3):
    # 64 trials share one sign word and one lane count: these seed counts
    # cross the word boundaries
    x2 = sieve_values(IntPolynomial((0, 0, 1)), 300)  # unit and non-squarefree rows
    for t in (table_1e3, x2):
        n = t.n_max
        # stack row 0: groups 0 and 1 (one row each) and 2 (empty) ahead of
        # random groups 3..5 and -1; stack row 1: every row in group 6 or 7
        rand = np.random.default_rng(n).integers(-1, 6, n)
        rand[rand >= 0] = np.maximum(rand[rand >= 0], 3)
        rand[:2] = [0, 1]
        labels = np.stack([rand, 6 + np.arange(n) % 2])
        member = (labels[..., None] == np.arange(8)).any(axis=0)
        seeds = derive_seeds(n, 130)
        f = np.array([[f_value(s, rec) for rec in t] for s in seeds])
        want = f @ member
        assert want[:, 0].tolist() == f[:, 0].tolist() and not want[:, 2].any()
        for count in (0, 1, 63, 64, 65, 130):
            got = trial_sums(t, seeds[:count], "rademacher", (labels, 8))
            assert got.shape == (count, 8)
            assert np.array_equal(got, want[:count])
            whole = trial_sums(t, seeds[:count], "rademacher")
            assert np.array_equal(whole[:, 0], f[:count].sum(axis=1))
        # chunks of two row words: every group of more than two rows spans chunks
        monkeypatch.setattr(rmf, "_BLOCK_ENTRIES", 128)
        assert np.array_equal(trial_sums(t, seeds, "rademacher", (labels, 8)), want)
        monkeypatch.undo()


def test_trial_sums_refuse_bad_labels(table_1e3):
    seeds = [1, 2]
    good = np.zeros(1000, dtype=np.int64)
    for model in ("rademacher", "steinhaus"):
        for labels, n_groups in [
            (good[:-1], 1),  # one label short
            (np.zeros(1001, dtype=np.int64), 1),  # one label too many
            (np.zeros((2, 999), dtype=np.int64), 1),
            (good.astype(np.float64), 1),  # not integers
            (np.append(good[1:], -2), 1),  # below -1
            (np.append(good[1:], 3), 3),  # one past the last group
            (good, 0),
        ]:
            with pytest.raises(ValueError):
                trial_sums(table_1e3, seeds, model, (labels, n_groups))
        assert trial_sums(table_1e3, seeds, model, (good - 1, 0)).shape == (2, 0)


def test_trial_sums_memory_stays_bounded(x2p1):
    t = sieve_values(x2p1, 10**5)
    seeds = derive_seeds(0, 130)
    tracemalloc.start()
    try:
        trial_sums(t, seeds, "rademacher")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 10**6


def test_steinhaus_trial_sums_memory_stays_bounded(x2p1):
    t = sieve_values(x2p1, 10**5)
    seeds = derive_seeds(0, 130)
    tracemalloc.start()
    try:
        trial_sums(t, seeds, "steinhaus")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 10**6


@pytest.mark.parametrize("coeffs", [(1, 0, 1), (0, 1, 1), (0, 0, 1), (2, 2, 2)])
def test_steinhaus_rows_match_exact_phase(coeffs):
    # x^2 holds a unit row and high prime powers; 2x^2+2x+2 has content 2
    t = sieve_values(IntPolynomial(coeffs), 2000)
    rows = (np.arange(t.n_max), t.n_max)
    seeds = [0, 2024, (1 << 64) - 3]
    units = np.asarray(t.values) == 1
    for seed, got in zip(seeds, trial_sums(t, seeds, "steinhaus", rows)):
        want = np.array([f_value_exact_phase(seed, rec) for rec in t])
        assert np.abs(got - want).max() <= 2e-15
        assert np.all(got[units].real == 1.0) and np.all(got[units].imag == 0.0)
    assert units.any() == (coeffs == (0, 0, 1))


def test_trial_sums_do_not_depend_on_trial_order(table_1e3):
    groups = (np.random.default_rng(1).integers(-1, 4, 1000), 4)
    seeds = derive_seeds(5, 12)
    for model in ("rademacher", "steinhaus"):
        full = trial_sums(table_1e3, seeds, model, groups)
        assert np.array_equal(trial_sums(table_1e3, seeds[::-1], model, groups), full[::-1])
        pick = [7, 2, 11]
        subset = trial_sums(table_1e3, [seeds[i] for i in pick], model, groups)
        assert np.array_equal(subset, full[pick])
    with pytest.raises(ValueError):
        trial_sums(table_1e3, seeds, "gaussian")


@pytest.mark.parametrize("model", ["rademacher", "steinhaus"])
def test_trial_sums_do_not_depend_on_block_size(monkeypatch, table_1e3, model):
    x2 = sieve_values(IntPolynomial((0, 0, 1)), 300)  # unit and non-squarefree rows
    seeds = derive_seeds(11, 40)
    for t in (table_1e3, x2):
        groups = (np.random.default_rng(2).integers(-1, 3, t.n_max), 3)
        default = [trial_sums(t, seeds, model), trial_sums(t, seeds, model, groups)]
        for entries in (1, 7 * t.n_max, 1 << 30):
            monkeypatch.setattr(rmf, "_BLOCK_ENTRIES", entries)
            assert np.array_equal(trial_sums(t, seeds, model), default[0])
            assert np.array_equal(trial_sums(t, seeds, model, groups), default[1])
        monkeypatch.undo()


def test_partial_sum_by_class_partitions(table_1e3):
    # one group per largest-prime class, the unit class included
    u, cls = np.unique(table_1e3.largest, return_inverse=True)
    labels = (cls, len(u))
    for model in ("rademacher", "steinhaus"):
        by_class = trial_sums(table_1e3, [77], model, labels)[0]
        whole = trial_sums(table_1e3, [77], model)[0, 0]
        f = [f_value(77, rec, model) for rec in table_1e3]
        want = [sum(v for v, c in zip(f, cls) if c == j) for j in range(len(u))]
        if model == "rademacher":
            assert by_class.tolist() == want
            assert by_class.sum() == whole == sum(f)
        else:
            assert np.allclose(by_class, want, atol=1e-9)
            assert by_class.sum() == pytest.approx(whole)


def test_derived_streams_differ(table_1e3):
    sums = trial_sums(table_1e3, derive_seeds(4, 8), "rademacher")[:, 0]
    assert len(set(sums.tolist())) > 1


def test_monte_carlo_mean_is_centered(x2p1):
    t = sieve_values(x2p1, 500)
    rep = monte_carlo_clt(t, 1000, seed=3)
    assert isinstance(rep, CltReport)
    assert abs(rep.mean_real) <= 4.0 / math.sqrt(1000)
    assert rep.mean_imag == 0.0
    assert not rep.ks_vacuous
    assert rep.normalizer == pytest.approx(math.sqrt(second_moment_exact(t)))


def test_monte_carlo_raw_moments_near_exact(x2p1):
    t = sieve_values(x2p1, 300)
    rep = monte_carlo_clt(t, 1500, seed=0)
    b = second_moment_exact(t)
    f4 = fourth_moment_exact(t)
    assert abs(rep.raw_m2 - b) / b < 0.10
    assert abs(rep.raw_m4 - f4) / f4 < 0.15


def test_monte_carlo_kappa_normalization_close_to_exact(x2p1):
    t = sieve_values(x2p1, 2000)
    a = monte_carlo_clt(t, 10, seed=1, normalization="exact")
    b = monte_carlo_clt(t, 10, seed=1, normalization="kappa", prime_bound=10**4)
    assert b.ks_vacuous  # 10 trials is far below the reliability floor
    assert a.normalizer == pytest.approx(b.normalizer, rel=0.02)


def test_monte_carlo_steinhaus_moments(x2p1):
    t = sieve_values(x2p1, 400)
    rep = monte_carlo_clt(t, 1200, seed=9, model="steinhaus")
    assert abs(rep.m2 - 1.0) < 0.15
    assert abs(rep.m4 - 2.0) < 0.5  # complex normal: E|Z|^4 = 2
    assert rep.normalizer == pytest.approx(math.sqrt(400))  # injective, all rows count
    # E|f(n)|^2 = 1 on every row, so kappa plays no part
    kappa = monte_carlo_clt(t, 20, seed=9, model="steinhaus", normalization="kappa")
    assert kappa.normalizer == math.sqrt(400)


def test_monte_carlo_flags_unproven_classes():
    cubic = IntPolynomial((2, 0, 0, 1))
    rep = monte_carlo_clt(sieve_values(cubic, 200), 5, seed=0)
    assert rep.outside_proven_class
    square = IntPolynomial((1, 4, 4))  # (2x+1)^2
    rep2 = monte_carlo_clt(sieve_values(square, 100), 5, seed=0, model="steinhaus")
    assert rep2.outside_proven_class
    rep3 = monte_carlo_clt(sieve_values(IntPolynomial((1, 0, 1)), 100), 5, seed=0)
    assert not rep3.outside_proven_class
    linear = IntPolynomial((1, 1))  # x + 1: one linear factor is not enough
    rep4 = monte_carlo_clt(sieve_values(linear, 100), 10, seed=0)
    assert rep4.outside_proven_class


def test_monte_carlo_zero_norm_raises():
    square = IntPolynomial((1, 4, 4))  # all values are odd squares
    with pytest.raises(DomainError):
        monte_carlo_clt(sieve_values(square, 50), 5, seed=0)


def test_monte_carlo_validation(x2p1):
    t = sieve_values(x2p1, 100)
    with pytest.raises(ValueError):
        monte_carlo_clt(t, 0)
    with pytest.raises(ValueError):
        monte_carlo_clt(t, 5, model="bogus")
    with pytest.raises(ValueError):
        monte_carlo_clt(t, 5, normalization="bogus")


def test_monte_carlo_histogram_totals(x2p1):
    rep = monte_carlo_clt(sieve_values(x2p1, 200), 300, seed=2)
    assert len(rep.hist_edges) == len(rep.hist_counts) + 1
    assert sum(rep.hist_counts) <= 300
