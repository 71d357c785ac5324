import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyrmf.curves import CurveScanReport, _divisible, exponent_scan, integral_points
from polyrmf.poly import IntPolynomial, values


def _brute(vals, a, b):
    n = len(vals)
    return sorted(
        (x, y)
        for x in range(1, n + 1)
        for y in range(1, n + 1)
        if a * vals[x - 1] == b * vals[y - 1]
    )


def test_pell_points(x2p1):
    assert integral_points(x2p1, 1, 2, 100) == [(3, 2), (17, 12), (99, 70)]
    assert integral_points(x2p1, 2, 1, 100) == [(2, 3), (12, 17), (70, 99)]


def test_pell_recurrence_continues(x2p1):
    pts = set(integral_points(x2p1, 1, 2, 10**4))
    x, y = 99, 70
    while 3 * x + 4 * y <= 10**4:
        x, y = 3 * x + 4 * y, 2 * x + 3 * y
        assert (x, y) in pts


def test_diagonal(x2p1):
    assert integral_points(x2p1, 1, 1, 50) == [(x, x) for x in range(1, 51)]


def test_noninjective_diagonal_includes_reflections():
    p = IntPolynomial((10, -6, 1))  # symmetric about 3: P(1)=P(5), P(2)=P(4)
    pts = integral_points(p, 1, 1, 10)
    assert (1, 5) in pts and (5, 1) in pts and (2, 4) in pts
    assert all((x, x) in pts for x in range(1, 11))


def test_completeness_against_quadratic_scan():
    polys = [
        IntPolynomial((1, 0, 1)),
        IntPolynomial((0, 1, 1)),
        IntPolynomial((10, -6, 1)),  # non-monotone on the range
        IntPolynomial((2, 0, 0, 1)),
        IntPolynomial((3, 2)),
        IntPolynomial((0, 10**400, 1)),  # P' = 2x + 10**400 has no float form
    ]
    # (151, 2) divides the y-values by 151 > n, which tests every value
    pairs = [(1, 1), (1, 2), (2, 1), (3, 5), (7, 11), (2, 4), (25, 4), (151, 2)]
    n = 150
    for poly in polys:
        vals = [poly.eval(x) for x in range(1, n + 1)]
        for a, b in pairs:
            assert integral_points(poly, a, b, n) == _brute(vals, a, b), (poly.coeffs, a, b)


@st.composite
def _divisor_cases(draw):
    """(P, N, d): P of degree 1-4 with signed coefficients, now and then one
    past 2**63; N up to 300; d up to 2N, exactly N, or past 2**63."""
    degree = draw(st.integers(1, 4))
    coeffs = draw(st.lists(st.integers(-50, 50), min_size=degree + 1, max_size=degree + 1))
    coeffs[-1] = coeffs[-1] or 1
    if draw(st.booleans()):
        coeffs[draw(st.integers(0, degree))] += draw(st.sampled_from((1, -1))) * (2**63 + 5)
    n = draw(st.integers(1, 300))
    d = draw(st.one_of(st.integers(1, 2 * n), st.just(n), st.integers(2**63, 2**70)))
    return IntPolynomial(coeffs), n, d


@settings(max_examples=300, deadline=None)
@given(_divisor_cases())
def test_divisible_matches_testing_every_value(case):
    # the residue classes from the first d values find exactly the values
    # that d divides, in ascending order, for int64 and object values alike
    P, n, d = case
    vals = values(P, 1, n + 1)
    if d >= 1 << 63:  # _points divides by such d in Python ints
        vals = vals.astype(object)
    want = [i for i, v in enumerate(vals.tolist()) if v % d == 0]
    assert _divisible(vals, d).tolist() == want


def test_big_coefficient_path():
    p = IntPolynomial((1, 0, 1))
    big = 2**61
    pts = integral_points(p, big, 2 * big, 100)
    assert pts == [(3, 2), (17, 12), (99, 70)]  # same ratio as (1, 2)
    huge = IntPolynomial((10**400, 0, 10**400))  # values past int64 and float range
    assert integral_points(huge, 1, 2, 100) == [(3, 2), (17, 12), (99, 70)]
    assert integral_points(p, 2**64, 2**65, 100) == [(3, 2), (17, 12), (99, 70)]
    assert integral_points(IntPolynomial((-1, 1)), 2**64, 3, 1) == [(1, 1)]  # P(1) = 0


def test_huge_cancelling_coefficients_take_int64_path():
    # x^2 - 5x + 10 + 2**62 (x-1)(x-2)(x-3)(x-4): values 6, 4, 4, 6 on 1..4
    # although the coefficients are far past int64
    q = (10, -5, 1, 0, 0)
    w = (24, -50, 35, -10, 1)  # (x-1)(x-2)(x-3)(x-4)
    p = IntPolynomial([a + 2**62 * b for a, b in zip(q, w)])
    n = 4
    vals = [p.eval(x) for x in range(1, n + 1)]
    assert vals == [6, 4, 4, 6] and max(abs(c) for c in p.coeffs) > 2**63
    assert values(p, 1, n + 1).dtype == np.int64
    for a, b in [(1, 1), (2, 3), (3, 2), (2, 1)]:
        assert integral_points(p, a, b, n) == _brute(vals, a, b), (a, b)
    assert integral_points(p, 2, 3, n) == [(1, 2), (1, 3), (4, 2), (4, 3)]


def test_validation():
    p = IntPolynomial((1, 0, 1))
    with pytest.raises(ValueError):
        integral_points(p, 0, 1, 10)
    with pytest.raises(ValueError):
        integral_points(p, 1, -2, 10)
    with pytest.raises(ValueError):
        integral_points(p, 1, 1, 0)
    for kwargs in ({"ab_samples": 0}, {"ab_max": 1}):
        with pytest.raises(ValueError, match="ab_samples >= 1 and ab_max >= 2"):
            exponent_scan(p, [10], **kwargs)
    for n_values in ([], [0, 10], [-5]):
        with pytest.raises(ValueError, match="n_values must be positive"):
            exponent_scan(p, n_values)


_BROKEN_JOIN = """
from polyrmf import curves
from polyrmf.poly import IntPolynomial

real = curves.multi_slice
# every x joins the y after its own, so no joined point solves the equation
curves.multi_slice = lambda starts, lengths: (real(starts, lengths) + 1) % 50
try:
    curves.integral_points(IntPolynomial((1, 0, 1)), 1, 1, 50)
except RuntimeError as exc:
    print("refused", __debug__, exc)
"""


def test_broken_join_is_refused_under_optimize(src_env):
    # python -O strips assert statements, and the check must still run
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_JOIN], env=src_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused False a joined point fails"), proc.stdout


def test_exponent_scan_report(x2p1):
    rep = exponent_scan(x2p1, [50, 100], ab_samples=25, seed=11, ab_max=30)
    assert isinstance(rep, CurveScanReport)
    assert rep.n_values == (50, 100)
    assert len(rep.pairs) == 25
    assert all(a != b for a, b in rep.pairs)
    assert rep.diagonal_count == (50, 100)
    assert len(rep.counts_by_n) == 2 and len(rep.counts_by_n[0]) == 25
    # counts cannot shrink when the box grows
    for c_small, c_big in zip(rep.counts_by_n[0], rep.counts_by_n[1]):
        assert c_big >= c_small
    assert rep.max_count[1] == max(rep.counts_by_n[1])
    # the scan evaluates P once; each pair's count matches its own solve
    for (a, b), count in zip(rep.pairs, rep.counts_by_n[1]):
        assert count == len(integral_points(x2p1, a, b, 100))
    for a, b, count, pts in rep.top_examples:
        assert count == len(integral_points(x2p1, a, b, 100))
        assert len(pts) <= 20


def test_exponent_scan_deterministic(x2p1):
    r1 = exponent_scan(x2p1, [30], ab_samples=10, seed=5)
    r2 = exponent_scan(x2p1, [30], ab_samples=10, seed=5)
    assert r1 == r2
