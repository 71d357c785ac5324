"""Output checks for every benchmark job, written without polyrmf.

Exact answers are compared with independent oracles: dumped factor rows must
multiply to P(n) with prime factors, kappa is recomputed from Legendre
symbols, the moment counts from a separate pair scan, and curve counts from
a sorted-value lookup. Monte Carlo answers are checked with invariants that
hold for every seed. check_job returns a list of problems; empty means the
output is correct.
"""
from __future__ import annotations

import json
import math

import numpy as np

_CSV_HEADER = "n,value,is_squarefree,largest_prime,factors"
_REL = 1e-12


def parse_argv(argv):
    """(command, {option: value}) for the generated argv; bare flags map to True."""
    opts = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:].replace("-", "_")
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[key] = argv[i + 1]
            i += 2
        else:
            opts[key] = True
            i += 1
    return argv[0], opts


def _coeffs(text):
    return [int(c) for c in text.split(",")]


def _eval(coeffs, n):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def _translate(coeffs):
    """(s, c) with P(x) = (x + s)^2 + c; the oracles cover s >= 0, c >= 1."""
    if len(coeffs) != 3 or coeffs[2] != 1 or coeffs[1] % 2 or coeffs[1] < 0:
        raise ValueError(f"oracles cover (x + s)^2 + c only, got {coeffs}")
    s = coeffs[1] // 2
    c = coeffs[0] - s * s
    if c < 1:
        raise ValueError(f"oracles need c >= 1, got {coeffs}")
    return s, c


def _values(s, c, n_max):
    n = np.arange(1 + s, n_max + s + 1, dtype=np.int64)
    return n * n + c


def _close(x, y, rel=_REL):
    return abs(x - y) <= rel * max(abs(x), abs(y), 1e-300)


def primes_to(n):
    if n < 2:
        return []
    s = np.ones(n + 1, dtype=bool)
    s[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if s[p]:
            s[p * p :: p] = False
    return np.nonzero(s)[0].tolist()


def is_prime(n):
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10**24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sqrt_mod(a, p):
    """A square root of a modulo the odd prime p (Tonelli-Shanks), or None."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _roots_mod_p2(a, p):
    """Residues x mod p^2 with x^2 + a = 0 mod p^2 (a translate has the same count)."""
    q = p * p
    if p == 2:
        return [x for x in range(4) if (x * x + a) % 4 == 0]
    if a % p == 0:
        return list(range(0, q, p)) if a % q == 0 else []
    r = _sqrt_mod(-a, p)
    if r is None:
        return []
    r = (r - (r * r + a) * pow(2 * r, -1, q)) % q  # Hensel lift of a simple root
    return sorted({r, (-r) % q})


def squarefree_mask(s, c, n_max):
    """sf[n-1] tells whether (n + s)^2 + c is squarefree, for 1 <= n <= n_max."""
    sf = np.ones(n_max, dtype=bool)
    for p in primes_to(math.isqrt((n_max + s) ** 2 + c)):
        q = p * p
        for r in _roots_mod_p2(c, p):
            sf[(r - s - 1) % q :: q] = False
    return sf


def kappa_oracle(a, prime_bound):
    prod = 1.0
    for p in primes_to(prime_bound):
        rho = len(_roots_mod_p2(a, p))
        if rho:
            prod *= 1.0 - rho / (p * p)
    return prod


def _kernel(x, y):
    g = np.gcd(x, y)
    return (x // g) * (y // g)


def fourth_moment_oracle(vals):
    """Sum over kernels k of c_k^2, c_k = ordered pairs of vals with kernel k."""
    if len(vals) == 0:
        return 0
    parts = []
    step = max(1, (1 << 22) // len(vals))
    for lo in range(0, len(vals), step):
        parts.append(_kernel(vals[lo : lo + step, None], vals[None, :]).ravel())
    _, counts = np.unique(np.concatenate(parts), return_counts=True)
    return sum(int(c) * int(c) for c in counts.tolist())


def _largest_prime(vals):
    largest = np.ones(len(vals), dtype=np.int64)
    rest = vals.copy()
    for p in primes_to(math.isqrt(int(vals.max(initial=1)))):
        while True:
            hit = rest % p == 0
            if not hit.any():
                break
            rest[hit] //= p
            largest[hit] = p
    return np.where(rest > 1, rest, largest)


def condition_sums_oracle(vals, b):
    """(s2, s4, cross) over largest-prime classes of squarefree values."""
    classes: dict[int, list[int]] = {}
    for v, lp in zip(vals.tolist(), _largest_prime(vals).tolist()):
        classes.setdefault(lp, []).append(v)
    t1: dict[int, int] = {}
    t2: dict[int, int] = {}
    q_sum = 0
    for members in classes.values():
        local: dict[int, int] = {}
        for x in members:
            for y in members:
                g = math.gcd(x, y)
                k = (x // g) * (y // g)
                local[k] = local.get(k, 0) + 1
        q_sum += local.get(1, 0)
        for k, c in local.items():
            t1[k] = t1.get(k, 0) + c
            t2[k] = t2.get(k, 0) + c * c
    return q_sum / b, sum(t2.values()) / b**2, sum(t1[k] ** 2 - t2[k] for k in t1) / b**2


def _table_roots(coeffs):
    """(shift, roots) with P(n) = Q(n + shift) and roots(p) the roots of Q mod p.

    Covers the polynomials the oracle of whole tables needs: (x + b)(x + b + 1),
    with Q(m) = m(m + 1), and (x + s)^2 + c, with Q(m) = m^2 + c.
    """
    if len(coeffs) == 3 and coeffs[2] == 1 and coeffs[1] % 2 and coeffs[1] > 0:
        b = coeffs[1] // 2
        if coeffs[0] != b * (b + 1):
            raise ValueError(f"table oracle covers (x + b)(x + b + 1), got {coeffs}")
        return b, lambda p: sorted({0, p - 1})
    s, c = _translate(coeffs)

    def roots(p):
        if p == 2:
            return [x for x in (0, 1) if (x * x + c) % 2 == 0]
        r = _sqrt_mod(-c, p)
        return [] if r is None else sorted({r, (-r) % p})

    return s, roots


def table_digest(coeffs, n_max):
    """Rows, factor entries, exponent sum, squarefree rows and the sum of the
    largest prime factors of P(1), ..., P(n_max), in the form the tracer
    records for every table sieve_values builds."""
    shift, roots = _table_roots(coeffs)
    values = np.zeros(n_max, dtype=np.int64)
    n = np.arange(1, n_max + 1, dtype=np.int64)
    if _eval([abs(c) for c in coeffs], n_max) >= 1 << 62:
        raise ValueError("table oracle needs values below 2^62")
    for c in reversed(coeffs):
        values = values * n + c
    ps, starts = [], []
    for p in primes_to(math.isqrt(int(values.max()))):
        for r in roots(p):
            ps.append(p)
            starts.append((r - shift - 1) % p)  # row index of the first n = r - shift mod p
    ps, starts = np.array(ps, dtype=np.int64), np.array(starts, dtype=np.int64)
    cnt = np.maximum(0, (n_max - 1 - starts) // ps + 1)
    prm = np.repeat(ps, cnt)
    step = np.arange(len(prm)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    idx = np.repeat(starts, cnt) + step * prm  # one entry per (row, prime dividing it)
    rest = values[idx] // prm
    v = np.ones(len(idx), dtype=np.int64)
    more = np.nonzero(rest % prm == 0)[0]
    while len(more):
        v[more] += 1
        rest[more] //= prm[more]
        more = more[rest[more] % prm[more] == 0]
    # what is left has no prime factor up to sqrt(max value), so it is 1 or a prime
    cofactor = values.copy()
    np.floor_divide.at(cofactor, idx, prm**v)
    big = cofactor > 1
    largest = np.zeros(n_max, dtype=np.int64)
    np.maximum.at(largest, idx, prm)
    largest = np.where(big, cofactor, largest)
    not_sf = np.zeros(n_max, dtype=bool)
    not_sf[idx[v > 1]] = True
    return {"rows": n_max, "factor_entries": len(idx) + int(big.sum()),
            "exponent_sum": int(v.sum()) + int(big.sum()),
            "squarefree": n_max - int(not_sf.sum()), "largest_sum": int(largest.sum())}


def check_tables(argv, digests):
    """Problems with the tables a traced sieve-dump job built.

    The dump prints only its first --max-rows rows; when that is less than the
    whole table, the digest of the table is compared with table_digest.
    """
    cmd, opts = parse_argv(argv)
    n_max = int(opts.get("n_max", 0))
    if cmd != "sieve-dump" or not 0 < int(opts.get("max_rows", 0)) < n_max:
        return []
    if len(digests) != 1:
        return [f"{len(digests)} tables built, expected 1"]
    try:
        want = table_digest(_coeffs(opts["poly"]), n_max)
    except ValueError as exc:
        return [str(exc)]
    return [f"table {k} = {digests[0].get(k)}, oracle {v}"
            for k, v in want.items() if digests[0].get(k) != v]


def _check_sieve_dump(opts, text):
    coeffs = _coeffs(opts["poly"])
    n_max = int(opts["n_max"])
    rows = [l for l in text.splitlines() if l and not l.startswith("#")]
    if not rows or rows[0] != _CSV_HEADER:
        return ["missing CSV header"]
    want = min(int(opts.get("max_rows", 0)) or n_max, n_max)
    if len(rows) - 1 != want:
        return [f"{len(rows) - 1} rows, expected {want}"]
    for n, row in enumerate(rows[1:], start=1):
        f = row.split(",")
        value = _eval(coeffs, n)
        if len(f) != 5 or int(f[0]) != n or int(f[1]) != value:
            return [f"row {n}: expected n={n}, value={value}: {row}"]
        factors = [tuple(map(int, t.split("^"))) for t in f[4].split("*")] if f[4] else []
        primes = [q for q, _ in factors]
        if math.prod(q**e for q, e in factors) != value:
            return [f"row {n}: factors do not multiply to {value}"]
        if primes != sorted(set(primes)) or not all(is_prime(q) for q in primes):
            return [f"row {n}: factors are not distinct ascending primes"]
        if int(f[2]) != all(e == 1 for _, e in factors):
            return [f"row {n}: wrong squarefree flag"]
        if f[3] != (str(primes[-1]) if primes else ""):
            return [f"row {n}: wrong largest prime"]
    return []


def _check_kappa(opts, d):
    _, c = _translate(_coeffs(opts["poly"]))
    bound = int(opts.get("prime_bound", 100_000))
    want = kappa_oracle(c, bound)
    problems = []
    if d["prime_bound"] != bound or not _close(d["kappa"], want):
        problems.append(f"kappa {d['kappa']!r} at bound {d['prime_bound']}, oracle {want!r}")
    if d["fixed_divisor"] != 1 or d["admissible"] is not True:
        problems.append("x^2 + c has fixed divisor 1 and is admissible")
    return problems


def _check_moments(opts, d):
    shift, c = _translate(_coeffs(opts["poly"]))
    n_max = int(opts["n_max"])
    vals = _values(shift, c, n_max)[squarefree_mask(shift, c, n_max)]
    s = len(vals)
    diagonal = 3 * s * s - 2 * s  # P is injective on n >= 1
    fourth = fourth_moment_oracle(vals)
    want = {"n_max": n_max, "squarefree_count": s, "unit_count": 0, "second_moment": s,
            "fourth_moment": fourth, "diagonal_term": diagonal,
            "off_diagonal": fourth - diagonal}
    problems = [f"{k} = {d[k]}, oracle {v}" for k, v in want.items() if d[k] != v]
    for k, v in zip(("s2", "s4", "cross"), condition_sums_oracle(vals, s)):
        if not _close(d[k], v):
            problems.append(f"{k} = {d[k]!r}, oracle {v!r}")
    return problems


def _solution_count(vals, a, b):
    scaled = a * vals
    t = scaled[scaled % b == 0] // b
    idx = np.searchsorted(vals, t)
    return int((vals[np.minimum(idx, len(vals) - 1)] == t).sum())


def _check_curves(opts, d):
    shift, c = _translate(_coeffs(opts["poly"]))
    grid = sorted({int(x) for x in opts["n_grid"].split(",")})
    samples = int(opts.get("ab_samples", 100))
    ab_max = int(opts.get("ab_max", 1000))
    pairs = [tuple(p) for p in d["pairs"]]
    if d["n_values"] != grid or len(pairs) != samples or d["ab_max"] != ab_max:
        return ["n_values, pairs or ab_max do not match the request"]
    if not all(1 <= a <= ab_max and 1 <= b <= ab_max and a != b for a, b in pairs):
        return ["coefficient pair out of range"]
    big = _values(shift, c, grid[-1])
    problems = []
    for i, n in enumerate(grid):
        want = [_solution_count(big[:n], a, b) for a, b in pairs]
        if d["counts_by_n"][i] != want:
            problems.append(f"counts at N={n} differ from the oracle")
        if d["max_count"][i] != max(want) or not _close(d["mean_count"][i], sum(want) / samples):
            problems.append(f"max or mean count at N={n} is wrong")
        if d["diagonal_count"][i] != n:
            problems.append(f"diagonal count at N={n} is not {n}")
    for a, b, count, points in d["top_examples"]:
        ok = count == _solution_count(big, a, b) and len(points) == min(count, 20)
        if not ok or not all(a * int(big[x - 1]) == b * int(big[y - 1]) for x, y in points):
            problems.append(f"top example ({a}, {b}) is wrong")
    return problems


def _check_clt(opts, d):
    shift, c = _translate(_coeffs(opts["poly"]))
    n_max, trials = int(opts["n_max"]), int(opts.get("trials", 1000))
    model = opts.get("model", "rademacher")
    if opts.get("normalization", "exact") != "exact":
        return ["oracle covers exact normalization only"]
    want = math.sqrt(int(squarefree_mask(shift, c, n_max).sum()) if model == "rademacher" else n_max)
    problems = []
    if (d["n_max"], d["trials"], d["model"], d["seed"]) != (n_max, trials, model, int(opts["seed"])):
        problems.append("report does not echo the request")
    if sum(d["hist_counts"]) != trials or len(d["hist_edges"]) != len(d["hist_counts"]) + 1:
        problems.append(f"histogram holds {sum(d['hist_counts'])} of {trials} trials")
    if not _close(d["normalizer"], want):
        problems.append(f"normalizer {d['normalizer']!r}, oracle {want!r}")
    if not 0.0 <= d["ks"] <= 1.0 or d["m2"] <= 0 or d["ks_vacuous"] != (trials < 100):
        problems.append("ks or m2 out of range")
    if not _close(d["raw_m2"], d["m2"] * d["normalizer"] ** 2, 1e-9):
        problems.append("raw_m2 does not match m2 * normalizer^2")
    if d["outside_proven_class"] or (model == "rademacher" and d["mean_imag"] != 0.0):
        problems.append("quadratics are inside the proven class and Rademacher sums are real")
    return problems


def _check_fluctuations(opts, d):
    k, trials, cap = int(opts["scales"]), int(opts["trials"]), int(opts["cap"])
    xs = d["xs"]
    problems = []
    if not d["partition_exact"]:
        problems.append("three-way partition is not exact")
    inv = d.get("invariants")
    if not inv or not all(inv.values()):
        problems.append(f"set invariants fail: {inv}")
    if len(xs) != k or xs[-1] != cap or any(x >= y for x, y in zip(xs, xs[1:])):
        problems.append("scale ladder does not match the request")
    if d["trials"] != trials or any(s > c for s, c in zip(d["sizes"], d["candidate_sizes"])):
        problems.append("trials differ or a set exceeds its candidates")
    if not all(_close(b, s / x) for b, s, x in zip(d["beta_exact"], d["class1_sf"], xs)):
        problems.append("beta_exact is not class1_sf / x")
    q = [v for _, v in d["max_stat_quantiles"]]
    if q != sorted(q) or not all(0.0 <= f <= 1.0 for _, f in d["threshold_fractions"]):
        problems.append("quantiles or threshold fractions out of order")
    return problems


_JSON_CHECKS = {
    "kappa": _check_kappa,
    "moments": _check_moments,
    "curves": _check_curves,
    "clt": _check_clt,
    "fluctuations": _check_fluctuations,
}


def check_job(argv, rc, stdout, stderr):
    """Problems with one job's output; an empty list means it is correct."""
    if rc != 0:
        return [f"exit code {rc}: {stderr.strip()[-300:]}"]
    cmd, opts = parse_argv(argv)
    try:
        if cmd == "sieve-dump":
            return _check_sieve_dump(opts, stdout)
        envelope = json.loads(stdout)
        if envelope["config"]["command"] != cmd:
            return ["envelope names another command"]
        return _JSON_CHECKS[cmd](opts, envelope["data"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
