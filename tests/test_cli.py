import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from polyrmf.cli import _SPECS, main
from polyrmf.sieve import kappa_euler
from polyrmf.poly import IntPolynomial


def run(capsys, *args):
    code = main(list(args))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *args):
    code, out, err = run(capsys, *args)
    assert code == 0, err
    return json.loads(out)


def run_refused(capsys, *args):
    """Runs args, which must return 2 with no output and one JSON UsageError line.

    Returns the error message.
    """
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, ""), err
    assert err.count("\n") == 1 and err.endswith("\n")
    error = json.loads(err)["error"]
    assert error["type"] == "UsageError"
    return error["message"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("args", [("--help",), ("clt", "--help")])
def test_help_flag_exits_zero(capsys, args):
    # help and version are the only runs that leave main through SystemExit
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    assert exc.value.code == 0
    assert "usage: polyrmf" in capsys.readouterr().out


@pytest.mark.parametrize("extra", [(), ("--dry-run",)], ids=["run", "dry-run"])
@pytest.mark.parametrize(
    "args, named",
    [
        pytest.param(("smooth", "--x", "10", "--y", "2", "--bogus", "1"), "--bogus",
                     id="unknown-flag"),
        pytest.param(("clt", "--poly", "1,0,1", "--n-max", "10", "--trials", "abc"), "--trials",
                     id="bad-int"),
        pytest.param(("clt", "--poly", "1,0,1", "--n-max", "10", "--model", "bogus"), "--model",
                     id="bad-choice"),
        pytest.param(("kappa", "--poly"), "--poly", id="flag-without-value"),
        pytest.param(("bogus",), "bogus", id="unknown-command"),
        pytest.param((), "command", id="no-command"),
    ],
)
def test_argparse_refusals_are_usage_errors(capsys, args, named, extra):
    assert named in run_refused(capsys, *args, *extra)


def test_negative_constant_term_after_a_space(capsys):
    # x^2 - 2 is an irreducible quadratic; "-2,0,1" is a value, not a flag
    spaced = run_json(capsys, "kappa", "--poly", "-2,0,1", "--prime-bound", "2000")
    joined = run_json(capsys, "kappa", "--poly=-2,0,1", "--prime-bound", "2000")
    assert spaced["data"] == joined["data"]
    assert spaced["data"]["kind"] == "irreducible_quadratic"
    assert spaced["data"]["kappa"] == kappa_euler(IntPolynomial((-2, 0, 1)), 2000)


@pytest.mark.parametrize(
    "args",
    [
        ("kappa", "--poly", "1,0,1"),
        ("sieve-dump", "--poly", "1,0,1", "--n-max", "10"),
        ("moments", "--poly", "1,0,1", "--n-max", "30"),
        ("quadruples", "--poly", "1,0,1"),
        ("clt", "--poly", "1,0,1", "--n-max", "100"),
        ("curves", "--poly", "1,0,1", "--n-grid", "50"),
        ("fluctuations",),
        ("smooth", "--x", "100", "--y", "2"),
    ],
)
def test_dry_run_resolves_without_working(capsys, args):
    plan = run_json(capsys, *args, "--dry-run")
    assert plan["data"] == {"dry_run": True}
    assert "wall_time_s" not in plan
    assert plan["config"]["command"] == args[0]


def test_kappa_envelope(capsys):
    env = run_json(capsys, "kappa", "--poly", "1,0,1", "--prime-bound", "2000")
    assert env["schema_version"] == 1
    assert env["tool"]["name"] == "polyrmf"
    assert env["config"]["prime_bound"] == 2000
    d = env["data"]
    assert d["admissible"] is True
    assert d["fixed_divisor"] == 1
    assert d["kappa"] == kappa_euler(IntPolynomial((1, 0, 1)), 2000)
    assert "wall_time_s" in env


def test_kappa_quadratic_with_huge_constant(capsys):
    env = run_json(capsys, "kappa", "--poly", "100000000000000000001,0,1", "--prime-bound", "2000")
    d = env["data"]
    assert d["kind"] == "irreducible_quadratic"
    assert d["kappa"] == kappa_euler(IntPolynomial((10**20 + 1, 0, 1)), 2000)


def test_kappa_of_a_linear_polynomial_is_unsupported(capsys):
    # x + 1 lies outside the paper's class, but its squarefree density is 6/pi^2
    d = run_json(capsys, "kappa", "--poly", "1,1")["data"]
    assert d["kind"] == "unsupported"
    assert d["kappa"] == pytest.approx(6 / math.pi**2, abs=1e-5)


# x^3 + x + 10^20 + 1, and (x + 10^12)(x + 10^12 + 1)(x + 10^12 + 3): a divisor
# search over their constant terms would not finish
_HUGE_CUBIC_CONSTANT = "100000000000000000001,1,0,1"
_HUGE_CUBIC_ROOTS = "1000000000004000000000003000000000000,3000000000008000000000003,3000000000004,1"


@pytest.mark.parametrize(
    "poly,kind",
    [(_HUGE_CUBIC_CONSTANT, "unsupported"), (_HUGE_CUBIC_ROOTS, "distinct_linear_factors")],
)
def test_kappa_classifies_huge_cubics_in_time(poly, kind, src_env):
    # in a subprocess with a timeout, so that a hang fails instead of stalling the suite
    proc = subprocess.run(
        [sys.executable, "-m", "polyrmf.cli", "kappa", "--poly", poly, "--prime-bound", "2000"],
        env=src_env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["data"]["kind"] == kind


def _kappa_subprocess(poly, src_env):
    # with a timeout, so that a hang fails instead of stalling the suite
    return subprocess.run(
        [sys.executable, "-m", "polyrmf.cli", "kappa", "--poly", poly, "--prime-bound", "1000"],
        env=src_env, capture_output=True, text=True, timeout=60,
    )


def test_kappa_of_a_large_prime_content(src_env):
    # the content 10^16 + 61 is prime: admissible, decided without factoring
    proc = _kappa_subprocess("10000000000000061,0,10000000000000061", src_env)
    assert proc.returncode == 0, proc.stderr
    d = json.loads(proc.stdout)["data"]
    assert d["admissible"] is True
    assert d["fixed_divisor"] == 10000000000000061
    assert d["kappa"] == 0.8949554710426807


def test_kappa_of_an_undecidable_content_is_domain_error(src_env):
    # the content 10^20 + 39 is a 67-bit prime, past what the bounded test decides
    proc = _kappa_subprocess("100000000000000000039,0,100000000000000000039", src_env)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["type"] == "DomainError"


def test_kappa_data_is_rerun_stable(capsys):
    a = run_json(capsys, "kappa", "--poly", "1,0,1", "--prime-bound", "500")
    b = run_json(capsys, "kappa", "--poly", "1,0,1", "--prime-bound", "500")
    assert json.dumps(a["data"], sort_keys=True) == json.dumps(b["data"], sort_keys=True)
    assert a["config"] == b["config"]


def test_sieve_dump_csv(capsys):
    code, out, err = run(capsys, "sieve-dump", "--poly", "1,0,1", "--n-max", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# polyrmf sieve-dump")
    assert "n,value,is_squarefree,largest_prime,factors" in lines
    assert "1,2,1,2,2^1" in lines
    assert "7,50,0,5,2^1*5^2" in lines
    body = [l for l in lines if not l.startswith("#")]
    assert len(body) == 11  # header plus one row per n


def test_sieve_dump_stable_modulo_timing(capsys):
    args = ("sieve-dump", "--poly", "0,1,1", "--n-max", "25")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("# wall_time_s")]
    assert strip(out1) == strip(out2)


def test_sieve_dump_max_rows(capsys):
    code, out, _ = run(capsys, "sieve-dump", "--poly", "1,0,1", "--n-max", "50",
                       "--max-rows", "3")
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(body) == 4
    # a limit past --n-max prints every row
    code, out, _ = run(capsys, "sieve-dump", "--poly", "1,0,1", "--n-max", "5",
                       "--max-rows", "10")
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert code == 0
    assert [l.split(",")[:2] for l in body[1:]] == [[str(n), str(n * n + 1)] for n in range(1, 6)]


def test_quadruples_csv(capsys):
    code, out, _ = run(capsys, "quadruples", "--poly", "1,0,1", "--n-grid", "100,200")
    assert code == 0
    lines = out.splitlines()
    slope_line = next(l for l in lines if l.startswith("# loglog_slope:"))
    assert float(slope_line.split(":")[1]) < 0  # off-diagonal ratio decays
    assert "n,fourth_moment,diagonal,off_diagonal,ratio" in lines
    body = [l for l in lines if l and not l.startswith(("#", "n,"))]
    assert len(body) == 2
    n, f4, diag, off, ratio = body[0].split(",")
    assert int(f4) == int(diag) + int(off)


def test_smooth_output(capsys):
    env = run_json(capsys, "smooth", "--x", "100", "--y", "2")
    assert env["data"]["count"] == 7
    assert env["data"]["proportion"] == pytest.approx(0.07)
    assert env["data"]["log_ratio"] == pytest.approx(math.log(100) / math.log(2))


def test_clt_run_and_histogram_csv(capsys, tmp_path):
    hist = tmp_path / "hist.csv"
    env = run_json(capsys, "clt", "--poly", "1,0,1", "--n-max", "200",
                   "--trials", "50", "--seed", "1", "--histogram-csv", str(hist))
    d = env["data"]
    assert d["trials"] == 50
    assert d["ks_vacuous"] is True  # below the reliability floor
    assert math.isfinite(d["m2"])
    text = hist.read_text().splitlines()
    assert "bin_left,bin_right,count" in text
    assert len([l for l in text if not l.startswith(("#", "bin_"))]) == 40


def test_moments_with_gcd_histogram(capsys, tmp_path):
    out_csv = tmp_path / "gcd.csv"
    env = run_json(capsys, "moments", "--poly", "1,0,1", "--n-max", "60",
                   "--gcd-threshold", "1", "--histogram-csv", str(out_csv))
    d = env["data"]
    assert d["n_max"] == 60
    assert d["fourth_moment"] == 8777
    assert d["off_diagonal"] == 456
    assert "gcd_histogram" in d
    assert "gcd,count" in out_csv.read_text()


def test_curves_fixed_pair(capsys, tmp_path):
    pts_csv = tmp_path / "pts.csv"
    env = run_json(capsys, "curves", "--poly", "1,0,1", "--a", "1", "--b", "2",
                   "--n-max", "100", "--points-csv", str(pts_csv))
    d = env["data"]
    assert [3, 2] in d["points"]  # 3^2 + 1 = 2 * (2^2 + 1)
    assert d["truncated"] is False
    assert d["count"] == len(d["points"])
    for x, y in d["points"]:
        assert x * x + 1 == 2 * (y * y + 1)
    assert "x,y" in pts_csv.read_text().splitlines()
    # options of scan mode are refused when given, but still echo their defaults
    cfg = env["config"]
    assert (cfg["ab_samples"], cfg["ab_max"], cfg["max_points"]) == (100, 1000, 1000)


def test_curves_counts_both_branches_of_a_flat_sextic(capsys):
    # (x - 10**4)**6: x == y, or x + y == 20000 for 9990 <= x <= 10010
    sextic = ("1000000000000000000000000,-600000000000000000000,"
              "150000000000000000,-20000000000000,1500000000,-60000,1")
    env = run_json(capsys, "curves", "--poly", sextic, "--a", "1", "--b", "1",
                   "--n-max", "10010", "--max-points", "0")
    assert env["data"]["count"] == 10030


def test_curves_scan_mode(capsys):
    env = run_json(capsys, "curves", "--poly", "1,0,1", "--n-grid", "50,100",
                   "--ab-samples", "20", "--ab-max", "50", "--seed", "0")
    d = env["data"]
    assert d["n_values"] == [50, 100]
    assert len(d["counts_by_n"]) == 2
    assert len(d["counts_by_n"][0]) == len(d["pairs"])
    assert env["config"]["max_points"] == 1000


def test_curves_needs_a_mode(capsys):
    code, _, err = run(capsys, "curves", "--poly", "1,0,1")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "UsageError"
    # a fixed pair without its range
    code, _, err = run(capsys, "curves", "--poly", "1,0,1", "--a", "1", "--b", "2")
    assert code == 2
    assert "--n-max" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize(
    "args, ignored",
    [
        (("moments", "--poly", "1,0,1", "--n-max", "50", "--histogram-csv", "h.csv"),
         "--histogram-csv"),
        (("moments", "--poly", "1,0,1", "--n-max", "50", "--pairs", "10"), "--pairs"),
        (("curves", "--poly", "1,0,1", "--n-grid", "50", "--points-csv", "p.csv"),
         "--points-csv"),
        (("curves", "--poly", "1,0,1", "--n-grid", "50", "--n-max", "100"), "--n-max"),
        (("curves", "--poly", "1,0,1", "--a", "1", "--b", "2", "--n-max", "50",
          "--n-grid", "50,100"), "--n-grid"),
        (("curves", "--poly", "1,0,1", "--a", "1", "--b", "2", "--n-grid", "50"), "--n-grid"),
        (("curves", "--poly", "1,0,1", "--a", "1", "--b", "2", "--n-max", "50",
          "--ab-samples", "7"), "--ab-samples"),
        (("curves", "--poly", "1,0,1", "--a", "1", "--b", "2", "--n-max", "50",
          "--points-csv", "p.csv", "--ab-max", "9"), "--ab-max"),
        (("curves", "--poly", "1,0,1", "--n-grid", "50", "--max-points", "1"), "--max-points"),
        (("fluctuations", "--scale-csv", "s.csv", "--c", "-1"), "--c"),
        (("clt", "--poly", "1,0,1", "--n-max", "50", "--trials", "5", "--histogram-csv", "h.csv",
          "--prime-bound", "500"), "--prime-bound"),
        (("clt", "--poly", "1,0,1", "--n-max", "50", "--model", "steinhaus",
          "--normalization", "kappa", "--prime-bound", "500"), "--prime-bound"),
        (("moments", "--poly", "1,0,1", "--n-max", "50", "--seed", "3"), "--seed"),
        (("moments", "--poly", "1,0,1", "--n-max", "50", "--gcd-threshold", "2",
          "--histogram-csv", "h.csv", "--seed", "3"), "--seed"),
        (("curves", "--poly", "1,0,1", "--a", "1", "--b", "2", "--n-max", "50",
          "--points-csv", "p.csv", "--seed", "3"), "--seed"),
    ],
)
def test_options_the_run_would_ignore_are_usage_errors(capsys, tmp_path, monkeypatch,
                                                       args, ignored):
    monkeypatch.chdir(tmp_path)
    message = _assert_refused_as_flag_dry_run_and_config(capsys, tmp_path, args)
    assert ignored in message
    # the refusal comes before any output file is opened
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_config_file_supplies_options(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"poly": "1,0,1", "n_max": 40}))
    env = run_json(capsys, "moments", "--config", str(cfg))
    assert env["data"]["n_max"] == 40


def test_flags_override_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"poly": "1,0,1", "n_max": 100, "trials": 50}))
    env = run_json(capsys, "clt", "--config", str(cfg), "--trials", "10", "--dry-run")
    assert env["config"]["trials"] == 10
    assert env["config"]["n_max"] == 100


@pytest.mark.parametrize(
    "cfg_json",
    [
        {"verify": "false"},
        {"verify": 0},
        {"trials": 2.9},
        {"trials": "3"},
        {"scales": True},
        {"c": True},
        {"c": "0.5"},
        {"mode": 1},
        {"scale_csv": None},
        {"mode": "bogus"},
    ],
)
def test_config_file_types_are_checked(capsys, tmp_path, cfg_json):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_json))
    code, _, err = run(capsys, "fluctuations", "--config", str(cfg), "--dry-run")
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "UsageError"
    assert next(iter(cfg_json)) in error["message"]


@pytest.mark.parametrize("text", ["5", "null", "[]", '"poly"'])
def test_config_file_must_hold_an_object(capsys, tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, _, err = run(capsys, "smooth", "--config", str(cfg), "--dry-run")
    assert code == 2
    assert "JSON object" in json.loads(err)["error"]["message"]


def test_config_file_types_accepted(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verify": False, "trials": 3, "scales": 4, "c": 1,
                               "mode": "geometric"}))
    env = run_json(capsys, "fluctuations", "--config", str(cfg), "--dry-run")
    resolved = env["config"]
    assert resolved["verify"] is False
    assert resolved["trials"] == 3
    assert resolved["scales"] == 4
    assert resolved["c"] == 1.0 and isinstance(resolved["c"], float)
    assert resolved["mode"] == "geometric"


@pytest.mark.parametrize(
    "args",
    [
        ("sieve-dump", "--poly", "1,0,1", "--n-max", "10", "--max-rows", "-1"),
        ("curves", "--poly", "1,0,1", "--a", "1", "--b", "1", "--n-max", "5",
         "--max-points", "-2"),
        ("moments", "--poly", "1,0,1", "--n-max", "30", "--gcd-threshold", "5",
         "--pairs", "-3"),
        ("kappa", "--poly", "1,0,1", "--prime-bound", "-5"),
        ("clt", "--poly", "1,0,1", "--n-max", "100", "--normalization", "kappa",
         "--prime-bound", "1"),
        ("moments", "--poly", "1,0,1", "--n-max", "30", "--gcd-threshold", "-4"),
        ("clt", "--poly", "1,0,1", "--n-max", "100", "--trials", "0"),
        ("fluctuations", "--trials", "1"),
        ("fluctuations", "--scales", "1"),
        ("fluctuations", "--base", "15"),
        ("curves", "--poly", "1,0,1", "--n-grid", "50", "--ab-samples", "0"),
        ("curves", "--poly", "1,0,1", "--n-grid", "50", "--ab-max", "1"),
        ("sieve-dump", "--poly", "1,0,1", "--n-max", "0"),
        ("moments", "--poly", "1,0,1", "--n-max", "0"),
        ("clt", "--poly", "1,0,1", "--n-max", "0"),
        ("smooth", "--y", "5", "--x", "1"),
        ("smooth", "--x", "5", "--y", "1"),
        ("fluctuations", "--c", "0"),
        ("curves", "--poly", "1,0,1", "--b", "2", "--n-max", "10", "--a", "0"),
        ("curves", "--poly", "1,0,1", "--a", "1", "--n-max", "10", "--b", "-3"),
        ("curves", "--poly", "1,0,1", "--a", "1", "--b", "2", "--n-max", "0"),
        # numpy refuses a negative seed, without naming the flag
        ("moments", "--poly", "1,0,1", "--n-max", "30", "--gcd-threshold", "5",
         "--pairs", "10", "--seed", "-1"),
        ("clt", "--poly", "1,0,1", "--n-max", "100", "--seed", "-1"),
        ("curves", "--poly", "1,0,1", "--n-grid", "50", "--seed", "-1"),
        ("fluctuations", "--seed", "-2"),
    ],
)
def test_counts_below_minimum_are_usage_errors(capsys, tmp_path, args):
    _assert_refused_as_flag_dry_run_and_config(capsys, tmp_path, args)


def test_scales_above_maximum_are_usage_errors(capsys, tmp_path):
    # per-row scale membership is one uint64 word
    _assert_refused_as_flag_dry_run_and_config(capsys, tmp_path, ("fluctuations", "--scales", "65"))
    assert run_json(capsys, "fluctuations", "--scales", "64", "--dry-run")["config"]["scales"] == 64


@pytest.mark.parametrize(
    "args",
    [
        ("kappa", "--poly", "1,0,1", "--prime-bound"),
        ("clt", "--poly", "1,0,1", "--n-max", "10", "--normalization", "kappa",
         "--prime-bound"),
        ("smooth", "--y", "5", "--x"),
        # sizes that numpy once failed to allocate, with a traceback and no JSON line
        ("sieve-dump", "--poly", "1,1", "--n-max"),
        ("clt", "--poly", "1,0,1", "--n-max", "50", "--trials"),
        ("fluctuations", "--base", "16", "--scales", "2", "--cap", "100", "--trials"),
        ("moments", "--poly", "1,0,1", "--n-max", "50", "--gcd-threshold", "1", "--pairs"),
        # and one that ran on past a minute
        ("curves", "--poly", "1,0,1", "--n-grid", "10", "--ab-max", "2", "--ab-samples"),
        ("moments", "--poly", "1,0,1", "--n-max"),
        ("clt", "--poly", "1,0,1", "--n-max"),
        ("curves", "--poly", "1,0,1", "--a", "1", "--b", "2", "--n-max"),
        ("fluctuations", "--cap"),
        # numpy draws the pairs as int64
        ("curves", "--poly", "1,0,1", "--n-grid", "10", "--ab-max"),
    ],
)
def test_bounds_above_maximum_are_usage_errors(capsys, tmp_path, args):
    # refused by flag name, not by numpy failing to allocate
    name = args[-1][2:].replace("-", "_")
    top = next(opt.maximum for opt in _SPECS[args[0]] if opt.name == name)
    for value in (top + 1, 10**23):
        refused = (*args, str(value))
        assert f"must be <= {top}" in _assert_refused_as_flag_dry_run_and_config(
            capsys, tmp_path, refused)
    assert run(capsys, *args, str(top), "--dry-run")[0] == 0
    with pytest.raises(SystemExit):
        main([args[0], "--help"])
    assert f"at most {top}" in " ".join(capsys.readouterr().out.split())


def _assert_refused_as_flag_dry_run_and_config(capsys, tmp_path, args):
    """The last flag of args, with its value, is a usage error in every way it can be given.

    Returns the error message of the run given the flag.
    """
    flag = args[-2]
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "UsageError"
    assert flag in error["message"]
    # a dry run refuses the same plan
    assert run(capsys, *args, "--dry-run")[:2] == (2, "")
    key = flag[2:].replace("-", "_")
    kind = next(opt.type for opt in _SPECS[args[0]] if opt.name == key)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: kind(args[-1])}))
    code, _, err = run(capsys, *args[:-2], "--config", str(cfg))
    assert code == 2
    assert flag in json.loads(err)["error"]["message"]
    return error["message"]


@pytest.mark.parametrize(
    "args",
    [
        ("kappa", "--poly", "abc"),
        ("moments", "--n-max", "5", "--poly", "0"),
        ("clt", "--n-max", "5", "--poly", "1,0,1,x"),
        ("quadruples", "--poly", "1,0,1", "--n-grid", "1,x"),
        ("curves", "--poly", "1,0,1", "--n-grid", "0,5"),
        ("quadruples", "--poly", "1,0,1", "--n-grid", "-5,10"),
        ("quadruples", "--poly", "1,0,1", "--n-grid", "5,10000001"),
        ("curves", "--poly", "1,0,1", "--n-grid", "10000001"),
    ],
)
def test_malformed_poly_and_grid_are_usage_errors(capsys, tmp_path, args):
    _assert_refused_as_flag_dry_run_and_config(capsys, tmp_path, args)


def test_unknown_config_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"poly": "1,0,1", "n_max": 40, "bogus": 1}))
    code, _, err = run(capsys, "moments", "--config", str(cfg))
    assert code == 2
    assert "bogus" in json.loads(err)["error"]["message"]


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("RCL_SEED", "42")
    env = run_json(capsys, "clt", "--poly", "1,0,1", "--n-max", "50", "--dry-run")
    assert env["config"]["seed"] == 42
    env = run_json(capsys, "clt", "--poly", "1,0,1", "--n-max", "50",
                   "--seed", "7", "--dry-run")
    assert env["config"]["seed"] == 7
    # the fallback is no explicit --seed, so moments without --pairs takes it
    env = run_json(capsys, "moments", "--poly", "1,0,1", "--n-max", "50", "--dry-run")
    assert env["config"]["seed"] == 42


@pytest.mark.parametrize("extra", [(), ("--dry-run",)], ids=["run", "dry-run"])
@pytest.mark.parametrize(
    "raw, message",
    [("-3", "RCL_SEED must be >= 0, got -3"), ("abc", "RCL_SEED must be an integer, got 'abc'")],
)
def test_bad_seed_env_is_a_usage_error(capsys, monkeypatch, raw, message, extra):
    monkeypatch.setenv("RCL_SEED", raw)
    for args in [
        ("moments", "--poly", "1,0,1", "--n-max", "30", "--gcd-threshold", "5", "--pairs", "10"),
        ("curves", "--poly", "1,0,1", "--n-grid", "50"),
    ]:
        assert run_refused(capsys, *args, *extra) == message
        # an explicit seed leaves the variable unread
        assert run(capsys, *args, "--seed", "1", *extra)[0] == 0


def test_missing_required_option(capsys):
    code, _, err = run(capsys, "kappa")
    assert code == 2
    assert "poly" in json.loads(err)["error"]["message"]


def test_bad_polynomial_string(capsys):
    code, _, err = run(capsys, "kappa", "--poly", "1,,x")
    assert code == 2


def test_threads_option_is_gone(capsys, tmp_path):
    assert "--threads" in run_refused(capsys, "smooth", "--x", "10", "--y", "2", "--threads", "2")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"x": 10, "y": 2, "threads": 2}))
    code, _, err = run(capsys, "smooth", "--config", str(cfg))
    assert code == 2
    assert "threads" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize(
    "args",
    [
        ("kappa", "--poly", "1,0,1"),
        ("sieve-dump", "--poly", "1,0,1", "--n-max", "10"),
        ("quadruples", "--poly", "1,0,1"),
        ("smooth", "--x", "10", "--y", "2"),
    ],
)
def test_commands_that_draw_nothing_take_no_seed(capsys, tmp_path, monkeypatch, args):
    assert "--seed" in run_refused(capsys, *args, "--seed", "3", "--dry-run")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3}))
    code, _, err = run(capsys, *args, "--config", str(cfg))
    assert code == 2
    assert "seed" in json.loads(err)["error"]["message"]
    # the RCL_SEED fallback is not an option, so it is no error either
    monkeypatch.setenv("RCL_SEED", "3")
    assert "seed" not in run_json(capsys, *args, "--dry-run")["config"]


def test_kappa_inadmissible_is_domain_error(capsys):
    code, _, err = run(capsys, "kappa", "--poly", "0,6,11,6,1")
    assert code == 3
    assert json.loads(err)["error"]["type"] == "DomainError"


@pytest.mark.parametrize(
    "args",
    [
        ("moments", "--poly", "0,0,4", "--n-max", "10"),
        ("quadruples", "--poly", "0,0,4", "--n-grid", "10,20"),
        ("clt", "--poly", "4,0,4", "--n-max", "50", "--trials", "5", "--normalization", "kappa"),
        ("clt", "--poly", "4,0,4", "--n-max", "50", "--trials", "5", "--normalization", "kappa",
         "--model", "steinhaus"),
    ],
)
def test_no_squarefree_values_is_domain_error(capsys, args):
    # every value of 4x^2 or 4x^2 + 4 is divisible by 4: the condition sums
    # are undefined, and clt's kappa normalization needs an admissible P
    code, out, err = run(capsys, *args)
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["type"] == "DomainError"


def test_sieve_negative_values_is_domain_error(capsys):
    code, _, err = run(capsys, "sieve-dump", "--poly=-4,1", "--n-max", "10")
    assert code == 3


def test_fluctuations_infeasible_schedule(capsys):
    code, _, err = run(capsys, "fluctuations", "--mode", "theoretical",
                       "--base", "16", "--scales", "8", "--cap", "1000000")
    assert code == 4
    assert json.loads(err)["error"]["type"] == "InfeasibleScaleError"


@pytest.mark.parametrize(
    "args",
    [
        ("--mode", "theoretical", "--base", "16", "--scales", "8", "--cap", "1000000"),
        ("--cap", "0", "--scales", "2", "--trials", "2"),
    ],
)
def test_fluctuations_infeasible_schedule_refused_by_dry_run(capsys, args):
    # a dry run refuses the schedule that the run refuses, with the same code
    for extra in ((), ("--dry-run",)):
        code, out, err = run(capsys, "fluctuations", *args, *extra)
        assert (code, out) == (4, ""), extra
        assert json.loads(err)["error"]["type"] == "InfeasibleScaleError"


@pytest.mark.parametrize("c_flag, c_json", [("nan", None), ("inf", None), (None, "NaN")])
def test_fluctuations_non_finite_c_is_usage_error(capsys, tmp_path, c_flag, c_json):
    # argparse takes "nan" and "inf" as floats, and json.load takes NaN; the
    # refusal comes before a dry run prints the config
    args = ["fluctuations", "--base", "16", "--scales", "4", "--cap", "600", "--trials", "20"]
    if c_flag is not None:
        args += ["--c", c_flag]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"c": %s}' % c_json)
        args += ["--config", str(cfg)]
    for extra in ([], ["--dry-run"]):
        code, out, err = run(capsys, *args, *extra)
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "UsageError"
        assert "--c must be finite" in error["message"]


def test_fluctuations_small_run(capsys, tmp_path):
    csv = tmp_path / "scales.csv"
    env = run_json(capsys, "fluctuations", "--base", "16", "--scales", "3",
                   "--cap", "400", "--c", "0.05", "--trials", "20",
                   "--verify", "--scale-csv", str(csv))
    d = env["data"]
    assert d["partition_exact"] is True
    assert all(d["invariants"].values())
    body = [l for l in csv.read_text().splitlines() if not l.startswith(("#", "i,"))]
    assert len(body) == 3


def test_fluctuations_verify_data_is_golden(capsys):
    # the data section of a verified run, as generated before the set lookups
    # were merged; a refactor must leave every field unchanged
    golden = Path(__file__).parent / "data" / "fluctuations_verify_seed9.json"
    env = run_json(capsys, "fluctuations", "--base", "16", "--scales", "6", "--cap", "5000",
                   "--trials", "30", "--verify", "--seed", "9")
    assert env["data"] == json.loads(golden.read_text())


def test_fluctuations_64_scale_verify_data_is_golden(capsys):
    # 64 scales: every bit of a row's scale bitmask and int8 scale labels up
    # to 63 are in use; generated before the builder stopped sharing the
    # checks' scale-prime lookup
    golden = Path(__file__).parent / "data" / "fluctuations_verify_64scales_seed9.json"
    env = run_json(capsys, "fluctuations", "--base", "64", "--scales", "64", "--cap", "20000",
                   "--trials", "100", "--verify", "--seed", "9")
    assert env["data"] == json.loads(golden.read_text())


@pytest.mark.parametrize(
    "name, extra",
    [
        ("rademacher_exact", ()),
        ("steinhaus_exact", ("--model", "steinhaus")),
        ("rademacher_kappa", ("--normalization", "kappa", "--prime-bound", "2000")),
    ],
)
def test_clt_data_is_golden(capsys, name, extra):
    # pinned data sections; a refactor of monte_carlo_clt or trial_sums must
    # leave every field unchanged
    golden = json.loads((Path(__file__).parent / "data" / "clt_seed9.json").read_text())
    env = run_json(capsys, "clt", "--poly", "1,0,1", "--n-max", "2000", "--trials", "300",
                   "--seed", "9", *extra)
    assert env["data"] == golden[name]
    assert env["config"]["prime_bound"] == (2000 if "--prime-bound" in extra else 100_000)


def test_output_file(capsys, tmp_path):
    out = tmp_path / "result.json"
    code, stdout, _ = run(capsys, "smooth", "--x", "77", "--y", "77",
                          "--output", str(out))
    assert code == 0
    assert stdout == ""
    assert json.loads(out.read_text())["data"]["count"] == 77


@pytest.mark.parametrize(
    "args",
    [
        ("smooth", "--x", "77", "--y", "7", "--output"),
        ("smooth", "--x", "77", "--y", "7", "--dry-run", "--output"),
        ("clt", "--poly", "1,0,1", "--n-max", "50", "--trials", "5", "--histogram-csv"),
        ("fluctuations", "--scales", "2", "--cap", "300", "--trials", "5", "--scale-csv"),
    ],
)
def test_failed_writes_are_usage_errors(capsys, tmp_path, args):
    # a path in a directory that does not exist cannot be opened
    path = tmp_path / "missing" / "out"
    assert str(path) in run_refused(capsys, *args, str(path))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ("clt", "--poly", "1,0,1", "--n-max", "50", "--trials", "5", "--histogram-csv"),
        ("fluctuations", "--scales", "2", "--cap", "300", "--trials", "5", "--scale-csv"),
        ("moments", "--poly", "1,0,1", "--n-max", "50", "--gcd-threshold", "2",
         "--histogram-csv"),
        ("curves", "--poly", "1,0,1", "--a", "1", "--b", "2", "--n-max", "100",
         "--points-csv"),
    ],
)
@pytest.mark.parametrize("failing", ["output", "side-file"])
def test_failed_write_leaves_no_file(capsys, tmp_path, args, failing):
    # --output and the side file are written together or not at all, in
    # either order of failure; a file that was there keeps its text
    bad = str(tmp_path / "missing" / "out")
    kept = tmp_path / "kept"
    kept.write_text("before")
    side, output = (str(kept), bad) if failing == "output" else (bad, str(kept))
    assert bad in run_refused(capsys, *args, side, "--output", output)
    assert list(tmp_path.iterdir()) == [kept]
    assert kept.read_text() == "before"
    # the same run with both paths good writes both
    good = (str(tmp_path / "side.csv"), "--output", str(tmp_path / "out.json"))
    assert run(capsys, *args, *good)[:2] == (0, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept", "out.json", "side.csv"]


_DATA = Path(__file__).parent / "data"
_COMMANDS_DATA = json.loads((_DATA / "commands_data.json").read_text())


@pytest.mark.parametrize(
    "name, args",
    [
        ("kappa", ("kappa", "--poly", "1,0,1", "--prime-bound", "2000")),
        ("moments_sampled_gcds", ("moments", "--poly", "1,0,1", "--n-max", "200",
                                  "--gcd-threshold", "5", "--pairs", "500", "--seed", "9")),
        ("curves_fixed_pair", ("curves", "--poly", "1,0,1", "--a", "1", "--b", "2",
                               "--n-max", "1000", "--max-points", "3")),
        ("curves_scan", ("curves", "--poly", "1,0,1", "--n-grid", "100,300",
                         "--ab-samples", "10", "--ab-max", "50", "--seed", "9")),
        ("smooth", ("smooth", "--x", "100000", "--y", "100")),
    ],
)
def test_command_data_is_golden(capsys, name, args):
    # pinned data sections, generated before the reports lost their converter;
    # compared as serialized text, so that an int turned float (equal as a
    # number) shows too
    env = run_json(capsys, *args)
    assert json.dumps(env["data"], sort_keys=True) == json.dumps(_COMMANDS_DATA[name],
                                                                 sort_keys=True)


@pytest.mark.parametrize(
    "name, args",
    [
        ("sieve_dump", ("sieve-dump", "--poly", "1,0,1", "--n-max", "40")),
        ("quadruples", ("quadruples", "--poly", "1,0,1", "--n-grid", "100,200,400")),
    ],
)
def test_csv_body_is_golden(capsys, name, args):
    # every line but the tool, config and wall-time comments, byte for byte
    code, out, err = run(capsys, *args)
    assert code == 0, err
    body = [l for l in out.splitlines()
            if not l.startswith(("# polyrmf", "# config:", "# wall_time_s:"))]
    assert "\n".join(body) + "\n" == (_DATA / f"{name}.csv").read_text()
