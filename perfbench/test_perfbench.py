"""Tests of the benchmark itself, on the tiny --smoke job sizes.

    python3 -m pytest perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _smoke(workload, trace, seed=5):
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_has_the_contract_keys():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_every_workload_reports_end_to_end_metrics_and_no_failures():
    res = _smoke("all", 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    names = {m["name"] for m in BENCH["end_to_end"]}
    assert set(res["metrics"]) == {f"{w}.{n}" for w in workloads.WORKLOADS for n in names}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_runs_report_every_layer_and_repeat_their_counts():
    first, second = _smoke("all", 1), _smoke("all", 1)
    assert first["correct"] and second["correct"]
    layer = {m["name"] for m in BENCH["per_layer"]}
    for w in workloads.WORKLOADS:
        got = {k.split(".", 1)[1]: v["value"] for k, v in first["metrics"].items()
               if k.startswith(w + ".")}
        assert set(got) == layer
        self_sum = sum(v for k, v in got.items() if k.endswith(".self_s"))
        assert 0 < self_sum <= got["trace.wall_s"]
        for count in ("poly.roots_mod_prime.calls", "sieve.rows", "moments.pairs",
                      "rmf.f_evals", "fluctuations.class_sums"):
            key = f"{w}.{count}"
            assert first["metrics"][key]["value"] == second["metrics"][key]["value"]
    for key in ("tables.sieve.rows", "exact.moments.pairs", "clt.rmf.f_evals",
                "fluctuations.fluctuations.class_sums"):
        assert first["metrics"][key]["value"] > 0
    record = json.loads((HERE / "results" / "tables-seed5-trace1-smoke.json").read_text())
    assert record["absent_hooks"] == []
    assert (HERE / "results" / "tables-seed5-trace1-smoke.spans.json.gz").is_file()


def test_untraced_run_patches_nothing(monkeypatch):
    import polyrmf.cli as cli

    def refuse(self):
        raise AssertionError("untraced run installed hooks")

    monkeypatch.setattr(tracer.Tracer, "install", refuse)
    out = worker.run(cli, workloads.jobs("tables", 1, smoke=True), 0, False, 1, None)
    assert sum(out["failures"]) == 0 and "layers" not in out


def test_tracer_patches_every_binding_restores_them_and_skips_absent_targets():
    import polyrmf.poly
    import polyrmf.sieve

    original = polyrmf.poly.roots_mod_prime
    method = polyrmf.sieve.ValueTable.__dict__["prime_index"]
    hooks = tracer.HOOKS + (tracer.Hook("polyrmf.sieve", "no_such_function", "gone.fn"),
                            tracer.Hook("polyrmf.no_such_module", "f", "gone.module"))
    t = tracer.Tracer(hooks)
    t.install()
    try:
        assert polyrmf.sieve.roots_mod_prime is polyrmf.poly.roots_mod_prime is not original
        assert polyrmf.sieve.ValueTable.__dict__["prime_index"] is not method
    finally:
        t.uninstall()
    assert polyrmf.sieve.roots_mod_prime is polyrmf.poly.roots_mod_prime is original
    assert polyrmf.sieve.ValueTable.__dict__["prime_index"] is method
    assert t.absent == ["gone.fn", "gone.module"]


def _output(argv):
    import polyrmf.cli as cli
    rc, out, err = worker.run_job(cli, argv)
    assert checks.check_job(argv, rc, out, err) == []
    return out


def _corrupt_data(out, edit):
    env = json.loads(out)
    edit(env["data"])
    return json.dumps(env)


@pytest.mark.parametrize("argv, edit", [
    (["kappa", "--poly", "10,6,1", "--prime-bound", "500"],
     lambda d: d.update(kappa=d["kappa"] * (1 + 1e-9))),
    (["moments", "--poly", "2,2,1", "--n-max", "60"],
     lambda d: d.update(fourth_moment=d["fourth_moment"] + 1)),
    (["moments", "--poly", "2,2,1", "--n-max", "60"], lambda d: d.update(s4=d["s4"] * 1.001)),
    (["curves", "--poly", "1,0,1", "--n-grid", "50,100", "--ab-samples", "5", "--seed", "2"],
     lambda d: d["counts_by_n"][1].__setitem__(0, d["counts_by_n"][1][0] + 1)),
    (["clt", "--poly", "1,0,1", "--n-max", "300", "--trials", "40", "--seed", "1"],
     lambda d: d["hist_counts"].__setitem__(0, d["hist_counts"][0] + 1)),
    (["clt", "--poly", "1,0,1", "--n-max", "300", "--trials", "40", "--seed", "1"],
     lambda d: d.update(normalizer=d["normalizer"] + 0.5)),
    (["fluctuations", "--base", "16", "--scales", "4", "--cap", "3000", "--trials", "5",
      "--verify", "--seed", "1"], lambda d: d["invariants"].update(fresh=False)),
])
def test_checks_reject_wrong_answers(argv, edit):
    bad = _corrupt_data(_output(argv), edit)
    assert checks.check_job(argv, 0, bad, "")


def test_checks_reject_wrong_factor_rows():
    argv = ["sieve-dump", "--poly", "3,1,0,1", "--n-max", "40"]
    out = _output(argv)
    assert checks.check_job(argv, 0, out.replace("\n5,133,1,19,7^1*19^1", "\n5,133,1,19,133^1"), "")
    assert checks.check_job(argv, 0, out.replace("\n5,133,1,19,", "\n5,133,0,19,"), "")
    assert checks.check_job(argv, 1, out, "")


def test_table_check_compares_the_whole_table():
    import polyrmf.poly
    import polyrmf.sieve

    t = tracer.Tracer()
    t.install()
    try:
        for poly in ("5,4,1", "6,5,1"):
            coeffs = [int(c) for c in poly.split(",")]
            polyrmf.sieve.sieve_values(polyrmf.poly.IntPolynomial(coeffs), 1500)
    finally:
        t.uninstall()
    for poly, digest in zip(("5,4,1", "6,5,1"), t.tables):
        digest = {k: v for k, v in digest.items() if k != "job"}
        argv = ["sieve-dump", "--poly", poly, "--n-max", "1500", "--max-rows", "1000"]
        assert checks.check_tables(argv, [digest]) == []
        for key in digest:
            assert checks.check_tables(argv, [{**digest, key: digest[key] + 1}])
        assert checks.check_tables(argv, [])
        assert checks.check_tables(argv[:-2], []) == []  # the dump holds every row


def test_oracles_match_brute_force():
    sf = checks.squarefree_mask(3, 1, 200)
    for n in range(1, 201):
        v = (n + 3) ** 2 + 1
        assert sf[n - 1] == all(v % (p * p) for p in range(2, 200))
    assert checks.is_prime(2**61 - 1) and not checks.is_prime(3215031751)


def test_jobs_depend_only_on_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.jobs(w, 7) == workloads.jobs(w, 7)
        assert workloads.jobs(w, 7) != workloads.jobs(w, 8)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
