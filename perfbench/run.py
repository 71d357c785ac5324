"""Benchmark of the polyrmf CLI: seeded workloads, output checks, optional trace.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Set-up time is the median of several fresh
interpreters that import polyrmf.cli and build the job list. One worker
process then runs the workload's jobs in passes for --seconds, every job's
output is checked, a result file with the environment record is written to
perfbench/results/, and the last line of standard output is one JSON object
with correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.
--workload all runs every workload in turn and prints a table.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # the whole run must end well inside 180 s
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cache_sizes() -> dict[str, str]:
    out = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (d / "level").read_text().strip()
            kind = (d / "type").read_text().strip()
            out[f"L{level}-{kind}"] = (d / "size").read_text().strip()
        except OSError:
            continue
    return out


def environment(root: Path) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": _cache_sizes(),
        "thread_vars": {k: os.environ.get(k) for k in _THREAD_VARS},
        "git_commit": _git_commit(root),
    }


def _worker_cmd(root, workload, seed, smoke, *extra):
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
           "--workload", workload, "--seed", str(seed), *extra]
    return cmd + (["--smoke"] if smoke else [])


def _wait(proc, timeout):
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}:\n{err[-2000:]}")
    return out


def setup_seconds(root, workload, seed, smoke, samples=SETUP_SAMPLES) -> list[float]:
    """Interpreter start until polyrmf.cli is imported and the jobs are built."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.Popen(_worker_cmd(root, workload, seed, smoke, "--setup-only"),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        _wait(proc, 60)
        if line.strip() != "ready":
            raise SystemExit("set-up probe did not report ready")
    return times


def run_workload(root, workload, seed, seconds, trace, smoke=False):
    """Set up, run and check one workload; returns the full result record."""
    start = time.perf_counter()
    setups = setup_seconds(root, workload, seed, smoke)
    tag = f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    results_dir = HERE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    extra = ["--seconds", str(seconds), "--trace", str(int(trace)),
             "--min-rounds", "1" if trace or smoke else "3"]
    if trace:
        extra += ["--spans-out", str(results_dir / f"{tag}.spans.json.gz")]
    proc = subprocess.Popen(_worker_cmd(root, workload, seed, smoke, *extra),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out = _wait(proc, RUN_LIMIT_S - (time.perf_counter() - start))
    lines = out.splitlines()
    if len(lines) < 2 or lines[0] != "ready":
        raise SystemExit("worker printed no result")
    res = json.loads(lines[-1])

    failed = 0
    job_records = []
    # a traced run also checks whole tables, unless the hook that digests them is gone
    tables = res.get("tables")
    if not tables or {"sieve.sieve_values", "sieve.sieve_values (counter)"} & set(res["absent"]):
        tables = [None] * len(res["jobs"])
    for job, fails, digests in zip(res["jobs"], res["failures"], tables):
        problems = checks.check_job(job["argv"], job["rc"], job["stdout"], job["stderr"])
        if digests is not None:
            problems += checks.check_tables(job["argv"], digests)
        runs = len(res["passes"])
        failed += runs if problems else fails
        job_records.append({"argv": job["argv"], "problems": problems,
                            "failed_runs": runs if problems else fails})
    attempted = res["executions"]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "environment": environment(root),
        "setup_samples_s": setups,
        "passes": res["passes"],
        "jobs": job_records,
        "attempted": attempted,
        "failed": failed,
        "e2e": {
            "setup_s": statistics.median(setups),
            "wall_s": res["wall_s"],
            "cpu_s": res["cpu_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "failed_frac": failed / attempted,
        },
    }
    if trace:
        record["per_layer"] = res["layers"]
        record["absent_hooks"] = res["absent"]
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    record["result_file"] = str(results_dir / f"{tag}.json")
    return record


def _metrics(record, spec):
    values = record["per_layer"] if record["trace"] else record["e2e"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def _summary(record):
    e = record["e2e"]
    return (f"{record['workload']:<13} seed={record['seed']}  setup_s {e['setup_s']:.4f} s  "
            f"wall_s {e['wall_s']:.4f} s  cpu_s {e['cpu_s']:.4f} s  "
            f"peak_rss_mb {e['peak_rss_mb']:.1f} MB  failed_frac {e['failed_frac']:.4f} "
            f"({record['failed']}/{record['attempted']} jobs)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny job sizes, for the benchmark's tests")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "polyrmf" / "cli.py").is_file():
        sys.stderr.write(f"{root} holds no src/polyrmf; run from the root of a polyrmf checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = spec["per_layer"] if args.trace else spec["end_to_end"]

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        record = run_workload(root, name, args.seed, args.seconds, bool(args.trace), args.smoke)
        records.append(record)
        print(_summary(record))
        for job in record["jobs"]:
            if job["problems"]:
                print(f"  FAILED {' '.join(job['argv'])}: {job['problems'][0]}")
        print(f"  result file: {record['result_file']}")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = _metrics(records[0], spec)
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in _metrics(r, spec).items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
