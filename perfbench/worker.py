"""One workload process: import polyrmf, build the job list, run timed passes.

Started by run.py, never by hand. It prints "ready" once polyrmf.cli is
imported and the job list is built (run.py times that as set-up), then runs
passes over the job list through polyrmf.cli.main in this process and prints
one JSON line with pass timings, first-pass outputs and failure counts.
With --trace 1 it alternates untraced and traced passes and adds the
per-layer metrics of the traced pass with the median wall time and the
digest of every table sieve_values built in the first traced pass.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def data_text(stdout: str) -> str:
    """The part of a job's output that must repeat byte for byte.

    For JSON results that is the data section; for CSV results every line
    but the wall-time comment.
    """
    if stdout.startswith("{"):
        return json.dumps(json.loads(stdout)["data"], sort_keys=True)
    return "\n".join(l for l in stdout.splitlines() if not l.startswith("# wall_time_s"))


def run_job(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception:  # a crash counts as a failed job, the pass goes on
        rc, err = -1, io.StringIO(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


class Runner:
    def __init__(self, cli, jobs, tracer=None):
        self.cli = cli
        self.jobs = jobs
        self.tracer = tracer
        # data text of each job in the first pass; every later pass must match it
        self.reference: list[str | None] = [None] * len(jobs)
        self.first: list[dict] = []
        # table digests of each job in the first traced pass; later traced passes must match
        self.tables: list[list[dict]] | None = None
        self.failures = [0] * len(jobs)
        self.executions = 0
        self.passes: list[dict] = []

    def run_pass(self, traced: bool) -> None:
        results = []
        if traced:
            self.tracer.reset()
            self.tracer.install()
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            for j, argv in enumerate(self.jobs):
                if traced:
                    self.tracer.job = j
                results.append(run_job(self.cli, argv))
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        finally:
            if traced:
                self.tracer.uninstall()
        first_pass = not self.passes
        for j, (rc, out, err) in enumerate(results):
            self.executions += 1
            try:
                text = data_text(out) if rc == 0 else None
            except (ValueError, KeyError):
                text = None
            if first_pass:
                self.first.append({"argv": self.jobs[j], "rc": rc, "stdout": out, "stderr": err})
                self.reference[j] = text
            if rc != 0 or text is None or text != self.reference[j]:
                self.failures[j] += 1
        record = {"traced": traced, "wall_s": wall, "cpu_s": cpu}
        if traced:
            tables = [[] for _ in self.jobs]
            for digest in self.tracer.tables:
                tables[digest["job"]].append({k: v for k, v in digest.items() if k != "job"})
            if self.tables is None:
                self.tables = tables
            for j, mine in enumerate(tables):
                if mine != self.tables[j]:
                    self.failures[j] += 1
            record["spans"] = self.tracer.spans()
            record["counts"] = dict(self.tracer.counts)
            record["errors"] = self.tracer.errors
        self.passes.append(record)


def peak_rss_mb() -> float:
    """High-water RSS of this process image.

    VmHWM belongs to the address space made at exec. ru_maxrss would not do:
    Linux carries the parent's high-water mark across a vfork and exec into it.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _median_pass(passes):
    ordered = sorted(passes, key=lambda p: p["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def run(cli, jobs, seconds: float, trace: bool, min_rounds: int, spans_out: str | None):
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    runner = Runner(cli, jobs, tracer)
    kinds = (False, True) if trace else (False,)
    start = time.perf_counter()
    rounds = 0
    while True:
        r0 = time.perf_counter()
        for traced in kinds:
            runner.run_pass(traced)
        rounds += 1
        now = time.perf_counter()
        if rounds >= min_rounds and now - start + (now - r0) > seconds:
            break
    peak_rss = peak_rss_mb()
    untraced = [p for p in runner.passes if not p["traced"]]
    out = {
        "passes": [{k: p[k] for k in ("traced", "wall_s", "cpu_s")} for p in runner.passes],
        "wall_s": statistics.median([p["wall_s"] for p in untraced]),
        "cpu_s": statistics.median([p["cpu_s"] for p in untraced]),
        "peak_rss_mb": peak_rss,
        "jobs": runner.first,
        "failures": runner.failures,
        "executions": runner.executions,
    }
    if trace:
        from tracer import layer_metrics, write_spans
        chosen = _median_pass([p for p in runner.passes if p["traced"]])
        commands = [argv[0] for argv in jobs]
        overhead = statistics.median(p["wall_s"] for p in runner.passes if p["traced"]) - out["wall_s"]
        out["layers"] = layer_metrics(tracer.names, chosen["spans"], chosen["counts"],
                                      chosen["errors"], commands, chosen["wall_s"], overhead)
        out["absent"] = tracer.absent
        out["tables"] = runner.tables
        if spans_out:
            write_spans(spans_out, tracer.names, chosen["spans"], jobs)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True, help="checkout holding src/polyrmf")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-rounds", type=int, default=3)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    src = Path(args.root, "src")
    sys.path.insert(0, str(src))
    os.environ.pop("RCL_SEED", None)
    import polyrmf.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"polyrmf was imported from {cli.__file__}, not from {src}")
    jobs = workloads.jobs(args.workload, args.seed, smoke=args.smoke)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = run(cli, jobs, args.seconds, bool(args.trace), args.min_rounds, args.spans_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
