"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload tables --seeds 1-10

Runs perfbench/run.py once per seed (from the checkout root) for the
run_seconds of BENCHMARK.json and prints, per metric, the median, the
quartiles from statistics.quantiles(n=4), and the spread (Q3 - Q1) / median
next to the metric's bound from BENCHMARK.json.
A benchmark is steady when every spread but setup_s's is below its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    values: dict[str, list[float]] = {}
    failures = 0
    for seed in _seeds(args.seeds):
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                              "--seed", str(seed), "--seconds", str(seconds)],
                             capture_output=True, text=True, check=True).stdout
        res = json.loads(out.splitlines()[-1])
        failures += res["failed"]
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        print(f"seed {seed}: " + "  ".join(f"{k} {v['value']:.4f}" for k, v in res["metrics"].items()),
              file=sys.stderr)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
              "failed": failures, "metrics": {k: spread(v) for k, v in values.items()}}
    for k, s in report["metrics"].items():
        print(f"{args.workload:<13} {k:<12} median {s['median']:.4f}  "
              f"spread {s['spread']:.4f}  bound {bounds[k]}", file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
