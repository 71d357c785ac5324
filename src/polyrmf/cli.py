"""Command-line interface.

Every subcommand resolves its options from flags, an optional JSON config
file (flags win), and for the seed, which only the commands that draw random
numbers take, the RCL_SEED environment variable as a last resort. JSON
results are wrapped in a fixed envelope whose data section is
byte-identical across reruns with the same config; only the wall-time field
varies. Table-like subcommands (sieve-dump, quadruples) emit CSV with
the config echoed in comment lines. Exit codes: 0 success, 2 usage error,
3 domain error, 4 infeasible scale request; every failure, a refused flag or
a failed write included, writes one JSON error line to stderr, nothing to
stdout and no file: --output and the side files (--histogram-csv and the
like) are written together, once every path opens.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import __version__
from .curves import exponent_scan, integral_points
from .errors import DomainError, InfeasibleScaleError
from .moments import gcd_class_histogram, moment_report
from .poly import IntPolynomial, classify, fixed_divisor, is_admissible
from .sieve import _MAX_SIEVE_BOUND, kappa_euler, sieve_values, smooth_count

_TOOL = "polyrmf"

# largest --n-max, --n-grid entry and fluctuations --cap: sieving x^2 + 1 up
# to 10**7 took 8.1 s and a 633 MB peak
_MAX_N = 10**7


@dataclasses.dataclass(frozen=True)
class _Opt:
    name: str
    type: type
    default: object = None
    required: bool = False
    choices: tuple | None = None
    minimum: int | None = None
    maximum: int | None = None
    help: str = ""


_SPECS: dict[str, tuple[_Opt, ...]] = {
    "kappa": (
        _Opt("poly", str, required=True, help="coefficients, constant first, e.g. 1,0,1"),
        _Opt("prime_bound", int, 100_000, minimum=2, maximum=_MAX_SIEVE_BOUND,
             help="Euler product truncation"),
    ),
    "sieve-dump": (
        _Opt("poly", str, required=True),
        _Opt("n_max", int, required=True, minimum=1, maximum=_MAX_N),
        _Opt("max_rows", int, 0, minimum=0, help="emit only the first rows (0 = all)"),
    ),
    "moments": (
        _Opt("poly", str, required=True),
        _Opt("n_max", int, required=True, minimum=1, maximum=_MAX_N),
        _Opt("gcd_threshold", int, 0, minimum=0,
             help="also histogram pair gcds above this (0 = skip)"),
        # 10**7 pairs at N = 3000 took 2.0 s and a 430 MB peak
        _Opt("pairs", int, 0, minimum=0, maximum=10**7,
             help="sampled gcd pairs (0 = exhaustive)"),
        _Opt("histogram_csv", str, help="write the gcd histogram here"),
        _Opt("seed", int, minimum=0, help="root seed (falls back to RCL_SEED, then 0)"),
    ),
    "quadruples": (
        _Opt("poly", str, required=True),
        _Opt("n_grid", str, "500,1000,2000,4000",
             help=f"comma-separated range cutoffs, each at most {_MAX_N}"),
    ),
    "clt": (
        _Opt("poly", str, required=True),
        _Opt("n_max", int, required=True, minimum=1, maximum=_MAX_N),
        # 10**5 trials at N = 10**4 took 4.9 s and a 69 MB peak
        _Opt("trials", int, 1000, minimum=1, maximum=10**6),
        _Opt("model", str, "rademacher", choices=("rademacher", "steinhaus")),
        _Opt("normalization", str, "exact", choices=("exact", "kappa")),
        _Opt("prime_bound", int, 100_000, minimum=2, maximum=_MAX_SIEVE_BOUND),
        _Opt("histogram_csv", str, help="write the normalized-sum histogram here"),
        _Opt("seed", int, minimum=0, help="root seed (falls back to RCL_SEED, then 0)"),
    ),
    "curves": (
        _Opt("poly", str, required=True),
        _Opt("a", int, minimum=1, help="solve a*P(x) = b*P(y) for this fixed pair"),
        _Opt("b", int, minimum=1),
        _Opt("n_max", int, minimum=1, maximum=_MAX_N),
        _Opt("n_grid", str, help=f"scan mode: comma-separated cutoffs, each at most {_MAX_N}"),
        # 100 samples at --n-grid 1000000 took 2.2 s and a 280 MB peak
        _Opt("ab_samples", int, 100, minimum=1, maximum=10**4),
        # pairs are drawn as int64
        _Opt("ab_max", int, 1000, minimum=2, maximum=2**63 - 1),
        _Opt("max_points", int, 1000, minimum=0, help="cap on points listed in the output"),
        _Opt("points_csv", str, help="write the solution points here"),
        _Opt("seed", int, minimum=0, help="root seed (falls back to RCL_SEED, then 0)"),
    ),
    "fluctuations": (
        _Opt("base", int, 16, minimum=16),
        _Opt("scales", int, 8, minimum=2, maximum=64, help="number of scales"),
        _Opt("mode", str, "geometric", choices=("theoretical", "geometric")),
        _Opt("cap", int, 1_000_000, maximum=_MAX_N),
        _Opt("c", float, 0.01, help="threshold constant"),
        # 2 * 10**4 trials at 64 scales and cap 10**5 took 10.2 s and a 194 MB peak
        _Opt("trials", int, 500, minimum=2, maximum=10**5),
        _Opt("verify", bool, False, help="recheck set invariants against the table"),
        _Opt("scale_csv", str, help="write the per-scale table here"),
        _Opt("seed", int, minimum=0, help="root seed (falls back to RCL_SEED, then 0)"),
    ),
    "smooth": (
        # psi(10**8, 1000) took 2.6 s and a 263 MB peak
        _Opt("x", int, required=True, minimum=2, maximum=10**8),
        _Opt("y", int, required=True, minimum=2),
    ),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that refuses bad flags by raising ValueError, not by exiting."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # any token "-<digit>..." is a value, as from Python 3.13 on, so that
        # --poly -2,0,1 reads like --poly=-2,0,1
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message: str):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=_TOOL, description=__doc__)
    parser.add_argument("--version", action="version", version=f"{_TOOL} {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="command", required=True)
    for name, spec in _SPECS.items():
        sp = subs.add_parser(name)
        for opt in spec:
            flag = _flag(opt.name)
            if opt.type is bool:
                sp.add_argument(flag, action="store_const", const=True, default=None,
                                help=opt.help)
            else:
                bound = "" if opt.maximum is None else f"at most {opt.maximum}"
                sp.add_argument(flag, type=opt.type, default=None, choices=opt.choices,
                                help=", ".join(t for t in (opt.help, bound) if t))
        sp.add_argument("--config", type=str, default=None,
                        help="JSON file of options; explicit flags override it")
        sp.add_argument("--output", type=str, default=None,
                        help="write the result here instead of stdout")
        sp.add_argument("--dry-run", action="store_true",
                        help="print the resolved plan and exit")
    return parser


def _resolve_config(args: argparse.Namespace) -> dict:
    spec = _SPECS[args.command]
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        known = {o.name for o in spec}
        unknown = set(file_cfg) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    cfg: dict = {"command": args.command}
    given = set()
    for opt in spec:
        v = getattr(args, opt.name)
        if v is None and opt.name in file_cfg:
            raw = file_cfg[opt.name]
            # JSON true/false parse as bool, a subclass of int: only bool options take them
            accepted = (int, float) if opt.type is float else opt.type
            if not isinstance(raw, accepted) or isinstance(raw, bool) != (opt.type is bool):
                raise ValueError(f"config key {opt.name} must be {opt.type.__name__}, "
                                 f"got {json.dumps(raw)}")
            v = opt.type(raw)
            if opt.choices and v not in opt.choices:
                raise ValueError(f"{opt.name} must be one of {opt.choices}")
        if v is None:
            v = opt.default
        else:
            given.add(opt.name)
        flag = _flag(opt.name)
        if v is None:
            if opt.required:
                raise ValueError(f"missing required option {flag}")
        elif opt.minimum is not None and v < opt.minimum:
            raise ValueError(f"{flag} must be >= {opt.minimum}, got {v}")
        elif opt.maximum is not None and v > opt.maximum:
            raise ValueError(f"{flag} must be <= {opt.maximum}, got {v}")
        elif opt.name in _PARSERS:
            _PARSERS[opt.name](v)
        cfg[opt.name] = v
    if "seed" in cfg and cfg["seed"] is None:
        raw = os.environ.get("RCL_SEED", "0")
        try:
            cfg["seed"] = int(raw)
        except ValueError:
            raise ValueError(f"RCL_SEED must be an integer, got {raw!r}") from None
        if cfg["seed"] < 0:
            raise ValueError(f"RCL_SEED must be >= 0, got {cfg['seed']}")
    if args.command in _CHECKS:
        _CHECKS[args.command](cfg, given)
    return cfg


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _check_moments(cfg: dict, given: set) -> None:
    if not cfg["gcd_threshold"] and (cfg["pairs"] or cfg["histogram_csv"] is not None):
        raise ValueError("--pairs and --histogram-csv need --gcd-threshold")
    if not cfg["pairs"] and "seed" in given:
        raise ValueError("--seed needs --pairs: the exhaustive gcd scan draws no pairs")


def _check_curves(cfg: dict, given: set) -> None:
    """Each mode refuses the options that only the other one reads."""
    fixed = cfg["a"] is not None or cfg["b"] is not None
    if fixed:
        mode, ignored = "fixed-pair mode", ("n_grid", "ab_samples", "ab_max", "seed")
    elif not cfg["n_grid"]:
        raise ValueError("scan mode needs --n-grid (or pass --a/--b/--n-max)")
    else:
        mode, ignored = "scan mode", ("n_max", "points_csv", "max_points")
    refused = [_flag(name) for name in ignored if name in given]
    if refused:
        raise ValueError(f"{mode} takes no {' or '.join(refused)}")
    if fixed and None in (cfg["a"], cfg["b"], cfg["n_max"]):
        raise ValueError("fixed-pair mode needs --a, --b and --n-max")


def _check_clt(cfg: dict, given: set) -> None:
    if "prime_bound" in given and (cfg["model"], cfg["normalization"]) != ("rademacher", "kappa"):
        raise ValueError("--prime-bound needs --normalization kappa and --model rademacher")


def _check_fluctuations(cfg: dict, given: set) -> None:
    # imported here, as in the runner, so that the other commands skip scipy
    from .fluctuations import scale_set

    if not 0 < cfg["c"] < math.inf:
        raise ValueError(f"--c must be finite and > 0, got {cfg['c']}")
    scale_set(cfg["base"], cfg["scales"], mode=cfg["mode"], cap=cfg["cap"])


# option combinations, checked once the options resolve so that a dry run
# refuses every plan that the run would refuse
_CHECKS = {
    "moments": _check_moments,
    "clt": _check_clt,
    "curves": _check_curves,
    "fluctuations": _check_fluctuations,
}


def _parse_poly(text: str) -> IntPolynomial:
    try:
        return IntPolynomial.from_string(text)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"--poly {text!r} is not a polynomial: {exc}") from exc


def _parse_grid(text: str) -> tuple[int, ...]:
    try:
        grid = tuple(sorted({int(t) for t in text.split(",") if t.strip()}))
    except ValueError as exc:
        raise ValueError(f"--n-grid {text!r} is not a list of integers") from exc
    if not grid or grid[0] < 1:
        raise ValueError(f"--n-grid entries must be positive, got {text!r}")
    if grid[-1] > _MAX_N:
        raise ValueError(f"--n-grid entries must be <= {_MAX_N}, got {grid[-1]}")
    return grid


# strings the runners parse, parsed as they resolve so that a dry run refuses them too
_PARSERS = {"poly": _parse_poly, "n_grid": _parse_grid}


def _csv_header(cfg: dict, extra: dict | None = None) -> list[str]:
    lines = [f"# {_TOOL} {cfg['command']} {__version__}"]
    lines.append("# config: " + json.dumps(cfg, sort_keys=True))
    for k, v in (extra or {}).items():
        lines.append(f"# {k}: {v}")
    return lines


def _csv(cfg: dict, header: str, rows) -> str:
    return "\n".join(_csv_header(cfg) + [header, *rows]) + "\n"


def _run_kappa(cfg: dict):
    p = _parse_poly(cfg["poly"])
    value = kappa_euler(p, prime_bound=cfg["prime_bound"])
    data = {
        "poly": str(p),
        "kind": classify(p).kind,
        "fixed_divisor": fixed_divisor(p),
        "admissible": is_admissible(p),
        "prime_bound": cfg["prime_bound"],
        "kappa": value,
    }
    return data, None, {}


def _run_sieve_dump(cfg: dict):
    p = _parse_poly(cfg["poly"])
    n = cfg["n_max"]
    rows = ["n,value,is_squarefree,largest_prime,factors"]
    for rec in sieve_values(p, n).prefix(min(cfg["max_rows"] or n, n)):
        fs = "*".join(f"{q}^{e}" for q, e in rec.factors)
        lp = "" if rec.largest_prime is None else str(rec.largest_prime)
        rows.append(f"{rec.n},{rec.value},{int(rec.is_squarefree)},{lp},{fs}")
    return None, "\n".join(rows) + "\n", {}


def _run_moments(cfg: dict):
    p = _parse_poly(cfg["poly"])
    table = sieve_values(p, cfg["n_max"])
    data = dataclasses.asdict(moment_report(table))
    data["poly"] = str(p)
    side = {}
    if cfg["gcd_threshold"]:
        hist = gcd_class_histogram(
            table,
            threshold=cfg["gcd_threshold"],
            pairs=cfg["pairs"] or None,
            seed=cfg["seed"],
        )
        data["gcd_histogram"] = dataclasses.asdict(hist)
        if cfg["histogram_csv"]:
            side[cfg["histogram_csv"]] = _csv(cfg, "gcd,count",
                                              (f"{d},{c}" for d, c in hist.counts))
    return data, None, side


def _run_quadruples(cfg: dict):
    p = _parse_poly(cfg["poly"])
    grid = _parse_grid(cfg["n_grid"])
    table = sieve_values(p, grid[-1])
    rows = []
    for n in grid:
        rep = moment_report(table.prefix(n))
        rows.append((n, rep.fourth_moment, rep.diagonal_term, rep.off_diagonal,
                     rep.off_diagonal / n**2))
    pos = [(n, r) for n, _, _, _, r in rows if r > 0]
    slope = ""
    if len(pos) >= 2:
        lx = np.log([n for n, _ in pos])
        ly = np.log([r for _, r in pos])
        slope = f"{np.polyfit(lx, ly, 1)[0]:.6f}"
    lines = [f"# loglog_slope: {slope or 'undefined'}"]
    lines.append("n,fourth_moment,diagonal,off_diagonal,ratio")
    for n, f4, diag, off, ratio in rows:
        lines.append(f"{n},{f4},{diag},{off},{ratio!r}")
    return None, "\n".join(lines) + "\n", {}


def _run_clt(cfg: dict):
    # imported here, not at the top, so that the commands that never sum f skip scipy
    from .rmf import monte_carlo_clt

    table = sieve_values(_parse_poly(cfg["poly"]), cfg["n_max"])
    report = monte_carlo_clt(
        table,
        trials=cfg["trials"],
        seed=cfg["seed"],
        model=cfg["model"],
        normalization=cfg["normalization"],
        prime_bound=cfg["prime_bound"],
    )
    side = {}
    if cfg["histogram_csv"]:
        edges, counts = report.hist_edges, report.hist_counts
        side[cfg["histogram_csv"]] = _csv(
            cfg, "bin_left,bin_right,count",
            (f"{lo!r},{hi!r},{c}" for lo, hi, c in zip(edges, edges[1:], counts)))
    return dataclasses.asdict(report), None, side


def _run_curves(cfg: dict):
    p = _parse_poly(cfg["poly"])
    if cfg["a"] is not None:
        pts = integral_points(p, cfg["a"], cfg["b"], cfg["n_max"])
        shown = pts[: cfg["max_points"]]
        data = {
            "poly": str(p),
            "a": cfg["a"],
            "b": cfg["b"],
            "n_max": cfg["n_max"],
            "count": len(pts),
            "truncated": len(shown) < len(pts),
            "points": [[x, y] for x, y in shown],
        }
        side = {}
        if cfg["points_csv"]:
            side[cfg["points_csv"]] = _csv(cfg, "x,y", (f"{x},{y}" for x, y in pts))
        return data, None, side
    report = exponent_scan(
        p,
        n_values=_parse_grid(cfg["n_grid"]),
        ab_samples=cfg["ab_samples"],
        seed=cfg["seed"],
        ab_max=cfg["ab_max"],
    )
    return dataclasses.asdict(report), None, {}


def _run_fluctuations(cfg: dict):
    # imported here, not at the top, so that the commands that never sum f skip scipy
    from .fluctuations import build_prime_class_sets, lil_scan, scale_set

    scales = scale_set(cfg["base"], cfg["scales"], mode=cfg["mode"], cap=cfg["cap"])
    sets = build_prime_class_sets(scales, c=cfg["c"])
    report = lil_scan(sets, trials=cfg["trials"], seed=cfg["seed"])
    data = dataclasses.asdict(report)
    if cfg["verify"]:
        data["invariants"] = sets.verify_invariants()
    side = {}
    if cfg["scale_csv"]:
        side[cfg["scale_csv"]] = _csv(
            cfg,
            "i,x,set_size,candidate_size,class1_squarefree,beta_exact,beta_hat,sigma_hat",
            (f"{i + 1},{x},{report.sizes[i]},{report.candidate_sizes[i]},"
             f"{report.class1_sf[i]},{report.beta_exact[i]!r},"
             f"{report.beta_hat[i]!r},{report.sigma_hat[i]!r}"
             for i, x in enumerate(report.xs)),
        )
    return data, None, side


def _run_smooth(cfg: dict):
    count = smooth_count(cfg["x"], cfg["y"])
    data = {
        "x": cfg["x"],
        "y": cfg["y"],
        "count": count,
        "proportion": count / cfg["x"],
        "log_ratio": math.log(cfg["x"]) / math.log(cfg["y"]),
    }
    return data, None, {}


_RUNNERS = {
    "kappa": _run_kappa,
    "sieve-dump": _run_sieve_dump,
    "moments": _run_moments,
    "quadruples": _run_quadruples,
    "clt": _run_clt,
    "curves": _run_curves,
    "fluctuations": _run_fluctuations,
    "smooth": _run_smooth,
}


def _write_files(texts: dict[str, str]) -> None:
    """Writes each text to its path, or none of them when a path cannot be opened.

    Every path is first opened for appending, which changes no file that
    exists; when one fails, the files that this created are removed again.
    """
    created = []
    try:
        for path in texts:
            existed = os.path.exists(path)
            open(path, "a").close()
            if not existed:
                created.append(path)
    except OSError:
        for path in created:
            os.remove(path)
        raise
    for path, text in texts.items():
        with open(path, "w") as fh:
            fh.write(text)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        envelope = {
            "schema_version": 1,
            "tool": {"name": _TOOL, "version": __version__},
            "config": cfg,
        }
        if args.dry_run:
            envelope["data"] = {"dry_run": True}
            text, side = None, {}
        else:
            t0 = time.perf_counter()
            data, text, side = _RUNNERS[args.command](cfg)
            wall = time.perf_counter() - t0
            if text is not None:
                header = _csv_header(cfg, {"wall_time_s": f"{wall:.6f}"})
                text = "\n".join(header) + "\n" + text
            envelope.update(wall_time_s=round(wall, 6), data=data)
        if text is None:
            text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
        # side files and --output together, or none of them: a failed run writes nothing
        _write_files({**side, args.output: text} if args.output else side)
        if not args.output:
            sys.stdout.write(text)
        return 0
    except (ValueError, OSError) as exc:
        code = (4 if isinstance(exc, InfeasibleScaleError)
                else 3 if isinstance(exc, DomainError) else 2)
        kind = ("UsageError", "DomainError", "InfeasibleScaleError")[code - 2]
        sys.stderr.write(json.dumps({"error": {"type": kind, "message": str(exc)}}) + "\n")
        return code


if __name__ == "__main__":
    raise SystemExit(main())
