"""Spans around the public functions of each polyrmf module, from outside.

Tracer.install wraps every function in HOOKS in each polyrmf namespace that
binds it (polyrmf.sieve.roots_mod_prime as well as polyrmf.poly's), and
Tracer.uninstall puts the originals back. Nothing here runs unless the
benchmark is started with --trace 1, so untraced runs time the unpatched
program. A hook whose target no longer exists is listed in Tracer.absent and
skipped.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _count_roots(tracer, args, kwargs, result):
    tracer.counts["poly.roots_mod_prime.roots"] += len(result)
    tracer.counts["poly.roots_mod_prime.hits"] += bool(len(result))


def _total(values) -> int:
    return int(np.asarray(values).sum())


def _count_table(tracer, args, kwargs, result):
    tracer.counts["sieve.rows"] += result.n_max
    tracer.counts["sieve.factor_entries"] += len(result.flat_primes)
    tracer.counts["sieve.table_bytes"] += sum(
        v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray)
    )
    # a digest of the whole table, for the output checks of sieve-dump jobs
    # that print only their first rows
    tracer.tables.append({
        "job": tracer.job,
        "rows": result.n_max,
        "factor_entries": len(result.flat_primes),
        "exponent_sum": _total(result.flat_exps),
        "squarefree": _total(result.is_squarefree),
        "largest_sum": _total(result.largest),
    })


def _count_pairs(tracer, args, kwargs, result):
    table = args[0] if args else kwargs["table"]
    tracer.counts["moments.pairs"] += int(np.count_nonzero(table.is_squarefree)) ** 2


def _count_trials(tracer, args, kwargs, result):
    tracer.counts["rmf.trials"] += result.trials
    tracer.counts["rmf.f_evals"] += result.trials * result.n_max


def _count_kept(tracer, args, kwargs, result):
    tracer.counts["fluctuations.kept"] += sum(result.sizes)
    tracer.counts["fluctuations.candidates"] += sum(result.candidate_sizes)


def _count_class_sums(tracer, args, kwargs, result):
    tracer.counts["fluctuations.class_sums"] += result.trials * len(result.xs) * 3


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str  # "function" or "Class.method"
    name: str  # span name
    counter: Callable | None = None


HOOKS = (
    Hook("polyrmf.cli", "main", "cli.main"),
    Hook("polyrmf.poly", "roots_mod_prime", "poly.roots_mod_prime", _count_roots),
    Hook("polyrmf.poly", "count_roots_mod_prime_square", "poly.count_roots_mod_prime_square"),
    Hook("polyrmf.intmath", "primes_up_to", "intmath.primes_up_to"),
    Hook("polyrmf.intmath", "sqrt_mod_prime", "intmath.sqrt_mod_prime"),
    Hook("polyrmf.sieve", "sieve_values", "sieve.sieve_values", _count_table),
    Hook("polyrmf.sieve", "kappa_euler", "sieve.kappa_euler"),
    Hook("polyrmf.sieve", "ValueTable.prime_index", "sieve.prime_index"),
    Hook("polyrmf.moments", "fourth_moment_exact", "moments.fourth_moment_exact", _count_pairs),
    Hook("polyrmf.moments", "mcleish_condition_sums", "moments.mcleish_condition_sums"),
    Hook("polyrmf.moments", "second_moment_exact", "moments.second_moment_exact"),
    Hook("polyrmf.rmf", "monte_carlo_clt", "rmf.monte_carlo_clt", _count_trials),
    Hook("polyrmf.curves", "integral_points", "curves.integral_points"),
    Hook("polyrmf.fluctuations", "build_prime_class_sets",
         "fluctuations.build_prime_class_sets", _count_kept),
    Hook("polyrmf.fluctuations", "lil_scan", "fluctuations.lil_scan", _count_class_sums),
    Hook("polyrmf.fluctuations", "PrimeClassSets.verify_invariants",
         "fluctuations.verify_invariants"),
)

COMMANDS = ("sieve-dump", "kappa", "moments", "curves", "clt", "fluctuations")


class Tracer:
    """In-memory span recorder; one span per call of a hooked function.

    A span is (name, start, end, parent span, job). Spans are kept in flat
    arrays so that a pass with a few hundred thousand calls stays small.
    """

    def __init__(self, hooks=HOOKS):
        self.hooks = tuple(hooks)
        self.names = [h.name for h in self.hooks]
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self.job = -1
        self.reset()

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.tables: list[dict] = []
        self.errors = 0

    def _wrap(self, name_id: int, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(tracer.span_name)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.span_job.append(tracer.job)
            tracer.span_end.append(0.0)
            tracer._stack.append(i)
            tracer.span_start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors += 1
                raise
            finally:
                tracer.span_end[i] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                try:
                    counter(tracer, args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError):
                    if f"{tracer.names[name_id]} (counter)" not in tracer.absent:
                        tracer.absent.append(f"{tracer.names[name_id]} (counter)")
            return result

        return span

    def install(self) -> None:
        """Patch every hook target in every polyrmf namespace that binds it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if m is not None and (k == "polyrmf" or k.startswith("polyrmf."))]
        for name_id, hook in enumerate(self.hooks):
            try:
                module = importlib.import_module(hook.module)
                owner, attr = module, hook.attr
                if "." in attr:
                    cls_name, attr = attr.split(".", 1)
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                else:
                    original = getattr(module, attr)
            except (ImportError, AttributeError, KeyError):
                if hook.name not in self.absent:
                    self.absent.append(hook.name)
                continue
            wrapper = self._wrap(name_id, original, hook.counter)
            if owner is not module:
                self._patch(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.span_job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Span duration minus the durations of its direct children.

    Calls nest on one thread, so the children of a span never overlap and
    their summed duration is the part of the span they cover.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def layer_metrics(names, spans, counts, errors, job_commands, traced_wall, overhead):
    """Per-layer metrics of one traced pass, keyed by their benchmark names.

    overhead is the median traced pass wall time minus the median untraced one.
    """
    counts = Counter(counts)  # a layer the pass never entered counts 0
    own = self_times(spans)
    ids = spans["name"]
    calls = np.bincount(ids, minlength=len(names))
    self_s = np.bincount(ids, weights=own, minlength=len(names))
    by = {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(names)}

    m = {"cli.main.self_s": by["cli.main"][1]}
    main_id = names.index("cli.main")
    dur = spans["end"] - spans["start"]
    for cmd in COMMANDS:
        sel = (ids == main_id) & np.isin(
            spans["job"], [j for j, c in enumerate(job_commands) if c == cmd])
        m[f"cli.{cmd}.wall_s"] = float(dur[sel].sum())
    for name in names[1:]:
        m[f"{name}.self_s"] = by[name][1]
    for name in ("poly.roots_mod_prime", "poly.count_roots_mod_prime_square",
                 "intmath.sqrt_mod_prime", "sieve.sieve_values", "curves.integral_points"):
        m[f"{name}.calls"] = by[name][0]
    rmp_calls = by["poly.roots_mod_prime"][0]
    m["poly.roots_mod_prime.roots"] = counts["poly.roots_mod_prime.roots"]
    m["poly.roots_mod_prime.hit_frac"] = (
        counts["poly.roots_mod_prime.hits"] / rmp_calls if rmp_calls else 0.0)
    for key in ("sieve.rows", "sieve.factor_entries", "sieve.table_bytes", "moments.pairs",
                "rmf.trials", "rmf.f_evals", "fluctuations.class_sums"):
        m[key] = counts[key]
    clt_self = by["rmf.monte_carlo_clt"][1]
    m["rmf.f_evals_per_s"] = counts["rmf.f_evals"] / clt_self if clt_self > 0 else 0.0
    cands = counts["fluctuations.candidates"]
    m["fluctuations.kept_frac"] = counts["fluctuations.kept"] / cands if cands else 0.0
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = overhead
    m["trace.errors"] = errors
    return m


def write_spans(path, names, spans, jobs) -> None:
    """Write one pass's spans as gzipped columnar JSON (times relative to the first span)."""
    t0 = float(spans["start"].min()) if len(spans["start"]) else 0.0
    doc = {
        "names": list(names),
        "jobs": [list(j) for j in jobs],
        "name": spans["name"].tolist(),
        "parent": spans["parent"].tolist(),
        "job": spans["job"].tolist(),
        "start": (spans["start"] - t0).tolist(),
        "end": (spans["end"] - t0).tolist(),
    }
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump(doc, fh)
