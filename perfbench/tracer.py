"""Span tracing of the brsnis layers, installed from outside the package.

``installed(tracer)`` replaces, for the duration of a ``with`` block, the
public functions of each layer under the names their callers look up at
call time: the ``brsnis.cli`` module globals (``run_chain``,
``bootstrap_br_snis``, ``estimate_omega``, ...), ``brsnis.isir.snis_estimate``
(used by ``run_chain``), the public functions of ``brsnis.bounds``, and the
``ModelSpec`` callables and test function that ``cli.build_model`` returns.
Nothing under ``src/`` is edited; leaving the block restores the originals.

Each wrapped call records one span (id, name, start, end, thread CPU time,
parent, thread, work) in memory.  A layer's self time is its span's duration
minus the part of that interval its child spans cover; its self CPU time is
the thread CPU time of the span minus that of its children on the same
thread.  ``layer_metrics`` derives self times, counts and ratios from the
spans, per traced CLI call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import itertools
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional

import numpy as np


class Span(NamedTuple):
    id: int
    name: str
    start_ns: int
    end_ns: int
    cpu_ns: int  # thread CPU time spent inside the span, children included
    parent: Optional[int]
    thread: int
    work: Optional[dict]


class Tracer:
    """Collects spans from wrapped callables; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        # The thread that calls the CLI.  The outermost span of a pool worker
        # thread gets the span this thread is inside as its parent (the
        # experiment command waiting on the pool).
        self._root_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, work: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``work(*args, **kwargs)`` sizes it."""

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                root = self._root_stack
                parent = root[-1] if root else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            cpu_start = time.thread_time_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = time.thread_time_ns() - cpu_start
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, cpu, parent,
                                       threading.get_ident(),
                                       work(*args, **kwargs) if work else None))

        return traced

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,name,start_ns,end_ns,cpu_ns,parent,thread,work\n")
            for s in sorted(self.spans, key=lambda s: s.start_ns):
                work = ";".join(f"{k}={v}" for k, v in (s.work or {}).items())
                parent = "" if s.parent is None else s.parent
                fh.write(f"{s.id},{s.name},{s.start_ns},{s.end_ns},{s.cpu_ns},{parent},"
                         f"{s.thread},{work}\n")


def _n_points(points) -> int:
    return int(np.shape(points)[0]) if np.ndim(points) > 1 else 1


def _bootstrap_work(bank, cfg, rounds, *args, **kwargs) -> dict:
    m_total = bank.size
    q = bank.f_values.shape[1] if bank.f_values.ndim == 2 else 1
    idx, w = 8, 8  # int64 permutation, float64 shifted weights
    # Computed (not measured) traffic of one round of the replay: write the
    # permutation; gather weights (read index, read and write values); gather
    # f (read index, read and write q columns); cumsum (read, write).
    per_round = m_total * (idx + (idx + 2 * w) + (idx + 2 * q * bank.f_values.itemsize)
                           + 2 * w)
    return {"rounds": rounds, "steps": rounds * cfg.n_iters,
            "bytes_per_round": per_round}


def _traced_model(tracer: Tracer, built):
    """``built`` with its ModelSpec callables and test function wrapped."""
    from brsnis.model import ModelSpec, TestFunction

    m, f = built.model, built.f
    model = ModelSpec(
        dim=m.dim,
        log_weight=tracer.wrap("model.log_weight", m.log_weight,
                               lambda pts: {"points": _n_points(pts)}),
        propose=tracer.wrap("model.propose", m.propose,
                            lambda rng, n: {"points": int(n)}),
        target_sample=m.target_sample)
    fn = tracer.wrap("model.f", f.fn, lambda pts: {"points": _n_points(pts)})
    return dataclasses.replace(built, model=model,
                               f=TestFunction(fn=fn, sup_bound=f.sup_bound))


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced layer entry point while the block runs."""
    from brsnis import bounds, cli, isir

    build_model = cli.build_model
    patches = [
        (cli, "main", "cli.main", None),
        (cli, "cmd_bounds", "cli.bounds", None),
        (cli, "cmd_experiment", "cli.experiment", None),
        (cli, "cmd_diagnose", "cli.diagnose", None),
        (cli, "build_model", "cli.build_model", None),
        (cli, "resolve_constants", "cli.resolve_constants", None),
        (cli, "run_replication", "cli.run_replication", None),
        (cli, "estimate_kappa", "model.estimate_kappa", None),
        (cli, "estimate_omega", "model.estimate_omega", None),
        # The TV diagnostic's test function is the q-column predictive.
        (cli, "logistic_predictive", "model.f",
         lambda theta, x: {"points": _n_points(theta)}),
        (cli, "run_chain", "isir.run_chain",
         lambda model, f, cfg, rng, **kw: {"steps": cfg.n_iters}),
        (cli, "build_sample_bank", "rolling.build_sample_bank", None),
        (cli, "bootstrap_br_snis", "rolling.bootstrap_br_snis", _bootstrap_work),
        (cli, "rolling_estimate", "rolling.rolling_estimate", None),
        (cli, "snis_estimate", "snis.snis_estimate", None),
        (isir, "snis_estimate", "snis.snis_estimate", None),
        (cli, "replication_stats", "diagnostics.replication_stats", None),
        (cli, "tv_predictive", "diagnostics.tv_predictive", None),
    ]
    patches += [(bounds, name, f"bounds.{name}", None)
                for name, fn in vars(bounds).items()
                if inspect.isfunction(fn) and fn.__module__ == bounds.__name__
                and not name.startswith("_")]

    def traced_build_model(section):
        return _traced_model(tracer, build_model(section))

    saved = []
    try:
        for module, attr, name, work in patches:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            target = traced_build_model if original is build_model else original
            setattr(module, attr, tracer.wrap(name, target, work))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of half-open intervals."""
    total, reach = 0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time in ns of every span: duration minus its children's cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = _covered_ns([(max(c.start_ns, s.start_ns), min(c.end_ns, s.end_ns))
                               for c in children.get(s.id, ())
                               if c.end_ns > s.start_ns and c.start_ns < s.end_ns])
        out[s.id] = s.end_ns - s.start_ns - covered
    return out


def self_cpu_times(spans: list[Span]) -> dict[int, int]:
    """Self thread CPU time in ns of every span: its CPU time minus that of
    its children on the same thread.  Unlike self time, it leaves out the
    time a thread waits for the GIL or for a core."""
    out = {s.id: s.cpu_ns for s in spans}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None and by_id[s.parent].thread == s.thread:
            out[s.parent] -= s.cpu_ns
    return out


def self_seconds_by_name(spans: list[Span], n_calls: int) -> dict[str, float]:
    """Summed self time per span name, in seconds per traced CLI call."""
    own = self_times(spans)
    totals = defaultdict(int)
    for s in spans:
        totals[s.name] += own[s.id]
    return {name: ns / 1e9 / n_calls for name, ns in sorted(totals.items())}


def layer_metrics(spans: list[Span], n_calls: int, threads: int) -> dict[str, float]:
    """Per-layer metrics, per traced CLI call, from the spans of ``n_calls`` calls."""
    own = self_times(spans)
    own_cpu = self_cpu_times(spans)
    by_id = {s.id: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def spans_of(name):
        return by_name.get(name, [])

    def per_call(value):
        return value / n_calls

    def calls(name):
        return per_call(len(spans_of(name)))

    def total_ns(name):
        return sum(s.end_ns - s.start_ns for s in spans_of(name))

    def self_ns(name):
        return sum(own[s.id] for s in spans_of(name))

    def total_s(name):
        return per_call(total_ns(name) / 1e9)

    def self_s(name):
        return per_call(self_ns(name) / 1e9)

    def work(name, key):
        return sum((s.work or {}).get(key, 0) for s in spans_of(name))

    def ratio(num, den):
        return num / den if den else 0.0

    def under(span, ancestor):
        parent = span.parent
        while parent is not None:
            node = by_id[parent]
            if node.name == ancestor:
                return True
            parent = node.parent
        return False

    out = {}
    for layer in ("model.log_weight", "model.propose", "model.f"):
        points = work(layer, "points")
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.points"] = per_call(points)
        out[f"{layer}.self_s"] = self_s(layer)
        out[f"{layer}.ns_per_point"] = ratio(self_ns(layer), points)
    out["model.estimate_omega.s"] = total_s("model.estimate_omega")
    out["model.estimate_omega.log_weight_calls"] = per_call(sum(
        1 for s in spans_of("model.log_weight") if under(s, "model.estimate_omega")))
    out["model.estimate_kappa.s"] = total_s("model.estimate_kappa")
    out["cli.build_model.s"] = total_s("cli.build_model")

    out["rolling.build_sample_bank.calls"] = calls("rolling.build_sample_bank")
    out["rolling.build_sample_bank.self_s"] = self_s("rolling.build_sample_bank")
    boot = "rolling.bootstrap_br_snis"
    steps = work(boot, "steps")
    out[f"{boot}.calls"] = calls(boot)
    out[f"{boot}.self_s"] = self_s(boot)
    out[f"{boot}.steps"] = per_call(steps)
    # Thread CPU time, so that GIL waits between the workers do not count.
    out[f"{boot}.ns_per_step"] = ratio(sum(own_cpu[s.id] for s in spans_of(boot)), steps)
    out[f"{boot}.bytes_per_round_computed"] = ratio(
        sum(s.work["bytes_per_round"] * s.work["rounds"] for s in spans_of(boot)),
        work(boot, "rounds"))

    chain = "isir.run_chain"
    chain_steps = work(chain, "steps")
    out[f"{chain}.calls"] = calls(chain)
    out[f"{chain}.self_s"] = self_s(chain)
    out[f"{chain}.steps"] = per_call(chain_steps)
    # Inclusive: a step's cost to the caller, model calls included.
    out[f"{chain}.us_per_step"] = ratio(total_ns(chain) / 1e3, chain_steps)

    out["snis.snis_estimate.calls"] = calls("snis.snis_estimate")
    out["snis.snis_estimate.s"] = total_s("snis.snis_estimate")
    out["bounds.s"] = sum(self_s(name) for name in by_name if name.startswith("bounds."))
    out["diagnostics.replication_stats.s"] = total_s("diagnostics.replication_stats")
    out["diagnostics.tv_predictive.calls"] = calls("diagnostics.tv_predictive")
    out["diagnostics.tv_predictive.s"] = total_s("diagnostics.tv_predictive")

    out["cli.resolve_constants.s"] = total_s("cli.resolve_constants")
    reps_ms = [(s.end_ns - s.start_ns) / 1e6 for s in spans_of("cli.run_replication")]
    out["cli.run_replication.count"] = per_call(len(reps_ms))
    p50 = statistics.median(reps_ms) if reps_ms else 0.0
    out["cli.run_replication.ms_p50"] = p50
    out["cli.run_replication.ms_p90"] = \
        statistics.quantiles(reps_ms, n=10)[8] if len(reps_ms) >= 2 else p50
    out["cli.worker_busy_frac"] = ratio(sum(reps_ms) * 1e6,
                                        threads * total_ns("cli.experiment"))
    for sub in ("bounds", "experiment", "diagnose"):
        out[f"cli.{sub}.self_s"] = self_s(f"cli.{sub}")
    return out
