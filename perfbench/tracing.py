"""Span recorder and layer wrappers for the traced benchmark run.

The wrappers are installed on gdarb's public entry points as they are bound
in each calling module (``gdarb.cli.build_chain`` and
``gdarb.backtest.build_chain`` are separate bindings of one function), so
calls made inside the package are seen as well as calls made by the
benchmark.  Nothing under ``src/`` changes.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

# span name -> (function name, modules that bind it).  A binding that a
# later version of the package no longer has is skipped; its time then
# shows as self time of the caller.
ENTRY_POINTS = {
    "model.validate": ("validate", ("gdarb.model", "gdarb.cli")),
    "arbitrage.build_nu": ("build_nu", ("gdarb.arbitrage", "gdarb.cli")),
    "arbitrage.market_verdicts": ("market_verdicts", ("gdarb.arbitrage", "gdarb.cli")),
    "arbitrage.build_theta": ("build_theta", ("gdarb.arbitrage", "gdarb.cli", "gdarb.backtest")),
    "arbitrage.build_theta_bar": ("build_theta_bar", ("gdarb.arbitrage", "gdarb.cli")),
    "arbitrage.check_strategy_conditions": (
        "check_strategy_conditions", ("gdarb.arbitrage", "gdarb.backtest"),
    ),
    "chain.build_chain": ("build_chain", ("gdarb.chain", "gdarb.backtest", "gdarb.cli")),
    "chain.sample_path": ("sample_path", ("gdarb.chain", "gdarb.cli")),
    "backtest.classify_ip": ("classify_ip", ("gdarb.backtest", "gdarb.cli")),
    "backtest.run_ensemble": ("run_ensemble", ("gdarb.backtest",)),
    "backtest.integral_value": ("integral_value", ("gdarb.backtest", "gdarb.cli")),
    "backtest.closed_form_value": ("closed_form_value", ("gdarb.backtest", "gdarb.cli")),
    "cli.main": ("main", ("gdarb.cli",)),
}

# catalog entries build their models through a callable stored on the
# entry, so the model build is wrapped where entries are handed out
MODEL_BUILD = "model.build"


@dataclasses.dataclass
class Span:
    sid: int
    parent: int | None
    op: int | None
    name: str
    market: str | None
    t0: float
    t1: float = 0.0


class Tracer:
    """In-memory spans with parent links, plus counts taken at the same
    layer boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.ensembles: list[tuple[str | None, np.ndarray]] = []
        self.market: str | None = None
        self.op: int | None = None
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), parent, self.op, name, self.market, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span):
        span.t1 = time.perf_counter()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            self._count(name, result)
            return result

        return traced

    # -- counts at layer boundaries -----------------------------------------

    def _count(self, name: str, result):
        c = self.counts
        if name == "arbitrage.build_nu":
            for s in (result.n_plus, result.n_minus, result.qprime_zero):
                c["arbitrage.carrier_intervals"] += carrier_intervals(s)
        elif name == "chain.build_chain":
            c["chain.build_chain_calls"] += 1
            c[f"chain.nodes.{self.market}"] = result.n_nodes
        elif name == "chain.sample_path":
            c["chain.sample_path_steps"] += len(result.states) - 1
        elif name == "backtest.run_ensemble":
            self.ensembles.append((self.market, np.asarray(result.n_steps)))

    # -- installation ------------------------------------------------------

    def install(self):
        for name, (attr, modules) in ENTRY_POINTS.items():
            bound = [
                (mod, getattr(mod, attr))
                for mod in map(importlib.import_module, modules)
                if hasattr(mod, attr)
            ]
            if not bound:
                continue
            original = bound[0][1]
            for mod, fn in bound:
                if fn is not original:
                    raise RuntimeError(f"{mod.__name__}.{attr} is not {name}")
            traced = self.wrap(original, name)
            for mod, fn in bound:
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, traced)

        catalog = importlib.import_module("gdarb.catalog")
        get_entry = catalog.get_entry

        def traced_get_entry(entry_name):
            entry = get_entry(entry_name)
            return dataclasses.replace(entry, build=self.wrap(entry.build, MODEL_BUILD))

        self._saved.append((catalog, "get_entry", get_entry))
        catalog.get_entry = traced_get_entry

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> dict[tuple[str, str | None], float]:
        """Self time per (span name, market): duration minus the time its
        direct children cover.  Children run nested on one thread, so
        the covered time is the sum of their durations."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.t1 - s.t0
        out: dict[tuple[str, str | None], float] = defaultdict(float)
        for s in self.spans:
            out[(s.name, s.market)] += (s.t1 - s.t0) - child[s.sid]
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [dataclasses.astuple(s) for s in self.spans], fh, separators=(",", ":")
            )


def carrier_intervals(s) -> int:
    """Intervals of a Borel set, counting its points as degenerate
    intervals and its fat-Cantor part as the 2^depth intervals it
    expands to."""
    n = len(s.intervals) + len(s.points)
    if s.svc is not None:
        n += 2 ** s.svc.depth
    return n


def tail_iterations(n_steps: np.ndarray, alive_share: float = 0.01) -> int:
    """Synchronous iterations served while at most ``alive_share`` of the
    paths are still running.  Iteration k has #{n_steps > k} paths alive."""
    s = np.sort(n_steps)
    allowed = int(np.floor(alive_share * len(s)))
    if allowed >= len(s):
        return int(s[-1])
    return int(s[-1] - s[len(s) - allowed - 1])


# per-layer self time: metric name -> span names it sums
LAYER_TIMES = {
    "model.build_s": ("model.build",),
    "model.validate_s": ("model.validate",),
    "arbitrage.build_nu_s": ("arbitrage.build_nu",),
    "arbitrage.market_verdicts_s": ("arbitrage.market_verdicts",),
    "arbitrage.strategy_s": (
        "arbitrage.build_theta", "arbitrage.build_theta_bar",
        "arbitrage.check_strategy_conditions",
    ),
    "chain.build_chain_s": ("chain.build_chain",),
    "chain.sample_path_s": ("chain.sample_path",),
    "backtest.classify_ip_s": ("backtest.classify_ip",),
    "backtest.run_ensemble_s": ("backtest.run_ensemble",),
    "backtest.value_series_s": ("backtest.integral_value", "backtest.closed_form_value"),
    "cli.self_s": ("cli.main",),
    "bench.self_s": ("bench.pass", "bench.op"),
}
PER_MARKET_TIMES = ("chain.build_chain_s", "backtest.run_ensemble_s")


def layer_metrics(tracer: Tracer, markets, traced: list, untraced: list) -> dict:
    """Per-layer metrics, each per pass of the traced run."""
    n = len(traced)
    selfs = tracer.self_times()
    by_name: dict[str, float] = defaultdict(float)
    by_market: dict[tuple[str, str | None], float] = defaultdict(float)
    for (name, market), t in selfs.items():
        by_name[name] += t
        by_market[(name, market)] += t

    out = {}
    for metric, names in LAYER_TIMES.items():
        out[metric] = (sum(by_name[s] for s in names) / n, "s")
    for metric in PER_MARKET_TIMES:
        (span,) = LAYER_TIMES[metric]
        for m in markets:
            out[f"{metric}.{m}"] = (by_market[(span, m)] / n, "s")

    counts = tracer.counts
    out["arbitrage.carrier_intervals"] = (counts["arbitrage.carrier_intervals"] / n, "count")
    out["chain.build_chain_calls"] = (counts["chain.build_chain_calls"] / n, "count")
    out["chain.sample_path_steps"] = (counts["chain.sample_path_steps"] / n, "count")
    for m in markets:
        out[f"chain.nodes.{m}"] = (counts[f"chain.nodes.{m}"], "count")

    steps = defaultdict(int)
    iters = defaultdict(int)
    mean_steps = tail = 0.0
    for market, n_steps in tracer.ensembles:
        steps[market] += int(n_steps.sum())
        iters[market] += int(n_steps.max())
        mean_steps += float(n_steps.mean())
        tail += tail_iterations(n_steps)
    for m in markets:
        out[f"backtest.path_steps.{m}"] = (steps[m] / n, "count")
        out[f"backtest.iterations.{m}"] = (iters[m] / n, "count")
    total_steps, total_iters = sum(steps.values()), sum(iters.values())
    ensemble_s = by_name["backtest.run_ensemble"]
    out["backtest.ns_per_path_step"] = (
        ensemble_s / total_steps * 1e9 if total_steps else 0.0, "ns"
    )
    out["backtest.straggler_ratio"] = (total_iters / mean_steps if mean_steps else 0.0, "ratio")
    out["backtest.tail_iteration_share"] = (tail / total_iters if total_iters else 0.0, "ratio")

    out["cli.csv_rows"] = (sum(p.counts.get("csv_rows", 0) for p in traced) / n, "count")
    out["cli.csv_bytes"] = (sum(p.counts.get("csv_bytes", 0) for p in traced) / n, "B")

    out["trace.wall_s"] = (sum(p.wall for p in traced) / n, "s")
    # at the reference host speed, so that the host's drift between the
    # untraced and the traced half of the run cancels
    out["trace.overhead_s"] = (
        sum(p.wall * p.speed_factor for p in traced) / n
        - sum(p.wall * p.speed_factor for p in untraced) / len(untraced), "s"
    )
    return out
