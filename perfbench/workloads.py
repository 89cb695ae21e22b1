"""The benchmark's three workloads, driven through gdarb's public API.

Each workload builds its inputs from a seed once, then runs whole passes
over them.  Every pass repeats the same inputs, so every pass must give
the same outputs; ``PassResult.digest`` covers the integer counts and the
output hashes that must repeat.  Calls into gdarb go through module
attributes (``arbitrage.build_nu``), so the wrappers of the traced run
see them.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from gdarb import arbitrage, backtest, catalog, cli
from gdarb import model as model_mod
from hostspeed import HostSpeed

# the failing-no-profit markets of the acceptance suite
MARKETS = (
    "engelbert-schmidt",
    "bs-reflected",
    "bessel-sticky",
    "bachelier-sticky",
    "bachelier-skew",
    "fat-cantor",
)

# parameter overrides that put each market on its no-profit side; the
# reflected market's no-profit set is r*m1 = 1/2, drawn as BOUNDARY_RATES
NO_PROFIT = {
    "engelbert-schmidt": {"r": 0.0},
    "bessel-sticky": {"r": 0.0},
    "bachelier-sticky": {"r": 0.0},
    "bachelier-skew": {"kappa": 0.5},
    "fat-cantor": {"r": 0.0},
}
BOUNDARY_RATES = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0)
MAX_CANTOR_DEPTH = 6
ATOL = 1e-10  # the demo command's closed-form tolerance


@dataclass
class OpResult:
    label: str
    parts: dict[str, float]  # timed part of the operation -> seconds
    failure: str | None
    digest: str
    known_defect: bool = False

    @property
    def seconds(self) -> float:
        return sum(self.parts.values())


@dataclass
class PassResult:
    wall: float
    ops: list[OpResult]
    counts: dict[str, int] = field(default_factory=dict)
    # measured time -> time on the reference host, for this pass
    speed_factor: float = 1.0

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for op in self.ops:
            h.update(f"{op.label}|{op.failure}|{op.digest}\n".encode())
        for key in sorted(self.counts):
            h.update(f"{key}={self.counts[key]}\n".encode())
        return h.hexdigest()


@contextmanager
def _span(tracer, name):
    if tracer is None:
        yield
        return
    span = tracer.begin(name)
    try:
        yield
    finally:
        tracer.end(span)


def _sha(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _check_nu(built, expected, window) -> str | None:
    """The demo command's rule: atoms and density within 1e-10."""
    b, e = dict(built.atoms), dict(expected.atoms)
    for loc in set(b) | set(e):
        if abs(b.get(loc, 0.0) - e.get(loc, 0.0)) > ATOL:
            return f"atom mismatch at {loc}"
    lo, hi = window
    xs = np.linspace(max(lo, -10.0), min(hi, 10.0), 501)
    gap = np.abs(np.asarray(built.density_at(xs)) - np.asarray(expected.density_at(xs)))
    if np.max(gap) > ATOL:
        return f"density mismatch {np.max(gap):.3g}"
    return None


def draw_rates(seed: int) -> dict[str, float]:
    """Each market's interest rate, drawn from the seed.  r only enters the
    values, not the dynamics, and r > 0 keeps every market on its profit
    side (the catalog defaults use r = 0.1)."""
    rng = np.random.default_rng([seed, 2])
    return {name: float(rng.uniform(0.05, 0.5)) for name in MARKETS}


class Workload:
    name = ""
    markets_per_pass = 0

    def __init__(self):
        self.speed = HostSpeed()

    def run_pass(self, tracer=None) -> PassResult:
        """One pass; the host speed is sampled before and after it and
        between its operations, outside every timed part."""
        t0 = time.perf_counter()
        with _span(tracer, "bench.pass"):
            self.speed.sample()
            result = self._run(tracer)
            self.speed.sample()
        result.wall = time.perf_counter() - t0
        result.speed_factor = self.speed.take_factor()
        return result

    def _run(self, tracer) -> PassResult:
        raise NotImplementedError

    def _begin_op(self, tracer, op_id, market):
        self.speed.maybe_sample()
        if tracer is not None:
            tracer.op, tracer.market = op_id, market


class AnalyzeSweep(Workload):
    """Closed-form analysis only: model build, validation, nu, verdicts and
    the strategy checks, on seeded draws of every catalog market, on each
    market's no-profit side, and on an exact-boundary reflected grid."""

    name = "analyze-sweep"

    def __init__(self, seed: int, smoke: bool = False):
        # 25 boundary (mu, sigma) draws: the grid's markets all cost about
        # 3 ms, and with 150 of them op_p50_ms falls inside that group
        # rather than in the gap between the cheap and the costly markets,
        # where the seed would move it by 20%
        draws, no_profit, grid = (6, 6, 2) if smoke else (24, 12, 25)
        super().__init__()
        rng = np.random.default_rng([seed, 1])
        self.inputs = []  # (label, entry name, params, boundary, (nu, nip))

        def add(label, entry, params, nip=None, boundary=False):
            if nip is None:
                nip = entry.expected_nip(**params)
            expected = (entry.expected_nu(**params), nip)
            self.inputs.append((label, entry.name, params, boundary, expected))

        for entry in catalog.catalog():
            for k in range(draws):
                params = entry.sample_params(rng)
                if entry.name == "fat-cantor":
                    # fixed depth and sign-of-r mix: cost grows as 2^depth,
                    # and the condition check costs 20x more for r < 0 at
                    # depth 6, so a drawn mix would make the pass time and
                    # its tail depend on the seed
                    params["depth"] = 1 + k % MAX_CANTOR_DEPTH
                    params["r"] = abs(params["r"]) * (-1) ** (k // MAX_CANTOR_DEPTH)
                add(f"{entry.name}/draw{k}", entry, params)
            if entry.name in NO_PROFIT:
                # no profit by construction, as acceptance criterion 6
                # asserts; the catalog's skew expected_nip ignores kappa
                for k in range(no_profit):
                    params = {**entry.sample_params(rng), **NO_PROFIT[entry.name]}
                    if entry.name == "fat-cantor":
                        params["depth"] = 1 + k % MAX_CANTOR_DEPTH
                    add(f"{entry.name}/no-profit{k}", entry, params, nip=True)
        # r*m1 = 1/2 exactly, away from mu = 0, sigma = 0.5
        reflected = catalog.get_entry("bs-reflected")
        for k in range(grid):
            drawn = reflected.sample_params(rng)
            for r in BOUNDARY_RATES:
                params = {**drawn, "r": r, "m1": 0.5 / r}
                add(f"bs-reflected/boundary{k}-r{r}", reflected, params, boundary=True)
        self.markets_per_pass = len(self.inputs)
        self.sizes = {
            "markets_per_pass": len(self.inputs),
            "sample_draws_per_market": draws,
            "no_profit_draws_per_market": no_profit,
            "boundary_grid": f"{grid} (mu, sigma) draws x rates {list(BOUNDARY_RATES)}",
            "fat_cantor_mix": f"depth 1..{MAX_CANTOR_DEPTH} cycled, sign of r alternating",
        }

    def _run(self, tracer) -> PassResult:
        ops = []
        for op_id, (label, name, params, boundary, (exp_nu, exp_nip)) in enumerate(self.inputs):
            self._begin_op(tracer, op_id, name)
            with _span(tracer, "bench.op"):
                t0 = time.perf_counter()
                try:
                    model = catalog.get_entry(name).build(**params)
                except (model_mod.UnsupportedModelError, OverflowError) as exc:
                    # known defect: to_natural_scale cannot convert some
                    # drawn power-law markets
                    seconds = time.perf_counter() - t0
                    failure = f"build: {type(exc).__name__}: {exc}"
                    ops.append(OpResult(label, {"op": seconds}, failure, "no model", True))
                    continue
                report = model_mod.validate(model)
                bundle = arbitrage.build_nu(model)
                verdicts = arbitrage.market_verdicts(model, bundle)
                theta = arbitrage.build_theta(bundle)
                arbitrage.build_theta_bar(model, bundle)
                conditions = arbitrage.check_strategy_conditions(model, bundle, theta)
                seconds = time.perf_counter() - t0

                failure = None
                if not report.ok:
                    failure = "validation failed: " + ", ".join(f.name for f in report.failures)
                elif verdicts.nip != exp_nip:
                    failure = f"nip={verdicts.nip}, expected {exp_nip}"
                else:
                    failure = _check_nu(bundle.nu, exp_nu, bundle.window)
                digest = _sha(
                    verdicts.nip, verdicts.qvip_exists, verdicts.rp_holds,
                    sorted(bundle.nu.atoms), sorted(verdicts.evidence.items()),
                    conditions.condition_i, conditions.condition_ii,
                )
            ops.append(OpResult(label, {"op": seconds}, failure, digest, boundary))
        return PassResult(0.0, ops)


class MCVerdict(Workload):
    """The closed-form verdict and its Monte Carlo check (classify_ip of
    theta) on the six failing-no-profit markets of the acceptance suite."""

    name = "mc-verdict"
    # The ensemble runs until its slowest path ends, so with a drawn MC seed
    # its time varies by about 40% (IQR/median) between seeds on
    # engelbert-schmidt and bs-reflected.  The MC seed stays at the
    # acceptance suite's 123 and the benchmark seed draws each market's
    # rate instead: that changes every value and verdict input, but not the
    # paths, so the cost does not depend on the benchmark seed.
    MC_SEED = 123

    def __init__(self, seed: int, smoke: bool = False):
        # h = 0.02 keeps a pass near 5 s, so a 30 s run repeats every
        # market about six times; at the acceptance spacing 0.005 one pass
        # takes about 30 s
        n_paths, h = 100, 0.05 if smoke else 0.02
        super().__init__()
        self.config = backtest.MCConfig(n_paths=n_paths, h=h, T=1.0, seed=self.MC_SEED)
        self.inputs = []
        for name, r in draw_rates(seed).items():
            entry = catalog.get_entry(name)
            params = entry.params(r=r)
            self.inputs.append((name, params, entry.expected_nip(**params)))
        self.markets_per_pass = len(self.inputs)
        self.sizes = {
            "markets": list(MARKETS),
            "rates": {name: params["r"] for name, params, _ in self.inputs},
            "mc_seed": self.MC_SEED,
            "n_paths": n_paths,
            "h": h,
            "T": 1.0,
        }

    def _run(self, tracer) -> PassResult:
        ops, counts = [], {"path_steps": 0}
        for op_id, (name, params, exp_nip) in enumerate(self.inputs):
            self._begin_op(tracer, op_id, name)
            with _span(tracer, "bench.op"):
                t0 = time.perf_counter()
                model = catalog.get_entry(name).build(**params)
                valid = model_mod.validate(model).ok
                bundle = arbitrage.build_nu(model)
                verdicts = arbitrage.market_verdicts(model, bundle)
                theta = arbitrage.build_theta(bundle)
                report = backtest.classify_ip(model, bundle, theta, self.config)
                seconds = time.perf_counter() - t0

                stats = report.details["stats"]
                margin = report.p_positive_terminal - 3.0 * report.p_positive_se
                failure = None
                if not valid:
                    failure = "validation failed"
                elif verdicts.nip != exp_nip:
                    failure = f"nip={verdicts.nip}, expected {exp_nip}"
                elif report.monotone_fraction != 1.0:
                    failure = f"monotone_fraction={report.monotone_fraction}"
                elif not margin > 0.0:
                    failure = f"p_positive - 3 se = {margin:.4g}"
                counts[f"path_steps.{name}"] = int(stats.n_steps.sum())
                counts[f"iterations.{name}"] = int(stats.n_steps.max())
                counts["path_steps"] += int(stats.n_steps.sum())
                digest = _sha(
                    report.verdict,
                    hashlib.sha256(stats.v_int.tobytes()).hexdigest(),
                    hashlib.sha256(stats.v_cf.tobytes()).hexdigest(),
                )
            ops.append(OpResult(f"{name}/{report.verdict}", {"op": seconds}, failure, digest))
        return PassResult(0.0, ops, counts)


class CLICommands(Workload):
    """In-process ``gdarb analyze``, ``simulate`` and ``backtest`` on each
    of the six markets, writing CSVs to a scratch directory inside the
    checkout.  One operation is one market's three commands, each timed
    as a part of its own."""

    name = "cli-commands"
    COMMANDS = {  # command -> the CSVs it writes
        "analyze": ("nu_report.csv", "verdicts.csv"),
        "simulate": ("paths.csv",),
        "backtest": ("ip_report.csv", "value_series.csv"),
    }

    def __init__(self, seed: int, out_dir: str, smoke: bool = False):
        # the CLI default h = 0.01 makes one pass take about 27 s, mostly in
        # quadrature-bound chain builds; h = 0.05 makes it about 3.5 s, so
        # a 30 s run repeats every command about eight times
        sim_paths, h = 10, 0.1 if smoke else 0.05
        super().__init__()
        # as in MCVerdict, the seed draws the rates and the CLI seed stays
        # at its default 0, so the cost does not depend on the seed
        self.rates = draw_rates(seed)
        self.out_dir = out_dir
        self.argv = {}  # (market, command) -> argv
        for name in MARKETS:
            base = ["--quiet", "--out", out_dir]
            model = ["--example", name, "--param", f"r={self.rates[name]!r}"]
            run = ["--h", str(h)]
            self.argv[name, "analyze"] = base + ["analyze"] + model
            self.argv[name, "simulate"] = base + ["simulate"] + model + run + [
                "--paths", str(sim_paths),
            ]
            self.argv[name, "backtest"] = base + ["backtest"] + model + run
        self.markets_per_pass = len(MARKETS)
        self.sizes = {
            "markets": list(MARKETS),
            "rates": self.rates,
            "simulate_paths": sim_paths,
            "backtest_paths": "100 (CLI default)",
            "h": h,
            "T": "1.0 (CLI default)",
            "cli_seed": "0 (CLI default)",
        }

    def _run(self, tracer) -> PassResult:
        ops, counts = [], {"csv_rows": 0, "csv_bytes": 0}
        os.makedirs(self.out_dir, exist_ok=True)
        try:
            for op_id, name in enumerate(MARKETS):
                self._begin_op(tracer, op_id, name)
                parts, failure, digest = {}, None, []
                with _span(tracer, "bench.op"):
                    for cmd, outputs in self.COMMANDS.items():
                        self.speed.maybe_sample()
                        t0 = time.perf_counter()
                        code = cli.main(self.argv[name, cmd])
                        parts[cmd] = time.perf_counter() - t0
                        if code != 0:
                            failure = failure or f"{cmd}: exit code {code}"
                        for fname in outputs:
                            data = self._take(fname)
                            if data is None:
                                failure = failure or f"{cmd}: {fname} not written"
                                continue
                            rows = data.count(b"\n") - 1
                            counts[f"csv_rows.{name}.{fname}"] = rows
                            counts["csv_rows"] += rows
                            counts["csv_bytes"] += len(data)
                            digest.append(hashlib.sha256(data).hexdigest())
                ops.append(OpResult(name, parts, failure, _sha(digest)))
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)
        return PassResult(0.0, ops, counts)

    def _take(self, fname: str) -> bytes | None:
        """Read and delete one CSV the last command wrote."""
        path = os.path.join(self.out_dir, fname)
        if not os.path.exists(path):
            return None
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        return data


def make(name: str, seed: int, scratch: str, smoke: bool = False) -> Workload:
    if name == AnalyzeSweep.name:
        return AnalyzeSweep(seed, smoke)
    if name == MCVerdict.name:
        return MCVerdict(seed, smoke)
    if name == CLICommands.name:
        return CLICommands(seed, os.path.join(scratch, f"cli-out-{os.getpid()}"), smoke)
    raise KeyError(name)

