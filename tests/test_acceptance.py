"""Acceptance suite: one printed pass/fail line per criterion.

Lines are written to the real stdout so they survive pytest's capture.
Monte Carlo criteria share one ensemble run per example at the full budget
(10^4 paths, h = 0.005, T = 1), so this module takes a few minutes.
"""

import sys
import time

import numpy as np
import pytest

from gdarb import catalog as cat
from gdarb.arbitrage import (
    FeedbackStrategy,
    build_nu,
    build_theta,
    build_theta_bar,
    check_strategy_conditions,
    market_verdicts,
)
from gdarb.backtest import MCConfig, classify_ip, run_ensemble
from gdarb.borel import BorelSet, svc_measure
from gdarb.chain import build_chain

# a quick local run leaves this module out with -m "not acceptance"
pytestmark = pytest.mark.acceptance

BUDGET = MCConfig(n_paths=10_000, h=0.005, T=1.0, seed=123)

# failing-NIP parameterizations, one per catalog example
FAILING = [
    "engelbert-schmidt",   # r*b != 0
    "bs-reflected",        # r*m({1}) != 1/2
    "bessel-sticky",       # r*m({1}) != 0
    "bachelier-sticky",    # r*xi*rho != 0
    "bachelier-skew",      # kappa != 1/2
    "fat-cantor",          # r != 0
]

# one no-profit parameterization per example
NIP_PARAMS = {
    "engelbert-schmidt": {"r": 0.0},
    "bs-reflected": {"r": 0.25, "m1": 2.0},
    "bessel-sticky": {"r": 0.0},
    "bachelier-sticky": {"r": 0.0},
    "bachelier-skew": {"kappa": 0.5},
    "fat-cantor": {"r": 0.0},
}


_disabled_capture = None


@pytest.fixture(autouse=True)
def _pierce_capture(capfd):
    """Let _announce write through pytest's fd-level capture."""
    global _disabled_capture
    _disabled_capture = capfd.disabled
    yield
    _disabled_capture = None


def _announce(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status} - {detail}"
    if _disabled_capture is not None:
        with _disabled_capture():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


@pytest.fixture(scope="module")
def mc_runs():
    """Full-budget classification of theta on every failing-NIP example."""
    runs = {}
    for name in FAILING:
        entry = cat.get_entry(name)
        params = entry.params()
        model = entry.build(**params)
        bundle = build_nu(model)
        theta = build_theta(bundle)
        report = classify_ip(model, bundle, theta, BUDGET)
        runs[name] = {
            "entry": entry,
            "params": params,
            "model": model,
            "bundle": bundle,
            "theta": theta,
            "report": report,
        }
    return runs


def _nu_close(built, expected, lo, hi, tol=1e-10):
    ba, ea = dict(built.atoms), dict(expected.atoms)
    if set(ba) != set(ea):
        return False
    if any(abs(ba[k] - ea[k]) > tol for k in ba):
        return False
    xs = np.linspace(lo, hi, 400)
    db = np.asarray(built.density_at(xs), dtype=float)
    de = np.asarray(expected.density_at(xs), dtype=float)
    return bool(np.all(np.abs(db - de) <= tol))


def test_criterion_1_nu_exactness():
    rng = np.random.default_rng(99)
    ok = True
    slowest = 0.0
    for entry in cat.catalog():
        t0 = time.perf_counter()
        for _ in range(20):
            params = entry.sample_params(rng)
            bundle = build_nu(entry.build(**params))
            if not _nu_close(bundle.nu, entry.expected_nu(**params), -5.0, 5.0):
                ok = False
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        if elapsed >= 1.0:
            ok = False
    _announce(1, ok, f"nu closed forms, 20 draws x 6 examples, atoms exact, "
                     f"density tol 1e-10, slowest example {slowest:.2f}s")
    assert ok


def test_criterion_2_verdict_boundary():
    ok = True
    t0 = time.perf_counter()
    for r in (0.05, 0.1, 0.25, 0.5, 1.0, 2.0):
        for m1 in (0.0, 0.1, 0.5 / r, 1.0 / r, 1.7, 4.0):
            model = cat.reflected_model(mu=0.0, sigma=0.5, m1=m1, u0=0.1, r=r)
            verdicts = market_verdicts(model, build_nu(model))
            if verdicts.nip != (r * m1 == 0.5):
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _announce(2, ok, f"no-profit verdict flips exactly on r*m1 = 1/2 "
                     f"({elapsed:.2f}s)")
    assert ok


def test_criterion_3_theta_monotone(mc_runs):
    ok = True
    worst = 0.0
    for name in FAILING:
        report = mc_runs[name]["report"]
        stats = report.details["stats"]
        min_inc = stats.min_inc_cf  # finite-variation representation route
        worst = min(worst, float(min_inc.min()))
        if not np.all(min_inc >= -1e-12):
            ok = False
    _announce(3, ok, f"theta value increments >= -1e-12 on every path of every "
                     f"failing-NIP example (worst {worst:.3g}; assessed on the "
                     f"finite-variation route)")
    assert ok


def test_criterion_4_positive_probability(mc_runs):
    ok = True
    margins = []
    for name in FAILING:
        report = mc_runs[name]["report"]
        margin = report.p_positive_terminal - 3.0 * report.p_positive_se
        margins.append(f"{name}={margin:.3f}")
        if margin <= 0.0:
            ok = False
        if report.verdict != "increasing_profit":
            ok = False
    _announce(4, ok, "P(V_T > 0) - 3 SE > 0 and verdict increasing_profit for "
                     "theta on every failing-NIP example (" + ", ".join(margins) + ")")
    assert ok


def test_criterion_5_route_agreement(mc_runs):
    ok = True
    errs = []
    for name in FAILING:
        report = mc_runs[name]["report"]
        errs.append(f"{name}={report.route_agreement:.4f}")
        if not report.route_agreement <= 0.05:
            ok = False

    # absorbed-path values match the hitting-time closed form pathwise
    run = mc_runs["engelbert-schmidt"]
    b = run["params"]["b"]
    r = run["params"]["r"]
    stats = run["report"].details["stats"]
    T = BUDGET.T
    expected = np.where(
        stats.absorbed & (stats.absorption_times < T),
        b * (np.exp(-r * np.minimum(stats.absorption_times, T)) - np.exp(-r * T)),
        0.0,
    )
    for v in (stats.v_int, stats.v_cf):
        if not np.all(np.abs(v - expected) <= 1e-10):
            ok = False
    _announce(5, ok, "mean route discrepancy <= 5% (" + ", ".join(errs) + "); "
                     "absorbed-path values match the hitting-time form to 1e-10")
    assert ok


def test_criterion_6_nip_nullity():
    ok = True
    cfg = MCConfig(n_paths=2_000, h=0.01, T=1.0, seed=7)
    for name, overrides in NIP_PARAMS.items():
        entry = cat.get_entry(name)
        params = entry.params(**overrides)
        model = entry.build(**params)
        bundle = build_nu(model)
        if not market_verdicts(model, bundle).nip:
            ok = False
            continue
        theta = build_theta(bundle)
        report = classify_ip(model, bundle, theta, cfg)
        stats = report.details["stats"]
        if report.verdict != "not":
            ok = False
        if not (np.all(stats.v_int == 0.0) and np.all(stats.v_cf == 0.0)):
            ok = False
    _announce(6, ok, "V^theta identically zero on all paths and verdict 'not' "
                     "in every no-profit configuration")
    assert ok


def test_criterion_7_local_time_calibration():
    model = cat.sticky_model(xi=0.5, rho=0.0, x0=0.0, r=0.0)
    bundle = build_nu(model)
    chain = build_chain(model, BUDGET.h)
    stats = run_ensemble(chain, bundle, FeedbackStrategy(), BUDGET, track_nodes=(0.0,))
    i0 = chain.index_of(0.0)
    est = float(np.mean(stats.occupation[:, 0])) / chain.m_cell[i0]
    target = float(np.sqrt(2.0 / np.pi))
    rel = abs(est - target) / target
    ok = rel <= 0.03
    _announce(7, ok, f"Brownian mean local time at 0 by T=1: {est:.4f} vs "
                     f"{target:.4f} (rel err {rel:.3%}, tol 3%)")
    assert ok


def test_criterion_8_qvip_rp_verdicts():
    t0 = time.perf_counter()
    model = cat.fat_cantor_model(depth=4, u0=0.5, r=0.1)
    v6 = market_verdicts(model, build_nu(model))
    lam = v6.evidence["lambda_qprime_zero"]
    ok = (not v6.nip) and v6.qvip_exists and (not v6.rp_holds)
    ok = ok and lam == svc_measure(4) == 0.53125

    model5 = cat.skew_model(kappa=0.75, x0=0.0, r=0.1)
    v5 = market_verdicts(model5, build_nu(model5))
    ok = ok and (not v5.qvip_exists) and v5.rp_holds
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _announce(8, ok, f"depth-4 flat-set market: nip=false qvip=true rp=false, "
                     f"lambda(q'=0)={lam} exact; skew market: qvip=false rp=true "
                     f"({elapsed:.2f}s)")
    assert ok


def test_criterion_9_domination(mc_runs):
    ok = True
    # quadratic-variation strategy on the flat-set example: growth only at jumps
    fc = mc_runs["fat-cantor"]
    theta_bar = build_theta_bar(fc["model"], fc["bundle"])
    chain = build_chain(fc["model"], BUDGET.h)
    same = np.array_equal(
        np.asarray(fc["theta"].evaluate(chain.grid)),
        np.asarray(theta_bar.evaluate(chain.grid)),
    )
    ok = ok and same  # theta == theta_bar here, so the theta run applies
    fc_stats = fc["report"].details["stats"]
    ok = ok and not fc_stats.hold_nonzero_cf.any()

    # local-time strategy on the sticky example: growth during holds
    st_stats = mc_runs["bachelier-sticky"]["report"].details["stats"]
    earned = st_stats.v_cf != 0.0
    ok = ok and bool(np.all(st_stats.hold_nonzero_cf[earned])) and earned.any()

    # no accepted increasing profit ever grows where <S> grows
    qv_growth_clean = True
    for name in FAILING:
        report = mc_runs[name]["report"]
        if report.verdict == "increasing_profit" and report.details["qv_growth_violation_any"]:
            qv_growth_clean = False
    ok = ok and qv_growth_clean
    _announce(9, ok, "QV-domination holds on all flat-set paths, fails on sticky "
                     "holds, and no accepted profit grows with the martingale part")
    assert ok


def test_criterion_10_falsification(mc_runs):
    ok = True
    # H = 1 everywhere on the skew example: condition (i) fails, V wiggles
    skew = mc_runs["bachelier-skew"]
    lo, hi = skew["bundle"].window
    h_one = FeedbackStrategy(plus_set=BorelSet.make([(lo, hi)]))
    rep1 = classify_ip(skew["model"], skew["bundle"], h_one, BUDGET)
    ok = ok and not rep1.condition_i_ok and rep1.verdict == "not"
    stats1 = rep1.details["stats"]
    frac_nonmono = float(np.mean(stats1.min_inc_int < -1e-12))
    ok = ok and frac_nonmono >= 0.99

    # H = -theta on the sticky example: condition (ii) fails, V turns negative
    st = mc_runs["bachelier-sticky"]
    rep2 = classify_ip(st["model"], st["bundle"], st["theta"].scaled(-1.0), BUDGET)
    sym = check_strategy_conditions(st["model"], st["bundle"], st["theta"].scaled(-1.0))
    ok = ok and sym.condition_i and not sym.condition_ii and rep2.verdict == "not"
    p_neg = rep2.details["p_negative_terminal"]
    se = float(np.sqrt(p_neg * (1.0 - p_neg) / BUDGET.n_paths))
    ok = ok and p_neg - 3.0 * se > 0.0
    _announce(10, ok, f"H=1 fails the deactivation condition with non-monotone V on "
                      f"{frac_nonmono:.1%} of paths; H=-theta fails the alignment "
                      f"condition with P(V_T<0)-3SE = {p_neg - 3 * se:.3f} > 0")
    assert ok
