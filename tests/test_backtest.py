import numpy as np
import pytest

from gdarb import backtest
from gdarb import catalog as cat
from gdarb import chain as chain_mod
from gdarb.arbitrage import (
    FeedbackStrategy,
    build_nu,
    build_theta,
    build_theta_bar,
    check_strategy_conditions,
)
from gdarb.backtest import (
    MCConfig,
    ValueSeries,
    classify_ip,
    closed_form_value,
    domination_check,
    integral_value,
    run_ensemble,
    value_series,
)
from gdarb.borel import BorelSet
from gdarb.chain import build_chain, sample_path
from path_oracles import hitting_time, occupation, qv_series


def brownian_model(r=0.0):
    return cat.sticky_model(xi=0.5, rho=0.0, x0=0.0, r=r)


def _setup(model, h, radius=10.0):
    bundle = build_nu(model)
    chain = build_chain(model, h, radius)
    return bundle, chain


# ---------------------------------------------------------------------------
# single-path value routes
# ---------------------------------------------------------------------------


def test_zero_strategy_zero_value():
    model = cat.sticky_model(xi=0.5, rho=2.0, x0=0.0, r=0.1)
    bundle, chain = _setup(model, 0.05)
    p = sample_path(chain, T=1.0, seed=1)
    H = FeedbackStrategy()
    vi = integral_value(p, chain, bundle, H, T=1.0)
    vc = closed_form_value(p, chain, bundle, H, T=1.0)
    assert np.all(vi.values == 0.0)
    assert np.all(vc.values == 0.0)


def test_constant_strategy_telescopes():
    # r = 0, H = 1: the integral route telescopes to q(U_T) - q(u0) exactly
    model = brownian_model(r=0.0)
    bundle, chain = _setup(model, 0.05)
    p = sample_path(chain, T=1.0, seed=3)
    H = FeedbackStrategy(plus_set=BorelSet.make([(-100.0, 100.0)]))
    v = integral_value(p, chain, bundle, H, T=1.0)
    u_T = chain.grid[p.states[np.searchsorted(p.times, 1.0, side="right") - 1]]
    q = chain.model.q
    assert v.values[-1] == pytest.approx(float(q(u_T)) - float(q(0.0)), abs=1e-10)


def test_value_series_invariants():
    model = cat.skew_model(kappa=0.75, x0=0.0, r=0.1)
    bundle, chain = _setup(model, 0.05)
    p = sample_path(chain, T=0.5, seed=2)
    theta = build_theta(bundle)
    for series in (
        integral_value(p, chain, bundle, theta, T=0.5),
        closed_form_value(p, chain, bundle, theta, T=0.5),
    ):
        assert series.times[0] == 0.0 and series.values[0] == 0.0
        assert np.all(np.isfinite(series.values))
        assert series.times[-1] == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        ValueSeries(np.array([0.0, 1.0]), np.array([1.0, 2.0]), "integral")


def test_gain_linearity():
    model = cat.sticky_model(xi=0.5, rho=2.0, x0=0.5, r=0.1)
    bundle, chain = _setup(model, 0.05)
    p = sample_path(chain, T=1.0, seed=5)
    theta = build_theta(bundle)
    v1 = integral_value(p, chain, bundle, theta, T=1.0)
    v2 = integral_value(p, chain, bundle, theta.scaled(2.0), T=1.0)
    assert np.array_equal(v2.values, 2.0 * v1.values)


def test_closed_form_refuses_off_zero_set():
    model = cat.skew_model(kappa=0.75, x0=0.0, r=0.1)
    bundle, chain = _setup(model, 0.05)
    p = sample_path(chain, T=0.5, seed=2)
    H = FeedbackStrategy(plus_set=BorelSet.make([(-10.0, 10.0)]))
    with pytest.raises(ValueError, match="zero set"):
        closed_form_value(p, chain, bundle, H, T=0.5)


def test_absorbed_path_closed_form_exact():
    # the absorbed clock gives b(e^{-r T_b} - e^{-r T}) pathwise
    b, r, T = 1.0, 0.2, 1.0
    model = cat.es_model(b=b, sigma=0.5, mu=0.0, x0=1.05, r=r)
    bundle, chain = _setup(model, 0.05, radius=5.0)
    theta = build_theta(bundle)
    n_abs = 0
    for pid in range(60):
        p = sample_path(chain, T=T, seed=13, path_id=pid)
        if not (p.absorbed and p.absorption_time < T):
            continue
        n_abs += 1
        expected = b * (np.exp(-r * p.absorption_time) - np.exp(-r * T))
        vi = integral_value(p, chain, bundle, theta, T=T)
        vc = closed_form_value(p, chain, bundle, theta, T=T)
        assert vi.values[-1] == pytest.approx(expected, abs=1e-12)
        assert vc.values[-1] == pytest.approx(expected, abs=1e-12)
        # value is zero until absorption
        before = vi.times < p.absorption_time
        assert np.all(vi.values[: before.sum()] == 0.0)
    assert n_abs > 10


def test_sticky_monotone_closed_form_only():
    model = cat.sticky_model(xi=0.5, rho=2.0, x0=0.5, r=0.1)
    bundle, chain = _setup(model, 0.02)
    theta = build_theta(bundle)
    saw_negative_int = False
    for pid in range(10):
        p = sample_path(chain, T=1.0, seed=7, path_id=pid)
        vc = closed_form_value(p, chain, bundle, theta, T=1.0)
        assert np.min(np.diff(vc.values)) >= 0.0
        assert vc.values[-1] > 0.0
        vi = integral_value(p, chain, bundle, theta, T=1.0)
        if np.min(np.diff(vi.values)) < -1e-12:
            saw_negative_int = True
    # the direct Riemann route wiggles at the atom by O(h): that is exactly
    # why monotonicity is assessed on the finite-variation representation
    assert saw_negative_int


# ---------------------------------------------------------------------------
# domination checks
# ---------------------------------------------------------------------------


def test_domination_quadratic_variation_strategy():
    model = cat.fat_cantor_model(depth=3, u0=0.5, r=0.1)
    bundle, chain = _setup(model, 0.01, radius=3.0)
    theta_bar = build_theta_bar(model, bundle)
    for pid in range(5):
        p = sample_path(chain, T=1.0, seed=19, path_id=pid)
        rep = domination_check(p, chain, bundle, theta_bar, T=1.0)
        assert rep.qv_dominated
        assert not rep.qv_growth_violation
        assert rep.n_jump_nonzero > 0


def test_domination_local_time_strategy():
    model = cat.sticky_model(xi=0.5, rho=2.0, x0=0.5, r=0.1)
    bundle, chain = _setup(model, 0.02)
    theta = build_theta(bundle)
    p = sample_path(chain, T=1.0, seed=23)
    rep = domination_check(p, chain, bundle, theta, T=1.0)
    # the value grows during sticky holds, where <U> is flat
    assert not rep.qv_dominated
    assert not rep.qv_growth_violation
    assert rep.n_hold_nonzero > 0 and rep.n_jump_nonzero == 0


@pytest.mark.parametrize("name", [entry.name for entry in cat.catalog()])
def test_value_series_matches_single_paths(name, monkeypatch):
    # booking several paths against one set of node tables gives each path's
    # single-path series bit for bit, and builds the tables once per call
    model = cat.get_entry(name).build()
    bundle, chain = _setup(model, 0.05)
    theta = build_theta(bundle)
    unit = FeedbackStrategy(plus_set=BorelSet.make([bundle.window]))
    paths = [sample_path(chain, T=1.0, seed=23, path_id=pid) for pid in range(10)]
    node_tables = backtest._node_tables
    builds = []

    def counted(*args):
        builds.append(args)
        return node_tables(*args)

    for H in (theta, unit):
        singles = [[integral_value(p, chain, bundle, H, T=1.0)] for p in paths]
        routes = ("integral",)
        if check_strategy_conditions(model, bundle, H).condition_i:
            routes += ("closed_form",)
            for p, single in zip(paths, singles):
                single.append(closed_form_value(p, chain, bundle, H, T=1.0))
        builds.clear()
        with monkeypatch.context() as m:
            m.setattr(backtest, "_node_tables", counted)
            batch = list(value_series(paths, chain, bundle, H, 1.0, routes))
        assert len(builds) == 1
        assert len(batch) == len(paths)
        for got, want in zip(batch, singles):
            assert [s.route for s in got] == list(routes)
            for g, w in zip(got, want, strict=True):
                assert np.array_equal(g.times, w.times)
                assert np.array_equal(g.values, w.values)


# ---------------------------------------------------------------------------
# ensemble engine
# ---------------------------------------------------------------------------


def test_ensemble_matches_single_paths():
    model = cat.sticky_model(xi=0.5, rho=2.0, x0=0.5, r=0.1)
    bundle, chain = _setup(model, 0.05)
    theta = build_theta(bundle)
    cfg = MCConfig(n_paths=12, h=0.05, T=1.0, seed=41)
    stats = run_ensemble(chain, bundle, theta, cfg)
    for pid in range(12):
        p = sample_path(chain, T=1.0, seed=41, path_id=pid)
        vi = integral_value(p, chain, bundle, theta, T=1.0)
        vc = closed_form_value(p, chain, bundle, theta, T=1.0)
        assert stats.v_int[pid] == pytest.approx(vi.values[-1], abs=1e-12)
        assert stats.v_cf[pid] == pytest.approx(vc.values[-1], abs=1e-12)


def test_ensemble_matches_single_paths_absorbing():
    model = cat.es_model(b=1.0, sigma=0.5, mu=0.0, x0=1.05, r=0.2)
    bundle, chain = _setup(model, 0.05, radius=5.0)
    theta = build_theta(bundle)
    cfg = MCConfig(n_paths=20, h=0.05, T=1.0, seed=2)
    b_node = float(chain.grid[0])  # the absorbing level
    stats = run_ensemble(chain, bundle, theta, cfg, track_nodes=(b_node,))
    assert stats.absorbed.any()
    for pid in range(20):
        p = sample_path(chain, T=1.0, seed=2, path_id=pid)
        vi = integral_value(p, chain, bundle, theta, T=1.0)
        assert stats.v_int[pid] == pytest.approx(vi.values[-1], abs=1e-12)
        assert stats.absorbed[pid] == (p.absorbed and p.absorption_time < np.inf)
        # the absorbed tail: time at the absorbing node, absorption time and
        # the smallest increment agree with the single-path accounting
        occ = occupation(p, chain, T=1.0)[chain.index_of(b_node)]
        assert stats.occupation[pid, 0] == pytest.approx(occ, abs=1e-12)
        assert stats.absorption_times[pid] == p.absorption_time
        min_inc = min(0.0, float(np.min(np.diff(vi.values))))
        assert stats.min_inc_int[pid] == pytest.approx(min_inc, abs=1e-12)


def test_hold_reaching_the_horizon_ends_the_path():
    # h = 0.5 on Brownian motion: every holding time is exactly 0.25, so the
    # second hold of every path ends exactly at T = 0.5; the move there is
    # not taken, by the ensemble and along single paths alike
    model = brownian_model(r=0.0)
    bundle, chain = _setup(model, 0.5, radius=5.0)
    assert np.all(chain.dt == 0.25)
    unit = FeedbackStrategy(plus_set=BorelSet.make([(-5.0, 5.0)]))
    cfg = MCConfig(n_paths=8, h=0.5, T=0.5, seed=3)
    stats = run_ensemble(chain, bundle, unit, cfg)
    assert stats.v_int[0] == -0.5
    for pid in range(8):
        p = sample_path(chain, T=0.5, seed=3, path_id=pid)
        assert p.times[-1] == 0.5
        v = integral_value(p, chain, bundle, unit, T=0.5)
        assert v.values[-1] == stats.v_int[pid]
        assert v.times[-1] == 0.5
        jump_times, _, qv_s = qv_series(p, chain, T=0.5)
        assert np.all(jump_times < 0.5)
        assert qv_s[-1] == stats.qv_s[pid]
        report = domination_check(p, chain, bundle, unit, T=0.5, route="integral")
        assert report.n_jump_nonzero == 1
        # the node entered at T is not hit (unless the path was there before)
        if p.states[-1] not in p.states[:-1]:
            assert hitting_time(p, chain, chain.grid[p.states[-1]], T=0.5) == (0.5, False)


@pytest.mark.parametrize("name", [entry.name for entry in cat.catalog()])
def test_ensemble_sums_in_step_order(name):
    # every ensemble sum equals the running sum of the single path's
    # increments, bit for bit, and the extremes and flags match too
    model = cat.get_entry(name).build()
    bundle, chain = _setup(model, 0.05, radius=3.0)
    theta = build_theta(bundle)
    unit = FeedbackStrategy(plus_set=BorelSet.make([chain.window]))
    for H in (theta, unit):
        cfg = MCConfig(n_paths=10, h=0.05, T=1.0, seed=17)
        stats = run_ensemble(chain, bundle, H, cfg)
        tables = backtest._node_tables(chain, bundle, H)
        for pid in range(cfg.n_paths):
            book = backtest._steps(chain, tables, sample_path(chain, 1.0, 17, pid), 1.0).book
            int_hold, cf_hold, int_jump, cf_jump, dS, leak, clock = book
            for total, inc in (
                (stats.v_int, int_hold + int_jump),
                (stats.v_cf, cf_hold + cf_jump),
                (stats.qv_s, dS),
                (stats.emp_cond_i, leak),
                (stats.clock, clock),
            ):
                assert total[pid] == 0.0 + np.cumsum(inc)[-1]
            assert stats.min_inc_int[pid] == min(0.0, np.minimum(int_hold, int_jump).min())
            assert stats.min_inc_cf[pid] == min(0.0, np.minimum(cf_hold, cf_jump).min())
            assert stats.hold_nonzero_cf[pid] == np.any(cf_hold != 0.0)
            assert stats.qv_growth_trigger_int[pid] == np.any((int_jump != 0.0) & (dS != 0.0))


def test_ensemble_occupation_tracking():
    model = brownian_model()
    bundle, chain = _setup(model, 0.05, radius=3.0)
    cfg = MCConfig(n_paths=30, h=0.05, T=1.0, seed=6)
    stats = run_ensemble(chain, bundle, FeedbackStrategy(), cfg, track_nodes=(0.0,))
    i0 = chain.index_of(0.0)
    for pid in range(30):
        p = sample_path(chain, T=1.0, seed=6, path_id=pid)
        occ = occupation(p, chain, T=1.0)[i0]
        assert stats.occupation[pid, 0] == pytest.approx(occ, abs=1e-12)


def test_ensemble_step_budget(monkeypatch):
    model = brownian_model()
    bundle, chain = _setup(model, 0.05, radius=3.0)
    monkeypatch.setattr(chain_mod, "_STEP_BUDGET", 100)  # a path takes about 400 steps
    cfg = MCConfig(n_paths=3, h=0.05, T=1.0, seed=6)
    with pytest.raises(RuntimeError, match="step budget exceeded.* 100 steps"):
        run_ensemble(chain, bundle, FeedbackStrategy(), cfg)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_skew_increasing_profit():
    model = cat.skew_model(kappa=0.75, x0=0.0, r=0.1)
    bundle = build_nu(model)
    theta = build_theta(bundle)
    cfg = MCConfig(n_paths=400, h=0.01, T=1.0, seed=8)
    report = classify_ip(model, bundle, theta, cfg)
    assert report.verdict == "increasing_profit"
    assert report.condition_i_ok and report.condition_ii_ok
    assert report.monotone_fraction == 1.0
    assert report.p_positive_terminal - 3 * report.p_positive_se > 0
    assert report.route_agreement <= 0.05
    assert report.empirical_iii > 0.9
    assert not report.details["qv_growth_violation_any"]


def test_classify_nip_market_not():
    model = cat.reflected_model(mu=0.0, sigma=0.5, m1=2.0, u0=0.1, r=0.25)
    bundle = build_nu(model)
    theta = build_theta(bundle)
    cfg = MCConfig(n_paths=100, h=0.02, T=1.0, seed=9)
    report = classify_ip(model, bundle, theta, cfg)
    assert report.verdict == "not"
    assert np.all(report.details["v_cf"] == 0.0)
    assert np.all(report.details["v_int"] == 0.0)


def test_classify_minus_theta_not():
    model = cat.sticky_model(xi=0.5, rho=2.0, x0=0.5, r=0.1)
    bundle = build_nu(model)
    theta = build_theta(bundle)
    cfg = MCConfig(n_paths=200, h=0.02, T=1.0, seed=10)
    report = classify_ip(model, bundle, theta.scaled(-1.0), cfg)
    assert report.verdict == "not"
    assert not report.condition_ii_ok
    p_neg = report.details["p_negative_terminal"]
    se = np.sqrt(p_neg * (1 - p_neg) / cfg.n_paths)
    assert p_neg - 3 * se > 0


def test_classify_constant_strategy_not():
    model = cat.skew_model(kappa=0.75, x0=0.0, r=0.1)
    bundle = build_nu(model)
    H = FeedbackStrategy(plus_set=BorelSet.make([(-50.0, 50.0)]))
    cfg = MCConfig(n_paths=100, h=0.02, T=1.0, seed=11)
    report = classify_ip(model, bundle, H, cfg)
    assert report.verdict == "not"
    assert not report.condition_i_ok
    assert report.details["assessed_route"] == "integral"
    assert report.monotone_fraction < 1.0


def test_empirical_condition_i_zero_on_flat_support():
    model = cat.fat_cantor_model(depth=3, u0=0.5, r=0.1)
    bundle = build_nu(model)
    theta = build_theta(bundle)
    cfg = MCConfig(n_paths=50, h=0.01, T=0.5, seed=12)
    report = classify_ip(model, bundle, theta, cfg)
    # q' vanishes identically on the support, so the leak is exactly zero
    assert report.details["empirical_condition_i_max"] == 0.0


def test_stop_after_hitting_strategy():
    # deactivating after the first visit to a level still earns and then flattens
    model = cat.reflected_model(mu=0.0, sigma=0.5, m1=0.0, u0=0.1, r=0.0)
    bundle, chain = _setup(model, 0.05, radius=5.0)
    theta = build_theta(bundle)
    stopped = FeedbackStrategy(
        plus_set=theta.plus_set, minus_set=theta.minus_set, stop_after_hitting=0.5
    )
    found = False
    for pid in range(30):
        p = sample_path(chain, T=2.0, seed=14, path_id=pid)
        hit = np.nonzero(chain.grid[p.states] == 0.5)[0]
        v = closed_form_value(p, chain, bundle, stopped, T=2.0)
        v_full = closed_form_value(p, chain, bundle, theta, T=2.0)
        assert np.min(np.diff(v.values)) >= 0.0
        if len(hit) and p.times[hit[0]] < 2.0:
            t_hit = p.times[hit[0]]
            after = v.times >= t_hit
            # flat after the hitting time
            assert np.ptp(v.values[after]) == 0.0
            found = True
        else:
            assert np.array_equal(v.values, v_full.values)
    assert found


def test_ensemble_stop_matches_single_path():
    model = cat.reflected_model(mu=0.0, sigma=0.5, m1=0.0, u0=0.1, r=0.0)
    bundle, chain = _setup(model, 0.05, radius=5.0)
    theta = build_theta(bundle)
    stopped = FeedbackStrategy(
        plus_set=theta.plus_set, minus_set=theta.minus_set, stop_after_hitting=0.5
    )
    cfg = MCConfig(n_paths=15, h=0.05, T=2.0, seed=14)
    stats = run_ensemble(chain, bundle, stopped, cfg)
    for pid in range(15):
        p = sample_path(chain, T=2.0, seed=14, path_id=pid)
        vc = closed_form_value(p, chain, bundle, stopped, T=2.0)
        assert stats.v_cf[pid] == pytest.approx(vc.values[-1], abs=1e-12)
