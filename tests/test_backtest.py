import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    run_ensemble,
)
from gdarb.borel import BorelSet
from gdarb.chain import build_chain, sample_paths
from gdarb.model import ModelError
from path_oracles import book_path, hitting_time, occupation, per_step_path, qv_series


ROUTES = ("integral", "closed_form")


def brownian_model(r=0.0):
    return cat.sticky_model(xi=0.5, rho=0.0, x0=0.0, r=r)


def _setup(model, h, radius=10.0):
    bundle = build_nu(model)
    chain = build_chain(model, h, radius)
    return bundle, chain


def _path(chain, T, seed, path_id=0):
    """Path ``path_id`` of the chain, walked alone."""
    (path,) = sample_paths(chain, T, seed, range(path_id, path_id + 1))
    return path


def _recorded(chain, bundle, H, T, seed, n_paths=1, routes=ROUTES):
    """The value series the ensemble records for paths 0 to n_paths - 1:
    one tuple per path, one series per route."""
    cfg = MCConfig(n_paths=n_paths, h=chain.h, T=T, seed=seed)
    return run_ensemble(chain, bundle, H, cfg, series_paths=n_paths, routes=routes).series


# ---------------------------------------------------------------------------
# recorded value series
# ---------------------------------------------------------------------------


def test_zero_strategy_zero_value():
    model = cat.sticky_model(xi=0.5, rho=2.0, x0=0.0, r=0.1)
    bundle, chain = _setup(model, 0.05)
    ((vi, vc),) = _recorded(chain, bundle, FeedbackStrategy(), T=1.0, seed=1)
    assert np.all(vi.values == 0.0)
    assert np.all(vc.values == 0.0)


def test_constant_strategy_telescopes():
    # r = 0, H = 1: the integral route telescopes to q(U_T) - q(u0) exactly
    model = brownian_model(r=0.0)
    bundle, chain = _setup(model, 0.05)
    p = _path(chain, T=1.0, seed=3)
    H = FeedbackStrategy(plus_set=BorelSet.make([(-100.0, 100.0)]))
    ((v,),) = _recorded(chain, bundle, H, T=1.0, seed=3, routes=("integral",))
    u_T = chain.grid[p.states[np.searchsorted(p.times, 1.0, side="right") - 1]]
    q = chain.model.q
    assert v.values[-1] == pytest.approx(float(q(u_T)) - float(q(0.0)), abs=1e-10)


def test_value_series_invariants():
    model = cat.skew_model(kappa=0.75, x0=0.0, r=0.1)
    bundle, chain = _setup(model, 0.05)
    p = _path(chain, T=0.5, seed=2)
    theta = build_theta(bundle)
    ((vi, vc),) = _recorded(chain, bundle, theta, T=0.5, seed=2)
    assert vi.times is vc.times  # the routes share the path's times
    assert np.array_equal(vi.times[:-1], p.times[p.times < 0.5])
    for series in (vi, vc):
        assert series.times[0] == 0.0 and series.values[0] == 0.0
        assert np.all(np.isfinite(series.values))
        assert series.times[-1] == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        ValueSeries(np.array([0.0, 1.0]), np.array([1.0, 2.0]), "integral")


def test_gain_linearity():
    model = cat.sticky_model(xi=0.5, rho=2.0, x0=0.5, r=0.1)
    bundle, chain = _setup(model, 0.05)
    theta = build_theta(bundle)
    ((v1,),) = _recorded(chain, bundle, theta, T=1.0, seed=5, routes=("integral",))
    ((v2,),) = _recorded(chain, bundle, theta.scaled(2.0), T=1.0, seed=5, routes=("integral",))
    assert np.array_equal(v2.values, 2.0 * v1.values)


def test_absorbed_path_closed_form_exact():
    # the absorbed clock gives b(e^{-r T_b} - e^{-r T}) pathwise
    b, r, T = 1.0, 0.2, 1.0
    model = cat.es_model(b=b, sigma=0.5, mu=0.0, x0=1.05, r=r)
    bundle, chain = _setup(model, 0.05, radius=5.0)
    theta = build_theta(bundle)
    n_abs = 0
    paths = sample_paths(chain, T, 13, range(60))
    for p, (vi, vc) in zip(paths, _recorded(chain, bundle, theta, T, 13, n_paths=60), strict=True):
        if not (p.absorbed and p.absorption_time < T):
            continue
        n_abs += 1
        expected = b * (np.exp(-r * p.absorption_time) - np.exp(-r * T))
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
    for vi, vc in _recorded(chain, bundle, theta, 1.0, 7, n_paths=10):
        assert np.min(np.diff(vc.values)) >= 0.0
        assert vc.values[-1] > 0.0
        if np.min(np.diff(vi.values)) < -1e-12:
            saw_negative_int = True
    # the direct Riemann route wiggles at the atom by O(h): that is exactly
    # why monotonicity is assessed on the finite-variation representation
    assert saw_negative_int


# ---------------------------------------------------------------------------
# domination checks: the ensemble's per-path flags
# ---------------------------------------------------------------------------


def test_domination_quadratic_variation_strategy():
    model = cat.fat_cantor_model(depth=3, u0=0.5, r=0.1)
    bundle, chain = _setup(model, 0.01, radius=3.0)
    theta_bar = build_theta_bar(model, bundle)
    cfg = MCConfig(n_paths=5, h=0.01, T=1.0, seed=19)
    stats = run_ensemble(chain, bundle, theta_bar, cfg)
    # the value moves only at jumps (where <U> grows), never where <S> grows
    assert not stats.hold_nonzero_cf.any()
    assert not stats.qv_growth_trigger_cf.any()
    assert np.all(stats.v_cf > 0.0)  # so every path booked a nonzero jump


def test_domination_local_time_strategy():
    model = cat.sticky_model(xi=0.5, rho=2.0, x0=0.5, r=0.1)
    bundle, chain = _setup(model, 0.02)
    theta = build_theta(bundle)
    stats = run_ensemble(chain, bundle, theta, MCConfig(n_paths=1, h=0.02, T=1.0, seed=23))
    # the value grows during sticky holds, where <U> is flat; q' = 1, so
    # <S> grows at every jump and no jump books value
    assert stats.hold_nonzero_cf[0]
    assert not stats.qv_growth_trigger_cf[0]


@pytest.mark.parametrize("name", [entry.name for entry in cat.catalog()])
def test_value_series_matches_single_paths(name, monkeypatch):
    # the series the ensemble records for several paths are, bit for bit,
    # each path's series as the per-step booking oracle has it, and the
    # ensemble builds its node tables once
    model = cat.get_entry(name).build()
    bundle, chain = _setup(model, 0.05)
    theta = build_theta(bundle)
    unit = FeedbackStrategy(plus_set=BorelSet.make([bundle.window]))
    paths = [per_step_path(chain, 1.0, 23, pid) for pid in range(10)]
    node_tables = backtest._node_tables
    builds = []

    def counted(*args):
        builds.append(args)
        return node_tables(*args)

    for H in (theta, unit):
        routes = ("integral",)
        if check_strategy_conditions(model, bundle, H).condition_i:
            routes += ("closed_form",)
        builds.clear()
        with monkeypatch.context() as m:
            m.setattr(backtest, "_node_tables", counted)
            batch = _recorded(chain, bundle, H, 1.0, 23, n_paths=len(paths), routes=routes)
        assert len(builds) == 1
        assert len(batch) == len(paths)
        for got, p in zip(batch, paths):
            want = book_path(p, chain, bundle, H, 1.0)
            assert [s.route for s in got] == list(routes)
            for g in got:
                assert np.array_equal(g.times, want.times)
                assert np.array_equal(g.values, want.values(g.route))


# ---------------------------------------------------------------------------
# ensemble engine
# ---------------------------------------------------------------------------


def _assert_sums_match_oracle(stats, pid, book):
    """The ensemble's sums and minima of path ``pid`` against its per-step
    book."""
    for field, inc in (
        ("v_int", book.int_hold + book.int_jump),
        ("v_cf", book.cf_hold + book.cf_jump),
        ("qv_s", book.dS),
        ("emp_cond_i", book.leak),
        ("clock", book.clock),
    ):
        assert getattr(stats, field)[pid] == pytest.approx(inc.sum(), abs=1e-12), field
    assert stats.min_inc_int[pid] == pytest.approx(book.min_increment("integral"), abs=1e-12)
    assert stats.min_inc_cf[pid] == pytest.approx(book.min_increment("closed_form"), abs=1e-12)


def test_ensemble_matches_single_paths():
    # theta on a sticky atom (value in holds) and on the flat stretches of
    # the fat-Cantor scale (value at jumps, through nu's density)
    for model in (
        cat.sticky_model(xi=0.5, rho=2.0, x0=0.5, r=0.1),
        cat.fat_cantor_model(depth=3, u0=0.5, r=0.1),
    ):
        bundle, chain = _setup(model, 0.05)
        theta = build_theta(bundle)
        cfg = MCConfig(n_paths=12, h=0.05, T=1.0, seed=41)
        stats = run_ensemble(chain, bundle, theta, cfg)
        assert np.any(stats.v_cf > 0.0)
        for pid in range(12):
            p = per_step_path(chain, 1.0, 41, pid)
            _assert_sums_match_oracle(stats, pid, book_path(p, chain, bundle, theta, 1.0))
            assert stats.n_steps[pid] == len(p.states) - 1


def test_ensemble_matches_single_paths_absorbing():
    model = cat.es_model(b=1.0, sigma=0.5, mu=0.0, x0=1.05, r=0.2)
    bundle, chain = _setup(model, 0.05, radius=5.0)
    theta = build_theta(bundle)
    unit = FeedbackStrategy(plus_set=BorelSet.make([chain.window]))
    cfg = MCConfig(n_paths=20, h=0.05, T=1.0, seed=2)
    b_node = float(chain.grid[0])  # the absorbing level
    for H in (theta, unit):
        stats = run_ensemble(chain, bundle, H, cfg, track_nodes=(b_node,))
        assert stats.absorbed.any()
        for pid in range(20):
            p = per_step_path(chain, 1.0, 2, pid)
            _assert_sums_match_oracle(stats, pid, book_path(p, chain, bundle, H, 1.0))
            assert stats.absorbed[pid] == p.absorbed
            # the absorbed tail: time at the absorbing node and absorption
            # time agree with the per-step path
            occ = occupation(p, chain, T=1.0)[chain.index_of(b_node)]
            assert stats.occupation[pid, 0] == pytest.approx(occ, abs=1e-12)
            assert stats.absorption_times[pid] == p.absorption_time


def test_hold_reaching_the_horizon_ends_the_path():
    # h = 0.5 on Brownian motion: every holding time is exactly 0.25, so the
    # second hold of every path ends exactly at T = 0.5; the move there is
    # not taken, by the ensemble and along single paths alike
    model = brownian_model(r=0.0)
    bundle, chain = _setup(model, 0.5, radius=5.0)
    assert np.all(chain.dt == 0.25)
    unit = FeedbackStrategy(plus_set=BorelSet.make([(-5.0, 5.0)]))
    cfg = MCConfig(n_paths=8, h=0.5, T=0.5, seed=3)
    stats = run_ensemble(chain, bundle, unit, cfg, series_paths=8, routes=("integral",))
    assert stats.v_int[0] == -0.5
    paths = sample_paths(chain, 0.5, 3, range(8))
    for pid, (p, (v,)) in enumerate(zip(paths, stats.series, strict=True)):
        assert p.times[-1] == 0.5
        assert v.values[-1] == stats.v_int[pid]
        assert v.times[-1] == 0.5
        jump_times, _, qv_s = qv_series(p, chain, T=0.5)
        assert np.all(jump_times < 0.5)
        assert qv_s[-1] == stats.qv_s[pid]
        assert np.count_nonzero(book_path(p, chain, bundle, unit, 0.5).int_jump) == 1
        # the node entered at T is not hit (unless the path was there before)
        if p.states[-1] not in p.states[:-1]:
            assert hitting_time(p, chain, chain.grid[p.states[-1]], T=0.5) == (0.5, False)


@pytest.mark.parametrize("name", [entry.name for entry in cat.catalog()])
def test_ensemble_sums_in_step_order(name):
    # every ensemble sum equals the running sum of the per-step oracle's
    # increments, bit for bit, and the extremes and flags match too; each
    # recorded series is that running sum
    model = cat.get_entry(name).build()
    bundle, chain = _setup(model, 0.05, radius=3.0)
    theta = build_theta(bundle)
    unit = FeedbackStrategy(plus_set=BorelSet.make([chain.window]))
    for H in (theta, unit):
        cfg = MCConfig(n_paths=10, h=0.05, T=1.0, seed=17)
        stats = run_ensemble(chain, bundle, H, cfg, series_paths=cfg.n_paths)
        assert len(stats.series) == cfg.n_paths
        for pid, series in enumerate(stats.series):
            book = book_path(per_step_path(chain, 1.0, 17, pid), chain, bundle, H, 1.0)
            _, int_hold, cf_hold, int_jump, cf_jump, dS, leak, clock = book
            for total, inc in (
                (stats.v_int, int_hold + int_jump),
                (stats.v_cf, cf_hold + cf_jump),
                (stats.qv_s, dS),
                (stats.emp_cond_i, leak),
                (stats.clock, clock),
            ):
                assert total[pid] == 0.0 + np.cumsum(inc)[-1]
            for s, total in zip(series, (stats.v_int, stats.v_cf), strict=True):
                assert np.array_equal(s.times, book.times)
                assert np.array_equal(s.values, book.values(s.route))
                assert total[pid] == 0.0 + s.values[-1]
            assert stats.min_inc_int[pid] == min(0.0, np.minimum(int_hold, int_jump).min())
            assert stats.min_inc_cf[pid] == min(0.0, np.minimum(cf_hold, cf_jump).min())
            assert stats.hold_nonzero_cf[pid] == np.any(cf_hold != 0.0)
            assert stats.qv_growth_trigger_int[pid] == np.any((int_jump != 0.0) & (dS != 0.0))


_SUMS = ("v_int", "v_cf", "qv_s", "emp_cond_i", "clock")
_MINIMA = ("min_inc_int", "min_inc_cf")
_STATS = tuple(f for f in backtest.EnsembleStats.__dataclass_fields__ if f != "series")


@pytest.mark.parametrize("name", [entry.name for entry in cat.catalog()])
@settings(max_examples=8)
@given(
    draw=st.none() | st.integers(0, 2**32 - 1),
    h=st.sampled_from([0.05, 0.02]),
    T=st.sampled_from([0.3, 1.0, 2.0]),
    n_paths=st.integers(1, 40),
    strategy=st.sampled_from(["theta", "unit", "stopped"]),
    stop_offset=st.integers(-3, 3),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_ensemble_does_not_depend_on_batching(
    name, draw, h, T, n_paths, strategy, stop_offset, seed, data
):
    # one batching against another: the default rounds, rounds of one row
    # and 128 moves, and each path booked alone by the per-step oracle give
    # the same bits, whether or not the first paths' series are recorded
    entry = cat.get_entry(name)
    params = entry.params()
    if draw is not None:
        params = entry.sample_params(np.random.default_rng(draw))
    try:
        bundle, chain = _setup(entry.build(**params), h, radius=3.0)
    except ModelError:  # a drawn start or atom off the grid: the defaults, at the drawn rate
        bundle, chain = _setup(entry.build(**entry.params(r=params["r"])), h, radius=3.0)
    theta = build_theta(bundle)
    node = float(chain.grid[np.clip(chain.start_idx + stop_offset, 0, chain.n_nodes - 1)])
    H = {
        "theta": theta,
        "unit": FeedbackStrategy(plus_set=BorelSet.make([chain.window])),
        "stopped": FeedbackStrategy(theta.plus_set, theta.minus_set, stop_after_hitting=node),
    }[strategy]
    track = (float(chain.grid[chain.start_idx]), float(chain.grid[0]), node)
    cfg = MCConfig(n_paths=n_paths, h=h, T=T, seed=seed)
    series_paths = data.draw(st.integers(0, n_paths + 2), label="series_paths")
    stats = run_ensemble(chain, bundle, H, cfg, track_nodes=track, series_paths=series_paths)
    unrecorded = run_ensemble(chain, bundle, H, cfg, track_nodes=track)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain_mod, "_CELLS", 128)
        one_row = run_ensemble(chain, bundle, H, cfg, track_nodes=track, series_paths=series_paths)
    assert unrecorded.series == ()
    for other in (unrecorded, one_row):
        for field in _STATS:
            assert np.array_equal(getattr(stats, field), getattr(other, field)), field
        for field in _SUMS + _MINIMA:
            bits = getattr(stats, field).view(np.uint64)
            assert np.array_equal(bits, getattr(other, field).view(np.uint64)), field
    assert len(stats.series) == len(one_row.series) == min(series_paths, n_paths)
    for series, other in zip(stats.series, one_row.series):
        assert [s.route for s in series] == [s.route for s in other] == list(ROUTES)
        for s, o in zip(series, other):
            assert np.array_equal(s.times, o.times)
            assert np.array_equal(s.values.view(np.uint64), o.values.view(np.uint64))

    alone = {field: np.empty(n_paths) for field in _SUMS}
    for pid in range(n_paths):
        p = per_step_path(chain, T, seed, pid)
        book = book_path(p, chain, bundle, H, T)
        _, int_hold, cf_hold, int_jump, cf_jump, dS, leak, clock = book
        for field, inc in zip(_SUMS, (int_hold + int_jump, cf_hold + cf_jump, dS, leak, clock)):
            alone[field][pid] = 0.0 + np.cumsum(inc)[-1]
        assert stats.min_inc_int[pid] == min(0.0, np.minimum(int_hold, int_jump).min())
        assert stats.min_inc_cf[pid] == min(0.0, np.minimum(cf_hold, cf_jump).min())
        assert stats.hold_nonzero_int[pid] == np.any(int_hold != 0.0)
        assert stats.hold_nonzero_cf[pid] == np.any(cf_hold != 0.0)
        assert stats.qv_growth_trigger_int[pid] == np.any((int_jump != 0.0) & (dS != 0.0))
        assert stats.qv_growth_trigger_cf[pid] == np.any((cf_jump != 0.0) & (dS != 0.0))
        assert stats.absorbed[pid] == p.absorbed
        assert stats.absorption_times[pid] == p.absorption_time
        assert stats.window_hit[pid] == p.window_hit
        assert stats.n_steps[pid] == len(p.states) - 1
        occ = occupation(p, chain, T)
        assert np.array_equal(stats.occupation[pid], occ[[chain.index_of(u) for u in track]])
        if pid < series_paths:
            for s in stats.series[pid]:
                assert np.array_equal(s.times, book.times)
                want = book.values(s.route)
                assert np.array_equal(s.values.view(np.uint64), want.view(np.uint64))
    for field in _SUMS:
        assert np.array_equal(getattr(stats, field).view(np.uint64), alone[field].view(np.uint64))


@pytest.mark.parametrize("n_rows", [1, 2, 3, 7, 64, 600])
@pytest.mark.parametrize("width", range(1, 9))
def test_step_sums_add_rows_in_order(width, n_rows):
    # the step-order sum of every ensemble statistic, bit for bit a loop
    # over the rows; einsum alone sums a single column pairwise
    rng = np.random.default_rng([width, n_rows])
    rows = rng.standard_normal((n_rows, width)) * 10.0 ** rng.integers(-12, 12, (n_rows, width))
    want = np.zeros(width)
    for row in rows:
        want = want + row
    got = backtest._step_sums(rows)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


_ALIKE = ("qv_s", "n_steps", "absorbed", "absorption_times", "window_hit", "occupation")


@pytest.mark.parametrize("name", [entry.name for entry in cat.catalog()])
@settings(max_examples=3)
@given(draw=st.integers(0, 2**32 - 1), h=st.sampled_from([0.05, 0.02]))
def test_what_does_not_depend_on_H_is_booked_alike(name, draw, h):
    # <S>, the walk and the occupation are booked on every hold, the same
    # bits whatever the strategy; the zero strategy books exact zeros
    entry = cat.get_entry(name)
    params = entry.sample_params(np.random.default_rng(draw))
    try:
        bundle, chain = _setup(entry.build(**params), h, radius=3.0)
    except ModelError:  # a drawn start or atom off the grid: the defaults, at the drawn rate
        bundle, chain = _setup(entry.build(**entry.params(r=params["r"])), h, radius=3.0)
    theta = build_theta(bundle)
    start = float(chain.grid[chain.start_idx])
    stop = float(chain.grid[min(chain.start_idx + 2, chain.n_nodes - 1)])
    strategies = (
        theta,
        FeedbackStrategy(plus_set=BorelSet.make([chain.window])),
        FeedbackStrategy(),
        FeedbackStrategy(theta.plus_set, theta.minus_set, stop_after_hitting=stop),
    )
    cfg = MCConfig(n_paths=20, h=h, T=1.0, seed=draw)
    track = (start, float(chain.grid[0]))
    runs = [run_ensemble(chain, bundle, H, cfg, track_nodes=track) for H in strategies]
    for field in _ALIKE:
        want = np.ascontiguousarray(getattr(runs[0], field))
        for other in runs[1:]:
            got = np.ascontiguousarray(getattr(other, field))
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), field
    zero = runs[2]
    for field in ("v_int", "v_cf", "clock", "emp_cond_i"):
        assert not np.ascontiguousarray(getattr(zero, field)).view(np.uint64).any(), field


def test_ensemble_occupation_tracking():
    model = brownian_model()
    bundle, chain = _setup(model, 0.05, radius=3.0)
    cfg = MCConfig(n_paths=30, h=0.05, T=1.0, seed=6)
    stats = run_ensemble(chain, bundle, FeedbackStrategy(), cfg, track_nodes=(0.0,))
    i0 = chain.index_of(0.0)
    for pid, p in enumerate(sample_paths(chain, 1.0, 6, range(30))):
        occ = occupation(p, chain, T=1.0)[i0]
        assert stats.occupation[pid, 0] == pytest.approx(occ, abs=1e-12)


@pytest.mark.parametrize("seed", [2**64, -1])
def test_seed_outside_uint64_rejected(seed):
    chain = build_chain(brownian_model(), h=0.05, radius=2.0)
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        MCConfig(n_paths=1, h=0.05, T=1.0, seed=seed)
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        next(sample_paths(chain, 1.0, seed, range(1)))
    assert len(_path(chain, T=0.1, seed=2**64 - 1).states) > 1


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
    paths = sample_paths(chain, 2.0, 14, range(30))
    routes = ("closed_form",)
    for p, (v,), (v_full,) in zip(
        paths,
        _recorded(chain, bundle, stopped, 2.0, 14, n_paths=30, routes=routes),
        _recorded(chain, bundle, theta, 2.0, 14, n_paths=30, routes=routes),
        strict=True,
    ):
        hit = np.nonzero(chain.grid[p.states] == 0.5)[0]
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
    n_stopped = 0
    for pid in range(15):
        p = per_step_path(chain, 2.0, 14, pid)
        book = book_path(p, chain, bundle, stopped, 2.0)
        _assert_sums_match_oracle(stats, pid, book)
        n_stopped += book.values("closed_form")[-1] < book_path(
            p, chain, bundle, theta, 2.0
        ).values("closed_form")[-1]
    assert n_stopped > 0  # the stop takes value from some paths
