import dataclasses
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gdarb import backtest
from gdarb import catalog as cat
from gdarb import chain as chain_mod
from gdarb.arbitrage import FeedbackStrategy, build_nu
from gdarb.backtest import EnsembleStats, MCConfig, run_ensemble
from gdarb.borel import BorelSet
from gdarb.chain import (
    ABSORBING,
    INTERIOR,
    REFLECT_DOWN,
    REFLECT_UP,
    GridChain,
    build_chain,
    sample_paths,
)
from gdarb.model import ModelError
from gdarb.piecewise import PiecewiseFn, Poly
from path_oracles import hitting_time, local_time_total, occupation, per_step_path, qv_series


def brownian_model(r=0.0):
    return cat.sticky_model(xi=0.5, rho=0.0, x0=0.0, r=r)


# ---------------------------------------------------------------------------
# holding times against closed-form exit-time oracles
# ---------------------------------------------------------------------------


def test_holding_times_brownian():
    # expected exit time of (u-h, u+h) for Brownian motion is h^2
    chain = build_chain(brownian_model(), h=0.1, radius=2.0)
    interior = chain.node_type == INTERIOR
    assert np.allclose(chain.dt[interior], 0.01, rtol=0, atol=1e-14)
    # truncation edges reflect with the one-sided oracle value h^2
    assert chain.node_type[0] == REFLECT_UP and chain.node_type[-1] == REFLECT_DOWN
    assert chain.window_edge[0] and chain.window_edge[-1]
    assert chain.dt[0] == pytest.approx(0.01, abs=1e-14)
    assert chain.dt[-1] == pytest.approx(0.01, abs=1e-14)


def test_holding_time_sticky_node():
    # a speed atom of mass rho at xi adds h * rho to the exit time
    h, rho = 0.05, 2.0
    model = cat.sticky_model(xi=0.5, rho=rho, x0=0.0, r=0.1)
    chain = build_chain(model, h=h, radius=2.0)
    i = chain.index_of(0.5)
    assert chain.dt[i] == pytest.approx(h**2 + h * rho, abs=1e-14)
    assert chain.m_cell[i] == pytest.approx(h + rho, abs=1e-14)


def test_atom_outside_the_grid_is_outside_the_chain():
    # the grid ends at 50.0; a speed atom at 50.02 lies past it, and the
    # edge node holds as if the atom were far away
    h = 0.05
    near, far = (
        build_chain(cat.sticky_model(xi=xi, rho=2.0, x0=0.0, r=0.1), h) for xi in (50.02, 60.0)
    )
    assert near.grid[-1] == far.grid[-1] == 50.0
    assert np.array_equal(near.dt, far.dt) and np.array_equal(near.m_cell, far.m_cell)
    assert near.dt[-1] == pytest.approx(h**2, abs=1e-12)
    assert near.m_cell[-1] == pytest.approx(h / 2, abs=1e-12)
    # an atom inside the grid is placed on its node, and one off the nodes
    # raises rather than being skipped
    assert chain_mod._atom_nodes(near.grid, h, [(0.5, 1.0)]) == [(near.index_of(0.5), 1.0)]
    with pytest.raises(ValueError, match="not a grid node"):
        chain_mod._atom_nodes(near.grid, h, [(0.52, 1.0)])


def test_holding_times_nonuniform_speed():
    # quadrature oracle for the tent-kernel integral on a smooth speed density
    model = cat.reflected_model(mu=0.0, sigma=0.5, m1=0.0, u0=0.1, r=0.1)
    h = 0.05
    chain = build_chain(model, h=h, radius=1.0)
    dens = lambda y: float(model.m_ac(y))
    for i in (3, 7, 12):
        u = chain.grid[i]
        oracle, _ = quad(lambda y: (h - abs(y - u)) * dens(y), u - h, u + h)
        assert chain.dt[i] == pytest.approx(oracle, rel=1e-9)


def test_holding_time_reflecting_endpoint():
    # doubled one-sided tent integral at a reflecting wall, sticky included
    h, m1 = 0.05, 1.5
    model = cat.reflected_model(mu=0.0, sigma=0.5, m1=m1, u0=0.1, r=0.1)
    chain = build_chain(model, h=h, radius=1.0)
    assert chain.node_type[0] == REFLECT_UP
    assert not chain.window_edge[0]
    dens = lambda y: float(model.m_ac(y))
    oracle, _ = quad(lambda y: (h - y) * dens(y), 0.0, h)
    assert chain.dt[0] == pytest.approx(2.0 * (oracle + h * m1), rel=1e-9)


def test_absorbing_node():
    model = cat.es_model(b=1.0, sigma=0.5, mu=0.0, x0=1.2, r=0.1)
    chain = build_chain(model, h=0.05, radius=3.0)
    assert chain.node_type[0] == ABSORBING
    assert np.isinf(chain.dt[0])
    assert chain.grid[0] == 0.0


def test_commensurability_enforced():
    model = cat.sticky_model(xi=0.5, rho=2.0, x0=0.0, r=0.1)
    with pytest.raises(ModelError, match="^speed atom at 0.5 is not a grid node"):
        build_chain(model, h=0.3, radius=2.0)
    # the one node rule looks points up to within 1e-6 h, not to the nearest node
    chain = build_chain(model, h=0.05, radius=2.0)
    assert chain.index_of(0.5 + 0.04 * chain_mod._COMMENSURATE_RTOL) == chain.index_of(0.5)
    with pytest.raises(ModelError, match="^point at 0.50004 is not a grid node"):
        chain.index_of(0.50004)
    model = cat.sticky_model(xi=0.5, rho=2.0, x0=0.013, r=0.1)
    with pytest.raises(ModelError, match="^speed atom at 0.5 is not a grid node"):
        build_chain(model, h=0.05, radius=2.0)
    # a grid through an included end need not pass through the start
    model = cat.reflected_model(mu=0.0, sigma=0.5, m1=0.0, u0=0.113, r=0.1)
    with pytest.raises(ModelError, match="^start point at 0.11[0-9]* is not a grid node"):
        build_chain(model, h=0.05, radius=1.0)


def test_start_node():
    model = cat.reflected_model(mu=0.0, sigma=0.5, m1=0.0, u0=0.1, r=0.1)
    chain = build_chain(model, h=0.05, radius=1.0)
    assert chain.grid[chain.start_idx] == pytest.approx(0.1, abs=1e-12)


# ---------------------------------------------------------------------------
# the array pass of build_chain against a per-node loop
# ---------------------------------------------------------------------------


def _per_node_tables(chain):
    """(dt, m_cell) from scalar integrals, node by node."""
    model, h, grid = chain.model, chain.h, chain.grid
    m_ac = model.m_ac
    atom_mass = np.zeros(len(grid))
    for a, mass in model.m_atoms:
        for i, u in enumerate(grid):
            if abs(a - u) <= 1e-6 * h:
                atom_mass[i] += mass
    dt = np.empty(len(grid))
    m_cell = np.empty(len(grid))
    for i, u in enumerate(grid):
        c_lo = max(u - h / 2, grid[0])
        c_hi = min(u + h / 2, grid[-1])
        m_cell[i] = m_ac.integrate(c_lo, c_hi) + atom_mass[i]
        kind = chain.node_type[i]
        if kind == ABSORBING:
            dt[i] = np.inf
        elif kind == REFLECT_UP:
            dt[i] = 2.0 * (m_ac.integrate(u, u + h, c0=h + u, c1=-1.0) + h * atom_mass[i])
        elif kind == REFLECT_DOWN:
            dt[i] = 2.0 * (m_ac.integrate(u - h, u, c0=h - u, c1=1.0) + h * atom_mass[i])
        else:
            dt[i] = (
                m_ac.integrate(u - h, u, c0=h - u, c1=1.0)
                + m_ac.integrate(u, u + h, c0=h + u, c1=-1.0)
                + h * atom_mass[i]
            )
    return dt, m_cell


_CONST_DENSITY = ("bachelier-sticky", "bachelier-skew", "fat-cantor")


@pytest.mark.parametrize("h", [0.05, 0.02])
@pytest.mark.parametrize("name", [entry.name for entry in cat.catalog()])
def test_build_chain_matches_per_node_loop(name, h):
    chain = build_chain(cat.get_entry(name).build(), h)
    dt, m_cell = _per_node_tables(chain)
    if name in _CONST_DENSITY:
        assert np.array_equal(chain.dt, dt)
        assert np.array_equal(chain.m_cell, m_cell)
    else:  # Power speed densities
        assert np.array_equal(np.isinf(chain.dt), np.isinf(dt))
        held = np.isfinite(dt)
        np.testing.assert_allclose(chain.dt[held], dt[held], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(chain.m_cell, m_cell, rtol=1e-12, atol=0.0)


def test_vanishing_speed_density_names_the_node():
    # no speed mass on [0, 1]: the first node whose whole tent lies there
    # holds for no time
    gap = PiecewiseFn((-np.inf, 0.0, 1.0, np.inf), (Poly((1.0,)), Poly((0.0,)), Poly((1.0,))))
    model = dataclasses.replace(brownian_model(), m_ac=gap)
    with pytest.raises(ModelError, match=r"non-positive or infinite holding time at node 0\.1$"):
        build_chain(model, h=0.1, radius=2.0)


# ---------------------------------------------------------------------------
# path sampling
# ---------------------------------------------------------------------------


def _path(chain, T, seed, path_id=0):
    """Path ``path_id`` of the chain, walked alone."""
    (path,) = sample_paths(chain, T, seed, range(path_id, path_id + 1))
    return path


def _assert_same_path(p, want):
    assert np.array_equal(p.states, want.states)
    assert np.array_equal(p.times, want.times)
    assert (p.absorbed, p.absorption_time, p.window_hit) == (
        want.absorbed, want.absorption_time, want.window_hit
    )
    assert (p.seed, p.path_id) == (want.seed, want.path_id)


def _walker_cases():
    for entry in cat.catalog():
        for h in (0.05, 0.02):
            # radius 1 keeps the window small, so blocks run past its edges
            chain = build_chain(entry.build(), h, radius=1.0)
            for T in (1.0, 3.0):
                yield pytest.param(chain, T, range(20), id=f"{entry.name}-h{h}-T{T}")
    # every hold is 0.25, so the second one ends exactly at T
    yield pytest.param(
        build_chain(brownian_model(), h=0.5, radius=5.0), 0.5, range(20), id="hold-ends-at-T"
    )
    es = build_chain(cat.get_entry("engelbert-schmidt").build(), h=0.05)
    yield pytest.param(
        dataclasses.replace(es, start_idx=0), 1.0, range(3), id="start-absorbed"
    )


@pytest.mark.parametrize("chain, T, path_ids", _walker_cases())
def test_sample_path_matches_per_step_loop(chain, T, path_ids):
    for pid in path_ids:
        _assert_same_path(_path(chain, T, 0, pid), per_step_path(chain, T, 0, pid))


_EDGES = ("real", "window", "absorbing")


@settings(max_examples=200)
@given(
    n=st.integers(3, 12) | st.integers(13, 80),
    left=st.sampled_from(_EDGES),
    right=st.sampled_from(_EDGES),
    offset=st.integers(0, 5),
    from_right=st.booleans(),
    h=st.sampled_from([0.02, 0.05, 0.1]),
    T=st.floats(0.01, 2.0),
    n_holds=st.sampled_from([4, 30, 500]),
    dt_seed=st.integers(0, 2**32 - 1),
    first_id=st.integers(0, 2**20),
)
def test_sample_path_crosses_walls_like_per_step_loop(
    n, left, right, offset, from_right, h, T, n_holds, dt_seed, first_id
):
    # small chains with reflecting (real or window-edge) or absorbing edges,
    # started 0-5 nodes from one of them, so blocks cross and revisit walls;
    # about n_holds holds of a mean length fill [0, T]
    dt = 2 * T / n_holds * np.random.default_rng(dt_seed).uniform(0.05, 0.95, n)
    node_type = np.full(n, INTERIOR, dtype=np.int8)
    node_type[0], node_type[-1] = REFLECT_UP, REFLECT_DOWN
    window_edge = np.zeros(n, dtype=bool)
    for idx, kind in ((0, left), (n - 1, right)):
        if kind == "absorbing":
            node_type[idx], dt[idx] = ABSORBING, np.inf
        window_edge[idx] = kind == "window"
    grid = h * np.arange(n)
    chain = GridChain(
        model=brownian_model(),
        h=h,
        grid=grid,
        dt=dt,
        m_cell=np.full(n, h),
        node_type=node_type,
        window_edge=window_edge,
        start_idx=max(n - 1 - offset, 0) if from_right else min(offset, n - 1),
        window=(float(grid[0]), float(grid[-1])),
    )
    for pid in range(first_id, first_id + 5):
        _assert_same_path(_path(chain, T, 5, pid), per_step_path(chain, T, 5, pid))


@functools.cache
def _catalog_chain(name, h):
    return build_chain(cat.get_entry(name).build(), h)


@settings(max_examples=40)
@given(
    name=st.sampled_from([entry.name for entry in cat.catalog()]),
    h=st.sampled_from([0.05, 0.02]),
    T=st.sampled_from([0.3, 1.0, 3.0]),
    seed=st.integers(0, 2**64 - 1),
    first_id=st.integers(1, 2**40),
    n_ids=st.integers(1, 40),
    cells=st.sampled_from([chain_mod._CELLS, 128]),
)
def test_sample_paths_match_per_step_loop(name, h, T, seed, first_id, n_ids, cells):
    # a group walk yields its ids in order, each path the per-step one;
    # 128 cells make rounds of one row and many rounds per path
    chain = _catalog_chain(name, h)
    ids = range(first_id, first_id + n_ids)
    with mock.patch.object(chain_mod, "_CELLS", cells):
        paths = list(sample_paths(chain, T, seed, ids))
    assert [p.path_id for p in paths] == list(ids)
    for p in paths:
        _assert_same_path(p, per_step_path(chain, T, seed, p.path_id))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("T", [0.3, 1.0])
def test_rows_resume_inside_a_philox_block(monkeypatch, seed, T):
    # both edges of an 8-node window reflect, so rows are cut before their
    # first visit to the farther edge and read the moves past the cut again
    # in their next round; the edges lie 2 and 5 moves from the start, so a
    # row resumes at every place in a block of four outputs
    model = cat.get_entry("bessel-sticky").build()
    chain = build_chain(model, h=0.05, radius=0.25)
    assert chain.n_nodes == 8 and chain.start_idx == 2
    assert tuple(chain.node_type[[0, -1]]) == (REFLECT_UP, REFLECT_DOWN)
    philox, walk = np.random.Philox, chain_mod._walk
    made, per_walk, resumed_at, cut = [], [], set(), []

    def counted(*args, **kwargs):
        made.append(args)
        return philox(*args, **kwargs)

    def recorded(*args):
        before = len(made)
        for rnd in walk(*args):
            go = ~rnd.final
            resumed_at.update((rnd.n_steps[go] % 4).tolist())  # the next move's place in its block
            cut.extend((rnd.n_hold[go] < rnd.nodes.shape[1] - 1).tolist())
            yield rnd
        per_walk.append(len(made) - before)

    monkeypatch.setattr(np.random, "Philox", counted)
    monkeypatch.setattr(chain_mod, "_walk", recorded)
    monkeypatch.setattr(backtest, "_walk", recorded)
    ids = range(2**32 + 7, 2**32 + 19)
    H = FeedbackStrategy(plus_set=BorelSet.make([chain.window]))
    cfg = MCConfig(n_paths=12, h=chain.h, T=T, seed=seed)
    track = tuple(chain.grid[[0, chain.start_idx, -1]].tolist())
    ensembles = []
    for cells in (chain_mod._CELLS, 128):
        monkeypatch.setattr(chain_mod, "_CELLS", cells)
        paths = list(sample_paths(chain, T, seed, ids))
        ensembles.append(run_ensemble(chain, build_nu(model), H, cfg, track))
        assert [p.path_id for p in paths] == list(ids)
        for p in paths:
            _assert_same_path(p, per_step_path(chain, T, seed, p.path_id))
    for field in dataclasses.fields(EnsembleStats)[:-1]:  # all but the unrecorded series
        a, b = (getattr(stats, field.name) for stats in ensembles)
        assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), field.name
    assert per_walk == [1] * 4  # one generator per walk
    assert resumed_at == {0, 1, 2, 3} and any(cut)


def test_step_budget(monkeypatch):
    chain = build_chain(brownian_model(), h=0.05, radius=2.0)
    n_steps = len(_path(chain, T=1.0, seed=0).states) - 1
    monkeypatch.setattr(chain_mod, "_STEP_BUDGET", n_steps)
    assert len(_path(chain, T=1.0, seed=0).states) - 1 == n_steps
    monkeypatch.setattr(chain_mod, "_STEP_BUDGET", n_steps - 1)
    with pytest.raises(RuntimeError, match=f"step budget exceeded.* {n_steps - 1} steps"):
        _path(chain, T=1.0, seed=0)


def test_reproducibility_and_substreams():
    chain = build_chain(brownian_model(), h=0.05, radius=2.0)
    p1 = _path(chain, T=0.5, seed=7, path_id=3)
    p2 = _path(chain, T=0.5, seed=7, path_id=3)
    assert np.array_equal(p1.states, p2.states)
    assert np.array_equal(p1.times, p2.times)
    p3 = _path(chain, T=0.5, seed=7, path_id=4)
    assert not np.array_equal(p1.states, p3.states)


def test_path_structure_brownian():
    chain = build_chain(brownian_model(), h=0.05, radius=2.0)
    p = _path(chain, T=1.0, seed=1)
    # unit steps, deterministic h^2 clock away from the window edge
    assert np.all(np.abs(np.diff(p.states)) == 1)
    if not p.window_hit:
        assert np.allclose(np.diff(p.times), 0.0025, atol=1e-12)
    assert p.times[-1] >= 1.0
    assert not p.absorbed


def test_absorption_es():
    model = cat.es_model(b=1.0, sigma=0.5, mu=0.0, x0=1.05, r=0.1)
    chain = build_chain(model, h=0.05, radius=3.0)
    hit = 0
    for p in sample_paths(chain, 1.0, 11, range(200)):
        if p.absorbed:
            hit += 1
            assert p.states[-1] == 0
            assert p.absorption_time == p.times[-1]
            t_abs, ok = hitting_time(p, chain, 0.0, T=1.0)
            if p.absorption_time <= 1.0:
                assert ok and t_abs == p.absorption_time
    # starting one grid cell above the boundary, absorption is common
    assert hit > 50


def test_mean_exit_time_matches_quadratic():
    # expected exit time of (-a, a) for the Brownian chain is exactly a^2
    chain = build_chain(brownian_model(), h=0.05, radius=2.0)
    a = 0.25
    samples = []
    for p in sample_paths(chain, 5.0, 3, range(2000)):
        u = chain.grid[p.states]
        out = np.abs(u) >= a - 1e-12
        assert out.any()
        samples.append(p.times[np.argmax(out)])
    samples = np.array(samples)
    se = samples.std(ddof=1) / np.sqrt(len(samples))
    assert abs(samples.mean() - a**2) <= 4 * se


# ---------------------------------------------------------------------------
# occupation, local time, quadratic variation
# ---------------------------------------------------------------------------


def test_occupation_sums_to_horizon():
    chain = build_chain(brownian_model(), h=0.05, radius=2.0)
    p = _path(chain, T=1.0, seed=2)
    occ = occupation(p, chain, T=1.0)
    assert occ.sum() == pytest.approx(1.0, abs=1e-12)


def test_occupation_includes_absorbed_tail():
    model = cat.es_model(b=1.0, sigma=0.5, mu=0.0, x0=1.05, r=0.1)
    chain = build_chain(model, h=0.05, radius=3.0)
    for p in sample_paths(chain, 1.0, 5, range(50)):
        occ = occupation(p, chain, T=1.0)
        assert occ.sum() == pytest.approx(1.0, abs=1e-12)
        if p.absorbed and p.absorption_time < 1.0:
            assert occ[0] == pytest.approx(1.0 - p.absorption_time, abs=1e-12)


def test_local_time_tanaka():
    # E[local time of Brownian motion at 0 by time 1] = sqrt(2/pi)
    chain = build_chain(brownian_model(), h=0.05, radius=3.0)
    i0 = chain.index_of(0.0)
    total = 0.0
    n = 2000
    for p in sample_paths(chain, 1.0, 17, range(n)):
        total += occupation(p, chain, T=1.0)[i0] / chain.m_cell[i0]
    est = total / n
    assert est == pytest.approx(np.sqrt(2.0 / np.pi), rel=0.05)


def test_sticky_occupation_ratio():
    # mean occupation of the sticky cell vs a plain cell scales with the
    # cell speed masses (h + rho vs h)
    h, rho = 0.05, 2.0
    model = cat.sticky_model(xi=0.5, rho=rho, x0=0.5, r=0.0)
    chain = build_chain(model, h=h, radius=2.0)
    i_star = chain.index_of(0.5)
    occ = np.zeros(chain.n_nodes)
    n = 1500
    for p in sample_paths(chain, 1.0, 29, range(n)):
        occ += occupation(p, chain, T=1.0)
    occ /= n
    neighbor = 0.5 * (occ[i_star - 1] + occ[i_star + 1])
    assert occ[i_star] / neighbor == pytest.approx((h + rho) / h, rel=0.15)
    # per-path local time field is finite wherever cells carry mass
    lt = local_time_total(_path(chain, T=1.0, seed=29, path_id=0), chain, 1.0)
    assert np.all(np.isfinite(lt))


def test_qv_series_brownian():
    chain = build_chain(brownian_model(r=0.0), h=0.05, radius=3.0)
    p = _path(chain, T=1.0, seed=4)
    jt, qvU, qvS = qv_series(p, chain, T=1.0)
    assert np.all(jt <= 1.0)
    # each jump contributes exactly h^2; total matches the horizon closely
    assert qvU[-1] == pytest.approx(len(jt) * 0.0025, abs=1e-12)
    assert abs(qvU[-1] - 1.0) <= 0.0025 + 1e-12
    # identity natural scale and zero rate: <S> = <U>
    assert np.allclose(qvS, qvU, atol=1e-12)


def test_qv_series_discounted():
    r = 0.3
    chain = build_chain(brownian_model(r=r), h=0.05, radius=3.0)
    p = _path(chain, T=1.0, seed=4)
    jt, qvU, qvS = qv_series(p, chain, T=1.0)
    entry_times = np.concatenate([[0.0], jt[:-1]])
    expected = np.cumsum(np.exp(-2 * r * entry_times) * 0.0025)
    assert np.allclose(qvS, expected, rtol=1e-12)
    assert qvS[-1] < qvU[-1]


def test_hitting_time_basics():
    chain = build_chain(brownian_model(), h=0.05, radius=2.0)
    p = _path(chain, T=0.5, seed=9)
    t0, ok0 = hitting_time(p, chain, 0.0, T=0.5)
    assert ok0 and t0 == 0.0
    t_never, ok_never = hitting_time(p, chain, 1.95, T=0.5)
    if not ok_never:
        assert t_never == 0.5


def test_fat_cantor_chain_builds():
    model = cat.fat_cantor_model(depth=4, u0=0.5, r=0.1)
    chain = build_chain(model, h=0.005, radius=2.0)
    # Lebesgue speed: every interior holding time is h^2
    interior = chain.node_type == INTERIOR
    assert np.allclose(chain.dt[interior], 2.5e-5, atol=1e-18)
