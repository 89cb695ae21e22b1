import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from gdarb import catalog as cat
from gdarb.chain import (
    ABSORBING,
    INTERIOR,
    REFLECT_DOWN,
    REFLECT_UP,
    build_chain,
    hitting_time,
    local_time_total,
    occupation,
    qv_series,
    sample_path,
)
from gdarb.model import ModelError
from gdarb.piecewise import Const, PiecewiseFn


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
    # fair coin inside, deterministic inward moves at the reflecting edges
    assert np.all(chain.p_up[interior] == 0.5)
    assert chain.p_up[0] == 1.0 and chain.p_up[-1] == 0.0
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
    with pytest.raises(ModelError):
        build_chain(model, h=0.3, radius=2.0)
    model = cat.sticky_model(xi=0.5, rho=2.0, x0=0.013, r=0.1)
    with pytest.raises(ModelError):
        build_chain(model, h=0.05, radius=2.0)


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
        if grid[0] - h / 2 <= a <= grid[-1] + h / 2:
            atom_mass[int(round((a - grid[0]) / h))] += mass
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
    gap = PiecewiseFn((-np.inf, 0.0, 1.0, np.inf), (Const(1.0), Const(0.0), Const(1.0)))
    model = dataclasses.replace(brownian_model(), m_ac=gap)
    with pytest.raises(ModelError, match=r"non-positive or infinite holding time at node 0\.1$"):
        build_chain(model, h=0.1, radius=2.0)


# ---------------------------------------------------------------------------
# path sampling
# ---------------------------------------------------------------------------


def test_reproducibility_and_substreams():
    chain = build_chain(brownian_model(), h=0.05, radius=2.0)
    p1 = sample_path(chain, T=0.5, seed=7, path_id=3)
    p2 = sample_path(chain, T=0.5, seed=7, path_id=3)
    assert np.array_equal(p1.states, p2.states)
    assert np.array_equal(p1.times, p2.times)
    p3 = sample_path(chain, T=0.5, seed=7, path_id=4)
    assert not np.array_equal(p1.states, p3.states)


def test_path_structure_brownian():
    chain = build_chain(brownian_model(), h=0.05, radius=2.0)
    p = sample_path(chain, T=1.0, seed=1)
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
    for pid in range(200):
        p = sample_path(chain, T=1.0, seed=11, path_id=pid)
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
    for pid in range(2000):
        p = sample_path(chain, T=5.0, seed=3, path_id=pid)
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
    p = sample_path(chain, T=1.0, seed=2)
    occ = occupation(p, chain, T=1.0)
    assert occ.sum() == pytest.approx(1.0, abs=1e-12)


def test_occupation_includes_absorbed_tail():
    model = cat.es_model(b=1.0, sigma=0.5, mu=0.0, x0=1.05, r=0.1)
    chain = build_chain(model, h=0.05, radius=3.0)
    for pid in range(50):
        p = sample_path(chain, T=1.0, seed=5, path_id=pid)
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
    for pid in range(n):
        p = sample_path(chain, T=1.0, seed=17, path_id=pid)
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
    for pid in range(n):
        p = sample_path(chain, T=1.0, seed=29, path_id=pid)
        occ += occupation(p, chain, T=1.0)
    occ /= n
    neighbor = 0.5 * (occ[i_star - 1] + occ[i_star + 1])
    assert occ[i_star] / neighbor == pytest.approx((h + rho) / h, rel=0.15)
    # per-path local time field is finite wherever cells carry mass
    lt = local_time_total(sample_path(chain, T=1.0, seed=29, path_id=0), chain, 1.0)
    assert np.all(np.isfinite(lt))


def test_qv_series_brownian():
    chain = build_chain(brownian_model(r=0.0), h=0.05, radius=3.0)
    p = sample_path(chain, T=1.0, seed=4)
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
    p = sample_path(chain, T=1.0, seed=4)
    jt, qvU, qvS = qv_series(p, chain, T=1.0)
    entry_times = np.concatenate([[0.0], jt[:-1]])
    expected = np.cumsum(np.exp(-2 * r * entry_times) * 0.0025)
    assert np.allclose(qvS, expected, rtol=1e-12)
    assert qvS[-1] < qvU[-1]


def test_hitting_time_basics():
    chain = build_chain(brownian_model(), h=0.05, radius=2.0)
    p = sample_path(chain, T=0.5, seed=9)
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
