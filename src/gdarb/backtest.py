"""Monte Carlo verification of increasing profits.

Value processes are computed by two independent routes: the integral route
(left-point sums of H dS along the simulated chain) and the closed-form
route (the finite-variation representation driven by the auxiliary signed
measure through local times and the post-absorption clock).  Each step of
the chain is split into a hold phase (state constant, clock running) and a
jump phase (state moves, quadratic variation accrues); the split is what
lets the domination checks distinguish local-time growth from
quadratic-variation growth.  One function, ``_steps``, books every hold and
jump, for single paths and for the ensemble alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .arbitrage import (
    FeedbackStrategy,
    NuBundle,
    build_theta,
    check_strategy_conditions,
)
from .chain import ABSORBING, GridChain, PathSample, build_chain, path_rng
from .model import DEFAULT_WINDOW, NaturalScaleModel

__all__ = [
    "MCConfig",
    "ValueSeries",
    "EnsembleStats",
    "DominationReport",
    "IPReport",
    "integral_value",
    "closed_form_value",
    "run_ensemble",
    "domination_check",
    "classify_ip",
]

_ROUTE_FLOOR = 1e-8
_BLOCK = 1024  # uniforms drawn per path at a time
_MAX_ITERATIONS = 20_000_000


@dataclass(frozen=True)
class MCConfig:
    n_paths: int = 10_000
    h: float = 0.005
    T: float = 1.0
    seed: int = 0
    radius: float = DEFAULT_WINDOW
    tol: float = 1e-12
    tol_route: float = 0.05

    def __post_init__(self):
        if self.n_paths <= 0:
            raise ValueError("n_paths must be positive")
        if self.h <= 0 or self.T <= 0:
            raise ValueError("h and T must be positive")


@dataclass(frozen=True)
class ValueSeries:
    times: np.ndarray
    values: np.ndarray
    route: str  # "integral" | "closed_form"

    def __post_init__(self):
        if self.values[0] != 0.0 or self.times[0] != 0.0:
            raise ValueError("value series must start at (0, 0)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("value series must be finite")


@dataclass(frozen=True)
class DominationReport:
    qv_dominated: bool  # (a) value growth only where <U> grows
    qv_growth_violation: bool  # (b) value growth where <S> grows (must be False)
    n_hold_nonzero: int
    n_jump_nonzero: int


@dataclass(frozen=True)
class IPReport:
    condition_i_ok: bool
    condition_ii_ok: bool
    empirical_iii: float  # estimated P(strategy clock > 0)
    monotone_fraction: float
    p_positive_terminal: float
    p_positive_se: float
    route_agreement: float  # mean relative discrepancy (nan if one route only)
    verdict: str  # "increasing_profit" | "not" | "inconclusive"
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EnsembleStats:
    v_int: np.ndarray
    v_cf: np.ndarray
    min_inc_int: np.ndarray
    min_inc_cf: np.ndarray
    clock: np.ndarray
    emp_cond_i: np.ndarray
    qv_s: np.ndarray
    absorbed: np.ndarray
    absorption_times: np.ndarray
    window_hit: np.ndarray
    hold_nonzero_int: np.ndarray
    hold_nonzero_cf: np.ndarray
    qv_growth_trigger_int: np.ndarray
    qv_growth_trigger_cf: np.ndarray
    n_steps: np.ndarray
    occupation: np.ndarray | None  # (n_paths, n_tracked) if nodes tracked


# ---------------------------------------------------------------------------
# per-node tables and the hold/jump kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _NodeTables:
    H: np.ndarray
    theta: np.ndarray
    q: np.ndarray
    qp: np.ndarray
    nu_ac: np.ndarray
    # nu({u}) / m_cell(u) at inner nodes (per unit local time) and nu({u}) at
    # absorbing nodes (per unit of the post-absorption clock)
    atom: np.ndarray
    is_absorbing: np.ndarray
    stop_idx: int | None


def _node_tables(chain: GridChain, bundle: NuBundle, H: FeedbackStrategy) -> _NodeTables:
    grid = chain.grid
    model = chain.model
    nu = bundle.nu
    H_val = np.asarray(H.evaluate(grid), dtype=float)
    theta_val = np.asarray(build_theta(bundle).evaluate(grid), dtype=float)
    q_val = np.asarray(model.q(grid), dtype=float)
    qp_val = np.asarray(model.q_prime(grid), dtype=float)

    if nu.density is None:
        nu_ac = np.zeros(len(grid))
    else:
        nu_ac = np.asarray(nu.density(grid), dtype=float)
        if nu.carrier is not None:
            nu_ac = nu_ac * nu.carrier.contains(grid)

    is_abs = chain.node_type == ABSORBING
    atom = np.zeros(len(grid))
    for a, mass in nu.atoms:
        if not (grid[0] - chain.h / 2 <= a <= grid[-1] + chain.h / 2):
            continue
        i = int(round((a - grid[0]) / chain.h))
        if abs(grid[i] - a) > chain.h * 1e-6:
            continue
        if is_abs[i]:
            atom[i] += mass
        else:
            if chain.m_cell[i] <= 0:
                raise ValueError(f"atom of nu at {a} sits on a cell with no speed mass")
            atom[i] += mass / chain.m_cell[i]

    stop_idx = None
    if H.stop_after_hitting is not None:
        stop_idx = chain.index_of(H.stop_after_hitting)
    return _NodeTables(
        H=H_val,
        theta=theta_val,
        q=q_val,
        qp=qp_val,
        nu_ac=nu_ac,
        atom=atom,
        is_absorbing=is_abs,
        stop_idx=stop_idx,
    )


class _Steps(NamedTuple):
    """Increments booked by each step: its hold, then its jump."""

    int_hold: np.ndarray
    cf_hold: np.ndarray
    int_jump: np.ndarray
    cf_jump: np.ndarray
    dS: np.ndarray  # <S> growth of the jump
    leak: np.ndarray  # H^2 d<S> of the jump: the martingale exposure of condition (i)
    clock: np.ndarray  # |nu| growth where H agrees in sign with theta


def _steps(tables: _NodeTables, r, h2, i, t0, t1, i_new, jump, act) -> _Steps:
    """Book holds at nodes ``i`` over [t0, t1) and, where ``jump``, the move
    to ``i_new`` at t1, by both routes.

    The arrays run over the steps of one path or over the paths of one
    ensemble iteration.  An absorbed path makes one more hold, at its
    absorbing node up to the horizon; the atom column holds nu({u}) there,
    so that hold books the post-absorption clock.
    """
    disc0 = np.exp(-r * t0)
    disc1 = np.exp(-r * t1)
    w = t1 - t0 if r == 0.0 else (disc0 - disc1) / r  # integral of exp(-r s) over the hold
    Hv = tables.H[i] * act
    q = tables.q[i]
    qp = tables.qp[i]
    atom = tables.atom[i]
    nu_ac = tables.nu_ac[i]
    return _Steps(
        int_hold=Hv * q * (disc1 - disc0),
        cf_hold=Hv * atom * w,
        int_jump=np.where(jump, Hv * disc1 * (tables.q[i_new] - q), 0.0),
        cf_jump=np.where(jump, Hv * disc0 * nu_ac * h2, 0.0),
        dS=np.where(jump, (disc0 * qp) ** 2 * h2, 0.0),
        leak=np.where(jump, (Hv * qp) ** 2 * h2, 0.0),
        clock=(tables.theta[i] * Hv > 0.0)
        * (np.abs(atom) * w + np.where(jump, np.abs(nu_ac) * h2, 0.0)),
    )


# ---------------------------------------------------------------------------
# single paths
# ---------------------------------------------------------------------------


def _path_phases(
    path: PathSample, chain: GridChain, tables: _NodeTables, T: float
) -> tuple[np.ndarray, _Steps]:
    """(hold end times, booked increments) of the steps taken before T."""
    n = int(np.searchsorted(path.times, T))  # holds that start before T
    i = path.states[:n]
    t0 = path.times[:n]
    t_next = np.append(path.times[1:], np.inf)[:n]
    t1 = np.minimum(t_next, T)
    i_new = np.append(path.states[1:], 0)[:n]
    act = np.ones(n, dtype=bool)
    if tables.stop_idx is not None:
        hits = np.nonzero(i == tables.stop_idx)[0]
        first = hits[0] if len(hits) else n
        act[first:] = False
    jump = t_next <= T
    return t1, _steps(tables, chain.model.rate, chain.h**2, i, t0, t1, i_new, jump, act)


def _value_series(path, chain, bundle, H, T, route) -> ValueSeries:
    t1, st = _path_phases(path, chain, _node_tables(chain, bundle, H), T)
    dv = st.int_hold + st.int_jump if route == "integral" else st.cf_hold + st.cf_jump
    return ValueSeries(
        times=np.concatenate([[0.0], t1]),
        values=np.concatenate([[0.0], np.cumsum(dv)]),
        route=route,
    )


def integral_value(
    path: PathSample,
    chain: GridChain,
    bundle: NuBundle,
    H: FeedbackStrategy,
    T: float,
) -> ValueSeries:
    """V_t = sum of H(u) dS over the step skeleton; exact for feedback H."""
    return _value_series(path, chain, bundle, H, T, "integral")


def closed_form_value(
    path: PathSample,
    chain: GridChain,
    bundle: NuBundle,
    H: FeedbackStrategy,
    T: float,
    model: NaturalScaleModel | None = None,
) -> ValueSeries:
    """Finite-variation representation of the value process.

    Only applies when the martingale part of the wealth dynamics is switched
    off; refuses strategies whose support leaves the zero set of q'.
    """
    model = model or chain.model
    report = check_strategy_conditions(model, bundle, H)
    if not report.condition_i:
        raise ValueError(
            "closed-form value requires the strategy support to lie in the "
            "zero set of q' (deactivated martingale part)"
        )
    return _value_series(path, chain, bundle, H, T, "closed_form")


def domination_check(
    path: PathSample,
    chain: GridChain,
    bundle: NuBundle,
    H: FeedbackStrategy,
    T: float,
    route: str = "closed_form",
) -> DominationReport:
    """(a) does the value only move when <U> moves; (b) does it ever move
    when <S> moves (a finite-variation value process never may)."""
    _, st = _path_phases(path, chain, _node_tables(chain, bundle, H), T)
    if route == "closed_form":
        hold, jump = st.cf_hold, st.cf_jump
    else:
        hold, jump = st.int_hold, st.int_jump
    hold_nonzero = hold != 0.0
    jump_nonzero = jump != 0.0
    qv_dominated = not hold_nonzero.any()  # holds carry no <U> growth
    qv_growth = bool(np.any(jump_nonzero & (st.dS != 0.0)))
    return DominationReport(
        qv_dominated=bool(qv_dominated),
        qv_growth_violation=qv_growth,
        n_hold_nonzero=int(hold_nonzero.sum()),
        n_jump_nonzero=int(jump_nonzero.sum()),
    )


# ---------------------------------------------------------------------------
# vectorized ensemble
# ---------------------------------------------------------------------------


def run_ensemble(
    chain: GridChain,
    bundle: NuBundle,
    H: FeedbackStrategy,
    config: MCConfig,
    track_nodes: tuple[float, ...] = (),
) -> EnsembleStats:
    """Synchronous-step simulation of n_paths independent chains.

    Path ``pid`` consumes the same uniform stream as
    ``sample_path(chain, T, seed, pid)``: one draw per executed step.
    A path stays alive until its hold reaches T; once absorbed, its last
    hold is the absorbing node's, which lasts to T.
    """
    r = chain.model.rate
    T = config.T
    h2 = chain.h**2
    n = config.n_paths
    tables = _node_tables(chain, bundle, H)
    dt = chain.dt
    p_up = chain.p_up
    window_edge_arr = chain.window_edge
    tracked = [chain.index_of(u) for u in track_nodes]

    idx = np.full(n, chain.start_idx, dtype=np.int64)
    t = np.zeros(n)
    act = np.ones(n, dtype=bool)
    if tables.stop_idx is not None and chain.start_idx == tables.stop_idx:
        act[:] = False
    v_int = np.zeros(n)
    v_cf = np.zeros(n)
    min_int = np.zeros(n)
    min_cf = np.zeros(n)
    clock = np.zeros(n)
    emp_i = np.zeros(n)
    qv_s = np.zeros(n)
    absorbed = tables.is_absorbing[idx].copy()  # started on an absorbing node
    t_abs = np.where(absorbed, 0.0, np.inf)
    window_hit = np.zeros(n, dtype=bool)
    hold_nz_int = np.zeros(n, dtype=bool)
    hold_nz_cf = np.zeros(n, dtype=bool)
    lem_int = np.zeros(n, dtype=bool)
    lem_cf = np.zeros(n, dtype=bool)
    n_steps = np.zeros(n, dtype=np.int64)
    occ = np.zeros((n, len(tracked))) if tracked else None

    alive = np.ones(n, dtype=bool)
    gens = [path_rng(config.seed, pid) for pid in range(n)]
    ublock = np.empty((n, _BLOCK))
    col = _BLOCK
    iterations = 0

    while alive.any():
        if col == _BLOCK:
            for pid in np.nonzero(alive)[0]:
                ublock[pid] = gens[pid].random(_BLOCK)
            col = 0
        a = np.nonzero(alive)[0]
        i = idx[a]
        t0 = t[a]
        t1 = t0 + dt[i]
        jump = t1 < T  # a hold that reaches T ends the path
        t1c = np.minimum(t1, T)
        i_new = i + np.where(ublock[a, col] < p_up[i], 1, -1)
        col += 1
        st = _steps(tables, r, h2, i, t0, t1c, i_new, jump, act[a])

        v_int[a] += st.int_hold + st.int_jump
        v_cf[a] += st.cf_hold + st.cf_jump
        min_int[a] = np.minimum(min_int[a], np.minimum(st.int_hold, st.int_jump))
        min_cf[a] = np.minimum(min_cf[a], np.minimum(st.cf_hold, st.cf_jump))
        clock[a] += st.clock
        emp_i[a] += st.leak
        qv_s[a] += st.dS
        hold_nz_int[a] |= st.int_hold != 0.0
        hold_nz_cf[a] |= st.cf_hold != 0.0
        lem_int[a] |= (st.int_jump != 0.0) & (st.dS != 0.0)
        lem_cf[a] |= (st.cf_jump != 0.0) & (st.dS != 0.0)
        n_steps[a] += 1
        for k, node in enumerate(tracked):
            at_node = i == node
            occ[a[at_node], k] += (t1c - t0)[at_node]

        t[a] = np.where(jump, t1, T)
        idx[a] = np.where(jump, i_new, i)
        window_hit[a] |= jump & window_edge_arr[i_new]

        if tables.stop_idx is not None:
            entered = jump & (i_new == tables.stop_idx)
            if entered.any():
                act[a[entered]] = False

        abs_now = jump & tables.is_absorbing[i_new]
        if abs_now.any():
            absorbed[a[abs_now]] = True
            t_abs[a[abs_now]] = t1[abs_now]

        alive[a] = jump
        iterations += 1
        if iterations >= _MAX_ITERATIONS:
            raise RuntimeError("ensemble iteration budget exceeded")

    return EnsembleStats(
        v_int=v_int,
        v_cf=v_cf,
        min_inc_int=min_int,
        min_inc_cf=min_cf,
        clock=clock,
        emp_cond_i=emp_i,
        qv_s=qv_s,
        absorbed=absorbed,
        absorption_times=t_abs,
        window_hit=window_hit,
        hold_nonzero_int=hold_nz_int,
        hold_nonzero_cf=hold_nz_cf,
        qv_growth_trigger_int=lem_int,
        qv_growth_trigger_cf=lem_cf,
        n_steps=n_steps - absorbed,  # an absorbing hold is no step: it draws nothing
        occupation=occ,
    )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def classify_ip(
    model: NaturalScaleModel,
    bundle: NuBundle,
    H: FeedbackStrategy,
    config: MCConfig,
) -> IPReport:
    """Decide empirically whether H generates an increasing profit."""
    symbolic = check_strategy_conditions(model, bundle, H)
    chain = build_chain(model, config.h, config.radius)
    stats = run_ensemble(chain, bundle, H, config)

    has_cf = symbolic.condition_i
    v = stats.v_cf if has_cf else stats.v_int
    min_inc = stats.min_inc_cf if has_cf else stats.min_inc_int
    n = config.n_paths

    monotone_fraction = float(np.mean(min_inc >= -config.tol))
    p_pos = float(np.mean(v > 0.0))
    se = math.sqrt(p_pos * (1.0 - p_pos) / n)
    empirical_iii = float(np.mean(stats.clock > 0.0))
    # at atom-supported strategies the chain leaks O(h) martingale exposure
    # per unit local time; gate the deactivation check on the strategy's
    # share of the total <S> exposure, which is O(h) when the martingale
    # part is truly off and order one otherwise; 0.25 separates the two
    # regimes with margin at any spacing used here
    emp_i_max = float(stats.emp_cond_i.max())
    exposure_share = float(np.mean(stats.emp_cond_i)) / max(
        float(np.mean(stats.qv_s)), _ROUTE_FLOOR
    )
    emp_i_ok = emp_i_max <= config.tol or exposure_share <= 0.25

    if has_cf:
        mean_cf = float(np.mean(stats.v_cf))
        mean_int = float(np.mean(stats.v_int))
        route_agreement = abs(mean_int - mean_cf) / max(abs(mean_cf), _ROUTE_FLOOR)
        route_ok = route_agreement <= config.tol_route
    else:
        route_agreement = float("nan")
        route_ok = True

    all_zero = bool(np.all(v == 0.0))
    cond_i_ok = symbolic.condition_i and emp_i_ok
    if not cond_i_ok or not symbolic.condition_ii:
        verdict = "not"
    elif all_zero:
        verdict = "not"
    elif monotone_fraction == 1.0 and p_pos - 3.0 * se > 0.0 and route_ok:
        verdict = "increasing_profit"
    else:
        verdict = "inconclusive"

    qv_dominated_fraction = float(
        np.mean(~(stats.hold_nonzero_cf if has_cf else stats.hold_nonzero_int))
    )
    qv_growth_any = bool(
        np.any(stats.qv_growth_trigger_cf if has_cf else stats.qv_growth_trigger_int)
    )

    return IPReport(
        condition_i_ok=cond_i_ok,
        condition_ii_ok=symbolic.condition_ii,
        empirical_iii=empirical_iii,
        monotone_fraction=monotone_fraction,
        p_positive_terminal=p_pos,
        p_positive_se=se,
        route_agreement=route_agreement,
        verdict=verdict,
        details={
            "assessed_route": "closed_form" if has_cf else "integral",
            "v_int": stats.v_int,
            "v_cf": stats.v_cf if has_cf else None,
            "min_inc_int": stats.min_inc_int,
            "min_inc_cf": stats.min_inc_cf if has_cf else None,
            "empirical_condition_i_max": emp_i_max,
            "empirical_condition_i_ok": emp_i_ok,
            "martingale_exposure_share": exposure_share,
            "absorbed_fraction": float(np.mean(stats.absorbed)),
            "window_hit_fraction": float(np.mean(stats.window_hit)),
            "qv_dominated_fraction": qv_dominated_fraction,
            "qv_growth_violation_any": qv_growth_any,
            "p_negative_terminal": float(np.mean(v < 0.0)),
            "mean_terminal": float(np.mean(v)),
            "symbolic": symbolic,
            "chain": chain,
            "stats": stats,
        },
    )
