"""Monte Carlo verification of increasing profits.

Value processes are computed by two independent routes: the integral route
(left-point sums of H dS along the simulated chain) and the closed-form
route (the finite-variation representation driven by the auxiliary signed
measure through local times and the post-absorption clock).  Each step of
the chain is split into a hold phase (state constant, clock running) and a
jump phase (state moves, quadratic variation accrues); the split is what
lets the domination checks distinguish local-time growth from
quadratic-variation growth.  One function, ``_steps``, books every hold and
jump.  The ensemble is a loop over path ids: each path comes from
``chain.sample_path`` and is booked like a single path, so ensemble
statistics equal the single-path routes' and do not depend on how many
paths run.
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
from .chain import ABSORBING, GridChain, PathSample, build_chain, sample_path
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
# a value decrement or a leaked martingale exposure below this counts as zero
_TOL = 1e-12


@dataclass(frozen=True)
class MCConfig:
    n_paths: int = 10_000
    h: float = 0.005
    T: float = 1.0
    seed: int = 0
    radius: float = DEFAULT_WINDOW
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

    The arrays run over the steps of one path.  An absorbed path makes one
    more hold, at its absorbing node up to the horizon; the atom column holds
    nu({u}) there, so that hold books the post-absorption clock.
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
    jump = t_next < T  # a hold that reaches T ends the path
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
) -> ValueSeries:
    """Finite-variation representation of the value process.

    Only applies when the martingale part of the wealth dynamics is switched
    off; refuses strategies whose support leaves the zero set of q'.
    """
    report = check_strategy_conditions(chain.model, bundle, H)
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
# ensemble
# ---------------------------------------------------------------------------


def _total(x: np.ndarray) -> float:
    """0.0 plus the increments, added in step order as the path accrues them."""
    return 0.0 + x.cumsum()[-1] if len(x) else 0.0


def run_ensemble(
    chain: GridChain,
    bundle: NuBundle,
    H: FeedbackStrategy,
    config: MCConfig,
    track_nodes: tuple[float, ...] = (),
) -> EnsembleStats:
    """Book n_paths independent paths of the chain, one path at a time.

    Path ``pid`` is ``sample_path(chain, T, seed, pid)``, booked by the same
    hold/jump kernel as the single-path routes; its sums run in step order
    from 0.0.  No path's statistics depend on the other paths.  An absorbed
    path's last hold is the absorbing node's, which lasts to T.
    """
    T = config.T
    tables = _node_tables(chain, bundle, H)
    tracked = [chain.index_of(u) for u in track_nodes]
    rows = []
    for pid in range(config.n_paths):
        path = sample_path(chain, T, config.seed, pid)
        t1, st = _path_phases(path, chain, tables, T)
        i = path.states[: len(t1)]
        moves_s = st.dS != 0.0
        rows.append({
            "v_int": _total(st.int_hold + st.int_jump),
            "v_cf": _total(st.cf_hold + st.cf_jump),
            "min_inc_int": np.minimum(st.int_hold, st.int_jump).min(initial=0.0),
            "min_inc_cf": np.minimum(st.cf_hold, st.cf_jump).min(initial=0.0),
            "clock": _total(st.clock),
            "emp_cond_i": _total(st.leak),
            "qv_s": _total(st.dS),
            "absorbed": path.absorbed,
            "absorption_times": path.absorption_time,
            "window_hit": path.window_hit,
            "hold_nonzero_int": np.any(st.int_hold != 0.0),
            "hold_nonzero_cf": np.any(st.cf_hold != 0.0),
            "qv_growth_trigger_int": np.any((st.int_jump != 0.0) & moves_s),
            "qv_growth_trigger_cf": np.any((st.cf_jump != 0.0) & moves_s),
            "n_steps": len(path.states) - 1,  # an absorbing hold draws nothing
            "occupation": [
                _total((t1 - path.times[: len(t1)])[i == node]) for node in tracked
            ],
        })
    stats = {key: np.array([row[key] for row in rows]) for key in rows[0]}
    if not tracked:
        stats["occupation"] = None
    return EnsembleStats(**stats)


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

    monotone_fraction = float(np.mean(min_inc >= -_TOL))
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
    emp_i_ok = emp_i_max <= _TOL or exposure_share <= 0.25

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
