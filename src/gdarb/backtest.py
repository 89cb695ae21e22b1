"""Monte Carlo verification of increasing profits.

Value processes are computed by two independent routes: the integral route
(left-point sums of H dS along the simulated chain) and the closed-form
route (the finite-variation representation driven by the auxiliary signed
measure through local times and the post-absorption clock).  Each step of
the chain is split into a hold phase (state constant, clock running) and a
jump phase (state moves, quadratic variation accrues); the split is what
lets the domination checks distinguish local-time growth from
quadratic-variation growth.  One lean kernel, ``_steps``, books every hold
and jump of a path at once: one exp per step, one gather of the per-node
rows and each product in a fixed order.  The ensemble is a loop over path
ids: each path comes from ``chain.sample_path`` and is booked like a single
path, so ensemble statistics equal the single-path routes' bit for bit and
do not depend on how many paths run; the ensemble keeps only each path's
sums, minima and flags.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
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
from .model import NaturalScaleModel

__all__ = [
    "MCConfig",
    "ValueSeries",
    "EnsembleStats",
    "DominationReport",
    "IPReport",
    "value_series",
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


# the rows _steps books, one column per step
_INT_HOLD, _CF_HOLD, _INT_JUMP, _CF_JUMP, _DS, _LEAK, _CLOCK = range(7)


@dataclass(frozen=True)
class _NodeTables:
    # one column per node, rows: H, q, atom, q', nu_ac, and the clock's hold
    # and jump rates [theta H > 0] |atom| and [theta H > 0] |nu_ac| h^2; atom
    # is nu({u}) / m_cell(u) at inner nodes (per unit local time) and nu({u})
    # at absorbing nodes (per unit of the post-absorption clock)
    rows: np.ndarray
    stop_idx: int | None


def _node_tables(chain: GridChain, bundle: NuBundle, H: FeedbackStrategy) -> _NodeTables:
    grid = chain.grid
    model = chain.model
    nu = bundle.nu
    H_val = np.asarray(H.evaluate(grid), dtype=float)
    theta_val = np.asarray(build_theta(bundle).evaluate(grid), dtype=float)

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
    clock_on = theta_val * H_val > 0.0  # H agrees in sign with theta
    rows = np.stack([
        H_val,
        np.asarray(model.q(grid), dtype=float),
        atom,
        np.asarray(model.q_prime(grid), dtype=float),
        nu_ac,
        clock_on * np.abs(atom),
        clock_on * (np.abs(nu_ac) * chain.h**2),
    ])
    return _NodeTables(rows=rows, stop_idx=stop_idx)


class _Steps(NamedTuple):
    """What each step books: its hold, then its jump.

    Step k holds over [t[k], t[k + 1]).  Column k of ``book`` holds its
    increments in the rows ``_INT_HOLD``, ``_CF_HOLD``, ``_INT_JUMP``,
    ``_CF_JUMP``, ``_DS`` (the <S> growth of the jump), ``_LEAK`` (H^2 d<S>
    of the jump: the martingale exposure of condition (i)) and ``_CLOCK``
    (|nu| growth where H agrees in sign with theta).
    """

    t: np.ndarray
    book: np.ndarray


def _steps(chain: GridChain, tables: _NodeTables, path: PathSample, T: float) -> _Steps:
    """Book the holds and jumps ``path`` makes before T, by both routes.

    Every hold that starts before T is booked; the last one ends at T and
    makes no jump.  An absorbed path's last hold is at its absorbing node, up
    to T; the atom row holds nu({u}) there, so that hold books the
    post-absorption clock.  Each product is formed in the order its comment
    gives, so a step books the same bits on every route.
    """
    r, h2 = chain.model.rate, chain.h**2
    n = int(path.times.searchsorted(T))  # holds that start before T
    i = path.states[:n]
    t = np.empty(n + 1)
    t[:n] = path.times[:n]
    t[n] = T
    disc = np.exp(t * -r)  # one exp per step: a hold ends where the next starts
    disc0, disc1 = disc[:-1], disc[1:]
    d_disc = disc1 - disc0
    w = np.diff(t) if r == 0.0 else d_disc / -r  # integral of exp(-r s) over the hold
    Hv, q, atom, qp, nu_ac, clock_hold, clock_jump = tables.rows.take(i, axis=1)
    if tables.stop_idx is not None:  # H is off from the first visit on
        hits = np.flatnonzero(i == tables.stop_idx)
        if len(hits):
            Hv[hits[0] :] *= 0.0
            clock_hold[hits[0] :] = 0.0
            clock_jump[hits[0] :] = 0.0

    book = np.empty((7, n))
    int_hold, cf_hold, int_jump, cf_jump, dS, leak, clock = book
    np.multiply(Hv, q, out=int_hold)  # Hv q (disc1 - disc0)
    int_hold *= d_disc
    np.multiply(Hv, atom, out=cf_hold)  # Hv atom w
    cf_hold *= w
    np.multiply(Hv, disc1, out=int_jump)  # Hv disc1 (q_new - q)
    int_jump[:-1] *= q[1:] - q[:-1]
    np.multiply(Hv, disc0, out=cf_jump)  # Hv disc0 nu_ac h^2
    cf_jump *= nu_ac
    cf_jump *= h2
    np.multiply(disc0, qp, out=dS)  # (disc0 q')^2 h^2
    np.multiply(Hv, qp, out=leak)  # (Hv q')^2 h^2
    np.square(book[_DS : _LEAK + 1], out=book[_DS : _LEAK + 1])
    book[_DS : _LEAK + 1] *= h2
    book[_INT_JUMP : _LEAK + 1, -1] = 0.0  # the last hold makes no jump
    clock_jump[-1] = 0.0
    # [theta Hv > 0] |atom| w + [theta Hv > 0] |nu_ac| h^2
    np.multiply(clock_hold, w, out=clock)
    clock += clock_jump
    return _Steps(t=t, book=book)


# ---------------------------------------------------------------------------
# single paths
# ---------------------------------------------------------------------------


# the (hold, jump) rows of each route
_ROUTE_ROWS = {"integral": (_INT_HOLD, _INT_JUMP), "closed_form": (_CF_HOLD, _CF_JUMP)}


def value_series(
    paths: Iterable[PathSample],
    chain: GridChain,
    bundle: NuBundle,
    H: FeedbackStrategy,
    T: float,
    routes: tuple[str, ...],
) -> Iterator[tuple[ValueSeries, ...]]:
    """Yield each path's value series on [0, T], one per route in ``routes``.

    Every path is booked against one set of node tables, built when the
    first series is asked for; each path is taken from ``paths`` only after
    the previous one's series are yielded.  The routes are not checked
    against the strategy: the closed-form route is the value process only
    where condition (i) holds (see ``closed_form_value``).
    """
    tables = _node_tables(chain, bundle, H)
    for path in paths:
        st = _steps(chain, tables, path, T)
        series = []
        for route in routes:
            hold, jump = _ROUTE_ROWS[route]
            values = np.concatenate([[0.0], np.cumsum(st.book[hold] + st.book[jump])])
            series.append(ValueSeries(times=st.t, values=values, route=route))
        yield tuple(series)


def integral_value(
    path: PathSample,
    chain: GridChain,
    bundle: NuBundle,
    H: FeedbackStrategy,
    T: float,
) -> ValueSeries:
    """V_t = sum of H(u) dS over the step skeleton; exact for feedback H."""
    (series,) = next(value_series([path], chain, bundle, H, T, ("integral",)))
    return series


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
    (series,) = next(value_series([path], chain, bundle, H, T, ("closed_form",)))
    return series


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
    book = _steps(chain, _node_tables(chain, bundle, H), path, T).book
    hold, jump = _ROUTE_ROWS["closed_form" if route == "closed_form" else "integral"]
    hold_nonzero = book[hold] != 0.0
    jump_nonzero = book[jump] != 0.0
    qv_dominated = not hold_nonzero.any()  # holds carry no <U> growth
    qv_growth = bool(np.any(jump_nonzero & (book[_DS] != 0.0)))
    return DominationReport(
        qv_dominated=bool(qv_dominated),
        qv_growth_violation=qv_growth,
        n_hold_nonzero=int(hold_nonzero.sum()),
        n_jump_nonzero=int(jump_nonzero.sum()),
    )


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------


def run_ensemble(
    chain: GridChain,
    bundle: NuBundle,
    H: FeedbackStrategy,
    config: MCConfig,
    track_nodes: tuple[float, ...] = (),
) -> EnsembleStats:
    """Book n_paths independent paths of the chain, one path at a time.

    Path ``pid`` is ``sample_path(chain, T, seed, pid)``, booked by the same
    hold/jump kernel as the single-path routes.  Each sum runs in step
    order from 0.0, as the path accrues it.  No path's statistics depend on
    the other paths.  An absorbed path's last hold is the absorbing node's,
    which lasts to T.
    """
    T = config.T
    n_paths = config.n_paths
    tables = _node_tables(chain, bundle, H)
    tracked = [chain.index_of(u) for u in track_nodes]
    sums = np.empty((n_paths, 5))  # v_int, v_cf, then the rows _DS, _LEAK, _CLOCK
    min_inc = np.empty((n_paths, 2))  # per route
    flags = np.empty((n_paths, 4), dtype=bool)  # a hold nonzero, a jump nonzero where <S> moves
    absorbed = np.empty(n_paths, dtype=bool)
    absorption_times = np.empty(n_paths)
    window_hit = np.empty(n_paths, dtype=bool)
    n_steps = np.empty(n_paths, dtype=np.int64)
    occupation = np.zeros((n_paths, len(tracked)))
    for pid in range(n_paths):
        path = sample_path(chain, T, config.seed, pid)
        st = _steps(chain, tables, path, T)
        book = st.book
        holds, jumps = book[_INT_HOLD : _CF_HOLD + 1], book[_INT_JUMP : _CF_JUMP + 1]
        np.minimum(holds, jumps).min(axis=1, initial=0.0, out=min_inc[pid])
        nonzero = book[: _DS + 1] != 0.0
        nonzero[: _CF_HOLD + 1].any(axis=1, out=flags[pid, :2])
        np.logical_and(nonzero[_INT_JUMP : _CF_JUMP + 1], nonzero[_DS]).any(
            axis=1, out=flags[pid, 2:]
        )
        # einsum adds up the rows of a C-ordered (steps, 5) array one after
        # another, so each column sums in step order
        increments = np.empty((book.shape[1], 5))
        np.add(holds, jumps, out=increments[:, :2].T)
        increments[:, 2:].T[...] = book[_DS:]
        np.einsum("ij->j", increments, out=sums[pid])
        absorbed[pid] = path.absorbed
        absorption_times[pid] = path.absorption_time
        window_hit[pid] = path.window_hit
        n_steps[pid] = len(path.states) - 1  # an absorbing hold draws nothing
        if tracked:
            held = np.diff(st.t)
            at = path.states[: len(held)]
            for j, node in enumerate(tracked):
                at_node = held[at == node]
                if len(at_node):
                    occupation[pid, j] = at_node.cumsum()[-1]
    sums += 0.0  # a sum starts from 0.0: one of zeros is 0.0, never -0.0
    occupation += 0.0
    return EnsembleStats(
        v_int=sums[:, 0],
        v_cf=sums[:, 1],
        min_inc_int=min_inc[:, 0],
        min_inc_cf=min_inc[:, 1],
        clock=sums[:, 4],
        emp_cond_i=sums[:, 3],
        qv_s=sums[:, 2],
        absorbed=absorbed,
        absorption_times=absorption_times,
        window_hit=window_hit,
        hold_nonzero_int=flags[:, 0],
        hold_nonzero_cf=flags[:, 1],
        qv_growth_trigger_int=flags[:, 2],
        qv_growth_trigger_cf=flags[:, 3],
        n_steps=n_steps,
        occupation=occupation if tracked else None,
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
    chain = build_chain(model, config.h)
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
