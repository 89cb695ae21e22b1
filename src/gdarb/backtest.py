"""Monte Carlo verification of increasing profits.

Value processes are computed by two independent routes: the integral route
(left-point sums of H dS along the simulated chain) and the closed-form
route (the finite-variation representation driven by the auxiliary signed
measure through local times and the post-absorption clock).  Each step of
the chain is split into a hold phase (state constant, clock running) and a
jump phase (state moves, quadratic variation accrues); the split is what
lets the ensemble's per-path flags (``hold_nonzero_*``,
``qv_growth_trigger_*``) tell local-time growth from quadratic-variation
growth.  One group kernel, ``_steps``, books a block of holds of many paths
at once, one row per path: one exp per hold, one gather of the per-node
rows and each product in a fixed order.  The ensemble books the rounds of
the group walker (``chain._walk``) and carries each path's sums from round
to round in step order, so a path's statistics are the same bit for bit
however the paths are grouped into rounds.  It keeps each path's sums,
minima and flags, and for the first few ids, when asked, the value series
themselves, taken from the same rounds: a series' increments are the ones
its path's sums add up, so a backtest walks and books its paths once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .arbitrage import (
    FeedbackStrategy,
    NuBundle,
    check_strategy_conditions,
)
from .chain import (
    ABSORBING,
    GridChain,
    _atom_nodes,
    _check_seed,
    _Round,
    _round_cells,
    _walk,
    build_chain,
)
from .model import NaturalScaleModel

__all__ = [
    "MCConfig",
    "ValueSeries",
    "EnsembleStats",
    "IPReport",
    "run_ensemble",
    "classify_ip",
]

_ROUTE_FLOOR = 1e-8
# a value decrement or a leaked martingale exposure below this counts as zero
_TOL = 1e-12
# holds summed per einsum call in an ensemble round: the step-order array
# stays small
_SUM_CELLS = 2**12


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
        _check_seed(self.seed)


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
    # the value series of the recorded paths, in id order: one tuple per
    # path, one series per route
    series: tuple[tuple[ValueSeries, ...], ...]


# ---------------------------------------------------------------------------
# per-node tables and the hold/jump kernel
# ---------------------------------------------------------------------------


# the rows _steps books, one column per hold
_INT_HOLD, _CF_HOLD, _INT_JUMP, _CF_JUMP, _DS, _LEAK, _CLOCK = range(7)


@dataclass(frozen=True)
class _NodeTables:
    # one column per node, rows: q, atom, the clock's jump rate
    # [theta H > 0] |nu_ac| h^2, nu_ac, q', H and the clock's hold rate
    # [theta H > 0] |atom|, in the order _steps overwrites them with its book;
    # atom is nu({u}) / m_cell(u) at inner nodes (per unit local time) and
    # nu({u}) at absorbing nodes (per unit of the post-absorption clock); the
    # last column, one past the grid, is all zeros
    rows: np.ndarray
    stop_idx: int | None


class _Scratch:
    """Flat arrays that the views of each block reuse.  A flat holds
    ``per_cell`` entries for each of ``cells`` cells, the most a block
    holds, so that blocks fault in no fresh pages and every ensemble
    allocates the same sizes, which the next one gets back."""

    def __init__(self, cells: int):
        self.cells = cells
        self._flat: dict[str, np.ndarray] = {}

    def __call__(self, name: str, shape: tuple[int, ...], dtype=float, per_cell=1) -> np.ndarray:
        flat = self._flat.get(name)
        if flat is None:
            flat = self._flat[name] = np.empty(per_cell * self.cells, dtype=dtype)
        return flat[: math.prod(shape)].reshape(shape)


def _node_tables(chain: GridChain, bundle: NuBundle, H: FeedbackStrategy) -> _NodeTables:
    grid = chain.grid
    model = chain.model
    nu = bundle.nu
    H_val = np.asarray(H.evaluate(grid), dtype=float)
    theta_val = np.asarray(bundle.theta.evaluate(grid), dtype=float)

    if nu.density is None:
        nu_ac = np.zeros(len(grid))
    else:
        nu_ac = np.asarray(nu.density(grid), dtype=float)
        if nu.carrier is not None:
            nu_ac = nu_ac * nu.carrier.contains(grid)

    is_abs = chain.node_type == ABSORBING
    atom = np.zeros(len(grid))
    for i, mass in _atom_nodes(grid, chain.h, nu.atoms):
        if is_abs[i]:
            atom[i] += mass
        else:
            if chain.m_cell[i] <= 0:
                raise ValueError(f"atom of nu at {grid[i]} sits on a cell with no speed mass")
            atom[i] += mass / chain.m_cell[i]

    stop_idx = None
    if H.stop_after_hitting is not None:
        stop_idx = chain.index_of(H.stop_after_hitting)
    clock_on = theta_val * H_val > 0.0  # H agrees in sign with theta
    rows = np.stack([
        np.asarray(model.q(grid), dtype=float),
        atom,
        clock_on * (np.abs(nu_ac) * chain.h**2),
        nu_ac,
        np.asarray(model.q_prime(grid), dtype=float),
        H_val,
        clock_on * np.abs(atom),
    ])
    return _NodeTables(rows=np.pad(rows, ((0, 0), (0, 1))), stop_idx=stop_idx)


class _Steps(NamedTuple):
    """What each hold books: the hold, then its jump.

    ``book[:, r, c]`` holds the increments of row r's hold c in the rows
    ``_INT_HOLD``, ``_CF_HOLD``, ``_INT_JUMP``, ``_CF_JUMP``, ``_DS`` (the <S>
    growth of the jump), ``_LEAK`` (H^2 d<S> of the jump: the martingale
    exposure of condition (i)) and ``_CLOCK`` (|nu| growth where H agrees in
    sign with theta); a hold past the row's last books zeros.  ``nodes`` are
    the hold nodes, one past the grid after the row's last hold, and
    ``stopped`` says which rows have visited the strategy's stop node.
    """

    book: np.ndarray
    nodes: np.ndarray
    stopped: np.ndarray


def _steps(
    chain: GridChain,
    tables: _NodeTables,
    nodes: np.ndarray,
    times: np.ndarray,
    T: float,
    n_hold: np.ndarray,
    final: np.ndarray,
    stopped: np.ndarray,
    scratch: _Scratch,
) -> _Steps:
    """Book the holds and jumps of a block of rows, by both routes.

    Row r holds at ``nodes[r, c]`` from ``times[r, c]`` to ``times[r, c + 1]``
    (capped at T) and then jumps to ``nodes[r, c + 1]``, for c < n_hold[r];
    where ``final[r]``, its last hold makes no jump.  An absorbed path's last
    hold is at its absorbing node, up to T; the atom row holds nu({u})
    there, so that hold books the post-absorption clock.  ``stopped`` says
    which rows visited the stop node in an earlier block.  Each product is
    formed in the order its comment gives, so a hold books the same bits
    whatever block it is in.  The returned arrays are views of ``scratch``.
    """
    r, h2 = chain.model.rate, chain.h**2
    R, B = n_hold.shape[0], nodes.shape[1] - 1
    i = scratch("nodes", (R, B), np.intp)
    np.copyto(i, nodes[:, :B])
    short = np.flatnonzero(n_hold < B)
    if len(short):
        i[short] = np.where(np.arange(B) < n_hold[short, None], i[short], chain.n_nodes)
    # every node row is overwritten by the increment booked in its place,
    # after its last read; the column one past the grid is all zeros
    book = tables.rows.take(i, axis=1, mode="clip", out=scratch("book", (7, R, B), per_cell=7))
    q, atom, clock_jump, nu_ac, qp, Hv, clock_hold = book
    int_hold, cf_hold, int_jump, cf_jump, dS, leak, clock = book
    if tables.stop_idx is not None:  # H is off from the first visit on
        off = np.logical_or.accumulate(i == tables.stop_idx, axis=1)
        off |= stopped[:, None]
        stopped = off[:, -1]
        np.multiply(Hv, 0.0, out=Hv, where=off)
        clock_hold[off] = 0.0
        clock_jump[off] = 0.0

    # the scratch "pair" holds temporaries only
    w, dq = scratch("pair", (2, R, B), per_cell=2)
    disc = np.minimum(times, T, out=scratch("disc", times.shape))
    if r == 0.0:
        np.subtract(disc[:, 1:], disc[:, :-1], out=w)  # the integral of exp(-r s)
    disc *= -r
    np.exp(disc, out=disc)  # one exp per hold: a hold ends where the next starts
    disc0, disc1 = disc[:, :-1], disc[:, 1:]
    tables.rows[0].take(nodes[:, 1:], mode="clip", out=dq)
    dq -= q  # q_new - q
    np.multiply(Hv, q, out=int_hold)  # Hv q (disc1 - disc0)
    if r == 0.0:
        int_hold *= 0.0  # disc1 - disc0 is 1.0 - 1.0
    else:
        np.subtract(disc1, disc0, out=w)
        int_hold *= w
        w /= -r  # the integral of exp(-r s) over the hold
    np.multiply(Hv, atom, out=cf_hold)  # Hv atom w
    cf_hold *= w
    last = np.flatnonzero(final)
    at = n_hold[last] - 1
    clock_jump[last, at] = 0.0  # the last hold makes no jump
    # [theta Hv > 0] |atom| w + [theta Hv > 0] |nu_ac| h^2
    np.multiply(clock_hold, w, out=clock)
    clock += clock_jump
    np.multiply(Hv, disc1, out=int_jump)  # Hv disc1 (q_new - q)
    int_jump *= dq
    np.multiply(Hv, disc0, out=dq)  # Hv disc0 nu_ac h^2
    np.multiply(dq, nu_ac, out=cf_jump)
    cf_jump *= h2
    np.multiply(Hv, qp, out=leak)  # (Hv q')^2 h^2
    np.multiply(disc0, qp, out=dS)  # (disc0 q')^2 h^2
    np.square(book[_DS : _LEAK + 1], out=book[_DS : _LEAK + 1])
    book[_DS : _LEAK + 1] *= h2
    book[_INT_JUMP : _LEAK + 1, last, at] = 0.0
    return _Steps(book=book, nodes=i, stopped=stopped)


# the row of the book that holds each route's value increments once the jumps
# are added to the holds
_ROUTE_ROWS = {"integral": _INT_HOLD, "closed_form": _CF_HOLD}
# steps a block of a recorded path holds: a block is one allocation of about
# 1.5 MB, which goes back to the system when the path's series are made
_RECORD_STEPS = 2**16


class _Recording:
    """A path's hold start times and value increments by route, in step
    order, as views of large blocks: a long path makes few allocations.
    Column c of a part is one hold: its start time, then its increment by
    each route."""

    def __init__(self, routes: tuple[str, ...]):
        self.routes = routes
        self.parts: list[np.ndarray] = []
        self.block = np.empty((0, 0))
        self.used = 0  # columns of the block taken by parts

    def add(self, times: np.ndarray, increments: np.ndarray):
        n = len(times)
        if self.used + n > self.block.shape[1]:  # the rest of the block is never touched
            self.block = np.empty((1 + len(self.routes), max(n, _RECORD_STEPS)))
            self.used = 0
        part = self.block[:, self.used : self.used + n]
        part[0] = times
        part[1:] = increments
        self.parts.append(part)
        self.used += n

    def series(self, T: float) -> tuple[ValueSeries, ...]:
        """The path's value series on [0, T], one per route: the hold
        boundaries, and 0.0 followed by the running sum of the increments.
        The blocks are dropped."""
        parts, self.parts, self.block = self.parts, [], None
        n = sum(part.shape[1] for part in parts)
        times = np.empty(n + 1)
        np.concatenate([part[0] for part in parts], out=times[:n])
        times[n] = T
        values = np.empty((len(self.routes), n + 1))
        np.concatenate([part[1:] for part in parts], axis=1, out=values[:, 1:])
        values[:, 0] = 0.0
        for v in values:
            np.cumsum(v[1:], out=v[1:])
        return tuple(
            ValueSeries(times=times, values=v, route=route) for v, route in zip(values, self.routes)
        )


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------


def _book_round(
    chain: GridChain,
    tables: _NodeTables,
    rnd: _Round,
    T: float,
    tracked: list[int],
    scratch: _Scratch,
    sums: np.ndarray,
    min_inc: np.ndarray,
    flags: np.ndarray,
    stopped: np.ndarray,
    recordings: list[_Recording],
    route_rows: list[int],
):
    """Book a round of the group walker and add it to its paths' sums,
    minima and flags.  A path whose id has an entry in ``recordings``
    adds to it the round's hold start times and its value increments in
    the rows ``route_rows``.  No view of ``scratch`` outlives the
    call, so a scratch array that grows frees its pages first."""
    pid = rnd.pid
    st = _steps(
        chain, tables, rnd.nodes, rnd.times, T, rnd.n_hold, rnd.final, stopped[pid], scratch
    )
    stopped[pid] = st.stopped
    book = st.book
    _, R, B = book.shape
    K = sums.shape[1]
    holds, jumps = book[_INT_HOLD : _CF_HOLD + 1], book[_INT_JUMP : _CF_JUMP + 1]
    low = np.minimum(holds, jumps, out=scratch("pair", (2, R, B), per_cell=2)).min(axis=2)
    min_inc[pid] = np.minimum(min_inc[pid], low.T)
    nonzero = scratch("nonzero", (5, R, B), bool, per_cell=5)
    np.not_equal(book[: _DS + 1], 0.0, out=nonzero)
    flags[pid, :2] |= nonzero[: _CF_HOLD + 1].any(axis=2).T
    nonzero[_INT_JUMP : _CF_JUMP + 1] &= nonzero[_DS]
    flags[pid, 2:] |= nonzero[_INT_JUMP : _CF_JUMP + 1].any(axis=2).T
    holds += jumps  # the value increments
    if recordings:
        for r in np.flatnonzero(pid < len(recordings)).tolist():
            n = int(rnd.n_hold[r])
            recordings[pid[r]].add(rnd.times[r, :n], holds[route_rows, r, :n])
    if tracked:
        t = np.minimum(rnd.times, T)
        held = np.subtract(t[:, 1:], t[:, :-1], out=jumps[0])
    # einsum adds up the rows of a C-ordered (holds + 1, K R) array one after
    # another, so each column sums in step order; row 0 carries the sums of
    # the path's earlier holds.  The holds go in chunks of about _SUM_CELLS.
    total = sums[pid].T
    n = max(_SUM_CELLS // R, 1)
    for c in range(0, B, n):
        cols, m = slice(c, c + n), min(n, B - c)
        increments = scratch("increments", (m + 1, K, R), per_cell=K)
        increments[0] = total
        increments[1:, :2] = holds[:, :, cols].transpose(2, 0, 1)
        increments[1:, 2:5] = book[_DS:, :, cols].transpose(2, 0, 1)
        for j, node in enumerate(tracked):
            np.multiply(held[:, cols], st.nodes[:, cols] == node, out=increments[1:, 5 + j].T)
        total = np.einsum("ij->j", increments.reshape(m + 1, K * R)).reshape(K, R)
    sums[pid] = total.T


def run_ensemble(
    chain: GridChain,
    bundle: NuBundle,
    H: FeedbackStrategy,
    config: MCConfig,
    track_nodes: tuple[float, ...] = (),
    *,
    series_paths: int = 0,
    routes: tuple[str, ...] = ("integral", "closed_form"),
) -> EnsembleStats:
    """Book n_paths independent paths of the chain, many paths per round.

    The group walker (``chain._walk``) advances rows of paths in rounds, and
    the group kernel books each round's holds.  Path ``pid`` is path
    ``pid`` of ``chain.sample_paths(chain, T, seed, ...)`` and each of its
    sums runs in step order from 0.0 across rounds, so no path's statistics
    depend on the other paths, on the rows that share its rounds or on
    where its rounds end.  An absorbed path's last hold is the absorbing
    node's, which lasts to T.

    The paths with ids below ``series_paths`` also keep their value series
    on [0, T] by each route in ``routes``, in ``EnsembleStats.series``:
    the hold boundaries, and 0.0 followed by the running sum of the
    increments, in step order: 0.0 plus a series' last value is its path's
    sum bit for bit, and recording changes no statistic.  The routes are not
    checked against the strategy: the closed-form route is the value
    process only where condition (i) holds, that is where the strategy's
    support lies in the zero set of q' (see
    ``arbitrage.check_strategy_conditions``).
    """
    T = config.T
    n_paths = config.n_paths
    tables = _node_tables(chain, bundle, H)
    tracked = [chain.index_of(u) for u in track_nodes]
    K = 5 + len(tracked)
    # v_int, v_cf, the rows _DS, _LEAK, _CLOCK, then the time at each tracked node
    sums = np.zeros((n_paths, K))
    min_inc = np.zeros((n_paths, 2))  # per route
    flags = np.zeros((n_paths, 4), dtype=bool)  # a hold nonzero, a jump nonzero where <S> moves
    stopped = np.zeros(n_paths, dtype=bool)
    absorbed = np.empty(n_paths, dtype=bool)
    absorption_times = np.empty(n_paths)
    window_hit = np.empty(n_paths, dtype=bool)
    n_steps = np.empty(n_paths, dtype=np.int64)
    scratch = _Scratch(_round_cells())
    recordings = [_Recording(routes) for _ in range(min(series_paths, n_paths))]
    route_rows = [_ROUTE_ROWS[route] for route in routes]
    for rnd in _walk(chain, T, config.seed, range(n_paths)):
        _book_round(
            chain, tables, rnd, T, tracked, scratch, sums, min_inc, flags, stopped,
            recordings, route_rows,
        )
        f = rnd.final
        done = rnd.pid[f]
        absorbed[done] = rnd.absorbed[f]
        last = rnd.times[f, rnd.n_hold[f] - 1]  # the absorbing hold's start
        absorption_times[done] = np.where(rnd.absorbed[f], last, np.inf)
        window_hit[done] = rnd.window_hit[f]
        n_steps[done] = rnd.n_steps[f]
    sums += 0.0  # a sum starts from 0.0: one of zeros is 0.0, never -0.0
    occupation = sums[:, 5:]
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
        series=tuple(rec.series(T) for rec in recordings),
    )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def classify_ip(
    model: NaturalScaleModel,
    bundle: NuBundle,
    H: FeedbackStrategy,
    config: MCConfig,
    *,
    series_paths: int = 0,
) -> IPReport:
    """Decide empirically whether H generates an increasing profit.

    The paths with ids below ``series_paths`` keep their value series, in
    ``details["series"]``, by the integral route and, where condition (i)
    holds, by the closed-form route (see ``run_ensemble``)."""
    symbolic = check_strategy_conditions(model, bundle, H)
    chain = build_chain(model, config.h)
    has_cf = symbolic.condition_i
    routes = ("integral", "closed_form") if has_cf else ("integral",)
    stats = run_ensemble(chain, bundle, H, config, series_paths=series_paths, routes=routes)

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
            "series": stats.series,
        },
    )
