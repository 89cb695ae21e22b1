"""Monte Carlo verification of increasing profits.

Value processes are computed by two independent routes: the integral route
(left-point sums of H dS along the simulated chain) and the closed-form
route (the finite-variation representation driven by the auxiliary signed
measure through local times and the post-absorption clock).  Each step of
the chain is split into a hold phase (state constant, clock running) and a
jump phase (state moves, quadratic variation accrues); the split is what
lets the ensemble's per-path flags (``hold_nonzero_*``,
``qv_growth_trigger_*``) tell local-time growth from quadratic-variation
growth.  One group kernel, ``_steps``, books a round of holds of many paths
at once, one row per path.  Every hold books what does not depend on the
strategy H: the <S> growth of its jump, with its one exp, the time it
spends at each tracked node and whether H has stopped.  The strategy rows
(both value routes, the leaked exposure and the clock) are booked only on
the holds where H is not zero, packed row by row into a block as long as
the most any row has: elsewhere they would be signed zeros, which change no
sum.  A recorded path books every hold, since its series prints the sign
of a zero.  Each product is formed in a fixed order, so a hold books the
same bits wherever it is packed.  The ensemble books the rounds of the
group walker (``chain._walk``) and carries each path's sums from round to
round in step order, so a path's statistics are the same bit for bit
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


# the rows of the strategy book, one column per hold where H is on
_INT_HOLD, _CF_HOLD, _CLOCK, _LEAK, _INT_JUMP, _CF_JUMP, _DS = range(7)


@dataclass(frozen=True)
class _NodeTables:
    # one column per node; the last, one past the grid, is zeros (False).
    # rows: q, H atom, the clock's hold rate [theta H > 0] |atom|, the
    # exposure (H q')^2 h^2 of a jump, the clock's jump rate
    # [theta H > 0] |nu_ac| h^2, nu_ac and H, in the order _steps overwrites
    # them with its book.  atom is nu({u}) / m_cell(u) at inner nodes (per
    # unit local time) and nu({u}) at absorbing nodes (per unit of the
    # post-absorption clock).  A product of two node values is formed here
    # as each hold would form it, so it has the same bits.
    rows: np.ndarray
    q_prime: np.ndarray
    on: np.ndarray  # H != 0: the nodes whose holds book the strategy rows
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
    q_prime = np.asarray(model.q_prime(grid), dtype=float)
    clock_on = theta_val * H_val > 0.0  # H agrees in sign with theta
    rows = np.stack([
        np.asarray(model.q(grid), dtype=float),
        H_val * atom,
        clock_on * np.abs(atom),
        np.square(H_val * q_prime) * chain.h**2,
        clock_on * (np.abs(nu_ac) * chain.h**2),
        nu_ac,
        H_val,
    ])
    return _NodeTables(
        rows=np.pad(rows, ((0, 0), (0, 1))),
        q_prime=np.append(q_prime, 0.0),
        on=np.append(H_val != 0.0, False),
        stop_idx=stop_idx,
    )


class _Steps(NamedTuple):
    """What the holds of a round book: every hold its <S> growth, the holds
    where H is on their strategy rows.

    ``qv[0, r, c]`` is the <S> growth of the jump after row r's hold c, and
    ``qv[1 + j, r, c]`` the time that hold spends at tracked node j; a hold
    past the row's last books zeros.  ``book[:, r, k]`` holds the
    increments of row r's k-th hold where H is on, in the rows
    ``_INT_HOLD``, ``_CF_HOLD``, ``_CLOCK`` (|nu| growth where H agrees in
    sign with theta), ``_LEAK`` (H^2 d<S> of the jump: the martingale
    exposure of condition (i)), ``_INT_JUMP``, ``_CF_JUMP`` and ``_DS``;
    past those holds it books zeros.  A hold where H is off, or past the
    stop node, books signed zeros in the strategy rows, which change no
    sum; a recorded path prints them, so each of its holds is in the book.
    """

    qv: np.ndarray
    book: np.ndarray


def _steps(
    chain: GridChain,
    tables: _NodeTables,
    rnd: _Round,
    T: float,
    tracked: list[int],
    recorded: int,
    stopped: np.ndarray,
    scratch: _Scratch,
) -> _Steps:
    """Book the holds and jumps of a round of the group walker.

    Row r holds at ``nodes[r, c]`` from ``times[r, c]`` to ``times[r, c + 1]``
    (capped at T) and then jumps to ``nodes[r, c + 1]``, for c < n_hold[r];
    where ``final[r]``, its last hold makes no jump.  An absorbed path's last
    hold is at its absorbing node, up to T; the atom row holds nu({u})
    there, so that hold books the post-absorption clock.  ``stopped[p]``
    says whether path p has visited the stop node, and is updated for the
    round's paths.  The holds where H is on, and every hold of the paths
    with ids below ``recorded``, are packed row by row in step order into
    the strategy book.  Each product is formed in the order its comment
    gives, so a hold books the same bits whatever round it is in and
    wherever it is packed.  The returned arrays are views of ``scratch``.
    """
    r, h2 = chain.model.rate, chain.h**2
    n_nodes = chain.n_nodes
    n_hold = rnd.n_hold
    R, B = n_hold.shape[0], rnd.nodes.shape[1] - 1
    # the hold nodes, one past the grid from the row's last hold on, and in
    # column B, which no hold reads
    i = scratch("nodes", (R, B + 1), np.intp)
    np.copyto(i, rnd.nodes)
    i[:, B] = n_nodes
    for row in np.flatnonzero(n_hold < B).tolist():
        i[row, n_hold[row] :] = n_nodes
    on = tables.on.take(i, mode="clip", out=scratch("on", (R, B + 1), bool))
    off = None
    if tables.stop_idx is not None:  # H is off from the first visit on
        off = np.logical_or.accumulate(i == tables.stop_idx, axis=1)
        off |= stopped[rnd.pid, None]
        stopped[rnd.pid] = off[:, -1]
        on &= ~off
    if recorded:  # a recorded series prints the sign of a zero
        for row in np.flatnonzero(rnd.pid < recorded).tolist():
            on[row, : n_hold[row]] = True

    disc = np.minimum(rnd.times, T, out=scratch("disc", (R, B + 1)))
    if r == 0.0 or tracked:  # how long each hold lasts, up to T
        held = scratch("held", (R, B + 1))
        np.subtract(disc[:, 1:], disc[:, :-1], out=held[:, :B])
        held[:, B] = 0.0
    disc *= -r
    np.exp(disc, out=disc)  # one exp per hold: a hold ends where the next starts
    qv = scratch("qv", (1 + len(tracked), R, B + 1), per_cell=1 + len(tracked))
    dS = tables.q_prime.take(i, mode="clip", out=qv[0])
    dS *= disc  # (disc0 q')^2 h^2
    np.square(dS, out=dS)
    dS *= h2
    last = np.flatnonzero(rnd.final)
    at = n_hold[last] - 1
    dS[last, at] = 0.0  # the last hold makes no jump
    for j, node in enumerate(tracked, 1):
        np.multiply(held, i == node, out=qv[j])
    qv = qv[:, :, :B]

    # the flat positions of the holds booked in the strategy book, packed
    # row by row; a pad is column B of row 0, one past the grid
    flat = np.flatnonzero(on)
    ends = np.searchsorted(flat, np.arange(1, R + 1) * (B + 1))
    counts = ends.copy()
    counts[1:] -= ends[:-1]
    m = int(counts.max())
    if m == 0:
        return _Steps(qv=qv, book=scratch("book", (7, R, 0), per_cell=7))
    # an odd width keeps the book's rows off a power-of-two stride, where
    # copying them into the step-order layout runs at half speed
    m |= 1
    book = scratch("book", (7, R, m), per_cell=7)
    pos = scratch("pos", (R, m), np.intp)
    pos.fill(B)
    for row, (start, end) in enumerate(zip([0, *ends[:-1].tolist()], ends.tolist())):
        pos[row, : end - start] = flat[start:end]
    node = scratch("node", (R, m), np.intp)
    tables.rows.take(i.take(pos, mode="clip", out=node), axis=1, mode="clip", out=book)
    q, H_atom, clock_hold, leak, clock_jump, nu_ac, Hv = book
    int_hold, cf_hold, clock, leak, int_jump, cf_jump, dS_on = book
    if off is not None:
        off_on = off.take(pos, mode="clip", out=scratch("off", (R, m), bool))
        for row in (H_atom, leak, Hv):
            np.multiply(row, 0.0, out=row, where=off_on)
        clock_hold[off_on] = 0.0
        clock_jump[off_on] = 0.0
    # where each hold starts, and where it ends: the flat arrays one entry
    # on, clipped at the end for a pad of a one-row round
    disc0, disc1, w, dq = scratch("packed", (4, R, m), per_cell=4)
    disc.take(pos, mode="clip", out=disc0)
    disc.reshape(-1)[1:].take(pos, mode="clip", out=disc1)
    q_new = rnd.nodes.reshape(-1)[1:].take(pos, mode="clip", out=node)

    tables.rows[0].take(q_new, mode="clip", out=dq)
    dq -= q  # q_new - q
    np.multiply(Hv, q, out=int_hold)  # Hv q (disc1 - disc0)
    if r == 0.0:
        held.take(pos, mode="clip", out=w)  # the integral of exp(-r s)
        int_hold *= 0.0  # disc1 - disc0 is 1.0 - 1.0
    else:
        np.subtract(disc1, disc0, out=w)
        int_hold *= w
        w /= -r  # the integral of exp(-r s) over the hold
    cf_hold *= w  # (Hv atom) w
    # the packed column of each final row's last hold, where it is booked
    last = last[on[last, at]]
    at = counts[last] - 1
    clock_jump[last, at] = 0.0  # the last hold makes no jump
    # [theta Hv > 0] |atom| w + [theta Hv > 0] |nu_ac| h^2
    clock *= w
    clock += clock_jump
    np.multiply(Hv, disc1, out=int_jump)  # Hv disc1 (q_new - q)
    int_jump *= dq
    np.multiply(Hv, disc0, out=dq)  # Hv disc0 nu_ac h^2
    np.multiply(dq, nu_ac, out=cf_jump)
    cf_jump *= h2
    book[_LEAK : _CF_JUMP + 1, last, at] = 0.0
    dS.take(pos, mode="clip", out=dS_on)
    return _Steps(qv=qv, book=book)


def _step_sums(steps: np.ndarray) -> np.ndarray:
    """The sum of each column of a C-ordered (n, C) array, adding its n
    rows one after another from the first.  einsum adds them in that order
    where C > 1, and pairwise where C == 1, so a single column is summed
    beside a column of zeros."""
    if steps.shape[1] == 1:
        return np.einsum("ij->j", np.concatenate([steps, np.zeros_like(steps)], axis=1))[:1]
    return np.einsum("ij->j", steps)


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
    st = _steps(chain, tables, rnd, T, tracked, len(recordings), stopped, scratch)
    book = st.book
    _, R, m = book.shape
    if m:
        holds, jumps = book[_INT_HOLD : _CF_HOLD + 1], book[_INT_JUMP : _CF_JUMP + 1]
        low = np.minimum(holds.min(axis=2), jumps.min(axis=2))
        min_inc[pid] = np.minimum(min_inc[pid], low.T)
        nonzero = scratch("nonzero", (5, R, m), bool, per_cell=5)
        np.not_equal(holds, 0.0, out=nonzero[:2])
        np.not_equal(book[_INT_JUMP:], 0.0, out=nonzero[2:])
        nonzero[2:4] &= nonzero[4]  # a jump nonzero where <S> moves
        flags[pid] |= nonzero[:4].any(axis=2).T
        holds += jumps  # the value increments
        if recordings:
            for r in np.flatnonzero(pid < len(recordings)).tolist():
                n = int(rnd.n_hold[r])
                recordings[pid[r]].add(rnd.times[r, :n], holds[route_rows, r, :n])
    # each sum adds the round's increments one after another to the sum of
    # the path's earlier holds in row 0; a value sum adds zeros past the
    # row's holds where H is on, which change no sum
    qv = st.qv
    K, B = sums.shape[1], qv.shape[2]
    m = min(m, B)  # a column past B is a pad
    increments = scratch("increments", (B + 1, K, R), per_cell=K)
    increments[0] = sums[pid].T
    increments[1 : m + 1, :4] = book[: _LEAK + 1, :, :m].transpose(2, 0, 1)
    increments[m + 1 :, :4] = 0.0
    increments[1:, 4:] = qv.transpose(2, 0, 1)
    sums[pid] = _step_sums(increments.reshape(B + 1, K * R)).reshape(K, R).T


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
    # v_int, v_cf, the rows _CLOCK and _LEAK, the <S> growth, then the time at
    # each tracked node
    sums = np.zeros((n_paths, 5 + len(tracked)))
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
    # a sum starts from 0.0: one of zeros is 0.0, never -0.0; a minimum of
    # zeros is 0.0 too, whichever zeros a round packs
    sums += 0.0
    min_inc += 0.0
    occupation = sums[:, 5:]
    return EnsembleStats(
        v_int=sums[:, 0],
        v_cf=sums[:, 1],
        min_inc_int=min_inc[:, 0],
        min_inc_cf=min_inc[:, 1],
        clock=sums[:, 2],
        emp_cond_i=sums[:, 3],
        qv_s=sums[:, 4],
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
