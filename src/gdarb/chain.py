"""Exit-time grid-chain simulation of the natural-scale diffusion.

The chain lives on a uniform grid of spacing h.  Interior nodes jump one
step up or down with probability 1/2 after a deterministic holding time
equal to the expected exit time of the surrounding interval, computed as a
tent-kernel integral against the speed measure.  Reflecting endpoints jump
inward with probability one; absorbing endpoints are terminal.  Holding
times make the chain's occupation measure match the speed measure, which
is what every estimator here relies on.

The grid runs through an included left end, else through the start, and
covers the analysis window.  One node lookup (``_index_of``) places every
point the chain holds: the start, and each speed atom, scale kink and
included end inside the window, and later the atoms of nu, a stopping
level or a tracked node.  A point within 1e-6 h of a node is on it; one
in the window off the nodes raises a ``ModelError`` that names it, and one
outside the window is not in the chain.

Paths are walked in groups: one walker (``_walk``) advances many paths per
numpy call, as the rows of a block of moves, and hands each block to its
caller.  ``sample_paths`` records whole paths from those blocks and yields
them in id order, holding at most one group of consecutive ids at a time.
Path ``pid`` is the path that ``sample_paths`` yields for that id.  Its
move n takes output n of its own counter-based stream,
``Philox(key=[seed, pid])``, however the paths are grouped: it goes up iff
that 64-bit output is below 2**63, except at a reflecting edge, whose move
goes inward whatever it draws.  Every stretch of such a stream follows from
its key and counter alone, so one generator serves a whole walk: each
round sets it to a row's key and to the counter of the row's next move.
So every path is the same bit for bit whether it is walked alone or with
others.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import DEFAULT_WINDOW, ModelError, NaturalScaleModel

__all__ = [
    "GridChain",
    "PathSample",
    "build_chain",
    "sample_paths",
    "StepBudgetError",
    "INTERIOR",
    "REFLECT_UP",
    "REFLECT_DOWN",
    "ABSORBING",
]

INTERIOR = 0
REFLECT_UP = 1  # left edge: deterministic move up
REFLECT_DOWN = 2  # right edge: deterministic move down
ABSORBING = 3

_COMMENSURATE_RTOL = 1e-6
# steps one path may take.  The ensemble's rounds do not grow with the path;
# a path that ``sample_paths`` records keeps 16 B per step (its states and
# times), and a value series the ensemble records keeps 24 B per step (the
# hold's start time and its increment by each of at most two routes), so the
# ten series a backtest records hold at most 10 * 2**21 * 24 B, about
# 500 MB, when the budget trips
_STEP_BUDGET = 2**21
# moves one round of the group walker takes over all its rows, past the
# cuts included
_CELLS = 12288
# moves a row takes in a round: the steps left if every hold were as long as
# the current node's, the most over the round's rows, within these bounds;
# a fresh path's estimate sets how many rows share the cells, and rounds
# with fewer rows than that take up to _CELLS // rows moves
_BLOCK = (128, 1024)
# consecutive ids ``sample_paths`` walks as one group: the most rows a round
# holds, so that the recorded paths in memory do not grow with the ids asked for
_GROUP = _CELLS // _BLOCK[0]
# a raw 64-bit draw below this is a uniform below 1/2
_HALF = np.uint64(2**63)


class StepBudgetError(RuntimeError):
    """A path would take more than the step budget allows."""


@dataclass(frozen=True)
class GridChain:
    model: NaturalScaleModel
    h: float
    grid: np.ndarray  # node positions, increasing, uniform spacing h
    dt: np.ndarray  # holding time per node (inf at absorbing nodes)
    m_cell: np.ndarray  # speed mass of the cell [u - h/2, u + h/2) per node
    # the move rule: INTERIOR nodes step up or down on a fair coin,
    # REFLECT_UP / REFLECT_DOWN edges step inward, ABSORBING nodes never move
    node_type: np.ndarray
    window_edge: np.ndarray  # True where reflection is a truncation artifact
    start_idx: int
    window: tuple[float, float]

    @property
    def n_nodes(self) -> int:
        return len(self.grid)

    def index_of(self, u: float) -> int:
        return _index_of(self.grid, self.h, u)


def _index_of(grid: np.ndarray, h: float, u: float, what: str = "point") -> int:
    """The node at u, to within ``_COMMENSURATE_RTOL`` of h: the one rule
    that puts a point of the model on the grid.  Raises unless u is a node."""
    idx = int(round((u - grid[0]) / h))
    if not 0 <= idx < len(grid) or abs(grid[idx] - u) > h * _COMMENSURATE_RTOL:
        raise ModelError(
            f"{what} at {u} is not a grid node (first node {grid[0]}, spacing {h})"
        )
    return idx


def _atom_nodes(grid: np.ndarray, h: float, atoms) -> list[tuple[int, float]]:
    """(node, mass) of each atom in the grid's span, to the grid's rounding,
    by the one node lookup; an atom outside the span is outside the chain."""
    tol = h * _COMMENSURATE_RTOL
    return [(_index_of(grid, h, a), m) for a, m in atoms if grid[0] - tol <= a <= grid[-1] + tol]


def build_chain(
    model: NaturalScaleModel, h: float, radius: float = DEFAULT_WINDOW
) -> GridChain:
    if h <= 0:
        raise ValueError("grid spacing must be positive")
    lo_w, hi_w = model.window(radius)

    # the grid runs through an included left end, else through the start
    anchor = model.lo if (np.isfinite(model.lo) and model.left.included) else model.u0
    n_down = int(np.floor((anchor - lo_w) / h + _COMMENSURATE_RTOL))
    n_up = int(np.floor((hi_w - anchor) / h + _COMMENSURATE_RTOL))
    grid = anchor + h * np.arange(-n_down, n_up + 1)
    n = len(grid)
    if n < 3:
        raise ModelError("window too narrow for the requested spacing")

    # the start, and each speed atom, scale kink and included end inside the
    # window, must be nodes; a point outside the window is not in the chain
    start_idx = _index_of(grid, h, model.u0, "start point")
    ends = ((model.lo, model.left), (model.hi, model.right))
    points = [("speed atom", a) for a, _ in model.m_atoms]
    points += [("scale kink", a) for a, _ in model.q_second_atoms]
    points += [("included endpoint", e) for e, spec in ends if spec.included]
    nodes = {a: _index_of(grid, h, a, what) for what, a in points if lo_w <= a <= hi_w}

    # an edge node on no included end is where the window cuts the state space
    node_type = np.full(n, INTERIOR, dtype=np.int8)
    node_type[[0, -1]] = REFLECT_UP, REFLECT_DOWN
    window_edge = np.zeros(n, dtype=bool)
    for i, (e, spec) in zip((0, n - 1), ends):
        if not spec.included or nodes.get(e) != i:
            window_edge[i] = True
        elif spec.is_absorbing:
            node_type[i] = ABSORBING

    m_ac = model.m_ac
    atom_mass = np.zeros(n)
    for i, mass in _atom_nodes(grid, h, model.m_atoms):
        atom_mass[i] += mass

    # cell masses for the local time estimator
    m_cell = (
        m_ac.integrate(np.maximum(grid - h / 2, grid[0]), np.minimum(grid + h / 2, grid[-1]))
        + atom_mass
    )
    # the expected exit time of (u - h, u + h) is the tent-kernel integral,
    # split at u into a left and a right half; an edge node keeps only its
    # inward half, doubled (the hitting time of its neighbour from a
    # reflecting wall), and an absorbing node none
    holds = node_type != ABSORBING
    left = np.zeros(n)
    right = np.zeros(n)
    on = holds & (node_type != REFLECT_UP)
    u = grid[on]
    left[on] = m_ac.integrate(u - h, u, c0=h - u, c1=1.0)
    on = holds & (node_type != REFLECT_DOWN)
    u = grid[on]
    right[on] = m_ac.integrate(u, u + h, c0=h + u, c1=-1.0)
    dt = left + right + h * atom_mass
    dt[node_type != INTERIOR] *= 2.0
    dt[~holds] = np.inf
    bad = np.flatnonzero(holds & ~(np.isfinite(dt) & (dt > 0)))
    if len(bad):
        raise ModelError(f"non-positive or infinite holding time at node {grid[bad[0]]}")

    return GridChain(
        model=model,
        h=h,
        grid=grid,
        dt=dt,
        m_cell=m_cell,
        node_type=node_type,
        window_edge=window_edge,
        start_idx=start_idx,
        window=(float(grid[0]), float(grid[-1])),
    )


@dataclass(frozen=True)
class PathSample:
    """times[k] is the entry time of states[k]; times[0] = 0."""

    times: np.ndarray
    states: np.ndarray  # node indices into chain.grid
    absorbed: bool
    absorption_time: float
    window_hit: bool
    seed: int
    path_id: int


def _round_cells() -> int:
    """The most cells, moves and start column, a round of the walker holds."""
    return _CELLS + _CELLS // _BLOCK[0]


def _check_seed(seed: int):
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


class _Round(NamedTuple):
    """One round of the group walker: row r advances path ``pid[r]``.

    Row r holds at ``nodes[r, c]`` from ``times[r, c]`` to ``times[r, c + 1]``
    for c < ``n_hold[r]``, and its next round starts at ``nodes[r, n_hold[r]]``
    at ``times[r, n_hold[r]]``; entries past those are not part of the path.
    A path's final hold is the one that reaches T (an absorbing node holds
    forever).  ``window_hit`` and ``n_steps`` (the path's recorded moves)
    count up to the end of the round.
    """

    pid: np.ndarray  # (R,)
    nodes: np.ndarray  # (R, B + 1)
    times: np.ndarray  # (R, B + 1)
    n_hold: np.ndarray  # (R,)
    final: np.ndarray  # (R,) the path ends with this round's last hold
    absorbed: np.ndarray  # (R,) that hold is at an absorbing node
    window_hit: np.ndarray  # (R,)
    n_steps: np.ndarray  # (R,)


def _walk(chain: GridChain, T: float, seed: int, path_ids: range) -> Iterator[_Round]:
    """Walk the paths ``path_ids`` in rounds, many paths per numpy call.

    A round is a (rows, moves) block within the cell budget ``_CELLS``;
    rows whose path ended take the next path ids.  Each row takes the same
    number of moves from its own stream, ``Philox(key=[seed, pid])``: the
    walk's one generator is set to that key and to the counter of the block
    of four outputs that holds the row's next move, so a row draws only
    its round's moves and what precedes them in that block, and nothing is
    carried from round to round.  Every move is a fair coin
    except at the two edges, so a row's free positions are one cumulative
    sum.  The row's nearer edge, when it reflects and the row can reach it,
    is crossed in closed form: the walk whose moves from the wall are forced
    inward is the free walk plus twice the rounded-up half of its running
    overshoot past the wall (Skorokhod reflection).  A row stops at its first
    hold that reaches T (an absorbing node holds forever) and before its
    first visit to a farther reflecting edge, where its next round starts.
    Move n of a path is output n of its stream whatever the rows,
    rounds or moves per round, so a path does not depend on the others.
    """
    top = chain.n_nodes - 1
    dt, window_edge = chain.dt, chain.window_edge
    absorbing = chain.node_type == ABSORBING
    can_absorb = bool(absorbing.any())
    start = chain.start_idx
    lo, hi = _BLOCK
    rows_max = max(_CELLS // int(min(max(T / dt[start] + 2, lo), hi)), 1)
    # one generator for every row, set before each round to the row's stream
    # at the block of four outputs that holds its next move; the k-th block
    # of a stream is made with counter k + 1, and none is buffered
    gen = np.random.Philox(0)
    key, counter = [seed, 0], [0, 0, 0, 0]
    position = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    # the rows in flight, first R entries: path id, node and time the row
    # goes on from, its window hit and its recorded moves, which are the
    # moves its stream has given
    R = taken = 0
    pid = np.empty(rows_max, dtype=np.int64)
    node = np.empty(rows_max, dtype=np.int64)
    t = np.empty(rows_max)
    window_hit = np.empty(rows_max, dtype=bool)
    n_steps = np.empty(rows_max, dtype=np.int64)
    # the rounds' arrays are views of these, so that rounds reuse their pages
    cells = _round_cells()
    up_flat = np.empty(cells, dtype=bool)
    nodes_flat = np.empty(cells, dtype=np.int64)
    lift_flat = np.empty(cells, dtype=np.int64)
    times_flat = np.empty(cells)
    while True:
        fresh = path_ids[taken : taken + rows_max - R]
        if len(fresh):
            taken += len(fresh)
            new = slice(R, R + len(fresh))
            pid[new], node[new], t[new] = fresh, start, 0.0
            window_hit[new], n_steps[new] = window_edge[start], 0
            R += len(fresh)
        if R == 0:
            return
        B = int(min(max(((T - t[:R]) / dt[node[:R]]).max() + 2, lo), _CELLS // R))
        rows = np.arange(R)

        up = up_flat[: R * B].reshape(R, B)
        for r, (key[1], s) in enumerate(zip(pid[:R].tolist(), n_steps[:R].tolist())):
            counter[0], skip = divmod(s, 4)  # the row's move s is output skip of block s // 4
            gen.state = position
            np.less(gen.random_raw(skip + B)[skip:], _HALF, out=up[r])
        nodes = nodes_flat[: R * (B + 1)].reshape(R, B + 1)
        np.multiply(up, 2, out=nodes[:, 1:])
        nodes[:, 1:] -= 1
        nodes[:, 0] = node[:R]
        np.cumsum(nodes, axis=1, out=nodes)

        cut = reached = rows[:0]
        at = nodes[:, 0]
        if at.min() < B or at.max() > top - B:  # a row can reach an edge
            near_lo = at <= top - at
            near = np.where(near_lo, 0, top)
            far = top - near
            # rows whose walk can pass the nearer edge, and rows whose walk
            # can visit the farther one before its last move
            wall = np.flatnonzero(~absorbing[near] & (np.abs(near - at) < B))
            cut = np.flatnonzero(~absorbing[far] & (np.abs(far - at) < B))
            if len(wall):
                walk = nodes[wall, 1:] if len(wall) < R else nodes[:, 1:]
                # with m the running minimum of the free walk's depth inside
                # the wall, the reflected walk is 2 ceil(max(0, -m) / 2)
                # further in
                inward = np.where(near_lo[wall], 1, -1)[:, None]
                lift = lift_flat[: walk.size].reshape(walk.shape)
                np.subtract(walk, near[wall, None], out=lift)
                lift *= inward
                np.minimum.accumulate(lift, axis=1, out=lift)
                reached = wall[lift[:, -1] <= 0]  # rows whose walk met the wall
                np.subtract(1, lift, out=lift)  # 2 ceil(-m / 2) = (1 - m) & -2
                lift &= -2
                np.maximum(lift, 0, out=lift)
                lift *= inward
                walk += lift
                if len(wall) < R:
                    nodes[wall, 1:] = walk

        # entry times, summed in step order; a row meets an edge before it
        # leaves the grid, so the clipped lookups only differ past its cut
        times = times_flat[: R * (B + 1)].reshape(R, B + 1)
        times[:, 0] = t[:R]
        dt.take(nodes[:, :B], mode="clip", out=times[:, 1:])
        np.cumsum(times, axis=1, out=times)
        before_T = np.add.reduce(times[:, 1:] < T, axis=1)  # holds ending before T
        n_hold = np.minimum(before_T + 1, B)
        final = before_T < B
        if len(cut):
            visit = nodes[cut, 1:B] == far[cut, None]
            first = visit.argmax(axis=1)
            first = np.where(visit[rows[: len(cut)], first], first + 1, B)
            final[cut] &= before_T[cut] < first
            n_hold[cut] = np.minimum(n_hold[cut], first)
        absorbed = final & absorbing[nodes[rows, n_hold - 1]] if can_absorb else final & False
        hit = window_hit[:R]
        hit |= window_edge[at]
        if len(reached):
            reached = reached[~hit[reached] & window_edge[near[reached]]]
        if len(reached):
            # visits to a crossed wall that start a hold of the round
            at_wall = nodes[reached, :B] == near[reached, None]
            at_wall &= np.arange(B) < n_hold[reached, None]
            hit[reached] = at_wall.any(axis=1)
        moves = n_steps[:R]
        moves += n_hold - absorbed
        if moves.max() > _STEP_BUDGET:
            raise StepBudgetError(f"step budget exceeded: a path may take {_STEP_BUDGET} steps")
        yield _Round(pid[:R], nodes, times, n_hold, final, absorbed, hit, moves)

        if taken == len(path_ids) and final.all():
            return
        go = np.flatnonzero(~final)
        R = len(go)
        node[:R], t[:R] = nodes[go, n_hold[go]], times[go, n_hold[go]]
        pid[:R], window_hit[:R], n_steps[:R] = pid[go], hit[go], moves[go]


def sample_paths(
    chain: GridChain, T: float, seed: int, path_ids: range
) -> Iterator[PathSample]:
    """Yield the paths ``path_ids`` of the chain on [0, T], in id order.

    The ids are walked by ``_walk`` in groups of ``_GROUP`` consecutive
    ids, many paths per numpy call; a finished path is yielded as soon as
    every lower id of its group has been, so at most one group of paths is
    held at a time, however many ids are asked for.  A hold that reaches T
    ends a path.  Each path equals the ensemble's path of the same id bit
    for bit, whatever other ids are asked for with it.  The arguments are
    checked when the first path is asked for.
    """
    if T <= 0:
        raise ValueError("horizon must be positive")
    _check_seed(seed)
    first_state, first_time = np.array([chain.start_idx]), np.array([0.0])
    for g in range(0, len(path_ids), _GROUP):
        group = path_ids[g : g + _GROUP]
        pending = iter(group)
        want = next(pending)
        pieces: dict[int, tuple[list, list]] = {}
        done: dict[int, PathSample] = {}
        for rnd in _walk(chain, T, seed, group):
            ends = (rnd.n_hold - rnd.absorbed).tolist()  # an absorbing hold enters nothing
            for r, (pid, k) in enumerate(zip(rnd.pid.tolist(), ends)):
                states, times = pieces.setdefault(pid, ([first_state], [first_time]))
                states.append(rnd.nodes[r, 1 : k + 1].copy())  # the walker reuses its buffers
                times.append(rnd.times[r, 1 : k + 1].copy())
            for r in np.flatnonzero(rnd.final).tolist():
                pid = int(rnd.pid[r])
                states, times = pieces.pop(pid)
                absorbed = bool(rnd.absorbed[r])
                done[pid] = PathSample(
                    times=np.concatenate(times),
                    states=np.concatenate(states),
                    absorbed=absorbed,
                    absorption_time=float(rnd.times[r, rnd.n_hold[r] - 1]) if absorbed else np.inf,
                    window_hit=bool(rnd.window_hit[r]),
                    seed=seed,
                    path_id=pid,
                )
            while want in done:
                yield done.pop(want)
                want = next(pending, None)
