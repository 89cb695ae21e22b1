"""Exit-time grid-chain simulation of the natural-scale diffusion.

The chain lives on a uniform grid of spacing h.  Interior nodes jump one
step up or down with probability 1/2 after a deterministic holding time
equal to the expected exit time of the surrounding interval, computed as a
tent-kernel integral against the speed measure.  Reflecting endpoints jump
inward with probability one; absorbing endpoints are terminal.  Holding
times make the chain's occupation measure match the speed measure, which
is what every estimator here relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DEFAULT_WINDOW, ModelError, NaturalScaleModel

__all__ = [
    "GridChain",
    "PathSample",
    "build_chain",
    "sample_path",
    "path_rng",
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
# steps one path may take: booking a path in the ensemble peaks at about
# 175 B of arrays per step (its states and times, the gathered node rows, the
# kernel's book and the step-order sum columns), so a path stays within
# about 370 MB
_STEP_BUDGET = 2**21
# steps a block tries: at the start and after an edge cut, the steps left if
# every hold were as long as the current node's, so that most paths take one
# or two blocks; doubled while no edge comes; always within these bounds, so
# that a short path draws few uniforms and a block stays in cache
_BLOCK = (128, 4096)


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
        idx = int(round((u - self.grid[0]) / self.h))
        if not 0 <= idx < len(self.grid) or abs(self.grid[idx] - u) > self.h * 1e-3:
            raise ValueError(f"{u} is not a grid node")
        return idx


def _require_on_grid(u: float, anchor: float, h: float, what: str):
    k = (u - anchor) / h
    if abs(k - round(k)) > _COMMENSURATE_RTOL:
        raise ModelError(
            f"{what} at {u} is not commensurate with the grid "
            f"(anchor {anchor}, spacing {h})"
        )


def build_chain(
    model: NaturalScaleModel, h: float, radius: float = DEFAULT_WINDOW
) -> GridChain:
    if h <= 0:
        raise ValueError("grid spacing must be positive")
    lo_w, hi_w = model.window(radius)

    anchor = model.lo if (np.isfinite(model.lo) and model.left.included) else model.u0
    _require_on_grid(model.u0, anchor, h, "start point")
    for a, _ in model.m_atoms:
        if lo_w <= a <= hi_w:
            _require_on_grid(a, anchor, h, "speed atom")
    for a, _ in model.q_second_atoms:
        if lo_w <= a <= hi_w:
            _require_on_grid(a, anchor, h, "scale kink")
    for e, spec in ((model.lo, model.left), (model.hi, model.right)):
        if np.isfinite(e) and spec.included:
            _require_on_grid(e, anchor, h, "included endpoint")

    n_down = int(np.floor((anchor - lo_w) / h + _COMMENSURATE_RTOL))
    n_up = int(np.floor((hi_w - anchor) / h + _COMMENSURATE_RTOL))
    grid = anchor + h * np.arange(-n_down, n_up + 1)
    n = len(grid)
    if n < 3:
        raise ModelError("window too narrow for the requested spacing")

    node_type = np.full(n, INTERIOR, dtype=np.int8)
    window_edge = np.zeros(n, dtype=bool)
    left_real = np.isfinite(model.lo) and abs(grid[0] - model.lo) <= h * 1e-6
    right_real = np.isfinite(model.hi) and abs(grid[-1] - model.hi) <= h * 1e-6
    if left_real and model.left.is_absorbing:
        node_type[0] = ABSORBING
    else:
        node_type[0] = REFLECT_UP
        window_edge[0] = not (left_real and model.left.is_reflecting)
    if right_real and model.right.is_absorbing:
        node_type[-1] = ABSORBING
    else:
        node_type[-1] = REFLECT_DOWN
        window_edge[-1] = not (right_real and model.right.is_reflecting)

    m_ac = model.m_ac
    atom_mass = np.zeros(n)
    for a, mass in model.m_atoms:
        if grid[0] - h / 2 <= a <= grid[-1] + h / 2:
            atom_mass[int(round((a - grid[0]) / h))] += mass

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

    start_idx = int(round((model.u0 - grid[0]) / h))
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


def path_rng(seed: int, path_id: int) -> np.random.Generator:
    """Counter-based substream: independent across path ids, reproducible."""
    return np.random.Generator(np.random.Philox(key=[seed, path_id]))


def _first_block(dt: float, time_left: float) -> int:
    lo, hi = _BLOCK
    return int(min(max(time_left / dt + 1, lo), hi))


def sample_path(chain: GridChain, T: float, seed: int, path_id: int = 0) -> PathSample:
    """One path of the chain on [0, T]; a hold that reaches T ends it.

    Each step draws one uniform from the path's stream and goes up iff the
    uniform is below 1/2, except at a reflecting edge, whose step goes
    inward whatever it draws.  Steps are taken in blocks.  Every move is a
    fair coin except at the two edges, so a block's free positions are one
    cumulative sum.  The nearer edge, when it reflects and the block can
    reach it, is crossed inside the block in closed form: the walk whose
    moves from the wall are forced inward is the free walk plus twice the
    rounded-up half of its running overshoot past the wall (Skorokhod
    reflection).  A block is cut at the step whose hold reaches T and at the
    first visit to the other edge or to an absorbing node.
    """
    if T <= 0:
        raise ValueError("horizon must be positive")
    rng = path_rng(seed, path_id)
    top = chain.n_nodes - 1
    i = chain.start_idx
    t = 0.0
    states = [np.array([i])]
    times = [np.array([0.0])]
    window_hit = bool(chain.window_edge[i])
    absorbed = bool(chain.node_type[i] == ABSORBING)
    n_steps = 0
    block = _first_block(chain.dt[i], T)
    moves = np.empty(0, dtype=np.int64)
    while not absorbed and t < T:
        if len(moves) == 0:
            moves = np.where(rng.random(block) < 0.5, 1, -1)
        pos = moves[:block].cumsum()
        pos += i
        # the edges the walk can visit before its last move (a visit at the
        # last move ends the block anyway)
        near, far = (0, top) if i <= top - i else (top, 0)
        reach = [e for e in (near, far) if abs(e - i) < len(pos)]
        wall = None
        if near in reach and chain.node_type[near] != ABSORBING:
            wall = reach.pop(0)
            # with m the running minimum of the free walk's depth inside the
            # wall, the reflected walk is 2 ceil(max(0, -m) / 2) further in
            inward = 1 if wall == 0 else -1
            lift = np.minimum.accumulate((pos - wall) * inward)
            np.subtract(1, lift, out=lift)  # 2 ceil(-m / 2) = (1 - m) & -2
            lift &= -2
            np.maximum(lift, 0, out=lift)
            lift *= inward
            pos += lift
        # hold end times, summed in step order; the walk meets an edge before
        # it leaves the grid, so the clipped lookups only differ from it past
        # the cut
        held = np.empty(len(pos))
        held[0] = t + chain.dt[i]
        chain.dt.take(pos[:-1], mode="clip", out=held[1:])
        held.cumsum(out=held)
        # steps up to the one whose hold reaches T, or to the first visit to an
        # edge that is not crossed in closed form
        before_T = int(held.searchsorted(T))
        k = min(before_T + 1, len(pos))
        cut = False
        if reach:
            at_edge = pos[:k] <= (-1 if wall == 0 else 0)  # a crossed wall cuts nothing
            at_edge |= pos[:k] >= (top + 1 if wall == top else top)
            first = int(at_edge.argmax())
            cut = bool(at_edge[first])
            if cut:
                k = first + 1
        if wall is not None and not window_hit and chain.window_edge[wall]:
            # a visit to the crossed wall entered before T
            window_hit = bool((pos[: min(k, before_T)] == wall).any())
        states.append(pos[:k])
        times.append(held[:k])
        moves = moves[k:]
        n_steps += k
        if n_steps > _STEP_BUDGET:
            raise StepBudgetError(f"step budget exceeded: a path may take {_STEP_BUDGET} steps")
        i, t = int(pos[k - 1]), float(held[k - 1])
        block = _first_block(chain.dt[i], T - t) if cut else min(2 * block, _BLOCK[1])
        if t < T:
            window_hit |= bool(chain.window_edge[i])
            absorbed = bool(chain.node_type[i] == ABSORBING)
    return PathSample(
        times=np.concatenate(times),
        states=np.concatenate(states),
        absorbed=absorbed,
        absorption_time=t if absorbed else np.inf,
        window_hit=window_hit,
        seed=seed,
        path_id=path_id,
    )
