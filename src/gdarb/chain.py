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
    "occupation",
    "local_time_total",
    "qv_series",
    "hitting_time",
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
# steps one path may take: a booked step holds about 140 B of arrays, so a
# path stays within about 300 MB
_STEP_BUDGET = 2**21
_DRAW = 4096  # uniforms drawn from a path's stream at a time
_FIRST_BLOCK = 128  # steps tried after an edge; doubles while no edge comes


@dataclass(frozen=True)
class GridChain:
    model: NaturalScaleModel
    h: float
    grid: np.ndarray  # node positions, increasing, uniform spacing h
    dt: np.ndarray  # holding time per node (inf at absorbing nodes)
    m_cell: np.ndarray  # speed mass of the cell [u - h/2, u + h/2) per node
    node_type: np.ndarray  # INTERIOR / REFLECT_UP / REFLECT_DOWN / ABSORBING
    p_up: np.ndarray  # move rule: a step goes up iff its uniform is below p_up[i]
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
    # edges move inward (absorbing edges never move: their dt is infinite)
    p_up = np.full(n, 0.5)
    p_up[0], p_up[-1] = 1.0, 0.0

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
        p_up=p_up,
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


def sample_path(chain: GridChain, T: float, seed: int, path_id: int = 0) -> PathSample:
    """One path of the chain on [0, T]; a hold that reaches T ends it.

    Each step draws one uniform from the path's stream and goes up iff the
    uniform is below ``p_up`` of the node it leaves.  Steps are taken in
    blocks: inside the grid every move is a fair coin, so a block's
    positions are one cumulative sum, cut at the first edge or absorbing
    node and at the step whose hold reaches T; an edge's forced move is the
    next block's first step.
    """
    if T <= 0:
        raise ValueError("horizon must be positive")
    rng = path_rng(seed, path_id)
    edge = chain.node_type != INTERIOR
    i = chain.start_idx
    t = 0.0
    states = [np.array([i])]
    times = [np.array([0.0])]
    window_hit = bool(chain.window_edge[i])
    absorbed = bool(chain.node_type[i] == ABSORBING)
    n_steps = 0
    block = _FIRST_BLOCK
    moves = np.empty(0, dtype=np.int64)
    while not absorbed and t < T:
        if len(moves) == 0:
            u = rng.random(_DRAW)
            moves = np.where(u < 0.5, 1, -1)
        pos = moves[:block].cumsum()
        # the first move leaves node i by its own rule
        pos += i + (1 if u[0] < chain.p_up[i] else -1) - moves[0]
        # hold end times, summed in step order; a +-1 walk meets an edge
        # before it leaves the grid, so the clipped lookups only differ from
        # the walk past the cut
        held = np.empty(len(pos))
        held[0] = t + chain.dt[i]
        chain.dt.take(pos[:-1], mode="clip", out=held[1:])
        held.cumsum(out=held)
        # steps up to the first edge or absorbing node, or to the one whose
        # hold reaches T
        k = min(int(held.searchsorted(T)) + 1, len(pos))
        at_edge = edge.take(pos[:k], mode="clip")
        first = int(at_edge.argmax())
        cut = bool(at_edge[first])
        if cut:
            k = first + 1
        states.append(pos[:k])
        times.append(held[:k])
        u, moves = u[k:], moves[k:]
        block = _FIRST_BLOCK if cut else 2 * block
        n_steps += k
        if n_steps > _STEP_BUDGET:
            raise RuntimeError(f"step budget exceeded: a path may take {_STEP_BUDGET} steps")
        i, t = int(pos[k - 1]), float(held[k - 1])
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


def occupation(path: PathSample, chain: GridChain, T: float) -> np.ndarray:
    """Seconds spent at each node on [0, T] (absorbed tail included)."""
    occ = np.zeros(chain.n_nodes)
    times = path.times
    states = path.states
    for k in range(len(states)):
        t0 = times[k]
        t1 = times[k + 1] if k + 1 < len(times) else np.inf
        if t0 >= T:
            break
        occ[states[k]] += min(t1, T) - t0
    return occ


def local_time_total(path: PathSample, chain: GridChain, T: float) -> np.ndarray:
    """Local time estimate per node at T: cell occupation / cell speed mass.

    Nodes with zero cell mass get nan (no estimate possible there).
    """
    occ = occupation(path, chain, T)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = occ / chain.m_cell
    out[(chain.m_cell == 0.0) & (occ == 0.0)] = 0.0
    out[(chain.m_cell == 0.0) & (occ > 0.0)] = np.nan
    return out


def qv_series(path: PathSample, chain: GridChain, T: float):
    """(jump times, cumulative <U>, cumulative <S>) for jumps before T.

    Each executed jump of size h contributes h^2 to <U> and
    exp(-2 r t) q'_+(u)^2 h^2 to <S>, evaluated at the step's entry state.
    """
    model = chain.model
    h2 = chain.h**2
    times = path.times
    states = path.states
    njump = len(states) - 1
    jt = times[1 : njump + 1]
    keep = jt < T  # a hold that reaches T ends the path
    jt = jt[keep]
    entry_states = states[:njump][keep]
    entry_times = times[:njump][keep]
    qp = np.asarray(model.q_prime(chain.grid[entry_states]), dtype=float)
    dU = np.full(len(jt), h2)
    dS = np.exp(-2.0 * model.rate * entry_times) * qp**2 * h2
    return jt, np.cumsum(dU), np.cumsum(dS)


def hitting_time(path: PathSample, chain: GridChain, x: float, T: float):
    """(first time before T that the path state equals x, True), or (T, False)."""
    idx = chain.index_of(x)
    mask = path.states == idx
    if mask.any():
        t = float(path.times[np.argmax(mask)])
        if t < T:
            return t, True
    return T, False
