"""Per-path oracles of the chain tests: occupation, local time, quadratic
variation and hitting times, read off a sampled path step by step."""

import numpy as np

from gdarb.chain import GridChain, PathSample


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
