"""Per-path oracles of the chain and backtest tests, each a scalar loop
over one path's steps: the path itself (``per_step_path``), its book by
both value routes (``book_path``), and occupation, local time, quadratic
variation and hitting times read off a sampled path."""

import functools
from typing import NamedTuple

import numpy as np

from gdarb.chain import ABSORBING, REFLECT_DOWN, REFLECT_UP, GridChain, PathSample


def per_step_path(chain: GridChain, T: float, seed: int, path_id: int) -> PathSample:
    """Path ``path_id`` of the chain on [0, T], one step at a time.

    The path draws from its own stream, ``Philox(key=[seed, path_id])``:
    step n takes the n-th uniform of it; a reflecting edge steps inward,
    any other node goes up iff the uniform is below 1/2.  A hold that
    reaches T ends the path, and the state it moves to is recorded; an
    absorbing node entered before T holds to T and enters nothing."""
    rng = np.random.Generator(np.random.Philox(key=[seed, path_id]))
    i = chain.start_idx
    t = 0.0
    states, times = [i], [0.0]
    window_hit = bool(chain.window_edge[i])
    absorbed = chain.node_type[i] == ABSORBING
    while not absorbed and t < T:
        u01 = rng.random()
        t += chain.dt[i]
        kind = chain.node_type[i]
        i += 1 if kind == REFLECT_UP or (kind != REFLECT_DOWN and u01 < 0.5) else -1
        states.append(i)
        times.append(t)
        if t < T:
            window_hit |= bool(chain.window_edge[i])
            absorbed = chain.node_type[i] == ABSORBING
    return PathSample(
        times=np.array(times),
        states=np.array(states),
        absorbed=bool(absorbed),
        absorption_time=t if absorbed else np.inf,
        window_hit=window_hit,
        seed=seed,
        path_id=path_id,
    )


class PathBook(NamedTuple):
    """One path's book on [0, T]: hold k runs from ``times[k]`` to
    ``times[k + 1]`` and is followed by its jump, except the last hold.
    The other fields hold one entry per hold: the increment of the hold or
    of its jump (0 for the last hold's jump)."""

    times: np.ndarray
    int_hold: np.ndarray  # H(u) d(e^{-rt} q(u)) over the hold
    cf_hold: np.ndarray  # H(u) nu({u}) per unit local time, times the discounted hold
    int_jump: np.ndarray  # H(u) e^{-r t1} (q(u') - q(u))
    cf_jump: np.ndarray  # H(u) e^{-r t0} nu_ac(u) h^2
    dS: np.ndarray  # (e^{-r t0} q'(u))^2 h^2, the <S> growth of the jump
    leak: np.ndarray  # (H(u) q'(u))^2 h^2, the exposure that condition (i) forbids
    clock: np.ndarray  # |nu| growth where H agrees in sign with theta

    def values(self, route: str) -> np.ndarray:
        """The value series of a route, 0 at time 0 and then a running sum."""
        hold, jump = (
            (self.int_hold, self.int_jump) if route == "integral" else (self.cf_hold, self.cf_jump)
        )
        return np.concatenate([[0.0], np.cumsum(hold + jump)])

    def min_increment(self, route: str) -> float:
        """The smallest hold or jump increment of a route, or 0."""
        hold, jump = (
            (self.int_hold, self.int_jump) if route == "integral" else (self.cf_hold, self.cf_jump)
        )
        return min(0.0, float(np.minimum(hold, jump).min()))


def book_path(path: PathSample, chain: GridChain, bundle, H, T: float) -> PathBook:
    """Book ``path`` on [0, T] by both value routes, hold by hold.

    A hold at node u from t0 to t1 (capped at T) moves the discounted price
    S = e^{-rt} q(U) by q(u) (e^{-r t1} - e^{-r t0}); its jump to u' moves
    it by e^{-r t1} (q(u') - q(u)).  The closed form books the atom of nu at
    u per unit of local time over the hold's discounted length
    w = int_t0^t1 e^{-rs} ds, with local time m_cell(u) per unit of time
    (at an absorbing node, nu({u}) per unit of the post-absorption clock,
    which runs to T), and nu's density at the jump, per h^2 of quadratic
    variation, discounted from the hold's start.  The last hold, the one
    that reaches T, makes no jump.  H is off from the first visit to
    ``H.stop_after_hitting`` on, that hold included."""
    model, h, r = chain.model, chain.h, chain.model.rate
    nu = bundle.nu
    h2 = h**2
    stop = None if H.stop_after_hitting is None else chain.index_of(H.stop_after_hitting)

    @functools.cache
    def node(i):
        """H, theta, q, q', nu's density and the atom's rate at node i,
        each evaluated at the node alone."""
        u = float(chain.grid[i])
        nu_ac = 0.0 if nu.density is None else float(nu.density(u)) * float(nu.carrier.contains(u))
        atom = 0.0
        for a, mass in nu.atoms:
            if abs(a - u) <= 1e-6 * h:
                atom += mass if chain.node_type[i] == ABSORBING else mass / chain.m_cell[i]
        q, qp = float(model.q(u)), float(model.q_prime(u))
        return H.evaluate(u), bundle.theta.evaluate(u), q, qp, nu_ac, atom

    rows = {name: [] for name in PathBook._fields[1:]}
    bounds = [0.0]
    off = False
    states, times = path.states, path.times
    for k, i in enumerate(states.tolist()):
        t0 = float(times[k])
        if t0 >= T:
            break
        t1 = float(times[k + 1]) if k + 1 < len(times) else np.inf
        jumps = t1 < T
        t1 = min(t1, T)
        bounds.append(t1)

        off = off or i == stop
        Hu, theta_u, q, qp, nu_ac, atom = node(i)
        on = not off and theta_u * Hu > 0.0
        if off:
            Hu *= 0.0
        d0, d1 = float(np.exp(t0 * -r)), float(np.exp(t1 * -r))
        w = (d1 - d0) / -r if r != 0.0 else t1 - t0

        rows["int_hold"].append(Hu * q * (d1 - d0))
        rows["cf_hold"].append(Hu * atom * w)
        clock = float(on) * abs(atom) * w
        if jumps:
            q_next = node(int(states[k + 1]))[2]
            rows["int_jump"].append(Hu * d1 * (q_next - q))
            rows["cf_jump"].append(Hu * d0 * nu_ac * h2)
            rows["dS"].append((d0 * qp) * (d0 * qp) * h2)
            rows["leak"].append((Hu * qp) * (Hu * qp) * h2)
            clock += float(on) * (abs(nu_ac) * h2)
        else:
            for name in ("int_jump", "cf_jump", "dS", "leak"):
                rows[name].append(0.0)
        rows["clock"].append(clock)
    return PathBook(np.array(bounds), *(np.array(rows[name]) for name in PathBook._fields[1:]))


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
