"""Auxiliary signed measure, canonical strategies, and market verdicts.

From a natural-scale model this module assembles the signed measure whose
vanishing characterizes the absence of increasing profits, derives the
sign-feedback strategies supported on {q' = 0}, and decides the three
market-level verdicts (no increasing profit, existence of a
quadratic-variation increasing profit, representation property).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .borel import EMPTY, BorelSet
from .measures import SignedMeasure, jordan_hahn
from .model import NaturalScaleModel, UnsupportedModelError, _agree, zero_set
from .piecewise import Const, PiecewiseFn, _scaled_cols

__all__ = [
    "NuBundle",
    "FeedbackStrategy",
    "MarketVerdicts",
    "ConditionReport",
    "build_nu",
    "market_verdicts",
    "build_theta",
    "build_theta_bar",
    "check_strategy_conditions",
]


@dataclass(frozen=True)
class NuBundle:
    """``nu`` and everything its one Jordan-Hahn decomposition gives: the
    Hahn sets, the Jordan parts of its ac part, and the canonical strategy
    theta.  ``build_nu`` makes it; the verdicts, theta-bar, the strategy
    checks and the backtest's node tables read it and decompose nothing."""

    nu: SignedMeasure
    n_plus: BorelSet
    n_minus: BorelSet
    n_si: BorelSet  # carrier of the interior atoms of nu
    n_qprime0: BorelSet  # boundary images + n_si + interior {q'_+ = 0}
    qprime_zero: BorelSet  # interior {q'_+ = 0} alone
    window: tuple[float, float]
    nu_ac_plus: SignedMeasure  # Jordan parts of nu's ac part, on the window
    nu_ac_minus: SignedMeasure
    theta: FeedbackStrategy


@dataclass(frozen=True)
class FeedbackStrategy:
    """H(u) = gain * (+1 on plus_set, -1 on minus_set, 0 elsewhere).

    ``stop_after_hitting`` deactivates the strategy strictly after the first
    visit to the given state (H_t = base(U_t) * 1{t <= T_level}).
    """

    plus_set: BorelSet = EMPTY
    minus_set: BorelSet = EMPTY
    gain: float = 1.0
    stop_after_hitting: float | None = None

    def __post_init__(self):
        if self.gain <= 0.0:
            raise ValueError("gain must be positive; encode sign in the sets")

    def evaluate(self, u):
        u = np.asarray(u, dtype=float)
        plus = np.asarray(self.plus_set.contains(u), dtype=float)
        minus = np.asarray(self.minus_set.contains(u), dtype=float)
        out = self.gain * (plus - minus)
        return out if u.shape else float(out)

    @property
    def support(self) -> BorelSet:
        return self.plus_set.union(self.minus_set)

    @property
    def is_zero(self) -> bool:
        return self.plus_set.is_empty and self.minus_set.is_empty

    def scaled(self, c: float) -> "FeedbackStrategy":
        if c == 0.0:
            return FeedbackStrategy()
        if c > 0:
            return FeedbackStrategy(
                self.plus_set, self.minus_set, self.gain * c, self.stop_after_hitting
            )
        return FeedbackStrategy(
            self.minus_set, self.plus_set, self.gain * (-c), self.stop_after_hitting
        )


@dataclass(frozen=True)
class MarketVerdicts:
    nip: bool
    qvip_exists: bool
    rp_holds: bool
    evidence: dict
    window_caveat: bool = False


def _nu_ac_density(model: NaturalScaleModel, carrier: BorelSet) -> PiecewiseFn:
    """Density -r * q(x) * m_ac(x) as a catalog piecewise function.

    Supported when, on every piece meeting the carrier with positive
    measure, q or the speed density is piecewise constant (q is constant on
    any interval where q' vanishes, which covers every representable
    carrier of positive measure).  Each piece is q's scaled by -r times the
    constant speed density, or else the speed density's scaled by -r times
    the constant q, or else 0; the table is filled column by column.
    """
    r = model.rate
    # align the partitions on the union of their finite breakpoints
    cuts = np.concatenate((model.q._bps, model.m_ac._bps))
    q = model.q.with_breakpoints(cuts[np.isfinite(cuts)])
    m = model.m_ac.with_breakpoints(cuts[np.isfinite(cuts)])

    def constants(fn):
        """The mask of fn's constant pieces, and their values (nan elsewhere)."""
        const, value = np.zeros(len(fn._row_of), dtype=bool), np.full(len(fn._row_of), np.nan)
        for g, group in enumerate(fn._groups):
            if group.kind is Const:
                mine = fn._group_of == g
                const |= mine
                value[mine] = group.cols[0, fn._row_of[mine]]
        return const, value

    (q_const, q_value), (m_const, m_value) = constants(q), constants(m)
    parts = []
    for fn, pieces, c in ((q, m_const, m_value), (m, q_const & ~m_const, q_value)):
        for kind, static, mine, cols in fn._parts(pieces.nonzero()[0]):
            parts.append((kind, static, mine, _scaled_cols(kind, cols, -r * c[mine])))
    rest = (~(m_const | q_const)).nonzero()[0]
    bps = q._bps
    for a, b in zip(bps[rest].tolist(), bps[rest + 1].tolist()):
        overlap = carrier.intersect(BorelSet.make([(a, b)]))
        if overlap.lebesgue() > 0:
            raise UnsupportedModelError(f"cannot form q*m_ac product density on [{a}, {b}]")
    if len(rest):
        parts.append((Const, (), rest, np.zeros((1, len(rest)))))
    return PiecewiseFn._from_columns(bps, parts)


def _net_mass(t1: float, t2: float) -> float:
    """Atom mass t1 - t2, exactly 0.0 when the terms agree to within 64 ulps.

    At an exact no-profit boundary (r * m1 = 1/2 at a reflecting edge, say)
    the terms are equal, but q' and y carry rounding (``model._agree``).
    """
    return 0.0 if _agree(t1, t2) else t1 - t2


def build_nu(model: NaturalScaleModel) -> NuBundle:
    """Assemble the auxiliary signed measure and its decompositions."""
    window = model.window()
    zs = zero_set(model)

    density = None
    carrier = None
    if model.rate != 0.0 and zs.lebesgue() > 0.0:
        carrier = zs
        density = _nu_ac_density(model, carrier)

    atoms = []
    interior_locs = sorted(
        {a for a, _ in model.q_second_atoms} | {a for a, _ in model.m_atoms if model.lo < a < model.hi}
    )
    for a in interior_locs:
        qsi = next((m for loc, m in model.q_second_atoms if loc == a), 0.0)
        msi = model.m_atom_mass(a)
        mass = _net_mass(0.5 * qsi, model.rate * float(model.q(a)) * msi)
        atoms.append((a, mass))

    for e, y in model.absorbing_boundaries():
        atoms.append((e, -model.rate * y))
    if model.left.is_reflecting:
        e = model.lo
        qpr = float(model.q_prime(e))
        mass = _net_mass(0.5 * qpr, model.rate * model.y_value(e) * model.m_atom_mass(e))
        atoms.append((e, mass))
    if model.right.is_reflecting:
        e = model.hi
        qpl = model._q_prime_left(e)
        mass = _net_mass(-0.5 * qpl, model.rate * model.y_value(e) * model.m_atom_mass(e))
        atoms.append((e, mass))

    nu = SignedMeasure(density=density, carrier=carrier, atoms=tuple(atoms))
    pos, neg, n_plus, n_minus = jordan_hahn(nu, domain=window)

    n_si = BorelSet.make(points=[a for a, m in nu.atoms if model.lo < a < model.hi])
    included_pts = [
        e
        for e, spec in ((model.lo, model.left), (model.hi, model.right))
        if np.isfinite(e) and spec.included
    ]
    n_qprime0 = BorelSet.make(points=included_pts).union(n_si).union(zs)
    # nu is nontrivial iff it has an atom or a Jordan part of its ac part
    # charges positive measure; theta-bar and nip read this one decision
    theta = FeedbackStrategy()
    if nu.atoms or pos.carrier.lebesgue() > 0.0 or neg.carrier.lebesgue() > 0.0:
        theta = FeedbackStrategy(
            plus_set=n_plus.intersect(n_qprime0), minus_set=n_minus.intersect(n_qprime0)
        )

    return NuBundle(
        nu=nu,
        n_plus=n_plus,
        n_minus=n_minus,
        n_si=n_si,
        n_qprime0=n_qprime0,
        qprime_zero=zs,
        window=window,
        nu_ac_plus=SignedMeasure(pos.density, pos.carrier),
        nu_ac_minus=SignedMeasure(neg.density, neg.carrier),
        theta=theta,
    )


def market_verdicts(model: NaturalScaleModel, bundle: NuBundle) -> MarketVerdicts:
    """The three market-level verdicts and the numbers they rest on.

    nip is the decision ``build_nu`` made (theta is 0 iff nu is), and
    |nu_ac|(window) is read from the Jordan parts that ``build_nu`` kept.
    The model must have passed ``model.validate``: its speed density is then
    positive up to points, so {q'_+ = 0} keeps its measure on {m_ac > 0}.
    """
    window = BorelSet.make([bundle.window])
    nu = bundle.nu

    atom_tv = sum(abs(m) for _, m in nu.atoms)
    ac_tv = 0.0
    if nu.density is not None:
        ac_tv = bundle.nu_ac_plus(window) + bundle.nu_ac_minus(window)
    tv = atom_tv + ac_tv

    lam_zero = bundle.qprime_zero.intersect(window).lebesgue()
    qvip = model.rate != 0.0 and lam_zero > 0.0
    rp = lam_zero == 0.0

    unbounded = not (np.isfinite(model.lo) and np.isfinite(model.hi))
    caveat = unbounded and nu.density is not None

    return MarketVerdicts(
        nip=bundle.theta.is_zero,
        qvip_exists=qvip,
        rp_holds=rp,
        evidence={
            "abs_nu_total": tv,
            "abs_nu_atoms": atom_tv,
            "abs_nu_ac_window": ac_tv,
            "lambda_qprime_zero": lam_zero,
            "lambda_qprime_zero_with_density": lam_zero,
        },
        window_caveat=caveat,
    )


def build_theta(bundle: NuBundle) -> FeedbackStrategy:
    """The canonical strategy theta: +1 on N_plus and -1 on N_minus within
    ``n_qprime0``, and 0 when nu = 0; ``build_nu`` builds it once per bundle."""
    return bundle.theta


def build_theta_bar(model: NaturalScaleModel, bundle: NuBundle) -> FeedbackStrategy:
    if bundle.theta.is_zero:
        return FeedbackStrategy()
    si_pts = list(bundle.n_si.points)
    plus = bundle.n_plus.intersect(bundle.qprime_zero).without_points(si_pts)
    minus = bundle.n_minus.intersect(bundle.qprime_zero).without_points(si_pts)
    # drop components with zero Lebesgue measure: the quadratic-variation
    # strategy only acts where the zero set has positive measure
    if plus.lebesgue() == 0.0:
        plus = EMPTY
    if minus.lebesgue() == 0.0:
        minus = EMPTY
    return FeedbackStrategy(plus_set=plus, minus_set=minus)


@dataclass(frozen=True)
class ConditionReport:
    condition_i: bool
    condition_ii: bool
    details: dict

    @property
    def ok(self) -> bool:
        return self.condition_i and self.condition_ii


def check_strategy_conditions(
    model: NaturalScaleModel,
    bundle: NuBundle,
    strategy: FeedbackStrategy,
) -> ConditionReport:
    """Representation-level check of the deactivation and alignment
    conditions; the positivity condition is deferred to simulation."""
    window = BorelSet.make([bundle.window])
    support = strategy.support.intersect(window)

    # (i): the martingale part must stay off: support inside {q'_+ = 0}
    # up to a Lebesgue-null set
    bad_i = support.difference(bundle.n_qprime0)
    lam_bad = bad_i.lebesgue()
    cond_i = lam_bad == 0.0

    # (ii): theta * H >= 0 on the carrier of |nu|
    theta = bundle.theta
    cond_ii = True
    details = {"lambda_support_off_zero_set": lam_bad}
    locs = np.array([a for a, _ in bundle.nu.atoms])
    for a, th_hv in zip(locs.tolist(), theta.evaluate(locs) * strategy.evaluate(locs)):
        if th_hv < 0:
            cond_ii = False
            details[f"atom_misaligned_at_{a}"] = float(th_hv)
    if bundle.nu.density is not None:
        conflict = theta.plus_set.intersect(strategy.minus_set).intersect(
            bundle.nu.carrier
        ).lebesgue() + theta.minus_set.intersect(strategy.plus_set).intersect(
            bundle.nu.carrier
        ).lebesgue()
        details["lambda_sign_conflict_ac"] = conflict
        if conflict > 0:
            cond_ii = False

    return ConditionReport(
        condition_i=cond_i,
        condition_ii=cond_ii,
        details=details,
    )
