"""The decomposition of nu before its one sign pass, kept as the oracle of
``gdarb.measures.sign_sets`` and of the parts that ``build_nu`` keeps in its
bundle: each side of a density is found by its own ``positive_set`` pass,
over f and over -f; ``market_verdicts`` runs ``jordan_hahn`` a second time
on nu's ac part to read |nu_ac|(window); theta is rebuilt from the Hahn sets
by every caller; ``integrate`` integrates the density interval by
interval; and every zero set is ``piecewise_oracle.zero_set``'s, segment by
segment, not the package's zero pass.  The assembly of nu itself is the
package's, which the one sign pass leaves unchanged."""

from __future__ import annotations

import numpy as np

import piecewise_oracle
from gdarb.arbitrage import (
    ConditionReport,
    FeedbackStrategy,
    MarketVerdicts,
    NuBundle,
    _net_mass,
    _nu_ac_density,
)
from gdarb.borel import EMPTY, BorelSet
from gdarb.measures import SignedMeasure
from gdarb.piecewise import PiecewiseFn


def positive_set(pw, lo, hi):
    """Closure of {x in [lo, hi] : pw(x) > 0}: each segment cut at its zero
    set, the sign read at the midpoints, and edges where pw vanishes
    excluded."""
    lo = max(lo, pw.lo)
    hi = min(hi, pw.hi)
    if hi <= lo:
        return EMPTY
    cuts = {lo, hi}
    for i, seg in enumerate(pw.segments):
        a = max(lo, pw.breakpoints[i])
        b = min(hi, pw.breakpoints[i + 1])
        if b <= a:
            continue
        zs = piecewise_oracle.zero_set(PiecewiseFn.from_segment(seg, a, b))
        cuts.update((a, b, *zs.points))
        for za, zb in zs.intervals:
            cuts.update((max(za, a), min(zb, b)))
    cuts = sorted(c for c in cuts if lo <= c <= hi)
    c = np.array(cuts)
    positive = pw(0.5 * (c[:-1] + c[1:])) > 0.0
    out = BorelSet.make([(a, b) for a, b, pos in zip(cuts, cuts[1:], positive) if pos])
    edges = [p for iv in out.intervals for p in iv]
    return out.without_points([p for p, v in zip(edges, pw(np.array(edges))) if v == 0.0])


def is_zero(m):
    """No atoms, and the density vanishes on the carrier up to a null set."""
    if m.atoms:
        return False
    if m.density is None or m.carrier is None or m.carrier.is_empty:
        return True
    return m.carrier.difference(piecewise_oracle.zero_set(m.density)).lebesgue() == 0.0


def zero_set(model):
    """{q' = 0} in the open interior, within the analysis window."""
    zs = piecewise_oracle.zero_set(model.q_prime).intersect(BorelSet.make([model.window()]))
    return zs.without_points([e for e in (model.lo, model.hi) if np.isfinite(e)])


def integrate(m, region=None):
    total = 0.0
    if m.density is not None:
        support = m.carrier if region is None else m.carrier.intersect(region)
        for lo, hi in support.intervals:
            lo = max(lo, m.density.lo)
            hi = min(hi, m.density.hi)
            if hi > lo:
                total += m.density.integrate(lo, hi)
    for a, mass in m.atoms:
        if region is None or region.contains(a):
            total += mass
    return float(total)


def jordan_hahn(m, domain=None):
    if m.density is not None:
        lo, hi = m.density.lo, m.density.hi
    else:
        locs = [a for a, _ in m.atoms] or [0.0]
        lo, hi = min(locs) - 1.0, max(locs) + 1.0
    if domain is not None:
        lo, hi = domain
    lo = max(lo, -1e12)
    hi = min(hi, 1e12)

    pos_atoms = tuple((a, mass) for a, mass in m.atoms if mass > 0)
    neg_atoms = tuple((a, -mass) for a, mass in m.atoms if mass < 0)
    if m.density is not None:
        dens_plus = positive_set(m.density, lo, hi).intersect(m.carrier)
        dens_minus = positive_set(m.density.scaled(-1.0), lo, hi).intersect(m.carrier)
    else:
        dens_plus = dens_minus = EMPTY
    n_plus = dens_plus.union(BorelSet.make(points=[a for a, _ in pos_atoms]))
    n_plus = n_plus.without_points([a for a, _ in neg_atoms])
    n_minus = n_plus.complement_within(lo, hi).without_points([a for a, _ in pos_atoms])
    n_minus = n_minus.union(BorelSet.make(points=[a for a, _ in neg_atoms]))

    pos = SignedMeasure(m.density, dens_plus, pos_atoms)
    neg = SignedMeasure(
        None if m.density is None else m.density.scaled(-1.0), dens_minus, neg_atoms
    )
    return pos, neg, n_plus, n_minus


def _theta(nu, n_plus, n_minus, n_qprime0):
    if is_zero(nu):
        return FeedbackStrategy()
    return FeedbackStrategy(
        plus_set=n_plus.intersect(n_qprime0), minus_set=n_minus.intersect(n_qprime0)
    )


def build_nu(model) -> NuBundle:
    window = model.window()
    zs = zero_set(model)

    density = None
    carrier = None
    if model.rate != 0.0 and zs.lebesgue() > 0.0:
        carrier = zs
        density = _nu_ac_density(model, carrier)

    atoms = []
    interior_locs = sorted(
        {a for a, _ in model.q_second_atoms}
        | {a for a, _ in model.m_atoms if model.lo < a < model.hi}
    )
    for a in interior_locs:
        qsi = next((m for loc, m in model.q_second_atoms if loc == a), 0.0)
        msi = model.m_atom_mass(a)
        atoms.append((a, _net_mass(0.5 * qsi, model.rate * float(model.q(a)) * msi)))
    for e, y in model.absorbing_boundaries():
        atoms.append((e, -model.rate * y))
    if model.left.is_reflecting:
        e = model.lo
        qpr = float(model.q_prime(e))
        atoms.append(
            (e, _net_mass(0.5 * qpr, model.rate * model.y_value(e) * model.m_atom_mass(e)))
        )
    if model.right.is_reflecting:
        e = model.hi
        qpl = model._q_prime_left(e)
        atoms.append(
            (e, _net_mass(-0.5 * qpl, model.rate * model.y_value(e) * model.m_atom_mass(e)))
        )

    nu = SignedMeasure(density=density, carrier=carrier, atoms=tuple(atoms))
    _, _, n_plus, n_minus = jordan_hahn(nu, domain=window)
    n_si = BorelSet.make(points=[a for a, m in nu.atoms if model.lo < a < model.hi])
    included_pts = [
        e
        for e, spec in ((model.lo, model.left), (model.hi, model.right))
        if np.isfinite(e) and spec.included
    ]
    n_qprime0 = BorelSet.make(points=included_pts).union(n_si).union(zs)

    # the second decomposition, of the ac part alone, as market_verdicts ran it
    if density is None:
        ac_plus = ac_minus = SignedMeasure(None, EMPTY)
    else:
        ac_plus, ac_minus, _, _ = jordan_hahn(SignedMeasure(density, carrier), domain=window)
    return NuBundle(
        nu=nu,
        n_plus=n_plus,
        n_minus=n_minus,
        n_si=n_si,
        n_qprime0=n_qprime0,
        qprime_zero=zs,
        window=window,
        nu_ac_plus=ac_plus,
        nu_ac_minus=ac_minus,
        theta=_theta(nu, n_plus, n_minus, n_qprime0),
    )


def market_verdicts(model, bundle) -> MarketVerdicts:
    window = BorelSet.make([bundle.window])
    nu = bundle.nu

    atom_tv = sum(abs(m) for _, m in nu.atoms)
    ac_tv = 0.0
    if nu.density is not None:
        pos, neg, _, _ = jordan_hahn(
            SignedMeasure(density=nu.density, carrier=nu.carrier), domain=bundle.window
        )
        ac_tv = integrate(pos, window) + integrate(neg, window)
    tv = atom_tv + ac_tv

    zs = bundle.qprime_zero
    lam_zero = zs.intersect(window).lebesgue()
    lam_qvip = zs.intersect(positive_set(model.m_ac, *bundle.window)).lebesgue()
    unbounded = not (np.isfinite(model.lo) and np.isfinite(model.hi))
    return MarketVerdicts(
        nip=tv == 0.0,
        qvip_exists=model.rate != 0.0 and lam_qvip > 0.0,
        rp_holds=lam_zero == 0.0,
        evidence={
            "abs_nu_total": tv,
            "abs_nu_atoms": atom_tv,
            "abs_nu_ac_window": ac_tv,
            "lambda_qprime_zero": lam_zero,
            "lambda_qprime_zero_with_density": lam_qvip,
        },
        window_caveat=unbounded and nu.density is not None,
    )


def build_theta(bundle) -> FeedbackStrategy:
    return _theta(bundle.nu, bundle.n_plus, bundle.n_minus, bundle.n_qprime0)


def build_theta_bar(model, bundle) -> FeedbackStrategy:
    if is_zero(bundle.nu):
        return FeedbackStrategy()
    si_pts = list(bundle.n_si.points)
    plus = bundle.n_plus.intersect(bundle.qprime_zero).without_points(si_pts)
    minus = bundle.n_minus.intersect(bundle.qprime_zero).without_points(si_pts)
    if plus.lebesgue() == 0.0:
        plus = EMPTY
    if minus.lebesgue() == 0.0:
        minus = EMPTY
    return FeedbackStrategy(plus_set=plus, minus_set=minus)


def check_strategy_conditions(model, bundle, strategy) -> ConditionReport:
    window = BorelSet.make([bundle.window])
    support = strategy.support.intersect(window)
    lam_bad = support.difference(bundle.n_qprime0).lebesgue()
    cond_i = lam_bad == 0.0

    theta = build_theta(bundle)
    cond_ii = True
    details = {"lambda_support_off_zero_set": lam_bad}
    locs = np.array([a for a, _ in bundle.nu.atoms])
    for a, th_hv in zip(locs.tolist(), theta.evaluate(locs) * strategy.evaluate(locs)):
        if th_hv < 0:
            cond_ii = False
            details[f"atom_misaligned_at_{a}"] = float(th_hv)
    if bundle.nu.density is not None:
        carrier = bundle.nu.carrier
        conflict = theta.plus_set.intersect(strategy.minus_set).intersect(
            carrier
        ).lebesgue() + theta.minus_set.intersect(strategy.plus_set).intersect(
            carrier
        ).lebesgue()
        details["lambda_sign_conflict_ac"] = conflict
        if conflict > 0:
            cond_ii = False
    return ConditionReport(condition_i=cond_i, condition_ii=cond_ii, details=details)
