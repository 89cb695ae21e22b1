"""Signed measures with a piecewise absolutely-continuous part and atoms.

The ac part is a catalog density restricted to a Borel carrier set, a
finite union of closed intervals and points; a fat Cantor carrier of depth
n is its 2^n retained intervals, whose ends are exact.  The
Jordan and Hahn decompositions are computed at the representation level,
from one sign pass over the density (``sign_sets``): each piece is cut at
its zero set, from the density's one zero pass, and both {f > 0} and
{f < 0} are read from the same points inside the cells, never at +-inf.
``sign_sets``, the one entry to the zero rules, returns three sets, {f > 0},
{f < 0} and {f = 0}; one zero pass runs per function per market.
``arbitrage.build_nu`` decomposes ``nu`` once this way and keeps the parts
in its bundle, and a model keeps its pass over q' for ``model.validate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .borel import EMPTY, BorelSet, _unique
from .piecewise import PiecewiseFn

__all__ = [
    "SignedMeasure",
    "ZERO_MEASURE",
    "jordan_hahn",
    "sign_sets",
    "integrate",
]

_ATOM_TOL = 0.0  # atoms with exactly zero mass are dropped


def _dedupe_atoms(atoms):
    acc: dict[float, float] = {}
    for loc, mass in atoms:
        acc[float(loc)] = acc.get(float(loc), 0.0) + float(mass)
    return tuple(sorted((l, m) for l, m in acc.items() if m != _ATOM_TOL))


@dataclass(frozen=True)
class SignedMeasure:
    """ac part ``density * 1_carrier dx`` plus finitely many signed atoms.

    ``carrier`` defaults to the density's whole interval of definition.
    """

    density: PiecewiseFn | None = None
    carrier: BorelSet | None = None
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", _dedupe_atoms(self.atoms))
        if self.density is not None and self.carrier is None:
            lo, hi = self.density.lo, self.density.hi
            object.__setattr__(self, "carrier", BorelSet.make([(lo, hi)]))

    def density_at(self, x):
        """Pointwise ac density (0 off the carrier)."""
        if self.density is None:
            return np.zeros(np.shape(x)) if np.ndim(x) else 0.0
        out = np.where(self.carrier.contains(x), self.density(x), 0.0)
        return out if np.ndim(x) else float(out)

    def __call__(self, region: BorelSet) -> float:
        """Measure of the region."""
        return integrate(self, region)


ZERO_MEASURE = SignedMeasure()


def sign_sets(pw: PiecewiseFn, lo: float, hi: float) -> tuple[BorelSet, BorelSet, BorelSet]:
    """Closures of {pw > 0} and {pw < 0} in [lo, hi], and {pw = 0} there.

    The one rule: each piece is cut at the points and interval edges of its
    zero set, from the one zero pass ``pw._zero_parts``, and between two cuts
    it keeps one sign, read at a finite point inside (``_inside``).
    Those points and the finite cuts are read in one call of ``pw``; a cut
    where pw vanishes belongs to the zero set, so an edge there is excluded.
    """
    lo = max(lo, pw.lo)
    hi = min(hi, pw.hi)
    if hi <= lo:
        return EMPTY, EMPTY, EMPTY
    iv_lo, iv_hi, points = pw._zero_parts(lo, hi)
    bps = pw._bps
    inner = bps[bps.searchsorted(lo, "right") : bps.searchsorted(hi, "left")]
    edges = np.stack([iv_lo, iv_hi], 1).ravel() if len(iv_lo) else iv_lo
    c = _unique(np.concatenate(([lo, hi], inner, points, edges)))
    at = 0.5 * (c[:-1] + c[1:]) if len(c) > 2 else np.zeros(1)
    at[0], at[-1] = _inside(c[0], c[1]), _inside(c[-2], c[-1])
    finite = np.isfinite(c)
    values = pw(np.concatenate([at, c[finite]]))
    mid, vanish = values[: len(at)], np.zeros(len(c), dtype=bool)
    vanish[finite] = values[len(at) :] == 0.0
    out = []
    for s in (1.0, -1.0):
        # the cuts where a run of pieces of sign s starts or stops, in turn,
        # and those of them where pw vanishes
        on = np.concatenate(([False], s * mid > 0.0, [False]))
        ends = (on[1:] != on[:-1]).nonzero()[0]
        out.append(BorelSet(c[ends[0::2]], c[ends[1::2]], excluded=c[ends[vanish[ends]]]))
    return out[0], out[1], BorelSet._make(iv_lo, iv_hi, points)


def _inside(a: float, b: float) -> float:
    """A finite point of the cell (a, b), a < b: its midpoint, 1 inside its
    finite end, or 0 on the whole line."""
    if a > -np.inf:
        return 0.5 * (a + b) if b < np.inf else a + 1.0
    return b - 1.0 if b < np.inf else 0.0


def jordan_hahn(m: SignedMeasure, domain: tuple[float, float]):
    """Return (positive part, negative part, N_plus, N_minus) within the
    domain [lo, hi], an interval such as the analysis window.

    Convention: zero-density regions go to N_minus.  N_minus is the
    complement of N_plus within the domain.  The density's two sides come
    from one ``sign_sets`` pass.  ``arbitrage.build_nu`` calls this once
    per market, on the window, and keeps the parts.
    """
    lo, hi = domain

    pos_atoms = tuple((a, mass) for a, mass in m.atoms if mass > 0)
    neg_atoms = tuple((a, -mass) for a, mass in m.atoms if mass < 0)
    if m.density is not None:
        dens_plus, dens_minus = (s.intersect(m.carrier) for s in sign_sets(m.density, lo, hi)[:2])
    else:
        dens_plus = dens_minus = EMPTY
    n_plus = dens_plus.union(BorelSet.make(points=[a for a, _ in pos_atoms]))
    n_plus = n_plus.without_points([a for a, _ in neg_atoms])
    n_minus = n_plus.complement_within(lo, hi).without_points([a for a, _ in pos_atoms])
    n_minus = n_minus.union(BorelSet.make(points=[a for a, _ in neg_atoms]))

    pos = SignedMeasure(m.density, dens_plus, pos_atoms)
    neg = (
        SignedMeasure(
            None if m.density is None else m.density.scaled(-1.0), dens_minus, neg_atoms
        )
    )
    return pos, neg, n_plus, n_minus


def integrate(m: SignedMeasure, region: BorelSet | None = None) -> float:
    """Measure of the region (default: everything).

    The density is integrated over all the support's intervals, cut to the
    density's interval, in one array call, and the pieces are added in the
    intervals' order.  The integral takes finite limits only, so an
    unbounded support on an unbounded density raises ``ValueError``.
    """
    total = 0.0
    if m.density is not None:
        support = m.carrier if region is None else m.carrier.intersect(region)
        lo = np.maximum(support._lo, m.density.lo)
        hi = np.minimum(support._hi, m.density.hi)
        on = hi > lo
        for piece in m.density.integrate(lo[on], hi[on]).tolist():
            total += piece
    for a, mass in m.atoms:
        if region is None or region.contains(a):
            total += mass
    return float(total)
