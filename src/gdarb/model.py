"""Diffusion market models and canonicalization to natural scale.

A model arrives in original (Y) coordinates as a scale function, a speed
measure, boundary behaviors, a start point, and an interest rate.  All
downstream analysis runs in natural-scale (U = s(Y)) coordinates, produced
once by ``to_natural_scale``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .borel import BorelSet
from .measures import SignedMeasure
from .piecewise import (
    Affine,
    Const,
    Exponential,
    Log,
    PiecewiseFn,
    Poly,
    Power,
    Segment,
)

__all__ = [
    "BoundarySpec",
    "DiffusionSpec",
    "NaturalScaleModel",
    "ValidationReport",
    "CheckResult",
    "ModelError",
    "UnsupportedModelError",
    "to_natural_scale",
    "validate",
    "zero_set",
    "DEFAULT_WINDOW",
]

DEFAULT_WINDOW = 50.0
_KINK_TOL = 1e-12


class ModelError(ValueError):
    pass


class UnsupportedModelError(ModelError):
    pass


@dataclass(frozen=True)
class BoundarySpec:
    side: str  # "left" | "right"
    included: bool = False
    behavior: str | None = None  # "absorbing" | "reflecting" when included

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ModelError(f"unknown boundary side {self.side!r}")
        if self.included and self.behavior not in ("absorbing", "reflecting"):
            raise ModelError("an included endpoint needs absorbing or reflecting behavior")
        if not self.included and self.behavior is not None:
            raise ModelError("an open endpoint has no behavior")

    @property
    def is_absorbing(self) -> bool:
        return self.included and self.behavior == "absorbing"

    @property
    def is_reflecting(self) -> bool:
        return self.included and self.behavior == "reflecting"


@dataclass(frozen=True)
class DiffusionSpec:
    """Model in original coordinates: state space J, scale s, speed m."""

    lo: float
    hi: float
    left: BoundarySpec
    right: BoundarySpec
    scale: PiecewiseFn
    speed: SignedMeasure
    start: float
    rate: float


@dataclass(frozen=True)
class NaturalScaleModel:
    """Canonical model in U = s(Y) coordinates on E = s(J).

    ``q`` is the inverse scale.  ``q_prime`` is its per-segment derivative,
    so q'(u) reads the segment to the right of a breakpoint (q'_+), and
    ``q_second_atoms`` holds the jumps of q' at interior breakpoints, the
    atoms of q''.  Both are derived once, when the model is built.
    """

    lo: float
    hi: float
    left: BoundarySpec
    right: BoundarySpec
    q: PiecewiseFn
    m_ac: PiecewiseFn
    m_atoms: tuple[tuple[float, float], ...] = ()
    u0: float = 0.0
    rate: float = 0.0
    q_prime: PiecewiseFn = field(init=False)
    q_second_atoms: tuple[tuple[float, float], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        qp = self.q.derivative()
        object.__setattr__(self, "q_prime", qp)
        # both sides of every interior breakpoint in one read of q'
        inner = qp._bps[1:-1]
        kinks = inner[inner.searchsorted(self.lo, "right") : inner.searchsorted(self.hi, "left")]
        atoms = ()
        if len(kinks):
            left, right = qp.sides(kinks)
            with np.errstate(invalid="ignore"):
                jumps = right - left
            big = np.abs(jumps) > _KINK_TOL
            atoms = tuple(zip(kinks[big].tolist(), jumps[big].tolist()))
        object.__setattr__(self, "q_second_atoms", atoms)

    # -- derived structure ----------------------------------------------

    def _q_prime_left(self, a: float) -> float:
        """q'_-(a), read on the segment to the left of a breakpoint."""
        return float(self.q_prime.sides(np.array([a]))[0][0])

    def m_atom_mass(self, u: float) -> float:
        for a, mass in self.m_atoms:
            if a == u:
                return mass
        return 0.0

    def y_value(self, u: float) -> float:
        """Original-coordinate value q(u), by limit at infinite endpoints."""
        return float(self.q.limit(u))

    def absorbing_boundaries(self) -> list[tuple[float, float]]:
        """(u location, original-coordinate value) per absorbing endpoint."""
        out = []
        if self.left.is_absorbing:
            out.append((self.lo, self.y_value(self.lo)))
        if self.right.is_absorbing:
            out.append((self.hi, self.y_value(self.hi)))
        return out

    def window(self, radius: float = DEFAULT_WINDOW) -> tuple[float, float]:
        """Analysis window: the state space cut to [u0 - radius, u0 + radius]."""
        return max(self.lo, self.u0 - radius), min(self.hi, self.u0 + radius)


# -- inversion of scale segments ---------------------------------------


def _invert_segment(seg: Segment, name: str) -> Segment:
    if isinstance(seg, Affine):
        if seg.slope == 0.0:
            raise ModelError(f"scale segment {name} is constant, not invertible")
        return Affine(-seg.intercept / seg.slope, 1.0 / seg.slope)
    if isinstance(seg, Poly):
        nz = [i for i, c in enumerate(seg.coeffs) if i > 0 and c != 0.0]
        if nz == [1]:
            return Affine(-seg.coeffs[0] / seg.coeffs[1], 1.0 / seg.coeffs[1])
        raise UnsupportedModelError(
            f"scale segment {name}: polynomial of degree > 1 has no catalog inverse"
        )
    if isinstance(seg, Power):
        a, c, p, b, side = seg.coeff, seg.center, seg.exponent, seg.offset, seg.side
        if a == 0.0 or p == 0.0:
            raise ModelError(f"scale segment {name} is constant, not invertible")
        try:
            coeff = side * abs(a) ** (-1.0 / p)
        except OverflowError:
            coeff = np.inf
        if coeff == 0.0 or np.isinf(coeff):
            raise UnsupportedModelError(
                f"scale segment {name}: exponent {p:.6g} is nearly logarithmic, and "
                f"the inverse scale's coefficient {abs(a):.6g}**{-1.0 / p:.6g} is out "
                "of floating-point range"
            )
        return Power(coeff, b, 1.0 / p, c, +1 if a > 0 else -1)
    if isinstance(seg, Log):
        # s(x) = c*log(sc*(x - ce)) + off  =>  x = ce + exp((u-off)/c)/sc
        c, sc, ce, off = seg.coeff, seg.scale, seg.center, seg.offset
        if c == 0.0:
            raise ModelError(f"scale segment {name} is constant, not invertible")
        return Exponential(np.exp(-off / c) / sc, 1.0 / c, ce)
    if isinstance(seg, Exponential):
        A, B, C = seg.coeff, seg.rate, seg.offset
        if A == 0.0 or B == 0.0:
            raise ModelError(f"scale segment {name} is constant, not invertible")
        return Log(1.0 / B, 1.0 / A, C)
    raise UnsupportedModelError(
        f"scale segment {name}: kind {type(seg).__name__} is not invertible in the catalog"
    )


# -- speed density transform:  m_ac^U(u) = g(q(u)) * q'(u) --------------


def _compose_speed(qseg: Segment, gseg: Segment, name: str) -> Segment:
    qprime = qseg.derivative_segment()
    if isinstance(gseg, Const):
        return qprime.scaled(gseg.value)
    if isinstance(qseg, Affine):
        al, be = qseg.intercept, qseg.slope
        if isinstance(gseg, Affine):
            return Affine(gseg.intercept + gseg.slope * al, gseg.slope * be).scaled(be)
        if isinstance(gseg, Poly):
            comp = np.polynomial.Polynomial(gseg.coeffs)(
                np.polynomial.Polynomial((al, be))
            )
            return Poly(tuple(comp.coef)).scaled(be)
        if isinstance(gseg, Power):
            kg, cg, pg, og, sg = gseg.coeff, gseg.center, gseg.exponent, gseg.offset, gseg.side
            c_new = (cg - al) / be
            s_new = sg * (1 if be > 0 else -1)
            return Power(kg * abs(be) ** pg, c_new, pg, og, s_new).scaled(be)
        if isinstance(gseg, Exponential):
            A, B, C = gseg.coeff, gseg.rate, gseg.offset
            return Exponential(A * np.exp(B * al), B * be, C).scaled(be)
    if isinstance(qseg, Power) and isinstance(gseg, Power):
        kq, cq, pq, oq, sq = qseg.coeff, qseg.center, qseg.exponent, qseg.offset, qseg.side
        kg, cg, pg, og, sg = gseg.coeff, gseg.center, gseg.exponent, gseg.offset, gseg.side
        if cg == oq and og == 0.0 and sg * kq > 0:
            coeff = kg * (sg * kq) ** pg * kq * pq * sq
            return Power(coeff, cq, pq * pg + pq - 1.0, 0.0, sq)
    if isinstance(qseg, Exponential) and isinstance(gseg, Power):
        Aq, Bq, Cq = qseg.coeff, qseg.rate, qseg.offset
        kg, cg, pg, og, sg = gseg.coeff, gseg.center, gseg.exponent, gseg.offset, gseg.side
        if cg == Cq and og == 0.0 and sg * Aq > 0:
            return Exponential(kg * (sg * Aq) ** pg * Aq * Bq, Bq * (pg + 1.0), 0.0)
    raise UnsupportedModelError(
        f"speed density transform unsupported at {name}: "
        f"q segment {type(qseg).__name__} with density segment {type(gseg).__name__}"
    )


def to_natural_scale(spec: DiffusionSpec) -> NaturalScaleModel:
    """Canonicalize to U = s(Y) coordinates."""
    g = spec.speed.density
    if g is None:
        g = PiecewiseFn.constant(0.0, spec.lo, spec.hi)
    for name, f in (("scale", spec.scale), ("speed density", g)):
        if not (f.lo <= spec.lo and spec.hi <= f.hi):
            raise ModelError(f"the {name} does not cover the state space [{spec.lo}, {spec.hi}]")
    s = spec.scale.restricted(spec.lo, spec.hi)
    x_bps = list(s.breakpoints)

    u_bps = [s.limit(x) for x in x_bps]
    if any(b >= c for b, c in zip(u_bps, u_bps[1:])):
        raise ModelError("scale is not strictly increasing across its breakpoints")

    q_segments = tuple(
        _invert_segment(seg, f"[{x_bps[i]}, {x_bps[i+1]}]")
        for i, seg in enumerate(s.segments)
    )
    q = PiecewiseFn(tuple(u_bps), q_segments)

    # refine speed density onto the scale partition, then transform per piece
    g = g.restricted(spec.lo, spec.hi).with_breakpoints([b for b in x_bps if np.isfinite(b)])
    m_bps = []
    m_segs = []
    for j, gseg in enumerate(g.segments):
        xa, xb = g.breakpoints[j], g.breakpoints[j + 1]
        mid = 0.5 * (xa + xb) if np.isfinite(xa) and np.isfinite(xb) else (
            xa + 1.0 if np.isfinite(xa) else xb - 1.0
        )
        qi = bisect_right(x_bps, mid) - 1
        qi = max(0, min(qi, len(q_segments) - 1))
        name = f"[{xa}, {xb}]"
        m_segs.append(_compose_speed(q_segments[qi], gseg, name))
        m_bps.append(s.limit(xa))
    m_bps.append(s.limit(g.breakpoints[-1]))
    m_ac = PiecewiseFn(tuple(m_bps), tuple(m_segs))

    m_atoms = tuple((float(s.limit(y)), mass) for y, mass in spec.speed.atoms)

    return NaturalScaleModel(
        lo=u_bps[0],
        hi=u_bps[-1],
        left=spec.left,
        right=spec.right,
        q=q,
        m_ac=m_ac,
        m_atoms=m_atoms,
        u0=float(s(spec.start)),
        rate=spec.rate,
    )


# -- validation ---------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def validate(model: NaturalScaleModel) -> ValidationReport:
    checks = []
    lo, hi = model.window()
    # probe away from open endpoints, where speed densities may blow up
    pad_l = 1e-9 if model.left.included else 0.05 * (hi - lo)
    pad_r = 1e-9 if model.right.included else 0.05 * (hi - lo)
    lo, hi = lo + pad_l, hi - pad_r
    pad = 1e-9 * max(1.0, hi - lo)
    xs = np.linspace(lo + pad, hi - pad, 1000)

    qv = np.asarray(model.q(xs), dtype=float)
    nondec = bool(np.all(np.diff(qv) >= -1e-12))
    strict = bool(qv[-1] > qv[0])
    checks.append(
        CheckResult(
            "q-nondecreasing", nondec, float(np.min(np.diff(qv))), "sampled increments"
        )
    )
    checks.append(CheckResult("q-increasing-overall", strict, qv[-1] - qv[0]))

    qp = np.asarray(model.q_prime(xs), dtype=float)
    bps = model.q_prime._bps
    bp_vals = model.q_prime(bps[np.isfinite(bps) & (lo <= bps) & (bps <= hi)])
    qp_ok = bool(np.all(qp >= -1e-12)) and bool(np.all(bp_vals >= -1e-12))
    checks.append(CheckResult("q-prime-nonnegative", qp_ok, float(np.min(qp))))

    mv = np.asarray(model.m_ac(xs), dtype=float)
    m_ok = bool(np.all(mv >= -1e-12)) and all(m > 0 for _, m in model.m_atoms)
    checks.append(CheckResult("speed-nonnegative", m_ok, float(np.min(mv))))

    # every compact interior interval carries positive finite mass
    edges = np.linspace(lo, hi, 6)
    cell_lo, cell_hi = edges[:-1] + pad, edges[1:] - pad
    ac_lo = np.maximum(cell_lo, model.m_ac.lo)
    ac_hi = np.maximum(np.minimum(cell_hi, model.m_ac.hi), ac_lo)
    masses = model.m_ac.integrate(ac_lo, ac_hi)
    for a, mass in model.m_atoms:
        masses = masses + np.where((cell_lo <= a) & (a <= cell_hi), mass, 0.0)
    masses = masses.tolist()
    pos_ok = all(np.isfinite(m) and m > 0 for m in masses)
    checks.append(
        CheckResult("speed-positive-on-compacts", pos_ok, float(min(masses)))
    )

    # the speed measure charges every open interval, and atoms charge only
    # their points: {m_ac = 0} may hold points of the window, no interval
    gaps = model.m_ac.zeros(*model.window())[0]
    checks.append(
        CheckResult(
            "speed-charges-every-interval",
            not gaps,
            float(sum(b - a for a, b in gaps)),
            "intervals of {m_ac = 0} in the window: "
            + (", ".join(f"[{a:.17g}, {b:.17g}]" for a, b in gaps) or "none"),
        )
    )

    # start point placement
    interior = model.lo < model.u0 < model.hi
    at_reflecting = (model.u0 == model.lo and model.left.is_reflecting) or (
        model.u0 == model.hi and model.right.is_reflecting
    )
    checks.append(CheckResult("start-point-admissible", interior or at_reflecting))

    # boundary regularity of |q''| near included endpoints
    for side, e, bspec in (("left", model.lo, model.left), ("right", model.hi, model.right)):
        if not bspec.included:
            continue
        z = e + 1.0 if side == "left" else e - 1.0
        z = min(max(z, lo), hi)
        a, b = sorted((e, z))
        total = float(sum(
            (abs(loc - e) if bspec.is_absorbing else 1.0) * abs(mass)
            for loc, mass in model.q_second_atoms
            if a <= loc <= b
        ))
        label = "absorbing-boundary-integrability" if bspec.is_absorbing else "reflecting-boundary-finiteness"
        checks.append(CheckResult(f"{label}-{side}", bool(np.isfinite(total)), total))

    # kink bookkeeping consistency
    kink_ok = True
    if model.q_second_atoms:
        locs, masses = zip(*model.q_second_atoms)
        left, right = model.q_prime.sides(np.array(locs))
        kink_ok = bool(np.all(np.abs((right - left) - masses) <= 1e-10))
    checks.append(CheckResult("q-second-atoms-match-kinks", kink_ok))

    return ValidationReport(tuple(checks))


def zero_set(model: NaturalScaleModel) -> BorelSet:
    """Exact {u in the open interior : q'_+(u) = 0}, within the analysis window."""
    zs = model.q_prime.zero_set()
    lo, hi = model.window()
    zs = zs.intersect(BorelSet.make([(lo, hi)]))
    endpoints = [e for e in (model.lo, model.hi) if np.isfinite(e)]
    return zs.without_points(endpoints)
