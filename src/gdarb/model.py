"""Diffusion market models and canonicalization to natural scale.

A model arrives in original (Y) coordinates as a scale function, a speed
measure, boundary behaviors, a start point, and an interest rate.  All
downstream analysis runs in natural-scale (U = s(Y)) coordinates, produced
once by ``to_natural_scale``.  The model keeps its one zero pass over q'
(``sign_sets``, three sets): one pass runs per function per market.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .borel import BorelSet
from .measures import SignedMeasure, _inside, sign_sets
from .piecewise import (
    Exponential,
    Log,
    PiecewiseFn,
    Poly,
    Power,
    Segment,
    _off_half_line,
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
                # kept unless the sides agree to rounding; inf - inf is no jump
                big = np.isinf(jumps) | np.isfinite(jumps) & ~_agree(left, right)
            atoms = tuple(zip(kinks[big].tolist(), jumps[big].tolist()))
        object.__setattr__(self, "q_second_atoms", atoms)

    # -- derived structure ----------------------------------------------

    @cached_property
    def q_prime_signs(self) -> tuple[BorelSet, BorelSet, BorelSet]:
        """{q' > 0}, {q' < 0} and {q' = 0} on [lo, hi]: the one zero pass over
        q' (``sign_sets``), run when first read."""
        return sign_sets(self.q_prime, self.lo, self.hi)

    def m_atom_mass(self, u: float) -> float:
        for a, mass in self.m_atoms:
            if a == u:
                return mass
        return 0.0

    def y_value(self, u: float) -> float:
        """Original-coordinate value q(u); at an infinite end, the end piece's
        kernel read there, which is q's limit (no piece of q is constant)."""
        return float(self.q(u))

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
    if isinstance(seg, Poly):
        if len(seg.coeffs) == 1:
            raise ModelError(f"scale segment {name} is constant, not invertible")
        if len(seg.coeffs) > 2:
            raise UnsupportedModelError(
                f"scale segment {name}: polynomial of degree > 1 has no catalog inverse"
            )
        a, b = seg.coeffs
        return Poly((-a / b, 1.0 / b))
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
    if isinstance(gseg, Poly) and len(gseg.coeffs) == 1:
        return qprime.scaled(gseg.coeffs[0])
    if isinstance(qseg, Poly) and len(qseg.coeffs) == 2:  # q(u) = al + be*u
        al, be = qseg.coeffs
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


def _require_half_line(seg: Segment, a: float, b: float, what: str) -> None:
    """Refuse a ``Power`` or ``Log`` piece whose gap [a, b] leaves its
    half-line, t = side*(x - center) >= 0, where its kernel is not the
    piece: the one domain rule of those pieces, for a spec built in Python
    or read from a model file.  Other pieces, and an empty gap, pass."""
    if a < b and isinstance(seg, (Power, Log)):
        side = seg.side if isinstance(seg, Power) else (seg.scale > 0) - (seg.scale < 0)
        if _off_half_line(min(side * (a - seg.center), side * (b - seg.center))):
            kind = type(seg).__name__.lower()
            raise ModelError(f"{what}, a {kind} piece, leaves its half-line on [{a}, {b}]")


def to_natural_scale(spec: DiffusionSpec) -> NaturalScaleModel:
    """Canonicalize to U = s(Y) coordinates."""
    g = spec.speed.density
    if g is None:
        g = PiecewiseFn.constant(0.0, spec.lo, spec.hi)
    for name, f in (("scale", spec.scale), ("speed density", g)):
        if not (f.lo <= spec.lo and spec.hi <= f.hi):
            raise ModelError(f"the {name} does not cover the state space [{spec.lo}, {spec.hi}]")
        bps = f.breakpoints
        for k, seg in enumerate(f.segments):
            a, b = max(bps[k], spec.lo), min(bps[k + 1], spec.hi)
            _require_half_line(seg, a, b, f"the {name}'s piece {k + 1}")
    s = spec.scale.restricted(spec.lo, spec.hi)
    x_bps = list(s.breakpoints)

    # at an infinite end a constant piece reads its value (a degree-0 poly)
    # or nan (0 * inf, another kind), and fails either way
    with np.errstate(invalid="ignore"):
        u_bps = [s(x) for x in x_bps]
    if not all(b < c for b, c in zip(u_bps, u_bps[1:])):
        raise ModelError("scale is not strictly increasing across its breakpoints")

    q_segments = tuple(
        _invert_segment(seg, f"[{x_bps[i]}, {x_bps[i+1]}]")
        for i, seg in enumerate(s.segments)
    )
    q = PiecewiseFn(tuple(u_bps), q_segments)

    # refine speed density onto the scale partition, then transform each
    # piece with the q segment that holds a point inside it
    g = g.restricted(spec.lo, spec.hi).with_breakpoints([b for b in x_bps if np.isfinite(b)])
    m_segs = []
    for gseg, xa, xb in zip(g.segments, g.breakpoints, g.breakpoints[1:]):
        qi = max(0, min(bisect_right(x_bps, _inside(xa, xb)) - 1, len(q_segments) - 1))
        name = f"[{xa}, {xb}]"
        try:
            m_segs.append(_compose_speed(q_segments[qi], gseg, name))
        except OverflowError:
            raise UnsupportedModelError(
                f"speed density transform at {name}: a coefficient is out of floating-point range"
            ) from None
    m_ac = PiecewiseFn(tuple(s(x) for x in g.breakpoints), tuple(m_segs))

    m_atoms = tuple((s(y), mass) for y, mass in spec.speed.atoms)

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


def _agree(a, b, rounded=0.0):
    """Whether a and b, equal in exact arithmetic but computed from terms of
    size |a| + |b| + rounded, agree to within 64 ulps of that.  Arrays too."""
    return abs(a - b) <= 64 * np.finfo(float).eps * (abs(a) + abs(b) + rounded)


def _where(model: NaturalScaleModel, *us: float) -> str:
    """A point or a cell [a, b] of natural scale, and its image under q."""
    u, x = (", ".join(f"{v:.17g}" for v in vs) for vs in (us, map(model.y_value, us)))
    return f"u = {u} (x = {x})" if len(us) == 1 else f"u in [{u}] (x in [{x}])"


def _mass(pw: PiecewiseFn, a: float, b: float) -> float:
    try:
        return pw.integrate(a, b)
    except ValueError:  # a non-integrable power singularity
        return np.inf


def validate(model: NaturalScaleModel) -> ValidationReport:
    """Decide exactly, on the whole state space [lo, hi], that the model is
    a general diffusion in natural scale (Ito and McKean, 1965).

    Signs come from the model's ``sign_sets`` pass over q' and one over m_ac,
    and the interior breakpoints from one ``sides`` read of q and one of q'.
    q' >= 0 and a continuous q make q nondecreasing.  An open piece's kernel
    is continuous, so m_ac can fail to be integrable only at a piece's end:
    each piece is integrated up to an interior breakpoint or a reflecting
    end, and cut at a point inside it at an open or absorbing end.
    """
    lo, hi = model.lo, model.hi
    checks = []

    def check(name, passed, value, detail, failure):
        # failure() makes the detail of a failed check, naming the place
        checks.append(CheckResult(name, bool(passed), float(value), detail if passed else failure()))

    pos, neg, _ = model.q_prime_signs
    check("q-prime-nonnegative", neg.is_empty, neg.lebesgue(), "q' >= 0",
          lambda: "q' < 0 on " + _where(model, *neg.intervals[0]))
    check("q-increasing-overall", not pos.is_empty, pos.lebesgue(),
          f"q' > 0 on {len(pos.intervals)} intervals", lambda: "q' > 0 on no interval")

    bps = model.q._bps
    kinks = bps[(lo < bps) & (bps < hi)]
    with np.errstate(invalid="ignore"):
        q_left, q_right = model.q.sides(kinks)
        qp_left, qp_right = model.q_prime.sides(kinks)
        finite = np.isfinite(qp_left + qp_right)
        poles = (~finite).nonzero()[0]
        # u is rounded to its ulp, and q' carries that into x; where q' is
        # infinite, q-prime-finite-at-kinks fails and q is not judged
        spread = np.where(finite, np.abs(kinks) * (np.abs(qp_left) + np.abs(qp_right)), np.inf)
        jumps = (~_agree(q_left, q_right, spread)).nonzero()[0]
    check("q-continuous", not len(jumps), len(jumps),
          f"q is continuous at the {len(kinks)} interior breakpoints",
          lambda: "q jumps at u = {:.17g}, from x = {:.17g} to x = {:.17g}".format(
              kinks[jumps[0]], q_left[jumps[0]], q_right[jumps[0]]))
    check("q-prime-finite-at-kinks", not len(poles), len(poles),
          f"q' is finite at the {len(kinks)} interior breakpoints",
          lambda: "q' is not finite at {}: q'(u-) = {:.17g}, q'(u+) = {:.17g}".format(
              _where(model, kinks[poles[0]]), qp_left[poles[0]], qp_right[poles[0]]))

    pos, neg, _ = sign_sets(model.m_ac, lo, hi)
    atoms = [atom for atom in model.m_atoms if not atom[1] > 0]
    check("speed-nonnegative", neg.is_empty and not atoms, neg.lebesgue(),
          "m_ac >= 0, and every atom is positive",
          lambda: "m_ac < 0 on " + _where(model, *neg.intervals[0]) if not neg.is_empty
          else "an atom of mass {1:.17g} at ".format(*atoms[0]) + _where(model, atoms[0][0]))
    # atoms charge only their points: {m_ac > 0} is the state space up to points
    gaps = pos.complement_within(lo, hi).intervals
    check("speed-charges-every-interval", not gaps, sum(b - a for a, b in gaps),
          "m_ac > 0 up to points",
          lambda: f"m_ac <= 0 on {len(gaps)} intervals, the first " + _where(model, *gaps[0]))

    bps = model.m_ac._bps
    ends = np.concatenate(([lo], bps[(lo < bps) & (bps < hi)], [hi]))
    a = np.concatenate(([lo if model.left.is_reflecting else _inside(*ends[:2])], ends[1:-1]))
    b = np.concatenate((ends[1:-1], [hi if model.right.is_reflecting else _inside(*ends[-2:])]))
    masses = [((x, y), _mass(model.m_ac, x, y)) for x, y in zip(a.tolist(), b.tolist()) if x < y]
    masses += [((u,), mass) for u, mass in model.m_atoms]
    bad = [place for place, mass in masses if not np.isfinite(mass)]
    check("speed-finite-on-compacts", not bad, sum(mass for _, mass in masses),
          "the speed measure is finite at every interior breakpoint, reflecting end and atom",
          lambda: "the speed measure is not finite at " + _where(model, *bad[0]))

    u0 = model.u0
    reflecting = (u0 == lo and model.left.is_reflecting) or (u0 == hi and model.right.is_reflecting)
    check("start-point-admissible", lo < u0 < hi or reflecting, u0,
          f"the start u = {u0:.17g} is interior or a reflecting end",
          lambda: f"the start u = {u0:.17g} is neither in ({lo:.17g}, {hi:.17g}) "
          "nor a reflecting end")

    return ValidationReport(tuple(checks))


def zero_set(model: NaturalScaleModel) -> BorelSet:
    """Exact {u in the open interior : q'_+(u) = 0}, within the analysis
    window: the zero set of the model's one pass over q', cut."""
    zs = model.q_prime_signs[2]
    lo, hi = model.window()
    zs = zs.intersect(BorelSet.make([(lo, hi)]))
    endpoints = [e for e in (model.lo, model.hi) if np.isfinite(e)]
    return zs.without_points(endpoints)
