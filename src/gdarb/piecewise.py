"""Piecewise functions built from a closed catalog of six segment kinds:
``Const``, ``Affine``, ``Poly``, ``Power``, ``Exponential`` and ``Log``.

Each segment supports point evaluation, a closed-form derivative, exact
integration against affine weights in closed form (over arrays of limits
and weights as well as scalars), and an exact zero set, which is also where
``measures.positive_set`` cuts a segment to find its sign.  A segment that
is identically 0 has the whole interval as its zero set, and a nonzero
constant one has none.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .borel import EMPTY, BorelSet

__all__ = [
    "Segment",
    "Const",
    "Affine",
    "Poly",
    "Power",
    "Exponential",
    "Log",
    "PiecewiseFn",
]


class Segment:
    """Base class; subclasses are immutable value objects."""

    def __call__(self, x):
        raise NotImplementedError

    def integrate_affine(self, lo, hi, c0=1.0, c1=0.0):
        """Integral of (c0 + c1*x) * f(x) over [lo, hi]; the arguments may be
        arrays, which broadcast against each other."""
        raise NotImplementedError(f"{type(self).__name__} has no closed-form integral")

    def scaled(self, c: float) -> "Segment":
        raise NotImplementedError

    def zero_set(self, lo, hi) -> BorelSet:
        """Exact {f = 0} on [lo, hi]; raises if no closed form exists."""
        raise NotImplementedError(f"{type(self).__name__} has no closed-form zero set")


    def derivative_segment(self) -> "Segment":
        raise NotImplementedError(f"{type(self).__name__} has no closed-form derivative")

    def limit(self, x: float) -> float:
        """Limit of f at x (x may be +-inf)."""
        if np.isfinite(x):
            return float(self(x))
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Segment):
    value: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, float(self.value))
        return out if out.shape else float(self.value)


    def integrate_affine(self, lo, hi, c0=1.0, c1=0.0):
        return self.value * (c0 * (hi - lo) + 0.5 * c1 * (hi * hi - lo * lo))

    def scaled(self, c):
        return Const(self.value * c)

    def zero_set(self, lo, hi):
        return BorelSet.make([(lo, hi)]) if self.value == 0.0 else EMPTY


    def derivative_segment(self):
        return Const(0.0)

    def limit(self, x):
        return float(self.value)


@dataclass(frozen=True)
class Affine(Segment):
    intercept: float
    slope: float

    def __call__(self, x):
        return self.intercept + self.slope * np.asarray(x, dtype=float)


    def integrate_affine(self, lo, hi, c0=1.0, c1=0.0):
        return Poly((self.intercept, self.slope)).integrate_affine(lo, hi, c0, c1)

    def scaled(self, c):
        return Affine(self.intercept * c, self.slope * c)

    def zero_set(self, lo, hi):
        if self.slope == 0.0:
            return BorelSet.make([(lo, hi)]) if self.intercept == 0.0 else EMPTY
        root = -self.intercept / self.slope
        return BorelSet.make(points=[root]) if lo <= root <= hi else EMPTY


    def derivative_segment(self):
        return Const(self.slope)

    def limit(self, x):
        if np.isfinite(x):
            return float(self(x))
        if self.slope == 0.0:
            return self.intercept
        return float(np.sign(self.slope) * x)


@dataclass(frozen=True)
class Poly(Segment):
    """Polynomial with coefficients in ascending order."""

    coeffs: tuple[float, ...]

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), self.coeffs)


    def integrate_affine(self, lo, hi, c0=1.0, c1=0.0):
        pp = np.polynomial.polynomial
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)

        def moment(coeffs):
            anti = pp.polyint(coeffs)
            return pp.polyval(hi, anti) - pp.polyval(lo, anti)

        return c0 * moment(self.coeffs) + c1 * moment(pp.polymulx(self.coeffs))

    def scaled(self, c):
        return Poly(tuple(c * a for a in self.coeffs))

    def zero_set(self, lo, hi):
        if all(a == 0.0 for a in self.coeffs):
            return BorelSet.make([(lo, hi)])
        # a leading term below the rounding of the largest term wherever the
        # roots lie moves no value there, but dividing by it can throw every
        # root of the companion matrix off: drop such terms.  Over an
        # unbounded [lo, hi] the scale grows to Fujiwara's bound on the roots
        # left, and the largest roots of the whole polynomial join them
        pp = np.polynomial.polynomial
        c = np.asarray(self.coeffs, dtype=float)
        unbounded = not (np.isfinite(lo) and np.isfinite(hi))
        scale = max([1.0] + [abs(e) for e in (lo, hi) if np.isfinite(e)])
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            while True:
                size = np.abs(c) * scale ** np.arange(len(c))
                n = len(c)
                while size[n - 1] < np.finfo(float).eps * size.max():
                    n -= 1
                lead = np.abs(c[: n - 1] / c[n - 1]) ** (1.0 / np.arange(n - 1, 0, -1))
                bound = 2.0 * lead.max(initial=0.0)
                if not (unbounded and bound > scale):
                    break
                scale = bound
        roots = list(pp.polyroots(c[:n]))
        if unbounded and n < len(c):
            roots += sorted(pp.polyroots(c), key=abs)[n - 1 :]
        pts = [
            float(rt.real) for rt in roots if abs(rt.imag) < 1e-12 and lo <= rt.real <= hi
        ]
        return BorelSet.make(points=pts)

    def derivative_segment(self):
        return Poly(tuple(np.polynomial.polynomial.polyder(self.coeffs)))

    def limit(self, x):
        if np.isfinite(x):
            return float(self(x))
        lead = next((i for i in range(len(self.coeffs) - 1, -1, -1) if self.coeffs[i] != 0.0), 0)
        if lead == 0:
            return float(self.coeffs[0]) if self.coeffs else 0.0
        return float(np.sign(self.coeffs[lead]) * (np.sign(x) ** lead) * np.inf)


def _half_line(lo, hi, side, center, kind):
    """Limits of t = side*(x - center) >= 0 for x in [lo, hi], sorted (which
    absorbs the Jacobian sign of the substitution) and clipped at 0."""
    ta = side * (np.asarray(lo, dtype=float) - center)
    tb = side * (np.asarray(hi, dtype=float) - center)
    t0, t1 = np.minimum(ta, tb), np.maximum(ta, tb)
    if np.any(t0 < -1e-12):
        raise ValueError(f"{kind} segment evaluated outside its half-line")
    return np.maximum(t0, 0.0), t1


def _power_integral(t0, t1, q):
    """Integral of t**q over [t0, t1], 0 <= t0 <= t1 (t0 > 0 when q <= -1).

    Every form is written in the gap t1 - t0, never as a difference of
    antiderivatives, so short intervals far from 0 keep their relative
    accuracy.
    """
    d = t1 - t0
    with np.errstate(divide="ignore", invalid="ignore"):
        if q == -2.0:
            return d / (t0 * t1)
        log_ratio = np.log1p(d / t0)  # log(t1 / t0)
        if q == -1.0:
            return log_ratio
        e = q + 1.0
        return np.where(
            t0 > 0.0, np.power(t0, e) * np.expm1(e * log_ratio) / e, np.power(t1, e) / e
        )


def _tail_integral(t0, q):
    """Integral of t**q over [t0, inf)."""
    return np.inf if q >= -1.0 else np.power(t0, q + 1.0) / -(q + 1.0)


@dataclass(frozen=True)
class Power(Segment):
    """f(x) = coeff * (side*(x - center))**exponent + offset.

    The segment's domain must satisfy side*(x - center) >= 0.
    """

    coeff: float
    center: float
    exponent: float
    offset: float = 0.0
    side: int = +1

    def _t(self, x):
        return self.side * (np.asarray(x, dtype=float) - self.center)

    def __call__(self, x):
        t = self._t(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = self.coeff * np.power(np.maximum(t, 0.0), self.exponent) + self.offset
        return val


    def integrate_affine(self, lo, hi, c0=1.0, c1=0.0):
        # substitute t = side*(x - center); x = center + side*t
        s, c, p, a, b = self.side, self.center, self.exponent, self.coeff, self.offset
        t0, t1 = _half_line(lo, hi, s, c, "power")
        if p <= -1.0 and np.any(t0 == 0.0):
            raise ValueError("non-integrable power singularity")
        A = c0 + c1 * c
        B = c1 * s
        to_inf = np.isinf(t1)
        unbounded = to_inf.any()
        if unbounded:
            t1 = np.where(to_inf, t0, t1)
        # integral of (A + B t)(a t^p + b) dt
        power_part = A * _power_integral(t0, t1, p) + B * _power_integral(t0, t1, p + 1.0)
        value = a * power_part + b * (t1 - t0) * (A + 0.5 * B * (t0 + t1))
        if unbounded:
            # over [t0, inf) each power of t has its own limit, and a term
            # whose coefficient is 0 adds nothing
            terms = ((a * A, p), (a * B, p + 1.0), (b * A, 0.0), (b * B, 1.0))
            with np.errstate(invalid="ignore"):
                tail = sum(np.where(k == 0.0, 0.0, k * _tail_integral(t0, q)) for k, q in terms)
            value = np.where(to_inf, tail, value)
        return value

    def scaled(self, c):
        return Power(self.coeff * c, self.center, self.exponent, self.offset * c, self.side)

    def zero_set(self, lo, hi):
        if self.exponent == 0.0:
            return Const(self.coeff + self.offset).zero_set(lo, hi)
        if self.coeff == 0.0:
            return Const(self.offset).zero_set(lo, hi)
        if self.offset == 0.0:
            x = self.center if self.exponent > 0.0 else np.nan
        elif -self.offset / self.coeff <= 0.0:
            x = np.nan
        else:
            x = self.center + self.side * (-self.offset / self.coeff) ** (1.0 / self.exponent)
        return BorelSet.make(points=[x] if lo <= x <= hi else [])


    def derivative_segment(self):
        return Power(
            self.coeff * self.exponent * self.side,
            self.center,
            self.exponent - 1.0,
            0.0,
            self.side,
        )

    def limit(self, x):
        if np.isfinite(x):
            t = self.side * (x - self.center)
            if t < 0.0:
                raise ValueError("limit outside segment half-line")
            if t == 0.0 and self.exponent < 0.0:
                return float(np.sign(self.coeff) * np.inf)
            return float(self(x))
        if self.side * np.sign(x) < 0:
            raise ValueError("limit outside segment half-line")
        if self.exponent > 0.0:
            return float(np.sign(self.coeff) * np.inf) if self.coeff != 0.0 else self.offset
        if self.exponent == 0.0:
            return self.coeff + self.offset
        return float(self.offset)


# 1 / (k! (k + 2)), the Taylor coefficients of the integral of t exp(z t) over
# [0, 1]; 17 terms reach double precision for |z| < 1/2
_EXP_T_SERIES = np.array([1.0 / (math.factorial(k) * (k + 2)) for k in range(17)])


def _exp_moments(z):
    """The integrals of exp(z t) and t exp(z t) over t in [0, 1], z <= 0.

    The second is a series near 0, where its closed form
    (exp(z) - first) / z cancels."""
    with np.errstate(divide="ignore", invalid="ignore"):
        first = np.where(z == 0.0, 1.0, np.expm1(z) / z)
        second = np.where(
            z > -0.5,
            np.polynomial.polynomial.polyval(z, _EXP_T_SERIES),
            (np.exp(z) - first) / z,
        )
    return first, second


@dataclass(frozen=True)
class Exponential(Segment):
    """f(x) = coeff * exp(rate * x) + offset."""

    coeff: float
    rate: float
    offset: float = 0.0

    def __call__(self, x):
        return self.coeff * np.exp(self.rate * np.asarray(x, dtype=float)) + self.offset


    def integrate_affine(self, lo, hi, c0=1.0, c1=0.0):
        a, b, c = self.coeff, self.rate, self.offset
        if b == 0.0:
            return Const(a + c).integrate_affine(lo, hi, c0, c1)
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        # x = x0 + side*s for s in [0, d], from the end x0 where exp(b x) is
        # largest, so exp(b x) = exp(b x0) exp(z s / d) with z = -|b| d <= 0;
        # written in the gap d, never as a difference of antiderivatives
        d = hi - lo
        x0, side = (hi, -1.0) if b > 0.0 else (lo, 1.0)
        z = -abs(b) * d
        e1, e2 = _exp_moments(z)
        exp_part = np.exp(b * x0) * d * ((c0 + c1 * x0) * e1 + side * c1 * d * e2)
        return a * exp_part + c * d * (c0 + 0.5 * c1 * (lo + hi))

    def scaled(self, c):
        return Exponential(self.coeff * c, self.rate, self.offset * c)

    def zero_set(self, lo, hi):
        a, b, c = self.coeff, self.rate, self.offset
        if b == 0.0:
            return Const(a + c).zero_set(lo, hi)
        if a == 0.0:
            return Const(c).zero_set(lo, hi)
        if c == 0.0 or -c / a <= 0.0:
            return EMPTY
        x = float(np.log(-c / a) / b)
        return BorelSet.make(points=[x] if lo < x < hi else [])


    def derivative_segment(self):
        return Exponential(self.coeff * self.rate, self.rate, 0.0)

    def limit(self, x):
        if np.isfinite(x):
            return float(self(x))
        if self.rate * np.sign(x) > 0:
            return float(np.sign(self.coeff) * np.inf) if self.coeff != 0.0 else self.offset
        return float(self.offset)


@dataclass(frozen=True)
class Log(Segment):
    """f(x) = coeff * log(scale * (x - center)) + offset."""

    coeff: float
    scale: float
    center: float
    offset: float = 0.0

    def __call__(self, x):
        t = self.scale * (np.asarray(x, dtype=float) - self.center)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.coeff * np.log(t) + self.offset


    def integrate_affine(self, lo, hi, c0=1.0, c1=0.0):
        # substitute t = side*(x - center) with side = sign(scale), so
        # f = k log(lam t) + o with lam = |scale| and the weight is A + B t
        k, c, o = self.coeff, self.center, self.offset
        side, lam = np.sign(self.scale), abs(self.scale)
        t0, t1 = _half_line(lo, hi, side, c, "log")
        A = c0 + c1 * c
        B = c1 * side
        d = t1 - t0
        log1 = np.log(lam * t1)
        # t0 * log(t1/t0) and t0^2 * log(t1/t0), which vanish as t0 -> 0
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.log1p(d / t0)
            tg = np.where(t0 > 0.0, t0 * g, 0.0)
            ttg = np.where(t0 > 0.0, t0 * t0 * g, 0.0)
        mid = 0.5 * (t0 + t1)
        int_log = d * (log1 - 1.0) + tg  # integral of log(lam t)
        int_tlog = d * mid * (log1 - 0.5) + 0.5 * ttg  # integral of t log(lam t)
        return k * (A * int_log + B * int_tlog) + o * d * (A + B * mid)

    def scaled(self, c):
        return Log(self.coeff * c, self.scale, self.center, self.offset * c)

    def zero_set(self, lo, hi):
        if self.coeff == 0.0:
            return Const(self.offset).zero_set(lo, hi)
        x = float(self.center + np.exp(-self.offset / self.coeff) / self.scale)
        return BorelSet.make(points=[x] if lo < x < hi else [])


    def derivative_segment(self):
        return Power(self.coeff, self.center, -1.0, 0.0, +1)

    def limit(self, x):
        if np.isfinite(x):
            if x == self.center:
                return float(-np.sign(self.coeff) * np.inf)
            return float(self(x))
        return float(np.sign(self.coeff) * np.inf) if self.coeff != 0.0 else self.offset


@dataclass(frozen=True)
class PiecewiseFn:
    """A function assembled from catalog segments on consecutive intervals.

    ``breakpoints`` has one more entry than ``segments`` and may start/end
    with +-inf.  One piece lookup serves every call: x belongs to the last
    segment whose left breakpoint is <= x (the end segments reach past the
    ends), found by ``bisect`` for a scalar, which gives a float, and by one
    ``searchsorted`` for an array, whose entries each segment evaluates at once.
    """

    breakpoints: tuple[float, ...]
    segments: tuple[Segment, ...]

    def __post_init__(self):
        if len(self.breakpoints) != len(self.segments) + 1:
            raise ValueError("need len(breakpoints) == len(segments) + 1")
        if any(a >= b for a, b in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    @staticmethod
    def constant(value, lo=-np.inf, hi=np.inf):
        return PiecewiseFn((lo, hi), (Const(value),))

    @staticmethod
    def from_segment(seg, lo, hi):
        return PiecewiseFn((lo, hi), (seg,))

    @property
    def lo(self):
        return self.breakpoints[0]

    @property
    def hi(self):
        return self.breakpoints[-1]

    def _piece(self, x: float) -> Segment:
        # the index of x's piece is the number of interior breakpoints <= x
        bps = self.breakpoints
        return self.segments[bisect_right(bps, x, 1, len(bps) - 1) - 1]

    def __call__(self, x):
        if np.ndim(x) == 0:
            return float(self._piece(float(x))(float(x)))
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        idx = np.searchsorted(self.breakpoints[1:-1], flat, side="right")
        # one stable sort lines up the points of each piece in one run
        order = np.argsort(idx, kind="stable")
        ends = np.searchsorted(idx[order], np.arange(len(self.segments)), side="right")
        out = np.empty_like(flat)
        start = 0
        for seg, end in zip(self.segments, ends.tolist()):
            if end > start:
                run = order[start:end]
                out[run] = seg(flat[run])
            start = end
        return out.reshape(x.shape)

    def integrate(self, lo, hi, c0=1.0, c1=0.0):
        """Integral of (c0 + c1*x) f(x) over [lo, hi]; hi < lo flips the sign.

        The arguments broadcast against each other; all-scalar arguments
        give a float.
        """
        scalar = all(np.ndim(v) == 0 for v in (lo, hi, c0, c1))
        lo, hi, c0, c1 = np.broadcast_arrays(
            *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (lo, hi, c0, c1))
        )
        sign = np.where(hi < lo, -1.0, 1.0)
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        total = np.zeros(lo.shape)
        bps = self.breakpoints
        # only the segments that some [lo, hi] meets
        first = max(int(np.searchsorted(bps, lo.min(initial=np.inf), side="right")) - 1, 0)
        last = min(int(np.searchsorted(bps, hi.max(initial=-np.inf))), len(self.segments))
        for i in range(first, last):
            a = np.maximum(lo, bps[i])
            b = np.minimum(hi, bps[i + 1])
            on = b > a
            if on.any():
                total[on] += self.segments[i].integrate_affine(a[on], b[on], c0[on], c1[on])
        total = sign * total
        return float(total[0]) if scalar else total

    def scaled(self, c):
        return PiecewiseFn(self.breakpoints, tuple(s.scaled(c) for s in self.segments))

    def restricted(self, lo, hi):
        bps = [lo]
        segs = []
        for i, seg in enumerate(self.segments):
            a, b = self.breakpoints[i], self.breakpoints[i + 1]
            if b <= lo or a >= hi:
                continue
            segs.append(seg)
            bps.append(min(b, hi))
        bps[-1] = hi
        return PiecewiseFn(tuple(bps), tuple(segs))

    def with_breakpoints(self, extra) -> "PiecewiseFn":
        """Refine the partition by inserting breakpoints (same function)."""
        pts = sorted(set(self.breakpoints) | {p for p in extra if self.lo < p < self.hi})
        return PiecewiseFn(tuple(pts), tuple(self._piece(a) for a in pts[:-1]))

    def zero_set(self) -> BorelSet:
        bps = self.breakpoints
        parts = [seg.zero_set(a, b) for seg, a, b in zip(self.segments, bps, bps[1:])]
        return BorelSet.make(
            [iv for part in parts for iv in part.intervals],
            [x for part in parts for x in part.points],
        )

    def derivative(self) -> "PiecewiseFn":
        return PiecewiseFn(
            self.breakpoints, tuple(s.derivative_segment() for s in self.segments)
        )

    def limit(self, x) -> float:
        if x <= self.lo:
            return self.segments[0].limit(x if x == self.lo else x)
        if x >= self.hi:
            return self.segments[-1].limit(x)
        return float(self(x))
