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
        # a leading term below the rounding of the largest term anywhere on
        # [lo, hi] moves no value there, but dividing by its coefficient can
        # throw every root of the companion matrix off: drop such terms
        c = np.asarray(self.coeffs, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            size = np.abs(c) * max(1.0, abs(lo), abs(hi)) ** np.arange(len(c))
        n = len(c)
        while size[n - 1] < np.finfo(float).eps * size.max():
            n -= 1
        pts = [
            float(rt.real)
            for rt in np.polynomial.polynomial.polyroots(c[:n])
            if abs(rt.imag) < 1e-12 and lo <= rt.real <= hi
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

        def anti(x):
            e = np.exp(b * x)
            val = a * e * (c0 / b + c1 * (x / b - 1.0 / (b * b)))
            val += c * (c0 * x + 0.5 * c1 * x * x)
            return val

        return anti(np.asarray(hi, dtype=float)) - anti(np.asarray(lo, dtype=float))

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


def _fix_scalar(val, x):
    if np.ndim(x) == 0:
        arr = np.asarray(val)
        return float(arr) if arr.shape == () else float(arr.reshape(-1)[0])
    return np.asarray(val, dtype=float).reshape(np.shape(x))


@dataclass(frozen=True)
class PiecewiseFn:
    """A function assembled from catalog segments on consecutive intervals.

    ``breakpoints`` has one more entry than ``segments`` and may start/end
    with +-inf.  Evaluation at an interior breakpoint uses the segment to
    its right.
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

    def _seg_index(self, x):
        idx = np.searchsorted(self.breakpoints, x, side="right") - 1
        return np.clip(idx, 0, len(self.segments) - 1)

    def _apply(self, x, fn):
        if np.ndim(x) == 0:
            xf = float(x)
            seg = self.segments[int(self._seg_index(xf))]
            return float(np.asarray(fn(seg, xf), dtype=float).reshape(-1)[0])
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        idx = self._seg_index(x_arr)
        out = np.empty_like(x_arr)
        for i in np.unique(idx):
            mask = idx == i
            out[mask] = np.asarray(fn(self.segments[i], x_arr[mask]), dtype=float)
        return _fix_scalar(out, x)

    def __call__(self, x):
        return self._apply(x, lambda seg, v: seg(v))


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
        segs = []
        for a in pts[:-1]:
            segs.append(self.segments[int(self._seg_index(np.array([a]))[0])])
        return PiecewiseFn(tuple(pts), tuple(segs))

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
