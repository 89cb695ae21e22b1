"""Piecewise functions built from a closed catalog of six segment kinds:
``Const``, ``Affine``, ``Poly``, ``Power``, ``Exponential`` and ``Log``.

Each segment supports point evaluation, a closed-form derivative, exact
integration against affine weights in closed form (over arrays of limits
and weights as well as scalars), and an exact zero set, which is also where
``measures.sign_sets`` cuts a piece to find its sign.  A segment that is
identically 0 has the whole interval as its zero set, and a nonzero
constant one has none.  Over an infinite limit an integral is the sum of
its terms' limits, and a term whose coefficient is 0 adds nothing.

A kind evaluates through one kernel, ``_kernel(x, *static, *row)``,
integrates through one rule, ``_integral(lo, hi, c0, c1, *static, *row)``,
and finds its zeros through one rule, ``_zeros(static, cols, lo, hi)``.
The static parameters are shared by a group of alike segments (the
exponent of a ``Power``); the row parameters are each segment's own.  A
``PiecewiseFn`` groups its segments by kind, static parameters and row
length, so by exponent for ``Power`` and by degree for ``Poly``, and on
first use builds one parameter table per group.  An evaluation then calls
each group's kernel once, over all of the group's points with their rows'
parameters, an integral calls each group's rule at most twice, and the
zero pass calls each group's rule once, over all of its rows.  A function
of one segment, and a group of one row, pass their parameters as scalars;
``Segment.integrate_affine`` is the integral rule of one row.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .borel import BorelSet

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
    """Base class; subclasses are immutable value objects.

    A subclass names its parameters in ``_static`` (shared by its group,
    empty by default) and ``_row`` (its own).  Its static method
    ``_kernel(x, *static, *row)`` evaluates it; the row parameters there are
    scalars or arrays shaped like x.  Its static method ``_integral(lo, hi,
    c0, c1, *static, *row)`` integrates (c0 + c1*x) * f(x) over [lo, hi],
    with the row parameters and the weights as scalars or arrays shaped
    like the limits.  Its static method ``_zeros(static,
    cols, lo, hi)`` is its zero rule over the rows of a group, given as the
    columns of their parameters (one float array per entry of ``_row``),
    each row on its interval [lo, hi]: it gives the mask of the rows that
    vanish on the whole interval, and the other rows' roots inside their
    closed interval as (row index, root) arrays.
    """

    _static: tuple = ()

    @property
    def _row(self) -> tuple:
        raise NotImplementedError

    def __call__(self, x):
        out = self._kernel(np.asarray(x, dtype=float), *self._static, *self._row)
        return out if out.ndim else out[()]

    def integrate_affine(self, lo, hi, c0=1.0, c1=0.0):
        """Integral of (c0 + c1*x) * f(x) over [lo, hi]: the integral rule of
        one row.  The arguments may be arrays, which broadcast against each
        other."""
        return self._integral(lo, hi, c0, c1, *self._static, *self._row)

    def scaled(self, c: float) -> "Segment":
        raise NotImplementedError

    def zero_set(self, lo, hi) -> BorelSet:
        """Exact {f = 0} on [lo, hi], lo < hi: the zero pass of this segment
        alone."""
        return PiecewiseFn((lo, hi), (self,)).zero_set()

    def derivative_segment(self) -> "Segment":
        raise NotImplementedError(f"{type(self).__name__} has no closed-form derivative")

    def limit(self, x: float) -> float:
        """Limit of f at x (x may be +-inf)."""
        if np.isfinite(x):
            return float(self(x))
        raise NotImplementedError


_NO_ROOTS = (np.empty(0, dtype=np.intp), np.empty(0))


def _roots_inside(whole, roots, lo, hi):
    """A zero rule's result from one candidate root per row (nan for none):
    the roots that lie in their row's closed interval [lo, hi]."""
    rows = ((lo <= roots) & (roots <= hi)).nonzero()[0]
    return whole, rows, roots[rows]


def _tail(terms):
    """The sum of the terms k * m of an integral over an infinite limit,
    where a term whose coefficient k is 0 adds nothing (its m may be
    infinite)."""
    with np.errstate(invalid="ignore"):
        return sum(np.where(k == 0.0, 0.0, k * m) for k, m in terms)


def _poly_terms(coeffs, lo, hi, c0, c1):
    """The terms of the integral of (c0 + c1*x) * sum(a_j x**j) over
    [lo, hi], for the ascending coefficients a_j: c0*a_j with the integral
    of x**j, and c1*a_j with that of x**(j+1)."""
    with np.errstate(invalid="ignore", over="ignore"):
        return [
            (c * a, (np.power(hi, n) - np.power(lo, n)) / n)
            for j, a in enumerate(coeffs)
            for c, n in ((c0, j + 1), (c1, j + 2))
        ]


def _poly_tail(value, coeffs, lo, hi, c0, c1):
    """An integral of (c0 + c1*x) times the polynomial with ascending
    coefficients ``coeffs``: ``value`` where both limits are finite, the
    sum of its terms (see ``_tail``) where one is infinite.  An infinite
    limit makes ``value`` infinite or nan, so a finite one is kept as it
    is."""
    if np.isfinite(value).all():
        return value
    to_inf = np.isinf(lo) | np.isinf(hi)
    return np.where(to_inf, _tail(_poly_terms(coeffs, lo, hi, c0, c1)), value)


@dataclass(frozen=True)
class Const(Segment):
    value: float

    @property
    def _row(self):
        return (self.value,)

    @staticmethod
    def _kernel(x, value):
        return np.full(x.shape, value, dtype=float)

    @staticmethod
    def _zeros(static, cols, lo, hi):
        return (cols[0] == 0.0, *_NO_ROOTS)

    @staticmethod
    def _integral(lo, hi, c0, c1, value):
        out = value * (c0 * (hi - lo) + 0.5 * c1 * (hi * hi - lo * lo))
        return _poly_tail(out, (value,), lo, hi, c0, c1)

    def scaled(self, c):
        return Const(self.value * c)

    def derivative_segment(self):
        return Const(0.0)

    def limit(self, x):
        return float(self.value)


@dataclass(frozen=True)
class Affine(Segment):
    intercept: float
    slope: float

    @property
    def _row(self):
        return (self.intercept, self.slope)

    @staticmethod
    def _kernel(x, intercept, slope):
        return intercept + slope * x

    @staticmethod
    def _zeros(static, cols, lo, hi):
        intercept, slope = cols
        flat = slope == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = np.where(flat, np.nan, -intercept / slope)
        return _roots_inside(flat & (intercept == 0.0), roots, lo, hi)

    @staticmethod
    def _integral(lo, hi, c0, c1, intercept, slope):
        return Poly._integral(lo, hi, c0, c1, intercept, slope)

    def scaled(self, c):
        return Affine(self.intercept * c, self.slope * c)

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

    @property
    def _row(self):
        return self.coeffs

    @staticmethod
    def _kernel(x, *coeffs):
        # Horner's rule, in the order of numpy's polyval
        out = coeffs[-1] + x * 0
        for c in coeffs[-2::-1]:
            out = c + out * x
        return out

    @staticmethod
    def _zeros(static, cols, lo, hi):
        # each row's roots on their own: one companion matrix per row
        rows = cols.T
        whole = ~rows.any(axis=1)
        hits = [
            (i, x)
            for i, (c, a, b) in enumerate(zip(rows, lo.tolist(), hi.tolist()))
            if not whole[i]
            for x in _poly_roots(c, a, b)
        ]
        if not hits:
            return (whole, *_NO_ROOTS)
        idx, roots = zip(*hits)
        return whole, np.array(idx, dtype=np.intp), np.array(roots)

    @staticmethod
    def _integral(lo, hi, c0, c1, *coeffs):
        # the antiderivatives of f and of x f as numpy's polyint and polymulx
        # form them, read at the limits in the Horner steps of its polyval
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)

        def moment(cs):
            anti = (0.0, cs[0], *(c / (j + 1) for j, c in enumerate(cs) if j))
            return Poly._kernel(hi, *anti) - Poly._kernel(lo, *anti)

        out = c0 * moment(coeffs) + c1 * moment((coeffs[0] * 0, *coeffs))
        return _poly_tail(out, coeffs, lo, hi, c0, c1)

    def scaled(self, c):
        return Poly(tuple(c * a for a in self.coeffs))

    def derivative_segment(self):
        return Poly(tuple(np.polynomial.polynomial.polyder(self.coeffs)))

    def limit(self, x):
        if np.isfinite(x):
            return float(self(x))
        lead = next((i for i in range(len(self.coeffs) - 1, -1, -1) if self.coeffs[i] != 0.0), 0)
        if lead == 0:
            return float(self.coeffs[0]) if self.coeffs else 0.0
        return float(np.sign(self.coeffs[lead]) * (np.sign(x) ** lead) * np.inf)


def _poly_roots(c, lo, hi):
    """The real roots in [lo, hi] of the polynomial with ascending
    coefficients c, a float array that is not all 0."""
    # a leading term below the rounding of the largest term wherever the
    # roots lie moves no value there, but dividing by it can throw every
    # root of the companion matrix off: drop such terms.  Over an
    # unbounded [lo, hi] the scale grows to Fujiwara's bound on the roots
    # left, and the largest roots of the whole polynomial join them
    pp = np.polynomial.polynomial
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
    return [float(rt.real) for rt in roots if abs(rt.imag) < 1e-12 and lo <= rt.real <= hi]


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

    @property
    def _static(self):
        return (self.exponent,)

    @property
    def _row(self):
        return (self.coeff, self.center, self.offset, self.side)

    @staticmethod
    def _kernel(x, exponent, coeff, center, offset, side):
        t = side * (x - center)
        with np.errstate(divide="ignore", invalid="ignore"):
            return coeff * np.power(np.maximum(t, 0.0), exponent) + offset

    @staticmethod
    def _zeros(static, cols, lo, hi):
        (exponent,) = static
        coeff, center, offset, side = cols
        if exponent == 0.0:
            return (coeff + offset == 0.0, *_NO_ROOTS)
        whole = (coeff == 0.0) & (offset == 0.0)
        # with a zero offset the root is the center, for a positive
        # exponent; any other offset is solved row by row, by scalar power
        roots = np.where(offset == 0.0, center, np.nan) if exponent > 0.0 else np.nan * center
        roots[whole] = np.nan
        for i in offset.nonzero()[0].tolist():
            k, c, o, s = cols[:, i].tolist()
            if k != 0.0 and -o / k > 0.0:
                roots[i] = c + s * (-o / k) ** (1.0 / exponent)
        return _roots_inside(whole, roots, lo, hi)

    @staticmethod
    def _integral(lo, hi, c0, c1, exponent, coeff, center, offset, side):
        # substitute t = side*(x - center); x = center + side*t
        s, c, p, a, b = side, center, exponent, coeff, offset
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
            value = np.where(to_inf, _tail((k, _tail_integral(t0, q)) for k, q in terms), value)
        return value

    def scaled(self, c):
        return Power(self.coeff * c, self.center, self.exponent, self.offset * c, self.side)

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

    @property
    def _row(self):
        return (self.coeff, self.rate, self.offset)

    @staticmethod
    def _kernel(x, coeff, rate, offset):
        return coeff * np.exp(rate * x) + offset

    @staticmethod
    def _zeros(static, cols, lo, hi):
        coeff, rate, offset = cols
        flat = rate == 0.0
        whole = np.where(flat, coeff + offset == 0.0, (coeff == 0.0) & (offset == 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = -offset / coeff
            live = ~flat & (coeff != 0.0) & (offset != 0.0) & (ratio > 0.0)
            roots = np.where(live, np.log(ratio) / rate, np.nan)
        return _roots_inside(whole, roots, lo, hi)

    @staticmethod
    def _integral(lo, hi, c0, c1, coeff, rate, offset):
        a, b, c = coeff, rate, offset
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        # x = x0 + side*s for s in [0, d], from the end x0 where exp(b x) is
        # largest, so exp(b x) = exp(b x0) exp(z s / d) with z = -|b| d <= 0;
        # written in the gap d, never as a difference of antiderivatives
        d = hi - lo
        up = b > 0.0
        x0, side = np.where(up, hi, lo), np.where(up, -1.0, 1.0)
        z = -np.abs(b) * d
        with np.errstate(divide="ignore", invalid="ignore"):
            e1, e2 = _exp_moments(z)
            exp_part = np.exp(b * x0) * d * ((c0 + c1 * x0) * e1 + side * c1 * d * e2)
            value = a * exp_part + c * d * (c0 + 0.5 * c1 * (lo + hi))
            to_inf = np.isinf(d)
            if to_inf.any():
                # over a half-line d*e1 and d*d*e2 are their limits,
                # -expm1(z)/|b| and -expm1(z)/b**2, and a term whose
                # coefficient is 0 adds nothing
                gap = -np.expm1(z) / np.abs(b)
                tail = np.where(
                    a == 0.0,
                    0.0,
                    a * np.exp(b * x0) * ((c0 + c1 * x0) * gap + side * c1 * gap / np.abs(b)),
                )
                tail = tail + _tail(_poly_terms((c,), lo, hi, c0, c1))
                value = np.where(to_inf, tail, value)
        # a rate-0 row is the constant a + c
        flat = b == 0.0
        if np.any(flat):
            value = np.where(flat, Const._integral(lo, hi, c0, c1, a + c), value)
        return value

    def scaled(self, c):
        return Exponential(self.coeff * c, self.rate, self.offset * c)

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

    @property
    def _row(self):
        return (self.coeff, self.scale, self.center, self.offset)

    @staticmethod
    def _kernel(x, coeff, scale, center, offset):
        t = scale * (x - center)
        with np.errstate(divide="ignore", invalid="ignore"):
            return coeff * np.log(t) + offset

    @staticmethod
    def _zeros(static, cols, lo, hi):
        coeff, scale, center, offset = cols
        live = coeff != 0.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            roots = np.where(live, center + np.exp(-offset / coeff) / scale, np.nan)
        return _roots_inside(~live & (offset == 0.0), roots, lo, hi)

    @staticmethod
    def _integral(lo, hi, c0, c1, coeff, scale, center, offset):
        # substitute t = side*(x - center) with side = sign(scale), so
        # f = k log(lam t) + o with lam = |scale| and the weight is A + B t
        k, c, o = coeff, center, offset
        side, lam = np.sign(scale), np.abs(scale)
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
        value = k * (A * int_log + B * int_tlog) + o * d * (A + B * mid)
        to_inf = np.isinf(t1)
        if to_inf.any():
            terms = ((k * A, int_log), (k * B, int_tlog), (o * A, d), (o * B, d * mid))
            value = np.where(to_inf, _tail(terms), value)
        return value

    def scaled(self, c):
        return Log(self.coeff * c, self.scale, self.center, self.offset * c)

    def derivative_segment(self):
        return Power(self.coeff, self.center, -1.0, 0.0, +1)

    def limit(self, x):
        if np.isfinite(x):
            if x == self.center:
                return float(-np.sign(self.coeff) * np.inf)
            return float(self(x))
        return float(np.sign(self.coeff) * np.inf) if self.coeff != 0.0 else self.offset


class _Group(NamedTuple):
    """The segments of a function that share kind, static parameters and
    row length."""

    kind: type
    static: tuple
    pieces: np.ndarray  # their piece indices, ascending
    cols: np.ndarray  # their parameters: a row per parameter, a column per segment
    row: tuple | None  # the parameters themselves, for a group of one


class _Table(NamedTuple):
    """A function's parameter table: its breakpoints, its groups, and each
    piece's group and row there (None for a single group, whose rows are
    the pieces)."""

    bps: np.ndarray
    groups: tuple[_Group, ...]
    group_of: np.ndarray | None
    row_of: np.ndarray | None


def _params(group: _Group, rows: np.ndarray) -> tuple:
    """The static parameters of the group, then the row parameters of each
    of its rows ``rows``, one array per parameter; a group of one gives its
    own parameters as scalars."""
    if group.row is not None:
        return (*group.static, *group.row)
    return (*group.static, *group.cols.take(rows, axis=1))


def _pick(c, sel):
    """The entries ``sel`` of a weight, which may be a scalar."""
    return c[sel] if isinstance(c, np.ndarray) else c


def _flat(v: np.ndarray, shape: tuple) -> np.ndarray:
    """v broadcast to ``shape``, as a flat array."""
    return (v if v.shape == shape else np.broadcast_to(v, shape)).reshape(-1)


def _in_piece_order(parts) -> list:
    """Per group (pieces, values...) arrays merged into one list of values,
    or of tuples of values, ordered by piece (stable within a piece)."""
    if len(parts) == 1:
        cols = [col.tolist() for col in parts[0][1:]]
    else:
        order = np.argsort(np.concatenate([p[0] for p in parts]), kind="stable")
        cols = [np.concatenate(col)[order].tolist() for col in list(zip(*parts))[1:]]
    return cols[0] if len(cols) == 1 else list(zip(*cols))


@dataclass(frozen=True)
class PiecewiseFn:
    """A function assembled from catalog segments on consecutive intervals.

    ``breakpoints`` has one more entry than ``segments`` and may start/end
    with +-inf.  One piece lookup serves every call: x belongs to the last
    segment whose left breakpoint is <= x (the end segments reach past the
    ends), found by ``bisect`` for a scalar, which gives a float, and by one
    ``searchsorted`` for an array.

    An array is evaluated per group of alike segments (see the module
    docstring): one stable sort of the entries by group, then one kernel
    call per group over its entries, with each entry's row parameters
    gathered from the group's table.  A function of one segment calls its
    kernel and its zero rule directly, with no lookup and no table, and a
    group of one row gets its scalars, with no gather.  The table is built
    when the function is first evaluated, integrated or zero-passed, so
    building, scaling or restricting a function builds none.
    ``sides`` reads both one-sided values at breakpoints through the same
    kernels, and ``zeros`` is the one zero pass: each group's zero rule once,
    over all its rows.  ``integrate`` runs each group's integral rule over
    the first pieces of all its intervals, then over all their later
    pieces, and adds the pieces in order (see its docstring).
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

    @cached_property
    def _table(self) -> _Table:
        rows = [seg._row for seg in self.segments]
        keys: dict[tuple, int] = {}
        members: list[list[int]] = []
        group_of, row_of = [], []
        for i, (seg, row) in enumerate(zip(self.segments, rows)):
            g = keys.setdefault((type(seg), seg._static, len(row)), len(keys))
            if g == len(members):
                members.append([])
            group_of.append(g)
            row_of.append(len(members[g]))
            members[g].append(i)
        groups = tuple(
            _Group(
                kind,
                static,
                np.array(pieces),
                np.array(list(zip(*(rows[i] for i in pieces))), dtype=float),
                rows[pieces[0]] if len(pieces) == 1 else None,
            )
            for (kind, static, _), pieces in zip(keys, members)
        )
        if len(groups) == 1:
            group_of = row_of = None
        else:
            group_of, row_of = np.array(group_of), np.array(row_of)
        return _Table(np.array(self.breakpoints), groups, group_of, row_of)

    def _piece(self, x: float, left: bool = False) -> Segment:
        # the index of x's piece is the number of interior breakpoints <= x,
        # or < x for the piece on the left of a breakpoint
        bps = self.breakpoints
        bisect = bisect_left if left else bisect_right
        return self.segments[bisect(bps, x, 1, len(bps) - 1) - 1]

    def _alone(self, x: np.ndarray) -> np.ndarray:
        """The one segment's kernel at x, with its parameters as scalars."""
        (seg,) = self.segments
        return seg._kernel(x, *seg._static, *seg._row)

    def _by_group(self, idx: np.ndarray, call) -> np.ndarray:
        """``call(group, run, rows)`` once for each group that the piece
        indices idx meet, where run picks that group's entries of idx and
        rows are their rows in its table; the results are put back in the
        order of idx."""
        _, groups, group_of, row_of = self._table
        if group_of is None:
            return call(groups[0], slice(None), idx)
        # one stable sort lines up the entries of each group in one run
        gid = group_of[idx]
        order = np.argsort(gid, kind="stable")
        ends = np.searchsorted(gid[order], np.arange(len(groups)), side="right")
        out = np.empty(len(idx))
        start = 0
        for group, end in zip(groups, ends.tolist()):
            if end > start:
                run = order[start:end]
                out[run] = call(group, run, row_of[idx[run]])
            start = end
        return out

    def _eval(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """f at each entry of the flat array x, read on the piece that idx
        names: one kernel call per group."""
        return self._by_group(
            idx, lambda group, run, rows: group.kind._kernel(x[run], *_params(group, rows))
        )

    def __call__(self, x):
        if np.ndim(x) == 0:
            return float(self._piece(float(x))(float(x)))
        x = np.ascontiguousarray(x, dtype=float)
        if len(self.segments) == 1:
            return self._alone(x)
        flat = x.reshape(-1)
        idx = self._table.bps[1:-1].searchsorted(flat, side="right")
        return self._eval(flat, idx).reshape(x.shape)

    def sides(self, x):
        """f(x-) and f(x+) at each entry of the 1-d array x: at a breakpoint,
        the value of the piece on its left and of the piece on its right
        (which is f(x)); elsewhere f(x) twice.  Both sides are read in one
        call of each group's kernel."""
        x = np.ascontiguousarray(x, dtype=float)
        if len(self.segments) == 1:
            values = self._alone(x)
            return values, values.copy()
        inner = self._table.bps[1:-1]
        idx = np.concatenate([inner.searchsorted(x, "left"), inner.searchsorted(x, "right")])
        values = self._eval(np.concatenate([x, x]), idx)
        return values[: len(x)], values[len(x) :]

    def _integrals(self, piece, a, b, c0, c1) -> np.ndarray:
        """The integral of (c0 + c1*x) f(x) over each [a, b] inside the piece
        ``piece``: one integral rule call per group."""
        return self._by_group(
            piece,
            lambda group, run, rows: group.kind._integral(
                a[run], b[run], _pick(c0, run), _pick(c1, run), *_params(group, rows)
            ),
        )

    def integrate(self, lo, hi, c0=1.0, c1=0.0):
        """Integral of (c0 + c1*x) f(x) over [lo, hi]; hi < lo flips the sign.

        The arguments broadcast against each other; all-scalar arguments
        give a float.  The pieces an interval meets fill slots from its
        left end: slot 0 holds each interval's first piece, the one that
        holds lo, and slot j its j-th piece after that.  Slot 0 runs each
        group's integral rule once and the later slots together once more;
        the pieces are added slot by slot, so each interval's total is
        summed from 0.0 in piece order.
        """
        lo, hi, c0, c1 = (np.asarray(v, dtype=float) for v in (lo, hi, c0, c1))
        shape = np.broadcast(lo, hi, c0, c1).shape
        lo, hi = _flat(lo, shape), _flat(hi, shape)
        # a scalar weight stays a scalar
        c0, c1 = (float(c) if c.ndim == 0 else _flat(c, shape) for c in (c0, c1))
        flip = hi < lo
        flipped = flip.any()
        if flipped:
            lo, hi = np.where(flip, hi, lo), np.where(flip, lo, hi)
        total = np.zeros(lo.shape)
        if len(self.segments) == 1:
            (seg,) = self.segments
            a, b = np.maximum(lo, self.lo), np.minimum(hi, self.hi)
            on = b > a
            k = slice(None) if on.all() else on.nonzero()[0]
            params = (*seg._static, *seg._row)
            total[k] += seg._integral(a[k], b[k], _pick(c0, k), _pick(c1, k), *params)
        else:
            bps = self._table.bps
            first = bps[1:-1].searchsorted(lo, side="right")
            a, b = np.maximum(lo, bps[first]), np.minimum(hi, bps[1:][first])
            on = b > a
            k = slice(None) if on.all() else on.nonzero()[0]
            total[k] += self._integrals(first[k], a[k], b[k], _pick(c0, k), _pick(c1, k))
            # the intervals that reach past their first piece, and how many
            # more pieces each meets: up to the last that starts below hi
            more = (b < hi).nonzero()[0]
            extra = bps[:-1].searchsorted(hi[more], side="left") - 1 - first[more]
            slots = [more[extra >= j] for j in range(1, extra.max(initial=0) + 1)]
            if slots:
                k = np.concatenate(slots)
                piece = first[k] + np.repeat(np.arange(1, len(slots) + 1), [len(s) for s in slots])
                a, b = np.maximum(lo[k], bps[piece]), np.minimum(hi[k], bps[piece + 1])
                values = self._integrals(piece, a, b, _pick(c0, k), _pick(c1, k))
                start = 0
                for rows in slots:
                    total[rows] += values[start : start + len(rows)]
                    start += len(rows)
        if flipped:
            total = np.where(flip, -1.0, 1.0) * total
        return float(total[0]) if not shape else total.reshape(shape)

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
        """Refine the partition by inserting breakpoints (same function);
        with none new, the function itself."""
        bps = self.breakpoints
        lo, hi = bps[0], bps[-1]
        new = {p for p in extra if lo < p < hi}.difference(bps)
        if not new:
            return self
        pts = sorted(new.union(bps))
        # each piece takes the segment of the old piece that holds its left
        # end, found by one lookup for all of them
        idx = np.searchsorted(bps[1:-1], pts[:-1], side="right").tolist()
        return PiecewiseFn(tuple(pts), tuple(self.segments[i] for i in idx))

    def zeros(self, lo=-np.inf, hi=np.inf) -> tuple[list, list]:
        """Exact {f = 0} on [lo, hi] as raw parts, (intervals, points), in
        piece order: each piece, cut to [lo, hi], gives its whole interval
        where its segment vanishes identically and its roots in the closed
        interval otherwise.  Each group's zero rule runs once, over all its
        rows; the one segment of a function runs its rule directly."""
        if len(self.segments) == 1:
            (seg,) = self.segments
            a, b = max(lo, self.lo), min(hi, self.hi)
            if not b > a:
                return [], []
            cols = np.array(seg._row, dtype=float)[:, None]
            whole, _, roots = seg._zeros(seg._static, cols, np.array([a]), np.array([b]))
            return [(a, b)] if whole[0] else [], roots.tolist()
        cut = lo > self.lo or hi < self.hi
        bps = self._table.bps
        ivs, pts = [], []
        for group in self._table.groups:
            pieces, cols = group.pieces, group.cols
            a, b = bps[pieces], bps[1:][pieces]
            if cut:
                a, b = np.maximum(lo, a), np.minimum(hi, b)
                on = b > a
                if not on.all():
                    pieces, cols, a, b = pieces[on], cols[:, on], a[on], b[on]
            whole, hit, roots = group.kind._zeros(group.static, cols, a, b)
            ivs.append((pieces[whole], a[whole], b[whole]))
            pts.append((pieces[hit], roots))
        return _in_piece_order(ivs), _in_piece_order(pts)

    def zero_set(self) -> BorelSet:
        """Exact {f = 0} on [lo, hi]: the zero pass as one set."""
        return BorelSet.make(*self.zeros())

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
