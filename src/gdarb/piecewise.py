"""Piecewise functions built from a closed catalog of four segment kinds:
``Poly``, ``Power``, ``Exponential`` and ``Log``.  A constant is a ``Poly``
of one coefficient, and a line one of two.

Each segment supports point evaluation, a closed-form derivative, exact
integration against affine weights (over arrays of limits and weights as
well as scalars), and an exact zero set.  ``measures.sign_sets``, the one
entry to the zero rules, returns that set and cuts each piece at it to
find its sign.  Integrals take finite limits only:
``PiecewiseFn.integrate``, the one entry to the integral rules, refuses an
infinite one.

A kind has four rules: it evaluates, integrates, finds its zeros and
differentiates through one rule each (see ``Segment``), over the parameters
of one segment or of many.  A read at +-inf, or at a ``Power`` or ``Log``
centre, is the kernel's IEEE value there: a non-constant piece reads its
limit (+-inf, or the offset of a decaying tail), a one-coefficient
``Poly`` reads its value, and any other constant piece (a zero
coefficient or rate, or a line of slope 0 made by columns) may read nan
(0 * inf).  A ``PiecewiseFn`` is its group table: its breakpoints,
one group of rows per kind, static parameters and row length, holding the
rows' parameters as columns, and each piece's group and row there.  The
table is built once, where the function is made: from segments (the
catalog, the model-file parser, ``model``'s speed transform) or column by
column (``catalog.fat_cantor_q``, ``arbitrage._nu_ac_density``), and never
written after.  ``scaled`` and ``derivative`` map the columns and share the
breakpoints and piece maps; ``restricted`` and ``with_breakpoints`` share
the groups and map the pieces, so two pieces may share a row.
"""

from __future__ import annotations

import contextlib
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .borel import _unique

__all__ = [
    "Segment",
    "Poly",
    "Power",
    "Exponential",
    "Log",
    "PiecewiseFn",
]


class Segment:
    """Base class of the four kinds; subclasses are immutable value objects.

    A subclass names its parameters in ``_static`` (shared by its group)
    and ``_row`` (its own), and ``_scales`` picks those that scale with it.
    Its four rules are static methods: ``_kernel(x, *static, *row)`` evaluates
    it, ``_integral(lo, hi, c0, c1, *static, *row)`` integrates (c0 + c1*x)
    * f(x) over the finite [lo, hi], and ``_derivative(static, row)`` gives the
    derivative's kind and parameters; there the parameters are scalars or
    arrays.  ``_zeros(static, cols, lo, hi)`` takes a group's rows as
    columns, each on its interval [lo, hi], and gives the mask of the rows
    that vanish on the whole interval and the others' roots in it as (row
    index, root) arrays.  There is no other evaluation rule: a value at +-inf
    or at a singular centre is ``_kernel``'s value there.
    """

    _static: tuple = ()
    _scales = slice(None)

    @property
    def _row(self) -> tuple:
        raise NotImplementedError

    @classmethod
    def _of(cls, static: tuple, row) -> "Segment":
        """The segment of this kind with these parameters."""
        return cls(*row)

    def __call__(self, x):
        out = self._kernel(np.asarray(x, dtype=float), *self._static, *self._row)
        return out if out.ndim else out[()]

    def scaled(self, c: float) -> "Segment":
        row = list(self._row)
        row[self._scales] = [v * c for v in row[self._scales]]
        return self._of(self._static, row)

    @classmethod
    def _derivative(cls, static, row):
        raise NotImplementedError(f"{cls.__name__} has no closed-form derivative")

    def derivative_segment(self) -> "Segment":
        kind, static, row = self._derivative(self._static, self._row)
        return kind._of(static, row)


_NO_ROOTS = (np.empty(0, dtype=np.intp), np.empty(0))


def _roots_inside(whole, roots, lo, hi):
    """A zero rule's result from one candidate root per row (nan for none):
    the roots that lie in their row's closed interval [lo, hi]."""
    rows = ((lo <= roots) & (roots <= hi)).nonzero()[0]
    return whole, rows, roots[rows]


@dataclass(frozen=True)
class Poly(Segment):
    """Polynomial with coefficients in ascending order.  Trailing zeros go
    when it is made, so the last coefficient leads at +-inf.  Rows group by
    length.  A constant (one coefficient) and a line (two) find their zeros
    in one vectorized step, not a companion matrix per row, and a constant
    keeps a kernel and an integral of its own, whose bits Horner's rule
    would change.  A row made by columns (``scaled(0)``, ``derivative``,
    ``_from_columns``) keeps its length, so a line's rules take a slope of
    0 too."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        n = len(self.coeffs)
        while n > 1 and self.coeffs[n - 1] == 0.0:
            n -= 1
        object.__setattr__(self, "coeffs", self.coeffs[:n])

    @property
    def _row(self):
        return self.coeffs

    @staticmethod
    def _kernel(x, *coeffs):
        # a constant fills x's shape; a longer row runs Horner's rule in the
        # order of numpy's polyval from its first product on
        if len(coeffs) == 1:
            return np.full(x.shape, coeffs[0], dtype=float)
        out = coeffs[-2] + coeffs[-1] * x
        for c in coeffs[-3::-1]:
            out = c + out * x
        return out

    @staticmethod
    def _zeros(static, cols, lo, hi):
        if len(cols) == 1:
            return (cols[0] == 0.0, *_NO_ROOTS)
        if len(cols) == 2:
            intercept, slope = cols
            flat = slope == 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                roots = np.where(flat, np.nan, -intercept / slope)
            return _roots_inside(flat & (intercept == 0.0), roots, lo, hi)
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
        if len(coeffs) == 1:
            return coeffs[0] * (c0 * (hi - lo) + 0.5 * c1 * (hi * hi - lo * lo))
        # the antiderivatives of f and of x f as numpy's polyint and polymulx
        # form them, read at the limits in the Horner steps of its polyval

        def moment(cs):
            anti = (0.0, cs[0], *(c / (j + 1) for j, c in enumerate(cs) if j))
            return Poly._kernel(hi, *anti) - Poly._kernel(lo, *anti)

        return c0 * moment(coeffs) + c1 * moment((coeffs[0] * 0, *coeffs))

    @classmethod
    def _of(cls, static, row):
        return cls(tuple(row))

    @staticmethod
    def _derivative(static, row):
        # the coefficients j * a_j, as numpy's polyder forms them; a
        # constant's is 0
        return Poly, (), tuple(j * a for j, a in enumerate(row) if j) or (0.0,)


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


def _off_half_line(t):
    """Whether t = side*(x - center) lies off the half-line t >= 0 by more
    than rounding: the domain rule of ``Power`` and ``Log`` pieces."""
    return t < -1e-12


def _half_line(lo, hi, side, center, kind):
    """Limits of t = side*(x - center) >= 0 for x in [lo, hi], sorted (which
    absorbs the Jacobian sign of the substitution) and clipped at 0."""
    ta = side * (np.asarray(lo, dtype=float) - center)
    tb = side * (np.asarray(hi, dtype=float) - center)
    t0, t1 = np.minimum(ta, tb), np.maximum(ta, tb)
    if np.any(_off_half_line(t0)):
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

    _scales = slice(0, 3, 2)  # coeff and offset

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
                with contextlib.suppress(OverflowError):  # a root past every float
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
        # integral of (A + B t)(a t^p + b) dt
        power_part = A * _power_integral(t0, t1, p) + B * _power_integral(t0, t1, p + 1.0)
        return a * power_part + b * (t1 - t0) * (A + 0.5 * B * (t0 + t1))

    @classmethod
    def _of(cls, static, row):
        coeff, center, offset, side = row
        return cls(coeff, center, static[0], offset, int(side))

    @staticmethod
    def _derivative(static, row):
        (exponent,) = static
        coeff, center, _, side = row
        return Power, (exponent - 1.0,), (coeff * exponent * side, center, 0.0, side)


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

    _scales = slice(0, 3, 2)  # coeff and offset

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
        # a rate-0 row is the constant a + c
        flat = b == 0.0
        if np.any(flat):
            value = np.where(flat, Poly._integral(lo, hi, c0, c1, a + c), value)
        return value

    @staticmethod
    def _derivative(static, row):
        coeff, rate, _ = row
        return Exponential, (), (coeff * rate, rate, 0.0)


@dataclass(frozen=True)
class Log(Segment):
    """f(x) = coeff * log(scale * (x - center)) + offset."""

    coeff: float
    scale: float
    center: float
    offset: float = 0.0

    _scales = slice(0, 4, 3)  # coeff and offset

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
        return k * (A * int_log + B * int_tlog) + o * d * (A + B * mid)

    @staticmethod
    def _derivative(static, row):
        coeff, _, center, _ = row
        return Power, (-1.0,), (coeff, center, 0.0, 1.0)


class _Group(NamedTuple):
    """Rows of a function's table of one kind, static parameters and row
    length: their parameters as columns, and as floats for a group of one."""

    kind: type
    static: tuple
    cols: np.ndarray  # a row per parameter, a column per row of the group
    row: tuple | None


def _group(kind, static, cols) -> _Group:
    return _Group(kind, static, cols, tuple(cols[:, 0].tolist()) if cols.shape[1] == 1 else None)


def _scaled_cols(kind, cols, c) -> np.ndarray:
    """A group's columns with the parameters that scale times c (a scalar,
    or one factor per column)."""
    out = cols.copy()
    out[kind._scales] *= c
    return out


def _params(group: _Group, rows) -> tuple:
    """The group's static parameters, then its row parameters at ``rows``,
    one array each; a group of one row gives its parameters as scalars."""
    if group.row is not None:
        return (*group.static, *group.row)
    return (*group.static, *group.cols.take(rows, axis=1))


def _pick(c, sel):
    """The entries ``sel`` of a weight, which may be a scalar."""
    return c[sel] if isinstance(c, np.ndarray) else c


def _flat(v: np.ndarray, shape: tuple) -> np.ndarray:
    """v broadcast to ``shape``, as a flat array."""
    return (v if v.shape == shape else np.broadcast_to(v, shape)).reshape(-1)


_ONE_PIECE = np.zeros(1, dtype=np.intp)  # the maps of a function of one piece
_ONE_PIECE.flags.writeable = False


class PiecewiseFn:
    """A function assembled from catalog segments on consecutive intervals.

    ``breakpoints`` has one more entry than ``segments`` and may start/end
    with +-inf.  The function is its group table (see the module
    docstring).  x belongs to the last piece whose left breakpoint is <= x
    (the end pieces reach past the ends), found by one ``searchsorted``.
    An array is evaluated with one stable sort of its entries by group and
    one kernel call per group; ``sides`` reads both one-sided values at
    breakpoints through the same calls, and ``_zero_parts`` runs each group's
    zero rule once.  A function of one piece calls its kernel directly with
    its parameters as scalars (``_solo``).
    """

    def __init__(self, breakpoints, segments):
        breakpoints, segments = tuple(breakpoints), tuple(segments)
        if len(breakpoints) != len(segments) + 1:
            raise ValueError("need len(breakpoints) == len(segments) + 1")
        if not all(map(operator.lt, breakpoints, breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        keys: dict[tuple, int] = {}
        rows: list[list[tuple]] = []
        group_of, row_of = [], []
        for seg in segments:
            row = seg._row
            g = keys.setdefault((type(seg), seg._static, len(row)), len(keys))
            if g == len(rows):
                rows.append([])
            group_of.append(g)
            row_of.append(len(rows[g]))
            rows[g].append(row)
        groups = tuple(
            _Group(kind, static, np.array(r, dtype=float).T, r[0] if len(r) == 1 else None)
            for (kind, static, _), r in zip(keys, rows)
        )
        maps = (_ONE_PIECE,) * 2 if len(segments) == 1 else map(np.array, (group_of, row_of))
        bps = np.array(breakpoints, dtype=float)
        self._set(bps, groups, *maps, breakpoints[0], breakpoints[-1])
        self.__dict__.update(breakpoints=breakpoints, segments=segments)

    def _set(self, bps, groups, group_of, row_of, lo=None, hi=None) -> "PiecewiseFn":
        self._bps, self._groups, self._group_of, self._row_of = bps, groups, group_of, row_of
        self.lo, self.hi = float(bps[0]) if lo is None else lo, float(bps[-1]) if hi is None else hi
        self._n = len(row_of)
        if self._n == 1:
            group = groups[group_of[0]]
            row = group.row or tuple(group.cols[:, row_of[0]].tolist())
            self._solo = group.kind, (*group.static, *row)
        return self

    def _like(self, bps=None, groups=None, keep=None) -> "PiecewiseFn":
        """A function sharing this one's table: new breakpoints or groups,
        or the pieces ``keep`` (indices or a slice) of its maps."""
        maps = (self._group_of, self._row_of)
        if keep is not None:
            maps = (self._group_of[keep], self._row_of[keep])
        return PiecewiseFn.__new__(PiecewiseFn)._set(
            self._bps if bps is None else bps, self._groups if groups is None else groups, *maps
        )

    @staticmethod
    def _from_columns(bps, parts) -> "PiecewiseFn":
        """The function on the breakpoints bps with one group per part
        (kind, static parameters, piece indices, a column per piece)."""
        group_of, row_of = np.empty((2, len(bps) - 1), dtype=np.intp)
        for g, (_, _, pieces, _) in enumerate(parts):
            group_of[pieces], row_of[pieces] = g, np.arange(len(pieces))
        groups = tuple(_group(k, st, np.ascontiguousarray(c, dtype=float)) for k, st, _, c in parts)
        return PiecewiseFn.__new__(PiecewiseFn)._set(bps, groups, group_of, row_of)

    @staticmethod
    def constant(value, lo=-np.inf, hi=np.inf):
        return PiecewiseFn((lo, hi), (Poly((value,)),))

    @staticmethod
    def from_segment(seg, lo, hi):
        return PiecewiseFn((lo, hi), (seg,))

    @cached_property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(self._bps.tolist())

    @cached_property
    def segments(self) -> tuple[Segment, ...]:
        made = [[g.kind._of(g.static, row) for row in g.cols.T.tolist()] for g in self._groups]
        return tuple(made[g][r] for g, r in zip(self._group_of.tolist(), self._row_of.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiecewiseFn):
            return NotImplemented
        return self.breakpoints == other.breakpoints and self.segments == other.segments

    def __hash__(self) -> int:
        return hash((self.breakpoints, self.segments))

    def __repr__(self) -> str:
        return f"PiecewiseFn(breakpoints={self.breakpoints!r}, segments={self.segments!r})"

    def _parts(self, pieces: np.ndarray):
        """(kind, static parameters, pieces, columns) for each group that the
        piece indices ``pieces`` meet, a column per piece."""
        for g, group in enumerate(self._groups):
            mine = pieces[self._group_of[pieces] == g]
            if len(mine):
                yield group.kind, group.static, mine, group.cols[:, self._row_of[mine]]

    def _value(self, x: float) -> float:
        """f at the scalar x."""
        if self._n == 1:
            kind, params = self._solo
        else:
            i = int(self._bps[1:-1].searchsorted(x, "right"))
            group = self._groups[self._group_of[i]]
            kind = group.kind
            params = (*group.static, *(group.row or group.cols[:, self._row_of[i]].tolist()))
        return float(kind._kernel(np.asarray(x, dtype=float), *params))

    def _by_group(self, idx: np.ndarray, call) -> np.ndarray:
        """``call(group, run, rows)`` once for each group that the piece
        indices idx meet, where run picks that group's entries of idx and
        rows are their rows in it (None for a group of one row); the results
        are put back in the order of idx."""
        groups, row_of = self._groups, self._row_of
        if len(groups) == 1:
            return call(groups[0], slice(None), None if groups[0].row else row_of[idx])
        # one stable sort lines up the entries of each group in one run
        gid = self._group_of[idx]
        order = np.argsort(gid, kind="stable")
        ends = np.searchsorted(gid[order], np.arange(len(groups)), side="right")
        out = np.empty(len(idx))
        start = 0
        for group, end in zip(groups, ends.tolist()):
            if end > start:
                run = order[start:end]
                out[run] = call(group, run, None if group.row else row_of[idx[run]])
            start = end
        return out

    def _eval(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """f at each entry of the flat array x, on the piece that idx names."""
        return self._by_group(idx, lambda g, run, rows: g.kind._kernel(x[run], *_params(g, rows)))

    def __call__(self, x):
        if np.ndim(x) == 0:
            return self._value(float(x))
        x = np.ascontiguousarray(x, dtype=float)
        if self._n == 1:
            kind, params = self._solo
            return kind._kernel(x, *params)
        flat = x.reshape(-1)
        return self._eval(flat, self._bps[1:-1].searchsorted(flat, side="right")).reshape(x.shape)

    def sides(self, x):
        """f(x-) and f(x+) at each entry of the 1-d array x: at a breakpoint,
        the value of the piece on its left and of the piece on its right
        (which is f(x)); elsewhere f(x) twice."""
        x = np.ascontiguousarray(x, dtype=float)
        if self._n == 1:
            values = self(x)
            return values, values.copy()
        inner = self._bps[1:-1]
        idx = np.concatenate([inner.searchsorted(x, "left"), inner.searchsorted(x, "right")])
        values = self._eval(np.concatenate([x, x]), idx)
        return values[: len(x)], values[len(x) :]

    def _integrals(self, piece, a, b, c0, c1) -> np.ndarray:
        """The integral of (c0 + c1*x) f(x) over each [a, b] inside the piece
        ``piece``: one integral rule call per group."""
        return self._by_group(
            piece,
            lambda g, run, rows: g.kind._integral(
                a[run], b[run], _pick(c0, run), _pick(c1, run), *_params(g, rows)
            ),
        )

    def integrate(self, lo, hi, c0=1.0, c1=0.0):
        """Integral of (c0 + c1*x) f(x) over [lo, hi]; hi < lo flips the sign.

        The arguments broadcast against each other; all-scalar arguments
        give a float.  The pieces an interval meets fill slots: slot 0 holds
        each interval's first piece and slot j its j-th piece after that.
        Slot 0 runs each group's rule once and the later slots together
        once more, and the pieces are added slot by slot, so each interval's
        total is summed from 0.0 in piece order.  This is the one entry to
        the segments' integral rules, and it takes finite limits only: a
        non-finite one raises ``ValueError``.
        """
        lo, hi, c0, c1 = (np.asarray(v, dtype=float) for v in (lo, hi, c0, c1))
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("integration limits must be finite")
        shape = np.broadcast(lo, hi, c0, c1).shape
        lo, hi = _flat(lo, shape), _flat(hi, shape)
        # a scalar weight stays a scalar
        c0, c1 = (float(c) if c.ndim == 0 else _flat(c, shape) for c in (c0, c1))
        flip = hi < lo
        flipped = flip.any()
        if flipped:
            lo, hi = np.where(flip, hi, lo), np.where(flip, lo, hi)
        total = np.zeros(lo.shape)
        if self._n == 1:
            kind, params = self._solo
            a, b = np.maximum(lo, self.lo), np.minimum(hi, self.hi)
            on = b > a
            k = slice(None) if on.all() else on.nonzero()[0]
            total[k] += kind._integral(a[k], b[k], _pick(c0, k), _pick(c1, k), *params)
        else:
            bps = self._bps
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
        return self._like(groups=tuple(
            _group(g.kind, g.static, _scaled_cols(g.kind, g.cols, c)) for g in self._groups
        ))

    def derivative(self) -> "PiecewiseFn":
        groups = []
        for g in self._groups:
            kind, static, row = g.kind._derivative(g.static, tuple(g.cols))
            cols = np.empty((len(row), g.cols.shape[1]))
            for i, v in enumerate(row):
                cols[i] = v
            groups.append(_group(kind, static, cols))
        return self._like(groups=tuple(groups))

    def restricted(self, lo, hi):
        """The function on [lo, hi]: the pieces from the one that ends past
        lo to the one that starts before hi; on its own ends, itself."""
        if lo == self.lo and hi == self.hi:
            return self
        bps = self._bps
        first = max(int(bps.searchsorted(lo, "right")) - 1, 0)
        stop = min(int(bps.searchsorted(hi, "left")), self._n)
        if not (lo < hi and first < stop):
            raise ValueError("breakpoints must be strictly increasing")
        bps = np.concatenate(([lo], bps[first + 1 : stop], [hi]))
        return self._like(bps, keep=slice(first, stop))

    def with_breakpoints(self, extra) -> "PiecewiseFn":
        """Refine the partition by inserting breakpoints (same function);
        with none new, the function itself."""
        bps = self._bps
        new = np.array(extra, dtype=float).reshape(-1)
        if len(new):
            new = new[(self.lo < new) & (new < self.hi)]
        new = new[bps[bps.searchsorted(new)] != new]
        if not len(new):
            return self
        bps = np.sort(np.concatenate((bps, _unique(new))))
        # each piece takes the row of the old piece that holds its left end
        return self._like(bps, keep=self._bps[1:-1].searchsorted(bps[:-1], side="right"))

    def _zero_parts(self, lo=-np.inf, hi=np.inf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact {f = 0} on [lo, hi] as the intervals' ends and the points, in
        piece order: each piece cut to [lo, hi] gives its whole interval where
        its segment vanishes identically and its roots in the closed interval
        otherwise; each group's zero rule runs once."""
        if self._n == 1:  # one piece: its zero rule directly
            a, b = np.array([max(lo, self.lo)]), np.array([min(hi, self.hi)])
            if not b > a:
                return (np.empty(0),) * 3
            group = self._groups[self._group_of[0]]
            whole, _, roots = group.kind._zeros(group.static, group.cols[:, self._row_of], a, b)
            return (a, b, roots) if whole[0] else (np.empty(0), np.empty(0), roots)
        bps, parts = self._bps, []
        cut = lo > self.lo or hi < self.hi
        for g, group in enumerate(self._groups):
            pieces = (self._group_of == g).nonzero()[0]
            a, b = bps[pieces], bps[1:][pieces]
            if cut:
                a, b = np.maximum(lo, a), np.minimum(hi, b)
                on = b > a
                if not on.all():
                    pieces, a, b = pieces[on], a[on], b[on]
            if len(pieces):
                cols = group.cols[:, self._row_of[pieces]]
                whole, hit, roots = group.kind._zeros(group.static, cols, a, b)
                parts.append((pieces[whole], a[whole], b[whole], pieces[hit], roots))
        if len(parts) < 2:  # one group's pieces are in order
            return parts[0][1:3] + parts[0][4:] if parts else (np.empty(0),) * 3
        # the groups' parts merged in piece order, stable within a piece
        cols = [np.concatenate(c) for c in zip(*parts)]
        ivs, pts = np.argsort(cols[0], kind="stable"), np.argsort(cols[3], kind="stable")
        return cols[1][ivs], cols[2][ivs], cols[4][pts]
