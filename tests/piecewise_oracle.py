"""The per-segment route through piecewise functions, kept as the oracle of
the grouped one in ``gdarb.piecewise``: every point is evaluated by its own
segment's scalar call, every segment's zero rule runs on its own and makes
its own ``BorelSet``, the sign pass cuts segment by segment, integrals run
segment by segment over every interval, refinement looks up each new piece
on its own, and the jumps of q' are read one breakpoint at a time.  The
zero rules are the catalog's per kind, with two corrections the grouped
pass makes too: a root at a piece end belongs to the zero set for every
kind (``Exponential`` and ``Log`` once kept only interior roots), and a
``Power`` root past every float is no root (it once raised
``OverflowError``).  The
integrals, over finite limits only, are the catalog's per-kind closed
forms as each segment once wrote them on its own (``finite_integral``),
not the grouped rules.  ``limit`` is the reference for a read at +-inf or
at a centre, written from the term that leads there."""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from gdarb.borel import EMPTY, BorelSet
from gdarb.piecewise import (
    Exponential,
    Log,
    Poly,
    Power,
    _exp_moments,
    _half_line,
    _power_integral,
)

EPS = np.finfo(float).eps


def segment_of(pw, x):
    """The segment whose piece holds x: the last one whose left breakpoint
    is <= x, the end segments reaching past the ends."""
    bps = pw.breakpoints
    return pw.segments[bisect_right(bps, x, 1, len(bps) - 1) - 1]


def evaluate(pw, xs):
    """pw at each entry of xs, one scalar segment call per point."""
    return np.array([float(segment_of(pw, x)(x)) for x in np.asarray(xs, dtype=float).tolist()])


def integrate(pw, lo, hi, c0=1.0, c1=0.0, rows=None):
    """The integral of (c0 + c1*x) pw(x) over each finite [lo, hi] (hi < lo
    flips the sign), segment by segment: each segment's own closed form over
    its part of every interval it meets, added to the interval's total from
    0.0 in segment order.  Given ``rows``, each piece is the polynomial of
    its row there, as its table holds it."""
    lo, hi, c0, c1 = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (lo, hi, c0, c1))
    )
    sign = np.where(hi < lo, -1.0, 1.0)
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    total = np.zeros(lo.shape)
    bps = pw.breakpoints
    for i, seg in enumerate(pw.segments):
        a, b = np.maximum(lo, bps[i]), np.minimum(hi, bps[i + 1])
        on = b > a
        if on.any():
            if rows is None:
                total[on] += finite_integral(seg, a[on], b[on], c0[on], c1[on])
            else:
                total[on] += poly_integral(rows[i], a[on], b[on], c0[on], c1[on])
    return sign * total


def poly_integral(coeffs, lo, hi, c0, c1):
    """The integral of (c0 + c1*x) times the polynomial with ascending
    coefficients ``coeffs`` over each finite [lo, hi]: a constant's as the
    constant kind once wrote it, value * (c0 (hi - lo) + c1 (hi^2 - lo^2) / 2),
    and a longer row's by numpy's polyint, polymulx and polyval."""
    if len(coeffs) == 1:
        return coeffs[0] * (c0 * (hi - lo) + 0.5 * c1 * (hi * hi - lo * lo))
    pp = np.polynomial.polynomial

    def moment(cs):
        anti = pp.polyint(cs)
        return pp.polyval(hi, anti) - pp.polyval(lo, anti)

    return c0 * moment(coeffs) + c1 * moment(pp.polymulx(coeffs))


def short_row_kernel(row, x):
    """A constant's or a line's value at x as the constant and line kinds
    once read it: the constant itself (at +-inf too), and intercept +
    slope*x."""
    return row[0] if len(row) == 1 else row[0] + row[1] * x


def short_row_derivative(row):
    """A constant's derivative row, (0.0,), and a line's, (slope,)."""
    return (0.0,) if len(row) == 1 else (row[1],)


def finite_integral(seg, lo, hi, c0, c1):
    """The integral of (c0 + c1*x) seg(x) over each finite [lo, hi], by the
    kind's closed form as the segment once wrote it on its own
    (``poly_integral`` for a polynomial), a rate-0 exponential as the
    constant coeff + offset."""
    if isinstance(seg, Poly):
        return poly_integral(seg.coeffs, lo, hi, c0, c1)
    if isinstance(seg, Power):
        s, c, p, a, b = seg.side, seg.center, seg.exponent, seg.coeff, seg.offset
        t0, t1 = _half_line(lo, hi, s, c, "power")
        if p <= -1.0 and np.any(t0 == 0.0):
            raise ValueError("non-integrable power singularity")
        A, B = c0 + c1 * c, c1 * s
        power_part = A * _power_integral(t0, t1, p) + B * _power_integral(t0, t1, p + 1.0)
        return a * power_part + b * (t1 - t0) * (A + 0.5 * B * (t0 + t1))
    if isinstance(seg, Exponential):
        a, b, c = seg.coeff, seg.rate, seg.offset
        if b == 0.0:
            return poly_integral((a + c,), lo, hi, c0, c1)
        d = hi - lo
        x0, side = (hi, -1.0) if b > 0.0 else (lo, 1.0)
        e1, e2 = _exp_moments(-abs(b) * d)
        exp_part = np.exp(b * x0) * d * ((c0 + c1 * x0) * e1 + side * c1 * d * e2)
        return a * exp_part + c * d * (c0 + 0.5 * c1 * (lo + hi))
    if isinstance(seg, Log):
        k, c, o = seg.coeff, seg.center, seg.offset
        side, lam = np.sign(seg.scale), abs(seg.scale)
        t0, t1 = _half_line(lo, hi, side, c, "log")
        A, B = c0 + c1 * c, c1 * side
        d = t1 - t0
        log1 = np.log(lam * t1)
        g = np.log1p(d / t0)
        tg = np.where(t0 > 0.0, t0 * g, 0.0)
        ttg = np.where(t0 > 0.0, t0 * t0 * g, 0.0)
        mid = 0.5 * (t0 + t1)
        int_log = d * (log1 - 1.0) + tg
        int_tlog = d * mid * (log1 - 0.5) + 0.5 * ttg
        return k * (A * int_log + B * int_tlog) + o * d * (A + B * mid)
    raise TypeError(type(seg).__name__)


def with_breakpoints(pw, extra):
    """pw on its breakpoints and the new ones inside (lo, hi), each piece
    taking the segment of the piece that holds its left end."""
    pts = sorted(set(pw.breakpoints) | {p for p in extra if pw.lo < p < pw.hi})
    return tuple(pts), tuple(segment_of(pw, a) for a in pts[:-1])


def _poly_roots(coeffs, lo, hi):
    pp = np.polynomial.polynomial
    c = np.asarray(coeffs, dtype=float)
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


def short_row_zeros(row, lo, hi):
    """A constant's or a line's zero rule on [lo, hi], raw, as the constant
    and line kinds once wrote it: a line of slope 0 is the constant
    intercept."""
    if len(row) == 2 and row[1] != 0.0:
        root = -row[0] / row[1]
        return ([], [float(root)]) if lo <= root <= hi else ([], [])
    return ([(lo, hi)], []) if row[0] == 0.0 else ([], [])


def segment_zeros(seg, lo, hi):
    """One segment's zero rule on [lo, hi], raw: (intervals, points)."""
    whole = ([(lo, hi)], [])
    none = ([], [])

    def constant(value):
        return whole if value == 0.0 else none

    def root(x):
        return ([], [float(x)]) if lo <= x <= hi else none

    if isinstance(seg, Poly):
        if len(seg.coeffs) <= 2:
            return short_row_zeros(seg.coeffs, lo, hi)
        if all(a == 0.0 for a in seg.coeffs):
            return whole
        return [], _poly_roots(seg.coeffs, lo, hi)
    if isinstance(seg, Power):
        if seg.exponent == 0.0:
            return constant(seg.coeff + seg.offset)
        if seg.coeff == 0.0:
            return constant(seg.offset)
        if seg.offset == 0.0:
            return root(seg.center) if seg.exponent > 0.0 else none
        if -seg.offset / seg.coeff <= 0.0:
            return none
        try:
            return root(seg.center + seg.side * (-seg.offset / seg.coeff) ** (1.0 / seg.exponent))
        except OverflowError:  # a root past every float
            return none
    if isinstance(seg, Exponential):
        a, b, c = seg.coeff, seg.rate, seg.offset
        if b == 0.0:
            return constant(a + c)
        if a == 0.0:
            return constant(c)
        if c == 0.0 or -c / a <= 0.0:
            return none
        return root(np.log(-c / a) / b)
    if isinstance(seg, Log):
        if seg.coeff == 0.0:
            return constant(seg.offset)
        return root(seg.center + np.exp(-seg.offset / seg.coeff) / seg.scale)
    raise TypeError(type(seg).__name__)


def pieces(pw, lo=-np.inf, hi=np.inf):
    """(segment, a, b) for each piece cut to [lo, hi] that keeps a length."""
    bps = pw.breakpoints
    for i, seg in enumerate(pw.segments):
        a, b = max(lo, bps[i]), min(hi, bps[i + 1])
        if b > a:
            yield seg, a, b


def zeros(pw, lo=-np.inf, hi=np.inf):
    """The raw zero parts of every piece cut to [lo, hi], in piece order."""
    ivs, pts = [], []
    with np.errstate(all="ignore"):
        for seg, a, b in pieces(pw, lo, hi):
            i, p = segment_zeros(seg, a, b)
            ivs += i
            pts += p
    return ivs, pts


def zero_set(pw):
    """The union of one BorelSet per segment."""
    with np.errstate(all="ignore"):
        parts = [BorelSet.make(*segment_zeros(seg, a, b)) for seg, a, b in pieces(pw)]
    return BorelSet.make(
        [iv for part in parts for iv in part.intervals], [x for part in parts for x in part.points]
    )


def sign_sets(pw, lo, hi, signs=(1.0, -1.0)):
    """Closures of {s * pw > 0} in [lo, hi]: each segment cut at its own
    zero set, the sign read at the midpoints, the edges where pw vanishes
    excluded."""
    lo, hi = max(lo, pw.lo), min(hi, pw.hi)
    if hi <= lo:
        return (EMPTY,) * len(signs)
    cuts = {lo, hi}
    with np.errstate(all="ignore"):
        for seg, a, b in pieces(pw, lo, hi):
            zs = BorelSet.make(*segment_zeros(seg, a, b))
            cuts.update((a, b, *zs.points))
            for za, zb in zs.intervals:
                cuts.update((max(za, a), min(zb, b)))
        cuts = sorted(c for c in cuts if lo <= c <= hi)
        c = np.array(cuts)
        mid = evaluate(pw, 0.5 * (c[:-1] + c[1:]))
        vanish = {p for p, v in zip(cuts, evaluate(pw, c)) if v == 0.0}
    out = []
    for s in signs:
        part = BorelSet.make([(a, b) for a, b, v in zip(cuts, cuts[1:], mid) if s * v > 0.0])
        out.append(part.without_points([p for iv in part.intervals for p in iv if p in vanish]))
    return tuple(out)


def q_second_atoms(model):
    """The jumps of q' at the interior breakpoints inside (lo, hi), each side
    read by its own segment's scalar call.  A finite jump counts unless it is
    within 64 ulps of |q'(u-)| + |q'(u+)|; an infinite one counts, and a nan
    one (inf - inf) does not."""
    qp = model.q_prime
    atoms = []
    with np.errstate(all="ignore"):
        for i, a in enumerate(qp.breakpoints[1:-1]):
            if model.lo < a < model.hi:
                left, right = float(qp.segments[i](a)), float(qp.segments[i + 1](a))
                jump = right - left
                if math.isinf(jump) or abs(jump) > 64 * EPS * (abs(left) + abs(right)):
                    atoms.append((float(a), jump))
    return tuple(atoms)


def limit(seg, x):
    """The limit of the non-constant segment seg at x, which is +-inf or the
    centre of a ``Power`` or ``Log``, from the term that leads there: a term
    that grows without bound gives its sign times inf, and one that decays
    leaves the offset."""
    if isinstance(seg, Poly):
        coeffs = seg.coeffs
        n = max(j for j, c in enumerate(coeffs) if c != 0.0)  # the degree, >= 1
        return math.copysign(1.0, coeffs[n]) * math.copysign(1.0, x) ** n * math.inf
    if isinstance(seg, Exponential):  # coeff * exp(rate * x)
        return math.copysign(math.inf, seg.coeff) if seg.rate * x > 0.0 else seg.offset
    if isinstance(seg, Power):  # coeff * t**exponent, t -> inf or t -> 0
        grows = (seg.exponent > 0.0) == math.isinf(x)
        return math.copysign(math.inf, seg.coeff) if grows else seg.offset
    if isinstance(seg, Log):  # coeff * log t, t -> inf or t -> 0
        return math.copysign(math.inf, seg.coeff if math.isinf(x) else -seg.coeff)
    raise TypeError(f"no leading term for {seg!r}")
