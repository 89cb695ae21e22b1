"""The grouped route through piecewise functions: one kernel call per group
of alike segments for evaluation, one zero pass per function, against the
per-segment route of ``piecewise_oracle``."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import piecewise_oracle as oracle
from gdarb import arbitrage
from gdarb import catalog as cat
from gdarb.borel import BorelSet
from gdarb.measures import positive_set, sign_sets
from gdarb.model import BoundarySpec, NaturalScaleModel, validate
from gdarb.piecewise import (
    Affine,
    Const,
    Exponential,
    Log,
    PiecewiseFn,
    Poly,
    Power,
    Segment,
)

KINDS = (Const, Affine, Poly, Power, Exponential, Log)

# exact zeros, ones and a spread of magnitudes: zeros make constant,
# one-term and identically zero segments, and equal draws make roots
_VALUES = (0.0, 0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-3, -7.25, 0.125)
_EXPONENTS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)


@st.composite
def _segment_on(draw, a, b):
    """A segment of any kind, valid on [a, b]: a power or log segment's
    half-line starts at a (or ends at b) or a gap beyond it."""
    value = st.sampled_from(_VALUES)
    kind = draw(st.sampled_from(KINDS))
    if kind is Const:
        return Const(draw(value))
    if kind is Affine:
        return Affine(draw(value), draw(value))
    if kind is Poly:
        return Poly(tuple(draw(value) for _ in range(draw(st.integers(1, 5)))))
    if kind is Exponential:
        rate = draw(st.sampled_from((0.0, 1.0, -1.0, 0.3, -2.0)))
        return Exponential(draw(value), rate, draw(value))
    side = draw(st.sampled_from((1, -1)))
    center = (a if side == 1 else b) - side * draw(st.sampled_from((0.0, 0.25, 1.0)))
    if kind is Power:
        return Power(draw(value), center, draw(st.sampled_from(_EXPONENTS)), draw(value), side)
    return Log(draw(value), side * draw(st.sampled_from((0.5, 1.0, 2.0))), center, draw(value))


@st.composite
def _piecewise_fns(draw):
    n = draw(st.sampled_from((1, 2, 3, 7, 64, 200)) | st.integers(1, 200))
    widths = [draw(st.sampled_from((0.05, 0.25, 1.0, 3.0))) for _ in range(n - 1)]
    bps = [float(x) for x in np.cumsum([0.0] + widths) - 2.0]
    bps = [draw(st.sampled_from((-np.inf, bps[0] - 1.0)))] + bps
    bps.append(draw(st.sampled_from((np.inf, bps[-1] + 1.0))))
    segs = tuple(draw(_segment_on(max(a, -1e3), min(b, 1e3))) for a, b in zip(bps, bps[1:]))
    return PiecewiseFn(tuple(bps), segs)


def _points(pw):
    """The breakpoints, points between and beyond them, and +-inf."""
    bps = np.array(pw.breakpoints)
    finite = bps[np.isfinite(bps)]
    return np.concatenate([
        finite, 0.5 * (finite[:-1] + finite[1:]), finite + 0.01,
        [finite[0] - 2.0, finite[-1] + 2.0, -np.inf, np.inf, -0.0, 0.0],
    ])


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@settings(max_examples=60)
@given(pw=_piecewise_fns(), cut=st.tuples(st.integers(0, 2), st.integers(0, 2)))
@example(pw=cat.fat_cantor_model(depth=6).q_prime, cut=(1, 1))
def test_grouped_route_equals_per_segment_route(pw, cut):
    xs = _points(pw)
    at_left = np.array(pw.breakpoints[1:-1]).searchsorted(xs, "left").tolist()
    with np.errstate(all="ignore"):
        want = oracle.evaluate(pw, xs)
        want_left = [float(pw.segments[i](x)) for i, x in zip(at_left, xs.tolist())]
        assert np.array_equal(_bits(pw(xs)), _bits(want))
        left, right = pw.sides(xs)
    assert np.array_equal(_bits(right), _bits(want))
    assert np.array_equal(_bits(left), _bits(want_left))

    # the zero pass, whole and cut to a window that splits pieces
    assert pw.zeros() == oracle.zeros(pw)
    assert pw.zero_set() == oracle.zero_set(pw)
    finite = [b for b in pw.breakpoints if np.isfinite(b)]
    lo = (finite[0] - 0.5, finite[0] + 0.1, -1e12)[cut[0]]
    hi = (finite[-1] + 0.5, finite[-1] - 0.1, 1e12)[cut[1]]
    assert pw.zeros(lo, hi) == oracle.zeros(pw, lo, hi)
    with np.errstate(all="ignore"):
        assert sign_sets(pw, lo, hi) == oracle.sign_sets(pw, lo, hi)
        assert positive_set(pw, lo, hi) == oracle.positive_set(pw, lo, hi)

    # the jumps of q' read on both sides in one call
    model = NaturalScaleModel(
        lo=pw.lo,
        hi=pw.hi,
        left=BoundarySpec("left"),
        right=BoundarySpec("right"),
        q=pw,
        m_ac=PiecewiseFn.constant(1.0, pw.lo, pw.hi),
    )
    assert model.q_second_atoms == oracle.q_second_atoms(model)


def _analyze(depth):
    model = cat.fat_cantor_model(depth=depth, r=0.2)
    validate(model)
    arbitrage.build_nu(model)


def _calls(monkeypatch, run):
    """Counts of per-segment calls, BorelSet.make calls and each kind's
    kernel calls while run() runs."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    with monkeypatch.context() as m:
        m.setattr(BorelSet, "make", staticmethod(counting("BorelSet.make", BorelSet.make)))
        for kind in (Segment, *KINDS):
            if "__call__" in vars(kind):
                m.setattr(kind, "__call__", counting("Segment.__call__", kind.__call__))
            if "_kernel" in vars(kind):
                m.setattr(kind, "_kernel", staticmethod(counting(kind.__name__, kind._kernel)))
        run()
    return counts


def test_fat_cantor_analysis_runs_per_group_not_per_segment(monkeypatch):
    # the depth-6 q' has 192 segments in three groups (a degree-1 Poly,
    # Const, and Power with exponent 1), depth 1 has 6 in the same groups:
    # building, validating and decomposing nu calls no segment on its own,
    # and makes as many sets and kernel calls at either depth
    deep = _calls(monkeypatch, lambda: _analyze(6))
    shallow = _calls(monkeypatch, lambda: _analyze(1))
    assert len(cat.fat_cantor_model(depth=6).q_prime.segments) == 192
    assert deep["Segment.__call__"] == 0
    assert deep == shallow
    assert deep["Power"] > 0 and deep["Const"] > 0


def test_parameter_table_is_built_on_first_use():
    model = cat.fat_cantor_model(depth=3)
    for pw in (model.q, model.m_ac, model.q.scaled(2.0), model.q.restricted(0.0, 1.0)):
        assert "_table" not in vars(pw)
    # building the model read q' on both sides of its breakpoints
    assert "_table" in vars(model.q_prime)
    q = model.q.scaled(2.0)
    q(np.array([0.1, 0.7]))
    table = vars(q)["_table"]
    q(np.array([0.3]))
    q.zeros()
    assert vars(q)["_table"] is table
    # one segment runs its kernel and its zero rule directly, with no table
    one = PiecewiseFn.constant(0.0)
    one(np.array([0.0, 1.0]))
    one.sides(np.array([0.0]))
    assert one.zeros(-1.0, 1.0) == ([(-1.0, 1.0)], [])
    assert "_table" not in vars(one)


@pytest.mark.parametrize(
    "seg",
    [Exponential(1.0, 1.0, -1.0), Exponential(2.0, -1.0, -2.0), Log(1.0, 1.0, -1.0, 0.0)],
)
def test_root_at_a_piece_end_is_in_the_zero_set(seg):
    # each of these vanishes at x = 0, the left end of [0, 1]
    assert float(seg(0.0)) == 0.0
    pw = PiecewiseFn((0.0, 1.0), (seg,))
    assert pw.zero_set() == BorelSet.make(points=[0.0])
    assert PiecewiseFn((-1.0, 0.0), (seg,)).zero_set() == BorelSet.make(points=[0.0])
    assert seg.zero_set(0.0, 1.0).points == (0.0,)


@pytest.mark.parametrize("coeff,rate,c0,c1", [
    (1.0, 1.0, 1.0, 0.0),
    (2.5, 0.3, 0.7, 0.0),
    (-1.5, 2.0, 0.5, -1.25),
    (1.0, -1.0, 1.0, 0.0),
    (0.75, -0.4, 0.2, 1.5),
])
def test_exponential_integral_over_a_half_line(coeff, rate, c0, c1):
    # the integral of (c0 + c1 x) coeff exp(rate x) over the half-line
    # where exp(rate x) decays, from x0 = 0.5: the closed form and quad
    seg = Exponential(coeff, rate)
    x0 = 0.5
    lo, hi = (-np.inf, x0) if rate > 0.0 else (x0, np.inf)
    b = abs(rate)
    side = -1.0 if rate > 0.0 else 1.0
    want = coeff * np.exp(rate * x0) * ((c0 + c1 * x0) / b + side * c1 / b**2)
    got = float(seg.integrate_affine(lo, hi, c0, c1))
    assert got == pytest.approx(want, rel=1e-13)
    numeric, _ = quad(lambda x: (c0 + c1 * x) * float(seg(x)), lo, hi, epsabs=0.0, epsrel=1e-12)
    assert got == pytest.approx(numeric, rel=1e-9)
    # arrays of limits mix finite and infinite gaps
    los = np.array([lo, x0 - 1.0]) if rate > 0.0 else np.array([x0, x0])
    his = np.array([x0, x0]) if rate > 0.0 else np.array([hi, x0 + 1.0])
    arr = seg.integrate_affine(los, his, c0, c1)
    assert arr[0] == got
    assert arr[1] == seg.integrate_affine(los[1], his[1], c0, c1)


def test_exponential_integral_example():
    assert float(Exponential(1.0, 1.0).integrate_affine(-np.inf, 0.0)) == 1.0
    # a nonzero offset over a half-line diverges: no finite number
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(Exponential(1.0, 1.0, 0.5).integrate_affine(-np.inf, 0.0))
