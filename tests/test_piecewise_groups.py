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
from gdarb.measures import sign_sets
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
def _segment_on(draw, a, b, integrable=False):
    """A segment of any kind, valid on [a, b]: a power or log segment's
    half-line starts at a (or ends at b) or a gap beyond it.

    An integrable segment is one whose integral over every finite part of
    [a, b] exists: its half-line holds all of [a, b], and a power of
    exponent <= -1 keeps a gap from its center."""
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
    if integrable and np.isinf(a) != np.isinf(b):
        side = 1 if np.isinf(b) else -1
    ends = (max(a, -1e3), min(b, 1e3))
    gap = draw(st.sampled_from((0.0, 0.25, 1.0)))
    if kind is Power:
        coeff, exponent = draw(value), draw(st.sampled_from(_EXPONENTS))
        if integrable and exponent <= -1.0:
            gap += 0.5
        center = ends[side == -1] - side * gap
        return Power(coeff, center, exponent, draw(value), side)
    center = ends[side == -1] - side * gap
    return Log(draw(value), side * draw(st.sampled_from((0.5, 1.0, 2.0))), center, draw(value))


@st.composite
def _piecewise_fns(draw, integrable=False):
    n = draw(st.sampled_from((1, 2, 3, 7, 64, 200)) | st.integers(1, 200))
    widths = [draw(st.sampled_from((0.05, 0.25, 1.0, 3.0))) for _ in range(n - 1)]
    bps = [float(x) for x in np.cumsum([0.0] + widths) - 2.0]
    bps = [draw(st.sampled_from((-np.inf, bps[0] - 1.0)))] + bps
    bps.append(draw(st.sampled_from((np.inf, bps[-1] + 1.0))))
    segs = tuple(draw(_segment_on(a, b, integrable)) for a, b in zip(bps, bps[1:]))
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


def _zeros(pw, lo=-np.inf, hi=np.inf):
    """The zero pass's raw parts as lists, (intervals, points), as the
    oracle gives them."""
    a, b, pts = pw._zero_parts(lo, hi)
    return list(zip(a.tolist(), b.tolist())), pts.tolist()


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
    assert _zeros(pw) == oracle.zeros(pw)
    with np.errstate(all="ignore"):
        assert sign_sets(pw, pw.lo, pw.hi)[2] == oracle.zero_set(pw)
    finite = [b for b in pw.breakpoints if np.isfinite(b)]
    lo = (finite[0] - 0.5, finite[0] + 0.1, -1e12)[cut[0]]
    hi = (finite[-1] + 0.5, finite[-1] - 0.1, 1e12)[cut[1]]
    assert _zeros(pw, lo, hi) == oracle.zeros(pw, lo, hi)
    with np.errstate(all="ignore"):
        want = (*oracle.sign_sets(pw, lo, hi), BorelSet.make(*oracle.zeros(pw, lo, hi)))
        assert sign_sets(pw, lo, hi) == want

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


_WEIGHTS = st.sampled_from(_VALUES + (-0.0,))


@st.composite
def _limits(draw, pw):
    """Arrays of finite limits drawn from the breakpoints and the points
    between and beyond them, so that some intervals are empty or reversed,
    end on a breakpoint or reach past an end; and weights, each a scalar or
    an array."""
    pool = st.sampled_from([x for x in _points(pw).tolist() if np.isfinite(x)])
    n = draw(st.sampled_from((0, 1, 16)) | st.integers(0, 16))
    lo = np.array([draw(pool) for _ in range(n)])
    hi = np.array([draw(pool) for _ in range(n)])
    weights = [
        draw(_WEIGHTS | st.lists(_WEIGHTS, min_size=n, max_size=n).map(np.array))
        for _ in range(2)
    ]
    return lo, hi, *weights


@settings(max_examples=35)
@given(data=st.data(), pw=_piecewise_fns(integrable=True))
def test_grouped_integrate_equals_per_segment_loop(data, pw):
    # every kind, power exponents -2..3, poly degrees 0..4: the grouped
    # integral adds each interval's pieces in the per-segment loop's order
    lo, hi, c0, c1 = data.draw(_limits(pw))
    with np.errstate(all="ignore"):
        want = oracle.integrate(pw, lo, hi, c0, c1)
        got = pw.integrate(lo, hi, c0, c1)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200)
@given(data=st.data())
def test_integral_rule_equals_closed_form_of_its_kind(data):
    # each kind's grouped rule, through the one entry, against the closed
    # form a segment once wrote on its own, over finite limits that may be
    # equal or reversed
    a = data.draw(st.sampled_from((-3.0, -0.5, 0.0, 1.0)))
    b = a + data.draw(st.sampled_from((0.05, 1.0, 4.0)))
    seg = data.draw(_segment_on(a, b, integrable=True))
    ends = st.sampled_from((a, b, 0.5 * (a + b), a + 0.01 * (b - a)))
    n = data.draw(st.integers(1, 12))
    lo, hi = (np.array([data.draw(ends) for _ in range(n)]) for _ in range(2))
    c0, c1 = (
        data.draw(_WEIGHTS | st.lists(_WEIGHTS, min_size=n, max_size=n).map(np.array))
        for _ in range(2)
    )
    pw = PiecewiseFn.from_segment(seg, a, b)
    with np.errstate(all="ignore"):
        want = oracle.integrate(pw, lo, hi, c0, c1)
        got = pw.integrate(lo, hi, c0, c1)
        one = pw.integrate(float(lo[0]), float(hi[0]), 1.0, 0.5)
        one_want = oracle.integrate(pw, lo[:1], hi[:1], 1.0, 0.5)
    assert got.tobytes() == want.tobytes()
    assert np.array([one]).tobytes() == one_want.tobytes()


@settings(max_examples=30)
@given(data=st.data(), pw=_piecewise_fns())
def test_with_breakpoints_matches_per_point_lookup(data, pw):
    extra = data.draw(st.lists(st.sampled_from(_points(pw).tolist()), max_size=12))
    refined = pw.with_breakpoints(extra)
    assert (refined.breakpoints, refined.segments) == oracle.with_breakpoints(pw, extra)
    assert (refined is pw) == (len(refined.segments) == len(pw.segments))
    assert pw.with_breakpoints([*pw.breakpoints, np.nan]) is pw


def test_integral_over_a_half_line_examples():
    # integrals take finite limits only: the offset 0.5 and the exponential
    # part, whose integral over the half-line (-inf, 0] is 1, over ever
    # longer finite stretches of it
    seg = Exponential(1.0, 1.0, 0.5)
    for length in (10.0, 100.0):
        finite = PiecewiseFn.from_segment(seg, -length, 0.0).integrate(-length, 0.0)
        assert finite == pytest.approx(-np.expm1(-length) + 0.5 * length, rel=1e-13)
        assert finite == pytest.approx(quad(lambda x: float(seg(x)), -length, 0.0)[0], rel=1e-9)


def _analyze(depth):
    model = cat.fat_cantor_model(depth=depth, r=0.2)
    validate(model)
    arbitrage.build_nu(model)


def _calls(monkeypatch, run):
    """Counts of per-segment calls, BorelSet.make calls and each kind's
    kernel and integral rule calls while run() runs."""
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
            if "_integral" in vars(kind):
                rule = counting(f"{kind.__name__}._integral", kind._integral)
                m.setattr(kind, "_integral", staticmethod(rule))
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

    # the whole analysis integrates nu's density over its carrier with
    # each group's integral rule, never segment by segment: as many rule
    # calls at depth 6 as at depth 1
    def analysis(depth):
        model = cat.fat_cantor_model(depth=depth, r=-0.2)
        validate(model)
        bundle = arbitrage.build_nu(model)
        arbitrage.market_verdicts(model, bundle)
        theta = arbitrage.build_theta(bundle)
        arbitrage.build_theta_bar(model, bundle)
        arbitrage.check_strategy_conditions(model, bundle, theta)

    deep, shallow = (_calls(monkeypatch, lambda: analysis(d)) for d in (6, 1))
    rules = {k: n for k, n in deep.items() if k.endswith("._integral")}
    assert rules and rules == {k: n for k, n in shallow.items() if k.endswith("._integral")}
    assert deep["Segment.__call__"] == 0


def test_table_is_built_once_where_the_function_is_made():
    # fat_cantor_q fills its three groups' columns directly, with no
    # segment objects; they are built from the table when first read
    q = cat.fat_cantor_model(depth=3).q
    assert [g.kind for g in q._groups] == [Poly, Const, Power]
    assert "segments" not in vars(q)
    table = (q._bps, q._groups, q._group_of, q._row_of)
    # scaling and differentiating map the columns and share the
    # breakpoints and the piece maps; restricting and refining share the groups
    for f in (q.scaled(-1.0), q.derivative()):
        assert f._bps is q._bps and f._group_of is q._group_of and f._row_of is q._row_of
    for f in (q.restricted(0.0, 1.0), q.with_breakpoints([0.3, 0.6])):
        assert f._groups is q._groups
    # evaluating, integrating and the zero pass read the table as it is
    q(np.array([0.1, 0.7]))
    q.sides(np.array([0.5]))
    q.integrate(0.0, 1.0)
    q._zero_parts()
    assert all(a is b for a, b in zip((q._bps, q._groups, q._group_of, q._row_of), table))
    assert len(q.segments) == 24 and "segments" in vars(q)
    # jordan_hahn's negative part is the density with its columns negated
    bundle = arbitrage.build_nu(cat.fat_cantor_model(depth=3, r=-0.2))
    minus, density = bundle.nu_ac_minus.density, bundle.nu.density
    assert minus._row_of is density._row_of and minus._bps is density._bps
    assert minus.segments == tuple(s.scaled(-1.0) for s in density.segments)
    # one piece runs its kernel and its zero rule directly
    one = PiecewiseFn.constant(0.0)
    assert _zeros(one, -1.0, 1.0) == ([(-1.0, 1.0)], [])


@pytest.mark.parametrize(
    "seg",
    [Exponential(1.0, 1.0, -1.0), Exponential(2.0, -1.0, -2.0), Log(1.0, 1.0, -1.0, 0.0)],
)
def test_root_at_a_piece_end_is_in_the_zero_set(seg):
    # each of these vanishes at x = 0, the left end of [0, 1]
    assert float(seg(0.0)) == 0.0
    for lo, hi in ((0.0, 1.0), (-1.0, 0.0)):
        zero = sign_sets(PiecewiseFn((lo, hi), (seg,)), lo, hi)[2]
        assert zero == BorelSet.make(points=[0.0])
