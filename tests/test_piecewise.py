import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import piecewise_oracle as oracle
from gdarb import catalog as cat
from gdarb.borel import BorelSet
from gdarb.measures import sign_sets
from gdarb.piecewise import (
    Affine,
    Const,
    Exponential,
    Log,
    PiecewiseFn,
    Poly,
    Power,
)


def zero_set(f, lo, hi):
    """{f = 0} on [lo, hi], the third set of the one sign pass, for a
    segment or a piecewise function."""
    pw = f if isinstance(f, PiecewiseFn) else PiecewiseFn.from_segment(f, lo, hi)
    return sign_sets(pw, lo, hi)[2]


def quad_oracle(f, lo, hi, c0=1.0, c1=0.0):
    val, _ = quad(lambda x: (c0 + c1 * x) * f(x), lo, hi, epsabs=1e-12, limit=400)
    return val


SEGMENTS = [
    (Const(2.5), -1.0, 3.0),
    (Affine(1.0, -0.5), -2.0, 2.0),
    (Poly((1.0, 0.0, -2.0, 0.5)), -1.5, 1.5),
    (Power(2.0, 1.0, 1.5, -0.3, +1), 1.0, 4.0),
    (Power(1.0, 2.0, 2.0, 0.0, -1), -1.0, 2.0),
    (Exponential(1.2, -0.7, 0.4), -1.0, 2.0),
    (Log(0.8, 2.0, -1.0, 0.1), 0.0, 3.0),
    (Power(1.5, 0.5, -1.0, 0.2, +1), 1.0, 3.0),
    (Power(0.8, 2.0, -2.0, -0.1, -1), -1.0, 1.5),
]


@pytest.mark.parametrize("seg,lo,hi", SEGMENTS)
def test_integrate_affine_against_quadrature(seg, lo, hi):
    pw = PiecewiseFn.from_segment(seg, lo, hi)
    weights = [(1.0, 0.0), (0.3, -1.7), (0.0, 2.0)]
    for c0, c1 in weights:
        got = pw.integrate(lo, hi, c0, c1)
        want = quad_oracle(seg, lo, hi, c0, c1)
        assert got == pytest.approx(want, abs=1e-8, rel=1e-8)
    # one array call over limits and weights gives the scalar calls' numbers
    los, his = [lo, 0.5 * (lo + hi), lo], [hi, hi, 0.5 * (lo + hi)]
    c0s, c1s = zip(*weights)
    got = pw.integrate(np.array(los), np.array(his), np.array(c0s), np.array(c1s))
    assert np.array_equal(got, [pw.integrate(*args) for args in zip(los, his, c0s, c1s)])


@pytest.mark.parametrize("seg,lo,hi", SEGMENTS)
def test_deriv_matches_finite_differences(seg, lo, hi):
    xs = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 17)
    eps = 1e-7
    fd = (np.asarray(seg(xs + eps)) - np.asarray(seg(xs - eps))) / (2 * eps)
    assert np.allclose(np.asarray(seg.derivative_segment()(xs)), fd, atol=1e-5, rtol=1e-5)


@pytest.mark.parametrize("seg,lo,hi", SEGMENTS)
def test_scaled(seg, lo, hi):
    xs = np.linspace(lo, hi, 9)
    assert np.allclose(np.asarray(seg.scaled(-2.0)(xs)), -2.0 * np.asarray(seg(xs)))


# ---------------------------------------------------------------------------
# closed forms against tight quadrature, and arrays against scalars
# ---------------------------------------------------------------------------


def _num(lo, hi):
    # subnormal draws only test underflow of the tolerance itself
    return st.floats(lo, hi, allow_subnormal=False)


def _num_or_zero(lo, hi):
    # a zero offset or slope leaves the power or log term alone in the sum
    return st.one_of(st.just(0.0), _num(lo, hi))


# -1 and -2 have their own closed forms; the generic one must hold near them
_EXPONENTS = st.one_of(st.sampled_from([-1.0, -2.0]), _num(-3.0, 3.0))


@st.composite
def _power_segments(draw):
    seg = Power(
        draw(_num(-3.0, 3.0)),
        draw(_num(-2.0, 2.0)),
        draw(_EXPONENTS),
        draw(_num_or_zero(-2.0, 2.0)),
        draw(st.sampled_from([+1, -1])),
    )
    return seg, seg.side, seg.center, 1.0


@st.composite
def _log_segments(draw):
    seg = Log(
        draw(_num(-3.0, 3.0)),
        draw(_num(0.2, 5.0)) * draw(st.sampled_from([1.0, -1.0])),
        draw(_num(-2.0, 2.0)),
        draw(_num_or_zero(-2.0, 2.0)),
    )
    return seg, int(np.sign(seg.scale)), seg.center, 1.0


@st.composite
def _exp_segments(draw):
    # rates of either sign from 1e-300 to 3 in magnitude: below about 1e-162
    # the square of the rate underflows, and small ones cancel in a
    # difference of antiderivatives; limits within 112 of 0 keep exp finite
    log_rate = draw(_num(-300.0, -8.0) | _num(-8.0, float(np.log10(3.0))))
    seg = Exponential(
        draw(_num(-3.0, 3.0)),
        10.0**log_rate * draw(st.sampled_from([1.0, -1.0])),
        draw(_num_or_zero(-2.0, 2.0)),
    )
    return seg, draw(st.sampled_from([+1, -1])), draw(_num(-2.0, 2.0)), 0.2


# (segment, side, center, scale): limits are center + side*scale*t, t > 0
_SEGMENTS = st.one_of(_power_segments(), _log_segments(), _exp_segments())


@st.composite
def _limits_and_weight(draw, side, center, scale):
    """[lo, hi] at distance >= 0.05 * scale from the singular point, and
    (c0, c1) with c0 + c1*x >= 0 on it."""
    t0 = draw(_num(0.05, 50.0))
    t1 = t0 * (1.0 + 10.0 ** draw(_num(-6.0, 1.0)))  # short gaps show cancellation
    lo, hi = sorted((center + side * scale * t0, center + side * scale * t1))
    c1 = draw(_num_or_zero(-2.0, 2.0))
    c0 = max(-c1 * lo, -c1 * hi) + draw(_num(0.0, 2.0))
    return lo, hi, c0, c1


def _term_size(seg):
    """x -> sum of the absolute values of the terms of seg(x)."""
    if isinstance(seg, Power):
        return Power(abs(seg.coeff), seg.center, seg.exponent, abs(seg.offset), seg.side)
    if isinstance(seg, Exponential):
        return Exponential(abs(seg.coeff), seg.rate, abs(seg.offset))
    return lambda x: abs(seg.coeff * np.log(seg.scale * (x - seg.center))) + abs(seg.offset)


# quad warns of roundoff where the integral is small beside its terms; the
# tolerance below is taken on the scale of the terms
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@settings(max_examples=500)  # few draws combine the terms that show cancellation
@given(data=st.data(), case=_SEGMENTS)
def test_integrate_affine_matches_tight_quadrature(data, case):
    seg, side, center, scale = case
    lo, hi, c0, c1 = data.draw(_limits_and_weight(side, center, scale))
    got = PiecewiseFn.from_segment(seg, lo, hi).integrate(lo, hi, c0, c1)
    want, _ = quad(lambda x: (c0 + c1 * x) * seg(x), lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)
    # relative to the integral of the integrand's terms in absolute value:
    # the integrand itself, and so any method quad included, carries
    # rounding of that size, and it stays meaningful where the weight or
    # the segment vanishes inside [lo, hi]
    size = _term_size(seg)
    scale, _ = quad(lambda x: (abs(c0) + abs(c1 * x)) * size(x), lo, hi, epsrel=1e-8, limit=200)
    assert abs(got - want) <= 1e-12 * scale


@given(data=st.data(), case=_SEGMENTS, n=st.integers(1, 6))
def test_integrate_affine_array_equals_scalar_calls(data, case, n):
    seg, side, center, scale = case
    rows = [data.draw(_limits_and_weight(side, center, scale)) for _ in range(n)]
    lo, hi, c0, c1 = (np.array(col) for col in zip(*rows))
    ends = center + side * scale * np.array([0.05, 551.0])
    pw = PiecewiseFn.from_segment(seg, *sorted(ends))
    assert np.array_equal(pw.integrate(lo, hi, c0, c1), [pw.integrate(*row) for row in rows])
    assert type(pw.integrate(*rows[0])) is float


def test_piecewise_integrate_arrays_span_segments_and_reverse():
    f = make_pw()
    lo = np.array([-1.0, -0.5, 0.2, 1.5, 2.0, -3.0])
    hi = np.array([2.0, 1.5, 0.8, 0.5, 2.0, 5.0])
    got = f.integrate(lo, hi, c0=1.0, c1=0.5)
    assert np.array_equal(got, [f.integrate(a, b, 1.0, 0.5) for a, b in zip(lo, hi)])
    assert got[3] == -f.integrate(0.5, 1.5, 1.0, 0.5)  # reversed limits
    assert got[4] == 0.0
    assert got[5] == got[0]  # the limits clip to the function's domain


def test_power_inverse_sqrt_integral():
    # p = -1/2 singularity at the left edge is integrable
    seg = Power(1.0, 0.0, -0.5, 0.0, +1)
    got = PiecewiseFn.from_segment(seg, 0.0, 1.0).integrate(0.0, 1.0)
    assert got == pytest.approx(2.0, abs=1e-10)


def test_affine_zero_set():
    seg = Affine(-1.0, 2.0)
    zs = zero_set(seg, 0.0, 1.0)
    assert zs.points == (0.5,)
    assert zero_set(Const(0.0), 0.0, 1.0).intervals == ((0.0, 1.0),)
    assert zero_set(Const(1.0), 0.0, 1.0).is_empty


def test_power_zero_set_at_center():
    seg = Power(3.0, 0.5, 2.0, 0.0, +1)
    zs = zero_set(seg, 0.5, 2.0)
    assert zs.points == (0.5,)


def test_constant_segment_zero_sets():
    # rate, log coefficient or exponent 0: the whole interval when the
    # constant is 0, nothing otherwise
    zeros = [Exponential(1.0, 0.0, -1.0), Log(0.0, 1.0, 0.0, 0.0), Power(1.0, 0.0, 0.0, -1.0)]
    for seg in zeros:
        assert zero_set(seg, 0.1, 1.0) == BorelSet.make([(0.1, 1.0)])
    nonzeros = [Exponential(1.0, 0.0, 1.0), Log(0.0, 1.0, 0.0, 2.0), Power(1.0, 0.0, 0.0, 1.0)]
    for seg in nonzeros:
        assert zero_set(seg, 0.1, 1.0).is_empty


def test_sign_changes_bisection():
    seg = Exponential(1.0, 1.0, -np.e)  # root at x = 1
    roots = zero_set(seg, 0.0, 2.0).points
    assert len(roots) == 1
    assert roots[0] == pytest.approx(1.0, abs=1e-10)


def test_poly_sign_changes():
    seg = Poly((-1.0, 0.0, 1.0))  # x^2 - 1
    assert zero_set(seg, -2.0, 2.0).points == pytest.approx((-1.0, 1.0))
    # a leading term far below rounding on the interval keeps the roots
    seg = Poly((1.0, 0.0, -1.0, 2.2250738585072014e-308))
    assert zero_set(seg, -2.0, 2.0).points == pytest.approx((-1.0, 1.0))


@pytest.mark.parametrize("lo, hi", [(-np.inf, np.inf), (-2.0, np.inf), (-np.inf, 2.0)])
def test_poly_tiny_leading_term_unbounded(lo, hi):
    # over an unbounded interval the tiny leading term makes a third root
    # near 1 / 2.2e-308, and the roots +-1 must survive beside it
    seg = Poly((1.0, 0.0, -1.0, 2.2250738585072014e-308))
    want = [x for x in (-1.0, 1.0, 1.0 / 2.2250738585072014e-308) if lo <= x <= hi]
    assert zero_set(seg, lo, hi).points == pytest.approx(want, rel=1e-12)
    # a polynomial with no negligible term keeps the roots of the whole
    # polynomial
    seg = Poly((-1.0, 0.0, 1.0))
    want = [x for x in (-1.0, 1.0) if lo <= x <= hi]
    assert zero_set(seg, lo, hi).points == pytest.approx(want)


def dist_oracle(f_set, x):
    """Brute-force distance from x to the retained intervals of f_set."""
    ivs = np.array(f_set.intervals)
    x = np.asarray(x, dtype=float)[..., None]
    d = np.maximum(ivs[:, 0] - x, 0.0) + np.maximum(x - ivs[:, 1], 0.0)
    return d.min(axis=-1)


def test_dist_to_set_segment():
    # the fat-cantor q' is dist(., F), F = [0, 3/8] u [5/8, 1] at depth 1
    qp = cat.fat_cantor_model(depth=1).q_prime
    assert qp(0.5) == pytest.approx(0.125)
    assert float(np.asarray(qp(np.array([0.2])))[0]) == 0.0
    # integral over the gap: two triangles of base 1/8, height 1/8
    got = qp.integrate(0.375, 0.625)
    assert got == pytest.approx(2 * 0.5 * 0.125 * 0.125, abs=1e-12)
    zs = zero_set(qp, 0.0, 1.0)
    assert zs.lebesgue() == pytest.approx(0.75, abs=1e-15)


def test_dist_to_set_integrate_vs_quad():
    _, f = cat.fat_cantor_q(2)
    seg = cat.fat_cantor_model(depth=2).q_prime.scaled(2.0)
    got = seg.integrate(-0.5, 1.5, 0.7, 0.3)
    want = quad_oracle(lambda x: 2.0 * dist_oracle(f, x), -0.5, 1.5, 0.7, 0.3)
    assert got == pytest.approx(want, abs=1e-7)
    los, his = np.array([-0.5, 0.2]), np.array([1.5, 0.9])
    got = seg.integrate(los, his, 0.7, 0.3)
    assert np.array_equal(got, [seg.integrate(a, b, 0.7, 0.3) for a, b in zip(los, his)])


def test_derivative_segments():
    assert Affine(1.0, 3.0).derivative_segment() == Const(3.0)
    d = Power(2.0, 1.0, 3.0, 5.0, +1).derivative_segment()
    assert d(2.0) == pytest.approx(6.0)
    d = Exponential(2.0, -1.0, 3.0).derivative_segment()
    assert d(0.0) == pytest.approx(-2.0)
    d = Log(2.0, 1.0, 0.0).derivative_segment()
    assert d(4.0) == pytest.approx(0.5)


def test_limits_at_infinity():
    # a function read at +-inf is its end piece's kernel there
    cases = [
        (Exponential(1.0, -1.0, 0.3), 0.0, np.inf, 0.3),
        (Affine(0.0, 1.0), 0.0, np.inf, np.inf),
        (Power(1.0, 0.0, -1.0, 2.0, +1), 0.0, np.inf, 2.0),
        (Poly((1.0, 0.0, 1.0)), -np.inf, 0.0, np.inf),
        # a trailing zero coefficient goes, so the read is not 0 * inf = nan
        (Poly((1.0, 2.0, 0.0)), 0.0, np.inf, np.inf),
    ]
    for seg, lo, hi, want in cases:
        end = hi if np.isinf(hi) else lo
        assert PiecewiseFn.from_segment(seg, lo, hi)(end) == want, seg


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NONZERO = _FINITE.filter(lambda v: v != 0.0)


@st.composite
def _piece_and_end(draw):
    """A non-constant segment on the line or a half-line, as a function, and
    one of its ends that is +-inf or a power's or log's centre."""
    kind = draw(st.sampled_from((Affine, Poly, Power, Exponential, Log)))
    if kind in (Power, Log):
        side, center = draw(st.sampled_from((1, -1))), draw(_FINITE)
        lo, hi = (center, np.inf) if side == 1 else (-np.inf, center)
        if kind is Power:
            seg = Power(draw(_NONZERO), center, draw(_NONZERO), draw(_FINITE), side)
        else:
            scale = side * draw(st.floats(min_value=5e-324, allow_infinity=False))
            seg = Log(draw(_NONZERO), scale, center, draw(_FINITE))
        return PiecewiseFn.from_segment(seg, lo, hi), seg, draw(st.sampled_from((lo, hi)))
    if kind is Affine:
        seg = Affine(draw(_FINITE), draw(_NONZERO))
    elif kind is Poly:
        # a nonzero term of degree >= 1, and perhaps trailing zeros after it
        coeffs = draw(st.lists(_FINITE, min_size=1, max_size=4)) + [draw(_NONZERO)]
        seg = Poly(tuple(coeffs + draw(st.lists(st.sampled_from((0.0, -0.0)), max_size=2))))
    else:
        seg = Exponential(draw(_NONZERO), draw(_NONZERO), draw(_FINITE))
    end = draw(st.sampled_from((-np.inf, np.inf)))
    lo, hi = (-np.inf, 0.0) if end < 0 else (0.0, np.inf)
    return PiecewiseFn.from_segment(seg, lo, hi), seg, end


@settings(max_examples=300)
@given(_piece_and_end())
def test_read_at_an_end_is_the_leading_term_limit(drawn):
    # the kernel's IEEE value at +-inf or at a centre is the piece's limit
    pw, seg, end = drawn
    assert pw(end) == oracle.limit(seg, end)
    assert pw(np.array([end]))[0] == oracle.limit(seg, end)


def test_poly_drops_trailing_zero_coefficients():
    assert Poly((1.0, 2.0, 0.0)).coeffs == (1.0, 2.0)
    assert Poly((1.0, 2.0, 0.0)) == Poly((1.0, 2.0))
    assert Poly((0.0, 0.0)).coeffs == (0.0,)
    assert Poly((1.0, 2.0, 0.0))(np.inf) == np.inf
    assert Poly((1.0, 2.0, 0.0, -0.0))(-np.inf) == -np.inf


def make_pw():
    # f(x) = x^2 on [-1,0], 0 on [0,1], (x-1)^2 on [1,2]
    return PiecewiseFn(
        (-1.0, 0.0, 1.0, 2.0),
        (Poly((0.0, 0.0, 1.0)), Const(0.0), Power(1.0, 1.0, 2.0, 0.0, +1)),
    )


def test_piecewise_eval_vectorized():
    f = make_pw()
    xs = np.array([-0.5, 0.0, 0.5, 1.0, 1.5])
    assert np.allclose(f(xs), [0.25, 0.0, 0.0, 0.0, 0.25])
    assert f(-0.5) == pytest.approx(0.25)


def test_piecewise_one_sided_deriv():
    # the derivative takes a breakpoint's right segment (q'_+); the left
    # segment holds the left derivative there
    f = PiecewiseFn((-1.0, 0.0, 1.0), (Affine(0.0, -1.0), Affine(0.0, 2.0)))
    d = f.derivative()
    assert d(0.0) == 2.0
    assert d.segments[0](0.0) == -1.0


def test_piecewise_integrate_spans_segments():
    f = make_pw()
    got = f.integrate(-1.0, 2.0)
    assert got == pytest.approx(2.0 / 3.0, abs=1e-12)
    got = f.integrate(-0.5, 1.5, c0=1.0, c1=1.0)
    want = quad_oracle(f, -0.5, 1.5, 1.0, 1.0)
    assert got == pytest.approx(want, abs=1e-9)


def test_piecewise_zero_set():
    f = make_pw()
    zs = zero_set(f, f.lo, f.hi)
    assert zs.intervals == ((0.0, 1.0),)
    assert -0.0 in zs


def test_piecewise_derivative_and_monotone():
    f = make_pw()
    d = f.derivative()
    assert d(-0.5) == pytest.approx(-1.0)
    assert d(1.5) == pytest.approx(1.0)
    assert np.all(d(np.linspace(0.0, 2.0, 21)) >= 0.0)


def test_with_breakpoints_preserves_values():
    f = make_pw()
    g = f.with_breakpoints([-0.5, 0.25, 1.7])
    xs = np.linspace(-1.0, 2.0, 301)
    assert np.allclose(f(xs), g(xs))
    assert len(g.segments) == 6


def test_restricted():
    f = make_pw()
    g = f.restricted(-0.5, 1.5)
    xs = np.linspace(-0.5, 1.5, 101)
    assert np.allclose(f(xs), g(xs))


@pytest.mark.parametrize("lo, hi", [(-np.inf, 0.0), (0.0, np.inf), (np.nan, 1.0)])
def test_integral_takes_finite_limits_only(lo, hi):
    # even where the function's interval would cut the limit to a finite one
    for pw in (PiecewiseFn.from_segment(Exponential(1.0, 1.0), -np.inf, np.inf),
               PiecewiseFn.constant(1.0, -1.0, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            pw.integrate(lo, hi)
        with pytest.raises(ValueError, match="finite"):
            pw.integrate(np.array([-1.0, lo]), np.array([0.0, hi]))


def test_polynomial_at_infinity_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = Poly((1.0, 2.0))(np.array([np.inf, -np.inf, 1.0]))
    assert got.tolist() == [np.inf, -np.inf, 3.0]
