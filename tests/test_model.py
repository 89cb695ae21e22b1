import dataclasses
import pathlib
import re

import numpy as np
import pytest

import nu_oracle
from gdarb import catalog as cat
from gdarb.arbitrage import build_nu, market_verdicts
from gdarb.borel import BorelSet
from gdarb.measures import SignedMeasure
from gdarb.model import (
    BoundarySpec,
    DiffusionSpec,
    ModelError,
    NaturalScaleModel,
    UnsupportedModelError,
    to_natural_scale,
    validate,
    zero_set,
)
from gdarb.piecewise import Affine, Const, PiecewiseFn, Poly, Power


def brownian_spec():
    return DiffusionSpec(
        lo=-np.inf,
        hi=np.inf,
        left=BoundarySpec("left"),
        right=BoundarySpec("right"),
        scale=PiecewiseFn.from_segment(Affine(0.0, 1.0), -np.inf, np.inf),
        speed=SignedMeasure(density=PiecewiseFn.constant(1.0, -np.inf, np.inf)),
        start=0.0,
        rate=0.0,
    )


def test_boundary_spec_invariants():
    with pytest.raises(ModelError):
        BoundarySpec("left", included=True)
    with pytest.raises(ModelError):
        BoundarySpec("left", included=False, behavior="absorbing")
    with pytest.raises(ModelError):
        BoundarySpec("middle")


def test_identity_scale_passthrough():
    m = to_natural_scale(brownian_spec())
    xs = np.linspace(-3, 3, 50)
    assert np.allclose(m.q(xs), xs)
    assert np.allclose(m.q_prime(xs), 1.0)
    assert np.allclose(m.m_ac(xs), 1.0)
    assert m.m_atoms == ()
    assert m.u0 == 0.0


def test_bessel_delta1_inverse_scale():
    m = cat.bessel_model(delta=1.0, m1=1.0, u0=0.1, r=0.1)
    us = np.linspace(0.0, 3.0, 50)
    assert np.allclose(m.q(us), us**2 + 1.0, atol=1e-12)
    assert float(m.q_prime(0.0)) == 0.0
    # natural-scale speed density is identically one here
    assert np.allclose(m.m_ac(np.linspace(0.01, 3.0, 40)), 1.0, atol=1e-10)
    assert m.m_atoms == ((0.0, 1.0),)


def test_sticky_spec_maps_atom():
    m = cat.sticky_model(xi=0.5, rho=2.0, x0=0.0, r=0.1)
    assert m.m_atoms == ((0.5, 2.0),)
    assert np.allclose(m.m_ac(np.linspace(-2, 2, 20)), 1.0)


def test_skew_model_kink():
    m = cat.skew_model(kappa=0.75, x0=0.0, r=0.1)
    # q' = 1/kappa below zero and 1/(1-kappa) above
    assert float(m.q_prime(-1.0)) == pytest.approx(1.0 / 0.75)
    assert float(m.q_prime(1.0)) == pytest.approx(4.0)
    atoms = m.q_second_atoms
    assert len(atoms) == 1
    loc, mass = atoms[0]
    assert loc == 0.0
    assert mass == pytest.approx(4.0 - 1.0 / 0.75, abs=1e-12)
    # natural-scale speed density
    assert float(m.m_ac(-1.0)) == pytest.approx(1.0 / 0.75**2)
    assert float(m.m_ac(1.0)) == pytest.approx(16.0)


def test_es_model_alpha_zero():
    m = cat.es_model(b=1.0, sigma=0.5, mu=0.0, x0=1.2, r=0.1)
    assert m.lo == 0.0
    assert m.left.is_absorbing
    us = np.linspace(0.0, 3.0, 30)
    assert np.allclose(m.q(us), us + 1.0, atol=1e-12)
    assert m.u0 == pytest.approx(0.2, abs=1e-12)
    assert float(m.m_ac(1.0)) == pytest.approx(1.0 / (0.25 * 4.0), abs=1e-12)
    assert m.absorbing_boundaries() == [(0.0, 1.0)]


def test_es_model_log_scale_branch():
    # mu = sigma^2/2 makes the scale logarithmic and q exponential
    m = cat.es_model(b=1.0, sigma=1.0, mu=0.5, x0=1.5, r=0.1)
    us = np.linspace(0.0, 2.0, 30)
    assert np.allclose(m.q(us), np.exp(us), atol=1e-10)
    # speed transforms to a constant density
    assert np.allclose(m.m_ac(us), 1.0, atol=1e-10)


@pytest.mark.parametrize("entry", cat.catalog(), ids=lambda e: e.name)
def test_catalog_q_roundtrip(entry):
    model = entry.build()
    lo = max(model.lo, model.u0 - 5.0)
    hi = min(model.hi, model.u0 + 5.0)
    us = np.linspace(lo + 1e-9, hi, 1000)
    q_vals = np.asarray(model.q(us), dtype=float)
    assert np.all(np.diff(q_vals) >= -1e-12)
    qp = np.asarray(model.q_prime(us), dtype=float)
    assert np.all(qp >= -1e-12)


@pytest.mark.parametrize("entry", cat.catalog(), ids=lambda e: e.name)
def test_catalog_validates(entry):
    report = validate(entry.build())
    assert report.ok, [c.name for c in report.failures]


@pytest.mark.parametrize("entry", cat.catalog(), ids=lambda e: e.name)
def test_catalog_random_params_validate(entry):
    # a valid speed density is positive on the state space up to points, so
    # {q' = 0} has the same measure where it is positive, read here by the
    # oracle's own sign pass over m_ac
    rng = np.random.default_rng(17)
    for _ in range(200):
        params = entry.sample_params(rng)
        model = entry.build(**params)
        report = validate(model)
        assert report.ok, (params, [c.name for c in report.failures])
        bundle = build_nu(model)
        positive = nu_oracle.positive_set(model.m_ac, *bundle.window)
        lam = bundle.qprime_zero.intersect(positive).lebesgue()
        assert market_verdicts(model, bundle).evidence["lambda_qprime_zero"] == lam, params


def test_readme_lists_every_check():
    # the model-file notes of the README name each rule that validate decides
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    notes = readme[readme.index("## Model file format") : readme.index("## Library")]
    listed = set(re.findall(r"^- `([a-z-]+)`", notes, re.MULTILINE))
    for entry in cat.catalog():
        assert listed == {c.name for c in validate(entry.build()).checks}


def test_validate_catches_decreasing_q():
    m = NaturalScaleModel(
        lo=-np.inf,
        hi=np.inf,
        left=BoundarySpec("left"),
        right=BoundarySpec("right"),
        q=PiecewiseFn.from_segment(Affine(0.0, -1.0), -np.inf, np.inf),
        m_ac=PiecewiseFn.constant(1.0, -np.inf, np.inf),
        u0=0.0,
        rate=0.0,
    )
    report = validate(m)
    assert not report.ok
    names = [c.name for c in report.failures]
    assert "q-prime-nonnegative" in names


def test_validate_catches_speed_gap():
    # a regular diffusion's speed measure charges every open interval; an
    # atom inside the gap does not fill it
    m = NaturalScaleModel(
        lo=-np.inf,
        hi=np.inf,
        left=BoundarySpec("left"),
        right=BoundarySpec("right"),
        q=PiecewiseFn.from_segment(Affine(0.0, 1.0), -np.inf, np.inf),
        m_ac=PiecewiseFn((-np.inf, 2.0, 12.0, np.inf), (Const(1.0), Const(0.0), Const(1.0))),
        m_atoms=((5.0, 1.0),),
        u0=0.0,
        rate=0.1,
    )
    report = validate(m)
    assert [c.name for c in report.failures] == ["speed-charges-every-interval"]
    assert report.failures[0].value == 10.0
    assert "[2, 12]" in report.failures[0].detail
    # an isolated zero of the density is allowed
    isolated = PiecewiseFn.from_segment(Poly((0.0, 0.0, 1.0)), -np.inf, np.inf)
    assert validate(dataclasses.replace(m, m_ac=isolated, m_atoms=())).ok


def test_validate_speed_finite_on_compacts():
    # m_ac = u^-1.5 near 0 is not integrable there: a failure at a
    # reflecting end and at an interior breakpoint; at an absorbing end the
    # class of the end is not decided here, and the piece is cut inside
    m = NaturalScaleModel(
        lo=0.0,
        hi=np.inf,
        left=BoundarySpec("left", included=True, behavior="reflecting"),
        right=BoundarySpec("right"),
        q=PiecewiseFn.from_segment(Affine(0.0, 1.0), 0.0, np.inf),
        m_ac=PiecewiseFn.from_segment(Power(1.0, 0.0, -1.5), 0.0, np.inf),
        u0=1.0,
    )
    report = validate(m)
    assert [c.name for c in report.failures] == ["speed-finite-on-compacts"]
    assert report.failures[0].detail == "the speed measure is not finite at u in [0, 1] (x in [0, 1])"
    absorbing = BoundarySpec("left", included=True, behavior="absorbing")
    assert validate(dataclasses.replace(m, left=absorbing)).ok
    kink = PiecewiseFn((-np.inf, 0.0, np.inf), (Const(1.0), Power(1.0, 0.0, -1.5)))
    report = validate(dataclasses.replace(m, lo=-np.inf, left=BoundarySpec("left"), m_ac=kink))
    assert [c.name for c in report.failures] == ["speed-finite-on-compacts"]
    assert report.failures[0].detail.startswith("the speed measure is not finite at u in [0, 1]")


@pytest.mark.parametrize("entry", cat.catalog(), ids=lambda e: e.name)
def test_validate_details_name_every_check(entry):
    model = entry.build()
    outside = dataclasses.replace(model, u0=model.lo - 1.0)
    for report in (validate(model), validate(outside)):
        assert all(c.detail for c in report.checks)
    failure = validate(outside).failures[0]
    assert failure.name == "start-point-admissible"
    assert "nor a reflecting end" in failure.detail


def test_zero_set_identity_empty():
    m = to_natural_scale(brownian_spec())
    assert zero_set(m).is_empty


def test_zero_set_bessel_single_point():
    m = cat.bessel_model(delta=1.0, m1=1.0, u0=0.1, r=0.1)
    zs = zero_set(m)
    # q'(0) = 0 but 0 is the boundary itself, excluded from the open interior
    assert 0.0 not in zs
    assert zs.lebesgue() == 0.0


def test_zero_set_fat_cantor():
    from gdarb.borel import svc_measure

    m = cat.fat_cantor_model(depth=4, u0=0.5, r=0.1)
    zs = zero_set(m)
    assert zs.lebesgue() == pytest.approx(svc_measure(4), abs=1e-15)
    assert 0.0 in zs  # left edge of F is interior here
    assert 0.5 not in zs


def dist_oracle(f_set, x):
    """Brute-force distance from x to the retained intervals of f_set."""
    ivs = np.array(f_set.intervals)
    x = np.asarray(x, dtype=float)[..., None]
    d = np.maximum(ivs[:, 0] - x, 0.0) + np.maximum(x - ivs[:, 1], 0.0)
    return d.min(axis=-1)


def test_fat_cantor_q_matches_numeric_integral():
    q, f_set = cat.fat_cantor_q(3)
    q_prime = cat.fat_cantor_model(depth=3).q_prime
    us = np.linspace(-0.5, 1.5, 41)
    for u in us:
        grid = np.linspace(0.0, u, 4001) if u != 0 else np.array([0.0, 0.0])
        want = np.trapezoid(dist_oracle(f_set, grid), grid)
        assert float(q(u)) == pytest.approx(want, abs=5e-7)
        assert float(q_prime(u)) == pytest.approx(dist_oracle(f_set, u), abs=1e-14)


def test_fat_cantor_depth6_q_prime_has_no_kinks():
    # q' = dist(., F) is continuous, so q'' has no atoms at the 192
    # interior breakpoints of the depth-6 q
    m = cat.fat_cantor_model(depth=6, u0=0.5, r=0.1)
    assert len(m.q_prime.breakpoints) == 193
    assert m.q_second_atoms == ()
    assert validate(m).ok


def test_fat_cantor_rejects_non_integer_depth():
    with pytest.raises(ValueError, match="depth must be an integer"):
        cat.fat_cantor_model(depth=2.5)
    assert cat.fat_cantor_model(depth=2.0) == cat.fat_cantor_model(depth=2)


def test_unsupported_scale_segment():
    spec = brownian_spec()
    bad = DiffusionSpec(
        lo=spec.lo,
        hi=spec.hi,
        left=spec.left,
        right=spec.right,
        scale=PiecewiseFn.from_segment(Const(1.0), -np.inf, np.inf),
        speed=spec.speed,
        start=0.0,
        rate=0.0,
    )
    with pytest.raises(ModelError):
        to_natural_scale(bad)


@pytest.mark.parametrize("part", ["scale", "speed density"])
def test_functions_must_cover_the_state_space(part):
    # on the state space [0, 2], a scale or a speed density that stops at 1
    # was once cut short silently: the scale to [0, 1], the density to its own
    spec = brownian_spec()
    short = PiecewiseFn.from_segment(Affine(0.0, 1.0), 0.0, 1.0)
    whole = PiecewiseFn.from_segment(Affine(0.0, 1.0), 0.0, 2.0)
    bad = dataclasses.replace(
        spec,
        lo=0.0,
        hi=2.0,
        scale=short if part == "scale" else whole,
        speed=SignedMeasure(density=short if part == "speed density" else whole),
        start=0.5,
    )
    with pytest.raises(ModelError, match=f"the {part} does not cover the state space"):
        to_natural_scale(bad)


@pytest.mark.parametrize("coeff", [1e-3, 262.4])
def test_near_log_scale_exponent_unsupported(coeff):
    # inverting x^0.0038 needs coeff^(-262): it overflows for the small
    # coefficient and underflows to 0 for the large one
    spec = brownian_spec()
    near_log = DiffusionSpec(
        lo=0.0,
        hi=np.inf,
        left=spec.left,
        right=spec.right,
        scale=PiecewiseFn.from_segment(Power(coeff, 0.0, 0.0038), 0.0, np.inf),
        speed=SignedMeasure(density=PiecewiseFn.constant(1.0, 0.0, np.inf)),
        start=1.0,
        rate=0.0,
    )
    with pytest.raises(UnsupportedModelError, match="exponent 0.0038 is nearly logarithmic"):
        to_natural_scale(near_log)


def test_catalog_has_six_entries():
    assert len(cat.catalog()) == 6
    assert {e.name for e in cat.catalog()} == {
        "engelbert-schmidt",
        "bs-reflected",
        "bessel-sticky",
        "bachelier-sticky",
        "bachelier-skew",
        "fat-cantor",
    }
