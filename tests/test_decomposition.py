"""nu is decomposed once per bundle: the one sign pass against the two-pass
route of ``nu_oracle``, and call counts along the closed-form analysis."""

import dataclasses
import functools

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nu_oracle
from gdarb import arbitrage, measures
from gdarb import catalog as cat
from gdarb.arbitrage import (
    FeedbackStrategy,
    NuBundle,
    build_nu,
    build_theta,
    build_theta_bar,
    check_strategy_conditions,
    market_verdicts,
)
from gdarb.borel import BorelSet
from gdarb.measures import SignedMeasure, integrate, jordan_hahn, sign_sets
from gdarb.model import UnsupportedModelError
from test_measures import _piecewise_fns

MARKETS = [entry.name for entry in cat.catalog()]
BOUNDARY_RATES = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0)


def _bits(values: dict) -> dict:
    """Each value's type and exact bits (-0.0 and 0.0 differ)."""
    return {k: (type(v).__name__, float(v).hex()) for k, v in values.items()}


def _raises_or(fn, *args):
    with np.errstate(all="ignore"):
        try:
            return fn(*args)
        except (ValueError, ArithmeticError) as exc:
            return f"{type(exc).__name__}: {exc}"


@settings(max_examples=200)
@given(
    pw=_piecewise_fns(),
    cut=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
    atoms=st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from([-1.5, 0.5])), max_size=2),
)
def test_sign_pass_matches_two_passes(pw, cut, atoms):
    width = pw.hi - pw.lo
    lo, hi = pw.lo + cut[0] * width, pw.lo + cut[1] * width
    with np.errstate(all="ignore"):
        for a, b in ((pw.lo, pw.hi), (lo, hi)):
            want = (
                nu_oracle.positive_set(pw, a, b),
                nu_oracle.positive_set(pw.scaled(-1.0), a, b),
            )
            assert sign_sets(pw, a, b) == want
        m = SignedMeasure(pw, atoms=tuple((pw.lo + x * width, mass) for x, mass in atoms))
        parts = jordan_hahn(m, domain=(lo, hi))
        assert parts == nu_oracle.jordan_hahn(m, domain=(lo, hi))
    assert m.is_zero == nu_oracle.is_zero(m)
    for region in (None, parts[2], BorelSet.make([(lo, hi)])):
        got = _raises_or(integrate, m, region)
        want = _raises_or(nu_oracle.integrate, m, region)
        if isinstance(got, float) and isinstance(want, float):
            assert got.hex() == want.hex()
        else:
            assert got == want


@st.composite
def _markets(draw):
    """Catalog draws, fat-Cantor depths 1-6 with either sign of r, and the
    bs-reflected markets on the no-profit boundary r * m1 = 1/2."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["catalog", "fat-cantor", "boundary"]))
    if kind == "catalog":
        entry = cat.get_entry(draw(st.sampled_from(MARKETS)))
        return entry, entry.sample_params(rng)
    if kind == "fat-cantor":
        entry = cat.get_entry("fat-cantor")
        params = {**entry.sample_params(rng), "depth": draw(st.integers(1, 6))}
        params["r"] = abs(params["r"]) * draw(st.sampled_from([1.0, -1.0]))
        return entry, params
    entry = cat.get_entry("bs-reflected")
    r = draw(st.sampled_from(BOUNDARY_RATES))
    return entry, {**entry.sample_params(rng), "r": r, "m1": 0.5 / r}


@settings(max_examples=150)
@given(market=_markets())
def test_decomposition_matches_two_pass_route(market):
    entry, params = market
    try:
        model = entry.build(**params)
    except (UnsupportedModelError, OverflowError):
        assume(False)
    bundle = build_nu(model)
    want = nu_oracle.build_nu(model)
    for field in dataclasses.fields(NuBundle):
        assert getattr(bundle, field.name) == getattr(want, field.name), field.name

    verdicts = market_verdicts(model, bundle)
    want_v = nu_oracle.market_verdicts(model, want)
    assert (verdicts.nip, verdicts.qvip_exists, verdicts.rp_holds, verdicts.window_caveat) == (
        want_v.nip, want_v.qvip_exists, want_v.rp_holds, want_v.window_caveat
    )
    assert _bits(verdicts.evidence) == _bits(want_v.evidence)

    theta = build_theta(bundle)
    assert theta == nu_oracle.build_theta(want)
    assert build_theta_bar(model, bundle) == nu_oracle.build_theta_bar(model, want)
    # nu is nontrivial iff theta generates an increasing profit
    assert theta.is_zero == verdicts.nip

    unit = FeedbackStrategy(plus_set=BorelSet.make([bundle.window]))
    for H in (theta, theta.scaled(-1.0) if not theta.is_zero else theta, unit):
        got = check_strategy_conditions(model, bundle, H)
        exp = nu_oracle.check_strategy_conditions(model, want, H)
        assert (got.condition_i, got.condition_ii) == (exp.condition_i, exp.condition_ii)
        assert _bits(got.details) == _bits(exp.details)


def test_one_decomposition_per_bundle(monkeypatch):
    # build_nu -> market_verdicts -> build_theta -> build_theta_bar ->
    # check_strategy_conditions: one sign pass, over nu's density, one
    # jordan_hahn, and is_zero computed once
    passes, decompositions, zero_checks = [], [], []

    sign_pass = measures.sign_sets

    def counted_pass(pw, lo, hi):
        passes.append(pw)
        return sign_pass(pw, lo, hi)

    def counted_jordan_hahn(*args, **kwargs):
        decompositions.append(args)
        return measures.jordan_hahn(*args, **kwargs)

    is_zero = SignedMeasure.__dict__["is_zero"].func

    def counted_is_zero(self):
        zero_checks.append(self)
        return is_zero(self)

    counted = functools.cached_property(counted_is_zero)
    counted.__set_name__(SignedMeasure, "is_zero")
    monkeypatch.setattr(measures, "sign_sets", counted_pass)
    monkeypatch.setattr(arbitrage, "jordan_hahn", counted_jordan_hahn)
    monkeypatch.setattr(SignedMeasure, "is_zero", counted)

    model = cat.fat_cantor_model(depth=3, r=-0.2)
    bundle = build_nu(model)
    verdicts = market_verdicts(model, bundle)
    theta = build_theta(bundle)
    theta_bar = build_theta_bar(model, bundle)
    report = check_strategy_conditions(model, bundle, theta)

    assert not verdicts.nip and not theta.is_zero and not theta_bar.is_zero and report.ok
    # market_verdicts runs no pass over the speed density
    assert len(passes) == 1 and passes[0] is bundle.nu.density
    assert len(decompositions) == 1 and decompositions[0][0] is bundle.nu
    assert len(zero_checks) == 1 and zero_checks[0] is bundle.nu
