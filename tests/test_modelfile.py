import pytest

from gdarb.arbitrage import build_nu
from gdarb.measures import ZERO_MEASURE
from gdarb.model import to_natural_scale, validate
from gdarb.modelfile import ModelFileError, parse_model_file, parse_model_text

BROWNIAN = """
[state_space]
lo = -inf
hi = inf

[scale]
breakpoints = -inf, inf
segment1 = affine 0 1

[speed]
breakpoints = -inf, inf
segment1 = const 1

[boundaries]
left = open
right = open

[market]
x0 = 0
rate = 0
"""

STICKY = """
[state_space]
lo = -inf
hi = inf

[scale]
breakpoints = -inf, inf
segment1 = affine 0 1

[speed]
breakpoints = -inf, inf
segment1 = const 1
atom1 = 2 3

[boundaries]
left = open
right = open

[market]
x0 = 0
rate = 0.05
"""

ABSORBED_GBM = """
[state_space]
lo = 1
hi = inf

[scale]
breakpoints = 1, inf
segment1 = affine -1 1   # s(x) = x - 1

[speed]
breakpoints = 1, inf
segment1 = power 4 0 -2 0 1   # 4 x^-2

[boundaries]
left = absorbing
right = open

[market]
x0 = 1.2
rate = 0.1
"""


def test_minimal_brownian():
    spec = parse_model_text(BROWNIAN)
    assert spec.lo == -float("inf") and spec.rate == 0.0
    assert float(spec.scale(3.0)) == 3.0
    model = to_natural_scale(spec)
    assert validate(model).ok
    assert build_nu(model).nu == ZERO_MEASURE


def test_sticky_atom_nu():
    spec = parse_model_text(STICKY)
    assert spec.speed.atoms == ((2.0, 3.0),)
    model = to_natural_scale(spec)
    bundle = build_nu(model)
    assert len(bundle.nu.atoms) == 1
    loc, mass = bundle.nu.atoms[0]
    assert loc == 2.0
    assert mass == pytest.approx(-0.3, abs=1e-14)


def test_absorbed_gbm():
    spec = parse_model_text(ABSORBED_GBM)
    assert spec.left.is_absorbing and not spec.right.included
    model = to_natural_scale(spec)
    assert validate(model).ok
    bundle = build_nu(model)
    assert bundle.nu.atoms == ((0.0, pytest.approx(-0.1)),)


def test_parse_file(tmp_path):
    p = tmp_path / "model.gdm"
    p.write_text(STICKY)
    spec = parse_model_file(str(p))
    assert spec.start == 0.0


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        (("atom1 = 2 3", "atom1 = 2 -3"), "nonnegative"),
        (("atom1 = 2 3", "atom1 = 2"), "location mass"),
        (("segment1 = const 1\natom1 = 2 3", "segment1 = wavelet 1\natom1 = 2 3"), "unknown segment kind"),
        (("x0 = 0", "x0 = nope"), "not a number"),
        (("[market]", "[marketplace]"), "unknown section"),
        (("left = open", "left = porous"), "left boundary"),
        (("rate = 0.05", "rate = 0.05\nextra = 1"), "unexpected key"),
    ],
)
def test_diagnostics(mutation, fragment):
    old, new = mutation
    bad = STICKY.replace(old, new)
    with pytest.raises(ModelFileError, match=fragment):
        parse_model_text(bad)


def test_error_carries_line_number():
    bad = STICKY.replace("atom1 = 2 3", "atom1 = 2 -3")
    with pytest.raises(ModelFileError) as exc:
        parse_model_text(bad)
    line = bad.splitlines().index("atom1 = 2 -3") + 1
    assert f"line {line}" in str(exc.value)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_rate_must_be_finite(value):
    # an infinite rate once zeroed the -inf atom of nu and read as no profit
    bad = STICKY.replace("rate = 0.05", f"rate = {value}")
    with pytest.raises(ModelFileError, match="rate must be finite") as exc:
        parse_model_text(bad)
    assert f"line {bad.splitlines().index(f'rate = {value}') + 1}" in str(exc.value)


def test_missing_section_and_key():
    with pytest.raises(ModelFileError, match=r"missing section \[market\]"):
        parse_model_text(BROWNIAN.replace("[market]\nx0 = 0\nrate = 0", ""))
    with pytest.raises(ModelFileError, match="missing key 'rate'"):
        parse_model_text(BROWNIAN.replace("rate = 0", ""))


def test_breakpoints_must_increase():
    bad = BROWNIAN.replace(
        "[scale]\nbreakpoints = -inf, inf",
        "[scale]\nbreakpoints = inf, -inf",
    )
    with pytest.raises(ModelFileError, match="strictly increasing"):
        parse_model_text(bad)
