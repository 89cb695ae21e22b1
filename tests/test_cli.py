import argparse
import csv
import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gdarb
from gdarb import catalog as cat
from gdarb import chain as chain_mod
from gdarb import cli
from gdarb import backtest
from gdarb.arbitrage import (
    FeedbackStrategy,
    build_nu,
    build_theta,
    build_theta_bar,
    check_strategy_conditions,
)
from gdarb.borel import BorelSet
from gdarb.chain import build_chain
from gdarb.cli import main
from gdarb.model import to_natural_scale
from gdarb.modelfile import parse_model_file
from csv_oracle import csv_bytes
from path_oracles import book_path, per_step_path
from test_modelfile import STICKY

STICKY_FILE = """
[state_space]
lo = -inf
hi = inf

[scale]
breakpoints = -inf, inf
segment1 = affine 0 1

[speed]
breakpoints = -inf, inf
segment1 = const 1
atom1 = 0.5 2

[boundaries]
left = open
right = open

[market]
x0 = 0.5
rate = 0.1
"""


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_analyze_example(tmp_path):
    rc = main([
        "--quiet", "--out", str(tmp_path),
        "analyze", "--example", "bachelier-skew",
    ])
    assert rc == 0
    nu = read_csv(tmp_path / "nu_report.csv")
    assert len(nu) == 1
    assert nu[0]["component"] == "atom"
    assert float(nu[0]["location"]) == 0.0
    assert float(nu[0]["mass"]) == pytest.approx(4.0 / 3.0, rel=1e-12)
    verdicts = read_csv(tmp_path / "verdicts.csv")[0]
    assert verdicts["nip"] == "false"
    assert verdicts["qvip_exists"] == "false"
    assert verdicts["rp_holds"] == "true"


def test_analyze_reflected_zero_rate(tmp_path):
    rc = main([
        "--quiet", "--out", str(tmp_path),
        "analyze", "--example", "bs-reflected",
        "--param", "r=0", "--param", "m1=0",
    ])
    assert rc == 0
    verdicts = read_csv(tmp_path / "verdicts.csv")[0]
    assert verdicts["nip"] == "false"
    assert verdicts["qvip_exists"] == "false"
    assert verdicts["rp_holds"] == "true"


def test_analyze_model_file(tmp_path):
    model = tmp_path / "sticky.gdm"
    model.write_text(STICKY_FILE)
    rc = main(["--quiet", "--out", str(tmp_path), "analyze", "--model", str(model)])
    assert rc == 0
    nu = read_csv(tmp_path / "nu_report.csv")
    assert len(nu) == 1
    assert float(nu[0]["mass"]) == pytest.approx(-0.1, abs=1e-14)


def test_simulate_writes_paths(tmp_path):
    rc = main([
        "--quiet", "--out", str(tmp_path),
        "simulate", "--example", "bachelier-sticky",
        "--h", "0.05", "--paths", "3", "--T", "0.5", "--seed", "4",
    ])
    assert rc == 0
    rows = read_csv(tmp_path / "paths.csv")
    assert {r["path_id"] for r in rows} == {"0", "1", "2"}
    first = [r for r in rows if r["path_id"] == "0"]
    assert float(first[0]["t"]) == 0.0
    assert float(first[0]["u"]) == 0.0


def test_backtest_and_reproducibility(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    argv = [
        "--quiet", "backtest", "--example", "bachelier-skew",
        "--h", "0.02", "--paths", "60", "--T", "0.5", "--seed", "7",
    ]
    assert main(["--out", str(out1)] + argv) == 0
    assert main(["--out", str(out2)] + argv) == 0
    for name in ("ip_report.csv", "value_series.csv"):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2  # identical config + seed => byte-identical output
    report = read_csv(out1 / "ip_report.csv")[0]
    assert report["verdict"] in ("increasing_profit", "inconclusive")
    assert report["monotone_fraction"] == "1"
    routes = {r["route"] for r in read_csv(out1 / "value_series.csv")}
    assert routes == {"integral", "closed_form"}


def test_backtest_zero_paths_usage_error(tmp_path):
    rc = main([
        "--quiet", "--out", str(tmp_path),
        "backtest", "--example", "bachelier-sticky", "--paths", "0",
    ])
    assert rc == 2


def test_unknown_example_usage_error(tmp_path):
    rc = main(["--quiet", "--out", str(tmp_path), "analyze", "--example", "nope"])
    assert rc == 2


def test_missing_model_usage_error(tmp_path):
    rc = main(["--quiet", "--out", str(tmp_path), "analyze"])
    assert rc == 2


def test_bad_param_usage_error(tmp_path, capsys):
    # an unknown or rejected catalog parameter is a usage error under both
    # analyze and demo, and a non-integer depth is not truncated
    for argv in (
        ["analyze", "--example", "bachelier-skew", "--param", "zeta=1"],
        ["demo", "bachelier-skew", "--param", "zeta=1"],
        ["analyze", "--example", "bachelier-skew", "--param", "kappa=1.5"],
        ["demo", "bachelier-skew", "--param", "kappa=1.5"],
        ["analyze", "--example", "fat-cantor", "--param", "depth=2.5"],
        ["demo", "fat-cantor", "--param", "depth=2.5"],
        # a depth past the cap of 20
        ["analyze", "--example", "fat-cantor", "--param", "depth=21"],
    ):
        assert main(["--quiet", "--out", str(tmp_path), *argv]) == 2, argv
        assert "usage error: bad parameter for" in capsys.readouterr().err
    assert not (tmp_path / "verdicts.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        # an infinite rate zeroed the -inf atom of nu: nip=true, exit 0
        ["analyze", "--example", "bachelier-sticky", "--param", "r=inf"],
        ["demo", "bachelier-sticky", "--param", "r=-inf"],
        # a nan rate wrote abs_nu_total=nan
        ["analyze", "--example", "bachelier-sticky", "--param", "r=nan"],
        # a nan grid spacing or horizon ended in a traceback
        ["simulate", "--example", "bachelier-sticky", "--h", "nan"],
        ["backtest", "--example", "bachelier-sticky", "--h", "inf"],
        ["simulate", "--example", "bachelier-sticky", "--T", "nan"],
        ["backtest", "--example", "bachelier-sticky", "--T", "inf"],
        # a nan or negative tolerance made every verdict inconclusive
        ["backtest", "--example", "bachelier-sticky", "--tol-route", "nan"],
        ["backtest", "--example", "bachelier-sticky", "--tol-route", "-1"],
    ],
)
def test_non_finite_input_usage_error(tmp_path, capsys, argv):
    assert main(["--quiet", "--out", str(tmp_path), *argv]) == 2
    assert "usage error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("seed", [2**64, -1])
@pytest.mark.parametrize("command", ["simulate", "backtest"])
def test_seed_outside_uint64_usage_error(tmp_path, capsys, command, seed):
    # a seed of 2**64 ended in an OverflowError traceback
    argv = [command, "--example", "bachelier-sticky", "--h", "0.05", "--paths", "1"]
    assert main(["--quiet", "--out", str(tmp_path), *argv, "--seed", str(seed)]) == 2
    assert "usage error: --seed must be in [0, 2**64)" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["simulate", "backtest"])
def test_largest_seed_runs(tmp_path, command):
    argv = [command, "--example", "bachelier-sticky", "--h", "0.05", "--paths", "2"]
    assert main(["--quiet", "--out", str(tmp_path), *argv, "--seed", str(2**64 - 1)]) == 0


def test_model_file_infinite_rate_error(tmp_path, capsys):
    model = tmp_path / "sticky.gdm"
    model.write_text(STICKY.replace("rate = 0.05", "rate = inf"))
    out = tmp_path / "out"
    assert main(["--quiet", "--out", str(out), "analyze", "--model", str(model)]) == 1
    line = STICKY.splitlines().index("rate = 0.05") + 1
    assert f"error: line {line}: rate must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_model_file_speed_gap_fails_validation(tmp_path, capsys):
    # the speed density vanishes on [2, 12]: no regular diffusion
    model = tmp_path / "gap.gdm"
    model.write_text(STICKY_FILE.replace(
        "breakpoints = -inf, inf\nsegment1 = const 1\natom1 = 0.5 2",
        "breakpoints = -inf, 2, 12, inf\nsegment1 = const 1\nsegment2 = const 0\n"
        "segment3 = const 1",
    ).replace("x0 = 0.5", "x0 = 0"))
    out = tmp_path / "out"
    assert main(["--out", str(out), "analyze", "--model", str(model)]) == 1
    err = capsys.readouterr().err
    assert "validation failed: speed-charges-every-interval" in err
    assert "[2, 12]" in err
    assert not out.exists()


REFLECTED_FILE = """
[state_space]
lo = {lo}
hi = {hi}

[scale]
breakpoints = {scale_bps}
segment1 = {scale}

[speed]
breakpoints = {lo}, {hi}
segment1 = {speed}

[boundaries]
left = reflecting
right = reflecting

[market]
x0 = {x0}
rate = 0.1
"""


@pytest.mark.parametrize("fields, section, bad_line, fragment", [
    # a power piece read left of its center, as the scale or the speed density
    (dict(scale="power 1 0 0.5 0 1"), "scale", "segment1 = power 1 0 0.5 0 1", "half-line"),
    (dict(speed="power 1 0 0.5 0 1"), "speed", "segment1 = power 1 0 0.5 0 1", "half-line"),
    # a scale that stops at 1 on the state space [0, 2], once analysed on [0, 1]
    (dict(lo=0, hi=2, x0=1, scale_bps="0, 1"), "scale", "breakpoints = 0, 1", "cover"),
])
def test_model_file_segments_leave_their_domain(tmp_path, capsys, fields, section, bad_line,
                                                fragment):
    values = dict(lo=-1, hi=1, x0=0, scale="affine 0 1", speed="const 1")
    values.update(fields)
    values.setdefault("scale_bps", f"{values['lo']}, {values['hi']}")
    text = REFLECTED_FILE.format(**values)
    model = tmp_path / "bad.gdm"
    model.write_text(text)
    out = tmp_path / "out"
    assert main(["--quiet", "--out", str(out), "analyze", "--model", str(model)]) == 1
    lines = text.splitlines()
    line = lines.index(bad_line, lines.index(f"[{section}]")) + 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: ") and fragment in err
    assert not out.exists()


@pytest.mark.parametrize("fields, failure", [
    # a speed density (x - 0.50031)^2 - 1e-8, negative on (0.50021, 0.50041):
    # no point of a 1,000-point grid of [0, 1] falls in there
    (dict(speed="poly 0.2503100861 -1.00062 1"),
     "speed-nonnegative: m_ac < 0 on u in [0.5002"),
    # s(x) = x |x|: q' = +inf on both sides of the kink, whose q'' jump is nan
    (dict(lo=-1, scale_bps="-1, 0, 1", scale="power -1 0 2 0 -1\nsegment2 = power 1 0 2 0 1"),
     "q-prime-finite-at-kinks: q' is not finite at u = 0 (x = 0): q'(u-) = inf, q'(u+) = inf"),
    # one infinite side: the jump is +inf
    (dict(lo=-1, scale_bps="-1, 0, 1", scale="power -1 0 2 0 -1\nsegment2 = affine 0 1"),
     "q-prime-finite-at-kinks: q' is not finite at u = 0 (x = 0): q'(u-) = inf, q'(u+) = 1"),
    # a scale that drops from 1 to 0.5 at x = 1, and one that jumps up to 6
    (dict(hi=2, scale_bps="0, 1, 2", scale="affine 0 1\nsegment2 = affine -0.5 1"),
     "q-continuous: q jumps at u = 0.5, from x = 0.5 to x = 1"),
    (dict(hi=2, scale_bps="0, 1, 2", scale="affine 0 1\nsegment2 = affine 5 1"),
     "q-continuous: q jumps at u = 6, from x = 6 to x = 1"),
])
def test_model_file_outside_the_setting_fails_validation(tmp_path, capsys, fields, failure):
    values = dict(lo=0, hi=1, x0=0.5, scale="affine 0 1", speed="const 1")
    values.update(fields)
    values.setdefault("scale_bps", f"{values['lo']}, {values['hi']}")
    model = tmp_path / "bad.gdm"
    model.write_text(REFLECTED_FILE.format(**values))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--quiet", "--out", str(out), "analyze", "--model", str(model)]) == 1
    assert capsys.readouterr().err.startswith("validation failed: " + failure)
    assert not out.exists()


def test_included_end_outside_the_window_need_not_be_a_node(tmp_path):
    # the right end, 1000.123, lies 950 units past the window the chain walks
    model = tmp_path / "far.gdm"
    model.write_text(REFLECTED_FILE.format(
        lo=0, hi=1000.123, x0=0.5, scale_bps="0, 1000.123", scale="affine 0 1", speed="const 1",
    ))
    for command, paths in (("simulate", "2"), ("backtest", "20")):
        argv = [command, "--model", str(model), "--h", "0.05", "--paths", paths]
        assert main(["--quiet", "--out", str(tmp_path / command), *argv]) == 0


@pytest.mark.parametrize("fields, point", [
    (dict(x0=0.513), "start point at 0.513"),
    (dict(speed="const 1\natom1 = 0.52 2"), "speed atom at 0.52"),
    # s(x) = x up to 0.52 and 2x - 0.52 after: q' jumps at u = 0.52, and hi is 1.5
    (dict(hi=1.01, scale_bps="0, 0.52, 1.01", scale="affine 0 1\nsegment2 = affine -0.52 2"),
     "scale kink at 0.52"),
    (dict(hi=1.03), "included endpoint at 1.03"),
], ids=["start", "speed-atom", "scale-kink", "included-end"])
def test_point_in_the_window_off_the_nodes_is_an_error(tmp_path, capsys, fields, point):
    values = dict(lo=0, hi=1, x0=0.5, scale="affine 0 1", speed="const 1")
    values.update(fields)
    values.setdefault("scale_bps", f"{values['lo']}, {values['hi']}")
    model = tmp_path / "off.gdm"
    model.write_text(REFLECTED_FILE.format(**values))
    out = tmp_path / "out"
    argv = ["simulate", "--model", str(model), "--h", "0.05", "--paths", "2"]
    assert main(["--quiet", "--out", str(out), *argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: {point} is not a grid node")
    assert not out.exists()


@pytest.mark.parametrize("scale_bps, scale", [
    # 0.2 + 1.3 * 0.1 = 0.31 + 0.2 * 0.1 = 0.33 in decimal; in floats the
    # two sides of q at u = 0.33 differ by 24 ulps
    ("0, 0.1, 1", "affine 0.2 1.3\nsegment2 = affine 0.31 0.2"),
    # 1000000.3 + 0.5 = 1000000.25 + 1.1 * 0.5 = 1000000.8 in decimal; the
    # breakpoint u is rounded to its ulp, 1.2e-10, and the two sides of q
    # differ by that much, 8,000 times 64 ulps of |q| but not of |u| * q'
    ("0, 0.5, 1", "affine 1000000.3 1\nsegment2 = affine 1000000.25 1.1"),
], ids=["small-offset", "large-offset"])
def test_model_file_scale_continuous_in_decimal_validates(tmp_path, scale_bps, scale):
    text = REFLECTED_FILE.format(
        lo=0, hi=1, x0=0.25, scale_bps=scale_bps, scale=scale, speed="const 1",
    )
    model = tmp_path / "decimal.gdm"
    model.write_text(text)
    q = to_natural_scale(parse_model_file(str(model))).q
    left, right = q.sides(q._bps[1:-1])
    assert left[0] != right[0]
    assert main(["--quiet", "--out", str(tmp_path), "analyze", "--model", str(model)]) == 0


def test_speed_coefficient_overflow_error(tmp_path, capsys):
    # the composed speed density's coefficient 5.9e-315**-1.007 overflows
    rc = main([
        "--quiet", "--out", str(tmp_path),
        "analyze", "--example", "engelbert-schmidt",
        "--param", "b=0.84885", "--param", "sigma=0.74455", "--param", "mu=0.27527",
        "--param", "x0=1.15268", "--param", "r=0.43255",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: speed density transform at [0.84885, inf]: ")
    assert "out of floating-point range" in err
    assert not (tmp_path / "verdicts.csv").exists()


def test_model_file_tiny_exponential_rate(tmp_path, capsys):
    # exp(1e-200 x) is 1 to double precision; its square rate underflows
    model = tmp_path / "tiny.gdm"
    model.write_text(STICKY_FILE.replace("segment1 = const 1\n", "segment1 = exp 1 1e-200 0\n"))
    assert "exp 1 1e-200 0" in model.read_text()
    assert main(["--quiet", "--out", str(tmp_path), "analyze", "--model", str(model)]) == 0
    assert capsys.readouterr().err == ""
    nu = read_csv(tmp_path / "nu_report.csv")
    assert len(nu) == 1
    assert float(nu[0]["mass"]) == pytest.approx(-0.1, abs=1e-14)


def test_scale_poly_with_trailing_zero_reads_as_affine(tmp_path):
    # poly 0 1 0 is s(x) = x: its ends read -inf and inf, as affine 0 1's do;
    # affine 0 1 and const 1 spell poly 0 1 and poly 1
    text = STICKY_FILE.replace("x0 = 0.5", "x0 = 0")
    spellings = [
        ("affine 0 1", "const 1"), ("poly 0 1 0", "const 1"),
        ("poly 0 1", "const 1"), ("affine 0 1", "poly 1"),
    ]
    outputs = []
    for i, (scale, speed) in enumerate(spellings):
        (tmp_path / str(i)).mkdir()
        model = tmp_path / str(i) / "line.gdm"
        model.write_text(
            text.replace("segment1 = affine 0 1", f"segment1 = {scale}")
            .replace("segment1 = const 1", f"segment1 = {speed}")
        )
        out = tmp_path / str(i) / "out"
        assert main(["--quiet", "--out", str(out), "analyze", "--model", str(model)]) == 0
        outputs.append([(out / name).read_bytes() for name in ("nu_report.csv", "verdicts.csv")])
    assert all(output == outputs[0] for output in outputs)


CONSTANT_SCALE_FILE = """
[state_space]
lo = {lo}
hi = inf

[scale]
breakpoints = {lo}, inf
segment1 = {scale}

[speed]
breakpoints = {lo}, inf
segment1 = const 1

[boundaries]
left = {left}
right = open

[market]
x0 = 1
rate = 0.1
"""


@pytest.mark.parametrize("lo, scale", [
    ("-inf", "affine 3 0"), ("-inf", "poly 3 0"), ("-inf", "exp 0 1 3"), ("-inf", "exp 2 0 3"),
    ("0", "power 0 0 2 3 1"), ("0", "power 2 0 0 3 1"), ("0", "log 0 1 -1 3"),
])
def test_constant_scale_piece_is_refused(tmp_path, capsys, lo, scale):
    # each piece reads 3 or 5 at a finite end and 3, 5 or nan (0 * inf) at inf
    model = tmp_path / "flat.gdm"
    left = "open" if lo == "-inf" else "reflecting"
    model.write_text(CONSTANT_SCALE_FILE.format(lo=lo, scale=scale, left=left))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--quiet", "--out", str(out), "analyze", "--model", str(model)]) == 1
    err = capsys.readouterr().err
    assert err == "error: scale is not strictly increasing across its breakpoints\n"
    assert not out.exists()


def test_missing_model_file_error(tmp_path):
    rc = main(["--quiet", "--out", str(tmp_path), "analyze", "--model", "/no/such.gdm"])
    assert rc == 1


def test_near_log_scale_exponent_error(tmp_path, capsys):
    # scale exponent 1 - 2 mu / sigma^2 = 0.0038: the inverse scale's
    # coefficient leaves the floating-point range
    rc = main([
        "--quiet", "--out", str(tmp_path),
        "analyze", "--example", "engelbert-schmidt",
        "--param", "b=1.6902693389045986", "--param", "sigma=0.9399568618956795",
        "--param", "mu=0.4400759307384653", "--param", "x0=2.278524078106555",
        "--param", "r=0.2947695586816791",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "exponent 0.00381094 is nearly logarithmic" in err
    assert not (tmp_path / "verdicts.csv").exists()


def test_scale_line_of_infinite_slope_is_an_error(tmp_path):
    # affine 0 inf inverts to a line of slope 1/inf = 0, a constant q
    model = tmp_path / "steep.gdm"
    model.write_text(
        STICKY_FILE.replace("segment1 = affine 0 1", "segment1 = affine 0 inf")
        .replace("segment1 = const 1", "segment1 = affine 1 1")
    )
    assert main(["--quiet", "--out", str(tmp_path / "out"), "analyze", "--model", str(model)]) == 1
    assert not (tmp_path / "out").exists()


def test_demo_pass_and_params(capsys):
    assert main(["demo", "bachelier-skew", "--param", "kappa=0.75"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out
    # kappa = 1/2 removes the skew atom: no increasing profit
    assert main(["demo", "bachelier-skew", "--param", "kappa=0.5"]) == 0
    assert "pass" in capsys.readouterr().out
    # r * m1 = 1/2 exactly, away from mu = 0, sigma = 0.5: no increasing profit
    assert main([
        "demo", "bs-reflected", "--param", "mu=0.1", "--param", "sigma=0.7",
        "--param", "r=0.25", "--param", "m1=2",
    ]) == 0
    assert "pass" in capsys.readouterr().out
    for name in (
        "engelbert-schmidt", "bs-reflected", "bessel-sticky",
        "bachelier-sticky", "fat-cantor",
    ):
        assert main(["--quiet", "demo", name]) == 0


def test_demo_unknown_name():
    assert main(["--quiet", "demo", "unknown-example"]) == 2


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def test_parser_reuse_keeps_calls_independent(tmp_path, monkeypatch, capsys):
    # each call parses as a freshly built parser would: an earlier call's
    # --param list, options or usage error does not carry over
    seen = []
    load_model = cli._load_model

    def spy(args):
        seen.append(vars(args).copy())
        return load_model(args)

    monkeypatch.setattr(cli, "_load_model", spy)
    base = ["--quiet", "--out", str(tmp_path)]
    sim = ["simulate", "--example", "bachelier-sticky", "--h", "0.05", "--paths", "1"]
    calls = [
        base + ["analyze", "--example", "bachelier-sticky", "--param", "r=0.3", "--param", "xi=1"],
        base + ["analyze", "--example", "bachelier-sticky"],
        base + [*sim, "--T", "0.5", "--seed", "3"],
        base + sim,
        base + ["backtest", "--example", "bachelier-sticky", "--h", "0.05", "--paths", "2",
                "--strategy", "unit", "--tol-route", "0.1"],
        base + ["backtest", "--example", "bachelier-sticky", "--h", "0.05", "--paths", "2"],
    ]
    for argv in calls:
        assert main(argv) == 0
        with pytest.raises(SystemExit) as exc:  # argparse's own usage error
            main(argv + ["--no-such-flag"])
        assert exc.value.code == 2
        assert main(base + [*sim, "--paths", "0"]) == 2  # gdarb's usage error
    assert "--no-such-flag" in capsys.readouterr().err
    fresh = [vars(cli._build_parser.__wrapped__().parse_args(argv)) for argv in calls]
    assert seen == fresh
    assert seen[0]["param"] == ["r=0.3", "xi=1"] and seen[1]["param"] is None
    assert (seen[3]["T"], seen[3]["seed"]) == (1.0, 0)
    assert (seen[5]["strategy"], seen[5]["tol_route"]) == ("theta", 0.05)


@pytest.mark.parametrize(
    "argv",
    [
        # --h once read as an abbreviation of --help: full help, exit 0
        ["analyze", "--example", "fat-cantor", "--h", "0.05"],
        ["demo", "fat-cantor", "--h", "0.05"],
        ["simulate", "--example", "bachelier-sticky", "--pa", "1"],
        ["backtest", "--example", "bachelier-sticky", "--strat", "unit"],
        ["--qui", "analyze", "--example", "fat-cantor"],
    ],
)
def test_abbreviated_option_is_a_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err and not captured.out
    assert not list(tmp_path.iterdir())


def test_parser_built_once(tmp_path, monkeypatch):
    # every build of the parser adds its subcommands once
    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counting(parser, **kwargs):
        built.append(parser.prog)
        return add_subparsers(parser, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    cli._build_parser.cache_clear()
    try:
        analyze = ["analyze", "--example", "bachelier-skew"]
        for argv in (analyze, analyze, ["demo", "bachelier-skew"]):
            assert main(["--quiet", "--out", str(tmp_path), *argv]) == 0
        assert built == ["gdarb"]
    finally:
        cli._build_parser.cache_clear()


def test_csv_full_precision(tmp_path):
    rc = main([
        "--quiet", "--out", str(tmp_path),
        "analyze", "--example", "bachelier-sticky",
        "--param", "xi=0.1", "--param", "rho=3", "--param", "r=0.1",
    ])
    assert rc == 0
    nu = read_csv(tmp_path / "nu_report.csv")
    # -r*xi*rho = -0.03000000000000000.. printed with 17 significant digits
    assert float(nu[0]["mass"]) == -0.1 * 0.1 * 3
    assert len(nu[0]["mass"].replace("-", "").replace(".", "").lstrip("0")) >= 15


def test_commands_load_no_scipy(tmp_path):
    # scipy is a dependency of the tests and the benchmark only
    script = (
        "import sys\n"
        "from gdarb.cli import main\n"
        "out = ['--quiet', '--out', sys.argv[1]]\n"
        "assert main(out + ['analyze', '--example', 'fat-cantor']) == 0\n"
        "assert main(out + ['backtest', '--example', 'fat-cantor', '--h', '0.05']) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(gdarb.__file__))}
    run = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert run.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# streamed paths.csv and value_series.csv
# ---------------------------------------------------------------------------

MARKETS = [entry.name for entry in cat.catalog()]
_doubles = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
# -0, the infinities, nan, the smallest subnormal, the smallest normal and
# values that need all 17 digits, next to ids and steps beyond 32 bits
_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308,
          0.1 + 0.2, 1 / 3, 1e23, -1.7976931348623157e308]


@settings(max_examples=300)
@given(
    pid=st.integers(0, 2**63),
    first_step=st.integers(0, 2**62),
    columns=st.lists(st.tuples(_doubles, _doubles), min_size=1, max_size=30),
    route=st.sampled_from(["integral", "closed_form"]),
)
@example(pid=2**31 + 7, first_step=2**31 - 2, columns=list(zip(_EDGES, _EDGES[::-1])),
         route="closed_form")
def test_chunk_matches_row_writer(pid, first_step, columns, route):
    # one %-format pass over a path's columns writes the bytes the row
    # writer writes for its rows
    t = np.array([a for a, _ in columns])
    u = np.array([b for _, b in columns])
    steps = np.arange(first_step, first_step + len(columns), dtype=np.uint64)

    def as_file(header, chunk):
        return (",".join(header) + "\n" + chunk).encode("utf-8")

    header = ["path_id", "step", "t", "u"]
    rows = [[pid, int(k), a, b] for k, a, b in zip(steps, t, u)]
    chunk = cli._chunk(f"{pid},%d,%.17g,%.17g\n", steps, t, u)
    assert as_file(header, chunk) == csv_bytes(header, rows)

    header = ["path_id", "t", "value", "route"]
    rows = [[pid, a, b, route] for a, b in zip(t, u)]
    chunk = cli._chunk(f"{pid},%.17g,%.17g,{route}\n", t, u)
    assert as_file(header, chunk) == csv_bytes(header, rows)


@settings(max_examples=60)
@given(column=st.lists(_doubles | st.sampled_from(_EDGES), max_size=40))
@example(column=_EDGES + _EDGES[::-1] + [float("-nan"), 0.0, -0.0])
def test_text_formats_each_entry_as_percent_g(column):
    # a column formatted once per distinct bit pattern reads as if each
    # entry were formatted on its own: -0 keeps its sign
    text = cli._text(np.array(column, dtype=float))
    assert text.tolist() == ["%.17g" % x for x in column]


@settings(max_examples=60)
@given(
    grid=st.lists(_doubles | st.sampled_from(_EDGES), min_size=1, max_size=30),
    data=st.data(),
)
def test_node_text_formats_each_visited_node_as_percent_g(grid, data):
    # calls that reach below and above the nodes met so far read as if
    # each node were formatted on its own
    grid = np.array(grid, dtype=float)
    positions = cli._node_text(grid)
    index = st.integers(0, len(grid) - 1)
    for _ in range(data.draw(st.integers(1, 4))):
        states = np.array(data.draw(st.lists(index, min_size=1, max_size=20)), dtype=np.intp)
        assert positions(states).tolist() == ["%.17g" % grid[i] for i in states.tolist()]


@pytest.mark.parametrize("name", MARKETS)
def test_streamed_csvs_match_row_writer(tmp_path, name):
    # simulate and backtest write, byte for byte, the rows the row writer
    # makes of the per-step paths and their per-step value series
    base = ["--quiet", "--out", str(tmp_path)]
    run = ["--example", name, "--h", "0.05"]
    assert main(base + ["simulate", *run, "--paths", "10"]) == 0
    assert main(base + ["backtest", *run]) == 0

    model = cat.get_entry(name).build()
    chain = build_chain(model, 0.05)
    paths = [per_step_path(chain, 1.0, 0, pid) for pid in range(10)]
    rows = [
        [pid, k, p.times[k], chain.grid[p.states[k]]]
        for pid, p in enumerate(paths)
        for k in range(len(p.states))
    ]
    expected = csv_bytes(["path_id", "step", "t", "u"], rows)
    assert (tmp_path / "paths.csv").read_bytes() == expected

    bundle = build_nu(model)
    expected = _value_series_bytes(chain, bundle, build_theta(bundle), paths, 1.0)
    assert (tmp_path / "value_series.csv").read_bytes() == expected


def _value_series_bytes(chain, bundle, H, paths, T):
    """value_series.csv as the row writer makes it of the per-step oracle's
    book of ``paths``: the integral route, and the closed-form route where
    condition (i) holds."""
    routes = ["integral"]
    if check_strategy_conditions(chain.model, bundle, H).condition_i:
        routes.append("closed_form")
    rows = [
        [pid, t, v, route]
        for pid, book in enumerate(book_path(p, chain, bundle, H, T) for p in paths)
        for route in routes
        for t, v in zip(book.times, book.values(route))
    ]
    return csv_bytes(["path_id", "t", "value", "route"], rows)


@pytest.mark.parametrize("name", ["engelbert-schmidt", "bachelier-sticky"])
@pytest.mark.parametrize(
    "extra, n_paths, T, strategy",
    [
        pytest.param(["--paths", "1"], 1, 1.0, "theta", id="paths-1"),
        pytest.param(["--paths", "3", "--T", "0.3"], 3, 0.3, "theta", id="paths-3-T-0.3"),
        pytest.param(["--strategy", "unit"], 100, 1.0, "unit", id="unit"),
        pytest.param(["--strategy", "theta-bar"], 100, 1.0, "theta-bar", id="theta-bar"),
    ],
)
def test_small_and_unusual_backtests_match_row_writer(tmp_path, name, extra, n_paths, T, strategy):
    # value_series.csv holds the first min(paths, 10) paths, byte for byte
    # as the row writer makes them of the per-step oracle's books, on an
    # absorbing market and a sticky one
    argv = ["--quiet", "--out", str(tmp_path), "backtest", "--example", name, "--h", "0.05"]
    assert main(argv + extra) == 0

    model = cat.get_entry(name).build()
    bundle = build_nu(model)
    H = {
        "theta": build_theta(bundle),
        "theta-bar": build_theta_bar(model, bundle),
        "unit": FeedbackStrategy(plus_set=BorelSet.make([bundle.window])),
    }[strategy]
    chain = build_chain(model, 0.05)
    paths = [per_step_path(chain, T, 0, pid) for pid in range(min(n_paths, 10))]
    expected = _value_series_bytes(chain, bundle, H, paths, T)
    written = (tmp_path / "value_series.csv").read_bytes()
    assert written == expected
    assert {int(row["path_id"]) for row in read_csv(tmp_path / "value_series.csv")} == set(
        range(min(n_paths, 10))
    )


@pytest.mark.parametrize(
    "command", [["simulate", "--paths", "10"], ["backtest"]], ids=["simulate", "backtest"]
)
def test_one_walk_per_command(tmp_path, monkeypatch, command):
    # simulate walks its ten paths as one group, and backtest takes
    # value_series.csv from the ensemble's own walk
    calls = []
    walk = chain_mod._walk

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(chain_mod, "_walk", counted)
    monkeypatch.setattr(backtest, "_walk", counted)
    argv = ["--quiet", "--out", str(tmp_path), *command, "--example", "bachelier-sticky",
            "--h", "0.05"]
    assert main(argv) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["simulate", "backtest"])
def test_step_budget_error_leaves_no_csv(tmp_path, monkeypatch, capsys, command):
    # a path takes about 400 steps here
    monkeypatch.setattr(chain_mod, "_STEP_BUDGET", 50)
    rc = main([
        "--quiet", "--out", str(tmp_path),
        command, "--example", "bachelier-sticky", "--h", "0.05",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: step budget exceeded: a path may take 50 steps\n"
    assert list(tmp_path.iterdir()) == []


def test_failed_simulate_removes_written_paths(tmp_path, monkeypatch, capsys):
    # path 0 fits the budget and its rows are written before a later path
    # exceeds it; the partial file is removed.  With groups of one id, path
    # 1 is only walked once path 0 is written.
    chain = build_chain(cat.get_entry("bachelier-sticky").build(), 0.05)
    paths = [per_step_path(chain, 1.0, 1, pid) for pid in range(2)]
    steps = [len(p.states) - 1 for p in paths]
    assert steps[0] < steps[1]
    header = ["path_id", "step", "t", "u"]
    path_0 = csv_bytes(header, [
        [0, k, paths[0].times[k], chain.grid[paths[0].states[k]]] for k in range(steps[0] + 1)
    ])
    monkeypatch.setattr(chain_mod, "_STEP_BUDGET", steps[0])
    monkeypatch.setattr(chain_mod, "_GROUP", 1)
    removed = []
    remove = os.remove

    def measure_and_remove(path):
        removed.append(os.path.getsize(path))
        remove(path)

    monkeypatch.setattr(cli.os, "remove", measure_and_remove)
    rc = main([
        "--quiet", "--out", str(tmp_path),
        "simulate", "--example", "bachelier-sticky", "--h", "0.05", "--paths", "2",
        "--seed", "1",
    ])
    assert rc == 1
    assert "error: step budget exceeded" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert removed == [len(path_0)]  # the header and path 0's rows had been written


def test_simulate_memory_does_not_grow_with_paths(tmp_path):
    # paths are walked in groups and written as they finish, so ten times
    # the paths stay within one group's memory
    def peak(n_paths):
        argv = ["--quiet", "--out", str(tmp_path), "simulate", "--example", "bachelier-sticky",
                "--h", "0.05", "--paths", str(n_paths)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # one-time costs: the parser and the catalog's caches
    small, large = peak(40), peak(400)
    assert large <= 1.5 * small


# sha256 of every CSV that analyze, simulate --paths 5 and backtest write at
# --h 0.1 for each catalog market.  An identical command line and seed write
# byte-identical CSVs within a release; these digests pin them.
GOLDEN_CSV_SHA256 = {
    "engelbert-schmidt": {
        "ip_report.csv": "03488d66794392a5e0b6d089894d1b2f2de70965e4b9708ff2973011b6dd3e84",
        "nu_report.csv": "b1bf77ac2f677152be0d54459a050bc9c71baa932cc25a4e4909e07c8509fb21",
        "paths.csv": "65991bd21877f88803c45e2e04c4babda886352ff70e7de60b15595fb54e4570",
        "value_series.csv": "42afff9206af3fa57b2e0f6ad5bd3d6c57ef39060d9379d0c475107c67a408ab",
        "verdicts.csv": "eddb0c11c103dc6b9d43e67d97ebde51390996582e5fc16762f2890b82bd72f8",
    },
    "bs-reflected": {
        "ip_report.csv": "4b2c6c48132b274bf96af174bd0f285d08f59880f086c14329a8257da0547bed",
        "nu_report.csv": "3de1e56d75f2a5a943b32a26b9770d290b70d920a57885ade75547a45ca4d287",
        "paths.csv": "a4016702b94f37e20ace3dfe758f4b2d5be42bae4a057519b1272513163a0f57",
        "value_series.csv": "7929615f14bbc027429e026cd644c9ddd40ef0f6fb5e899ef582c1d684db5d28",
        "verdicts.csv": "88df3ecc94bc020e1350d3ae30976232a39151f906c2f6f09ae49cad131e63af",
    },
    "bessel-sticky": {
        "ip_report.csv": "b9c01d5f56b4664e95e89f1d160f05eed2201ef1e06925bbae44b9aa854e3285",
        "nu_report.csv": "b1bf77ac2f677152be0d54459a050bc9c71baa932cc25a4e4909e07c8509fb21",
        "paths.csv": "a20140928e4ce60fb2f39117827a0a336a5e33af94b1c5e1abbf4178402b7e09",
        "value_series.csv": "1793ea40f10a79dd20b3cfbd1ef38e9a22f6ca72284c535b9b7d2f6ba12e3eae",
        "verdicts.csv": "b08e4994d2037b5646a0137881fd8efc82ecd451cadfa43506faf1e6b6205455",
    },
    "bachelier-sticky": {
        "ip_report.csv": "28aafbfda0541fe5b401eb2eb6a18a14048b99ffdb657205527a8d266312b2ae",
        "nu_report.csv": "228697f5011bbfd5739517aba0b847e002afdea2057dd72232bf6986692640ed",
        "paths.csv": "b87b029e3db5b5bb4116bebdfb23c115e7eac1309a0b2e9dc95f61449b879def",
        "value_series.csv": "121cf7eadb1b953a1cc10a7b573564ea8f1071e277a27621fb4135b110a972b9",
        "verdicts.csv": "06caabd006229e89375e37984575d163946fb331c76ec17ba7815db22dbaa943",
    },
    "bachelier-skew": {
        "ip_report.csv": "2c5f66fa1e38d34710a6e151c5453cb79a182105fcd3cfee37f66c48df9bd702",
        "nu_report.csv": "f253d824be9442a6b05df87fa8a161d70e668058b45fbf7173fe83db8d725262",
        "paths.csv": "01f68e2a28de29a5f6c2d12f3d6bfa74aa293a19a32e093bf1d1a847f47b197d",
        "value_series.csv": "9e2a3c4f8600d81b4630149768cbdf7308125b68e1752ad1d205a53601bfee01",
        "verdicts.csv": "143dd9f75ffa0a902a506cf1aefaf61f2f2b1ca929f929abe8fd1e1d75a48a79",
    },
    "fat-cantor": {
        "ip_report.csv": "5d117921c6fb6750057c2ba6cccc761bb6f201b862cdd05368ee0190c835d0d6",
        "nu_report.csv": "b96dbcfc9a6eea7478d98d7d5e6b75d069564f3c299907eff2772873a4afc494",
        "paths.csv": "e3ae951d7a428651b2a623af489ec09e394b8924b42494c67e2b86cd3c2e01ab",
        "value_series.csv": "a772716f8f275d37e986f9ecdd404f4bd18c00d49912374e0c0d5fb5bfb0af5b",
        "verdicts.csv": "a3f2c0e7f4c673dfc0379f677d86b61fc11e037c1df79dc34d403122de1e3862",
    },
}


def test_golden_csv_digests(tmp_path):
    for name, digests in GOLDEN_CSV_SHA256.items():
        out = tmp_path / name
        base = ["--quiet", "--out", str(out)]
        run = ["--example", name, "--h", "0.1"]
        assert main(base + ["analyze", "--example", name]) == 0
        assert main(base + ["simulate", *run, "--paths", "5"]) == 0
        assert main(base + ["backtest", *run]) == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert written == digests, name
