import csv
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gdarb
from gdarb import catalog as cat
from gdarb import chain as chain_mod
from gdarb import cli
from gdarb.arbitrage import build_nu, build_theta, check_strategy_conditions
from gdarb.backtest import closed_form_value, integral_value
from gdarb.chain import build_chain, sample_path
from gdarb.cli import main
from csv_oracle import csv_bytes

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
    ):
        assert main(["--quiet", "--out", str(tmp_path), *argv]) == 2, argv
        assert "usage error: bad parameter for" in capsys.readouterr().err
    assert not (tmp_path / "verdicts.csv").exists()


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


@pytest.mark.parametrize("name", MARKETS)
def test_streamed_csvs_match_row_writer(tmp_path, name):
    # simulate and backtest write, byte for byte, the rows the row writer
    # makes of single sampled paths and their single-path value series
    base = ["--quiet", "--out", str(tmp_path)]
    run = ["--example", name, "--h", "0.05"]
    assert main(base + ["simulate", *run, "--paths", "10"]) == 0
    assert main(base + ["backtest", *run]) == 0

    model = cat.get_entry(name).build()
    chain = build_chain(model, 0.05)
    paths = [sample_path(chain, T=1.0, seed=0, path_id=pid) for pid in range(10)]
    rows = [
        [pid, k, p.times[k], chain.grid[p.states[k]]]
        for pid, p in enumerate(paths)
        for k in range(len(p.states))
    ]
    expected = csv_bytes(["path_id", "step", "t", "u"], rows)
    assert (tmp_path / "paths.csv").read_bytes() == expected

    bundle = build_nu(model)
    theta = build_theta(bundle)
    routes = [integral_value]
    if check_strategy_conditions(model, bundle, theta).condition_i:
        routes.append(closed_form_value)
    rows = [
        [pid, t, v, s.route]
        for pid, p in enumerate(paths)
        for s in (route(p, chain, bundle, theta, T=1.0) for route in routes)
        for t, v in zip(s.times, s.values)
    ]
    expected = csv_bytes(["path_id", "t", "value", "route"], rows)
    assert (tmp_path / "value_series.csv").read_bytes() == expected


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
    # exceeds it; the partial file is removed
    chain = build_chain(cat.get_entry("bachelier-sticky").build(), 0.05)
    steps = [len(sample_path(chain, T=1.0, seed=1, path_id=pid).states) - 1 for pid in range(2)]
    assert steps[0] < steps[1]
    monkeypatch.setattr(chain_mod, "_STEP_BUDGET", steps[0])
    rc = main([
        "--quiet", "--out", str(tmp_path),
        "simulate", "--example", "bachelier-sticky", "--h", "0.05", "--paths", "2",
        "--seed", "1",
    ])
    assert rc == 1
    assert "error: step budget exceeded" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
