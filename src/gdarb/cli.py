"""Command-line front end.

Commands:
  analyze   build the auxiliary measure and market verdicts, write CSV reports
  simulate  sample chain paths, write paths.csv
  backtest  classify a strategy empirically, write ip_report.csv and
            value_series.csv (long format, one row per sampled point)
  demo      run the closed-form regression for a catalog example

paths.csv is streamed: its paths are walked as groups of consecutive ids
(``chain.sample_paths``), and each path's rows are formatted from its column
arrays in one pass and written as soon as the paths before it are, so memory
does not grow with --paths; each grid node's position is formatted once per
command, when a path first reaches it (``_node_text``).  value_series.csv
holds the value series that the backtest's ensemble records for its first
min(--paths, 10) ids, in the walk that decides the verdict
(``classify_ip(..., series_paths=...)``), so a backtest walks and books its
paths once; a path's rows are formatted in one pass, its time column once
for all its routes and each distinct value of a value column once
(``_text``).  Both files are written under a temporary name and moved into
place once complete, so a failed command leaves no partial file.  The one-row
tables and nu_report.csv, whose descriptor may hold commas, go through
csv.writer.  The parser is built once per process.

Exit status: 0 success, 1 check failure or exhausted step budget, 2 usage
error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import math
import os
import sys

import numpy as np

from . import catalog as cat
from .arbitrage import (
    FeedbackStrategy,
    build_nu,
    build_theta,
    build_theta_bar,
    market_verdicts,
)
from .backtest import MCConfig, classify_ip
from .borel import BorelSet
from .chain import StepBudgetError, build_chain, sample_paths
from .model import ModelError, NaturalScaleModel, to_natural_scale, validate
from .modelfile import parse_model_file

__all__ = ["main"]

_SERIES_PATHS = 10  # paths recorded in value_series.csv


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _write_csv(path: str, header: list[str], rows: list[list]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _chunk(row: str, *columns: np.ndarray) -> str:
    """One row of the %-template ``row`` per entry of the columns, formatted
    in one pass.  ``%.17g`` writes a float as ``_fmt`` does, ``-0``,
    ``inf`` and ``nan`` included."""
    fields = itertools.chain.from_iterable(zip(*(c.tolist() for c in columns)))
    return (row * len(columns[0])) % tuple(fields)


def _text(column: np.ndarray) -> np.ndarray:
    """A float column as ``%.17g`` writes it, as an array of strings: each
    distinct bit pattern is formatted once, so ``-0`` keeps its sign."""
    bits, inverse = np.unique(np.ascontiguousarray(column, dtype=float).view(np.uint64),
                              return_inverse=True)
    return np.array(["%.17g" % x for x in bits.view(float).tolist()], dtype=object)[inverse]


def _node_text(grid: np.ndarray):
    """A function from an array of node indices to their positions as
    ``%.17g`` writes them.  Its table holds the nodes from the lowest to the
    highest index any call has met, each formatted once; a path steps
    between neighbouring nodes, so these are the nodes the paths visit."""
    text = np.empty(len(grid), dtype=object)
    done = None  # the table holds text[done[0]:done[1]]

    def positions(states: np.ndarray) -> np.ndarray:
        nonlocal done
        lo, hi = int(states.min()), int(states.max()) + 1
        if done is None:
            done = (lo, lo)
        for a, b in ((lo, done[0]), (done[1], hi)):  # the new nodes below and above
            if a < b:
                text[a:b] = ["%.17g" % x for x in grid[a:b].tolist()]
        done = (min(lo, done[0]), max(hi, done[1]))
        return text[states]

    return positions


def _write_streamed(path: str, header: list[str], chunks):
    """Write the header, then each chunk as it is made, to a temporary name,
    and move the file onto ``path`` once the last chunk is written; if making
    or writing a chunk fails, delete the file."""
    part = path + ".part"
    fh = open(part, "w", newline="", encoding="utf-8")
    try:
        with fh:
            fh.write(",".join(header) + "\n")
            for chunk in chunks:
                fh.write(chunk)
    except BaseException:
        os.remove(part)
        raise
    os.replace(part, path)


class _UsageError(Exception):
    pass


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise _UsageError(f"--param needs key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            number = float(value)
        except ValueError:
            raise _UsageError(f"--param {key}: not a number: {value!r}") from None
        if not math.isfinite(number):
            raise _UsageError(f"--param {key}: not a finite number: {value!r}")
        out[key.strip()] = number
    return out


def _build_example(name: str, pairs) -> tuple[cat.CatalogEntry, dict, NaturalScaleModel]:
    """The catalog entry, its parameters with the --param overrides, and its
    model.  A parameter the entry does not take or rejects is a usage
    error; a model error from valid parameters is not."""
    try:
        entry = cat.get_entry(name)
    except KeyError as exc:
        raise _UsageError(str(exc)) from None
    params = entry.params(**_parse_params(pairs or []))
    try:
        return entry, params, entry.build(**params)
    except ModelError:
        raise
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"bad parameter for {entry.name}: {exc}") from None


def _load_model(args) -> tuple[NaturalScaleModel, str]:
    if getattr(args, "model", None) and getattr(args, "example", None):
        raise _UsageError("--model and --example are mutually exclusive")
    if getattr(args, "model", None):
        spec = parse_model_file(args.model)
        return to_natural_scale(spec), os.path.basename(args.model)
    if getattr(args, "example", None):
        entry, _, model = _build_example(args.example, args.param)
        return model, entry.name
    raise _UsageError("one of --model or --example is required")


def _strategy(name: str, model, bundle) -> FeedbackStrategy:
    if name == "theta":
        return build_theta(bundle)
    if name == "theta-bar":
        return build_theta_bar(model, bundle)
    if name == "minus-theta":
        return build_theta(bundle).scaled(-1.0)
    if name == "unit":
        lo, hi = bundle.window
        return FeedbackStrategy(plus_set=BorelSet.make([(lo, hi)]))
    raise _UsageError(f"unknown strategy {name!r}")


def _validate_or_fail(model, quiet: bool) -> bool:
    report = validate(model)
    if not report.ok:
        for failure in report.failures:
            print(f"validation failed: {failure.name}: {failure.detail}", file=sys.stderr)
        return False
    if not quiet:
        print(f"model validation: {len(report.checks)} checks passed")
    return True


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    model, name = _load_model(args)
    if not _validate_or_fail(model, args.quiet):
        return 1
    bundle = build_nu(model)
    verdicts = market_verdicts(model, bundle)

    rows = []
    for loc, mass in sorted(bundle.nu.atoms):
        rows.append(["atom", loc, mass, ""])
    if bundle.nu.density is not None:
        tv = verdicts.evidence["abs_nu_ac_window"]
        rows.append([
            "ac",
            "",
            tv,
            f"density on carrier within window [{_fmt(bundle.window[0])}, "
            f"{_fmt(bundle.window[1])}]; column 'mass' holds total variation",
        ])
    os.makedirs(args.out, exist_ok=True)
    _write_csv(
        os.path.join(args.out, "nu_report.csv"),
        ["component", "location", "mass", "descriptor"],
        rows,
    )
    ev = verdicts.evidence
    _write_csv(
        os.path.join(args.out, "verdicts.csv"),
        [
            "example", "nip", "qvip_exists", "rp_holds", "abs_nu_total",
            "abs_nu_atoms", "abs_nu_ac_window", "lambda_qprime_zero",
            "lambda_qprime_zero_with_density", "window_caveat",
        ],
        [[
            name, verdicts.nip, verdicts.qvip_exists, verdicts.rp_holds,
            ev["abs_nu_total"], ev["abs_nu_atoms"], ev["abs_nu_ac_window"],
            ev["lambda_qprime_zero"], ev["lambda_qprime_zero_with_density"],
            verdicts.window_caveat,
        ]],
    )
    if not args.quiet:
        print(
            f"{name}: nip={_fmt(verdicts.nip)} qvip_exists={_fmt(verdicts.qvip_exists)} "
            f"rp_holds={_fmt(verdicts.rp_holds)}"
        )
    return 0


def _cmd_simulate(args) -> int:
    model, name = _load_model(args)
    if not _validate_or_fail(model, args.quiet):
        return 1
    chain = build_chain(model, args.h)
    u = _node_text(chain.grid)
    chunks = (
        _chunk(f"{p.path_id},%d,%.17g,%s\n", np.arange(len(p.states)), p.times, u(p.states))
        for p in sample_paths(chain, args.T, args.seed, range(args.paths))
    )
    os.makedirs(args.out, exist_ok=True)
    _write_streamed(os.path.join(args.out, "paths.csv"), ["path_id", "step", "t", "u"], chunks)
    if not args.quiet:
        print(f"{name}: wrote {args.paths} paths (h={_fmt(args.h)}, T={_fmt(args.T)})")
    return 0


def _cmd_backtest(args) -> int:
    model, name = _load_model(args)
    if not _validate_or_fail(model, args.quiet):
        return 1
    bundle = build_nu(model)
    H = _strategy(args.strategy, model, bundle)
    config = MCConfig(
        n_paths=args.paths, h=args.h, T=args.T, seed=args.seed,
        tol_route=args.tol_route,
    )
    report = classify_ip(model, bundle, H, config, series_paths=min(args.paths, _SERIES_PATHS))

    os.makedirs(args.out, exist_ok=True)
    _write_csv(
        os.path.join(args.out, "ip_report.csv"),
        [
            "example", "strategy", "h", "n_paths", "p_positive", "se",
            "monotone_fraction", "route_err", "verdict",
            "condition_i", "condition_ii", "empirical_iii",
        ],
        [[
            name, args.strategy, args.h, args.paths,
            report.p_positive_terminal, report.p_positive_se,
            report.monotone_fraction, report.route_agreement, report.verdict,
            report.condition_i_ok, report.condition_ii_ok, report.empirical_iii,
        ]],
    )

    def chunks():
        for pid, series in enumerate(report.details["series"]):
            # a path's times seldom repeat: each is formatted on its own, once
            # for all routes
            times = np.array(["%.17g" % t for t in series[0].times.tolist()], dtype=object)
            for s in series:
                yield _chunk(f"{pid},%s,%s,{s.route}\n", times, _text(s.values))

    _write_streamed(
        os.path.join(args.out, "value_series.csv"), ["path_id", "t", "value", "route"], chunks()
    )
    if not args.quiet:
        print(
            f"{name} / {args.strategy}: verdict={report.verdict} "
            f"p_positive={_fmt(report.p_positive_terminal)} "
            f"monotone_fraction={_fmt(report.monotone_fraction)}"
        )
    return 0


def _cmd_demo(args) -> int:
    entry, params, model = _build_example(args.name, args.param)
    if not _validate_or_fail(model, args.quiet):
        return 1
    bundle = build_nu(model)
    verdicts = market_verdicts(model, bundle)
    expected = entry.expected_nu(**params)

    ok = True
    built_atoms = dict(bundle.nu.atoms)
    expected_atoms = dict(expected.atoms)
    for loc in set(built_atoms) | set(expected_atoms):
        if abs(built_atoms.get(loc, 0.0) - expected_atoms.get(loc, 0.0)) > 1e-10:
            ok = False
            print(f"atom mismatch at {loc}", file=sys.stderr)
    lo, hi = bundle.window
    xs = np.linspace(max(lo, -10.0), min(hi, 10.0), 501)
    if np.max(np.abs(bundle.nu.density_at(xs) - expected.density_at(xs))) > 1e-10:
        ok = False
        print("density mismatch", file=sys.stderr)
    if verdicts.nip != entry.expected_nip(**params):
        ok = False
        print("no-profit verdict mismatch", file=sys.stderr)

    if not args.quiet:
        status = "pass" if ok else "FAIL"
        print(
            f"demo {entry.name}: {status} "
            f"(nip={_fmt(verdicts.nip)} qvip_exists={_fmt(verdicts.qvip_exists)} "
            f"rp_holds={_fmt(verdicts.rp_holds)})"
        )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_model_args(p: argparse.ArgumentParser):
    p.add_argument("--model", help="path to a model file")
    p.add_argument("--example", help="catalog example name")
    p.add_argument(
        "--param", action="append", metavar="K=V",
        help="override an example parameter (repeatable)",
    )


def _add_run_args(p: argparse.ArgumentParser):
    p.add_argument("--h", type=float, default=0.01, help="grid spacing")
    p.add_argument("--paths", type=int, default=100, help="number of paths")
    p.add_argument("--T", type=float, default=1.0, help="horizon")
    p.add_argument("--seed", type=int, default=0, help="random seed")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused:
    parsing leaves it unchanged, and each call gets a fresh namespace.  No
    parser takes abbreviated options, so ``--h`` is the grid spacing or a
    usage error, never ``--help``."""
    parser = argparse.ArgumentParser(
        prog="gdarb",
        description="increasing-profit analysis for one-dimensional diffusion markets",
        allow_abbrev=False,
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="market verdicts and auxiliary measure", allow_abbrev=False)
    _add_model_args(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="sample chain paths", allow_abbrev=False)
    _add_model_args(p)
    _add_run_args(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("backtest", help="classify a strategy by Monte Carlo", allow_abbrev=False)
    _add_model_args(p)
    _add_run_args(p)
    p.add_argument(
        "--strategy", default="theta",
        choices=["theta", "theta-bar", "minus-theta", "unit"],
    )
    p.add_argument("--tol-route", type=float, default=0.05)
    p.set_defaults(func=_cmd_backtest)

    p = sub.add_parser("demo", help="catalog closed-form regression", allow_abbrev=False)
    p.add_argument("name", help="catalog example name")
    p.add_argument("--param", action="append", metavar="K=V")
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "paths", 1) < 1:
            raise _UsageError("--paths must be at least 1")
        for flag in ("h", "T"):
            if not 0 < getattr(args, flag, 1.0) < math.inf:
                raise _UsageError(f"--{flag} must be positive and finite")
        if not getattr(args, "tol_route", 0.0) >= 0:
            raise _UsageError("--tol-route must be nonnegative")
        if not 0 <= getattr(args, "seed", 0) < 2**64:
            raise _UsageError("--seed must be in [0, 2**64)")
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ModelError, StepBudgetError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
