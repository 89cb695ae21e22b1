"""Command-line front end.

Commands:
  analyze   build the auxiliary measure and market verdicts, write CSV reports
  simulate  sample chain paths, write paths.csv
  backtest  classify a strategy empirically, write ip_report.csv and
            value_series.csv (long format, one row per sampled point)
  demo      run the closed-form regression for a catalog example

paths.csv and value_series.csv are streamed: each path's rows are formatted
from its column arrays in one pass and written before the next path is
sampled, so memory does not grow with --paths.  They are written under a
temporary name and moved into place once complete, so a failed command
leaves no partial file.  The one-row tables and nu_report.csv, whose
descriptor may hold commas, go through csv.writer.

Exit status: 0 success, 1 check failure or exhausted step budget, 2 usage
error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
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
from .backtest import MCConfig, classify_ip, value_series
from .borel import BorelSet
from .chain import StepBudgetError, build_chain, sample_path
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
            out[key.strip()] = float(value)
        except ValueError:
            raise _UsageError(f"--param {key}: not a number: {value!r}") from None
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
        theta = build_theta(bundle)
        return theta.scaled(-1.0) if not theta.is_zero else theta
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
    paths = (
        sample_path(chain, T=args.T, seed=args.seed, path_id=pid) for pid in range(args.paths)
    )
    chunks = (
        _chunk(
            f"{pid},%d,%.17g,%.17g\n", np.arange(len(p.states)), p.times, chain.grid[p.states]
        )
        for pid, p in enumerate(paths)
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
    report = classify_ip(model, bundle, H, config)

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

    chain = report.details["chain"]
    routes = ("integral",)
    if report.details["assessed_route"] == "closed_form":
        routes += ("closed_form",)
    paths = (
        sample_path(chain, T=args.T, seed=args.seed, path_id=pid)
        for pid in range(min(args.paths, _SERIES_PATHS))
    )
    chunks = (
        _chunk(f"{pid},%.17g,%.17g,{s.route}\n", s.times, s.values)
        for pid, series in enumerate(value_series(paths, chain, bundle, H, args.T, routes))
        for s in series
    )
    _write_streamed(
        os.path.join(args.out, "value_series.csv"), ["path_id", "t", "value", "route"], chunks
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdarb",
        description="increasing-profit analysis for one-dimensional diffusion markets",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="market verdicts and auxiliary measure")
    _add_model_args(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="sample chain paths")
    _add_model_args(p)
    _add_run_args(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("backtest", help="classify a strategy by Monte Carlo")
    _add_model_args(p)
    _add_run_args(p)
    p.add_argument(
        "--strategy", default="theta",
        choices=["theta", "theta-bar", "minus-theta", "unit"],
    )
    p.add_argument("--tol-route", type=float, default=0.05)
    p.set_defaults(func=_cmd_backtest)

    p = sub.add_parser("demo", help="catalog closed-form regression")
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
        if getattr(args, "h", 1.0) <= 0:
            raise _UsageError("--h must be positive")
        if getattr(args, "T", 1.0) <= 0:
            raise _UsageError("--T must be positive")
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ModelError, StepBudgetError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
