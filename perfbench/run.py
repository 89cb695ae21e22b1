"""gdarb benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see perfbench/README.md) in this single process, one
caller in a closed loop, for about S seconds of whole passes over the same
inputs, checks the outputs, and prints every metric by name and unit.
Times are scaled to a reference host speed (see hostspeed.py), because
the shared host's own speed drifts by up to 1.7x over minutes; the raw
times are printed and recorded beside them.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the run measures untraced passes for half the time, then traced
passes for the other half, and reports the per-layer ones.

Run it from the root of a source checkout; it imports gdarb from src/ and
writes only under .perfbench_out/ there.
"""

import os

# BLAS threads are pinned before numpy is first imported, and the engine's
# thread cap stays unset, so every run is one single-threaded process.
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_VARS:
    os.environ[_var] = "1"
GDARB_THREADS_REMOVED = os.environ.pop("GDARB_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 6  # extra set-ups in fresh interpreters, besides this one
WORKLOADS = ("analyze-sweep", "mc-verdict", "cli-commands")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--smoke", action="store_true",
        help="coarse grid and few draws: a quick functional check, not a measurement",
    )
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(args):
    """Import gdarb and build the workload's inputs; returns (workload, s)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    wl = workloads.make(args.workload, args.seed, str(OUT), smoke=args.smoke)
    return wl, time.perf_counter() - t0


def _setup_probe_seconds(args, speed) -> list[float]:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--smoke"] if args.smoke else [])
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
        speed.sample()
    return out


def _measure(wl, seconds: float, tracer=None) -> list:
    """Whole passes; another starts only if the time left covers one."""
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(wl.run_pass(tracer))
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(p.wall for p in passes) > seconds:
            return passes


def _code_key() -> str:
    """Hash of the program and benchmark sources: determinism records are
    only compared between runs of the same code."""
    h = hashlib.sha256()
    for base in (SRC, BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_determinism(args, passes) -> list[str]:
    """Every pass of a run, and every run of one seed on the same code,
    must give identical counts and output hashes."""
    digests = {p.digest for p in passes}
    if len(digests) != 1:
        return [f"passes of one run disagree: {sorted(digests)}"]
    digest = digests.pop()
    record = OUT / f"digest-{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}-{_code_key()}.json"
    mine = {"digest": digest, "counts": passes[0].counts}
    if record.exists():
        seen = json.loads(record.read_text())
        if seen["digest"] != digest:
            diff = {
                k: (seen["counts"].get(k), v)
                for k, v in mine["counts"].items()
                if seen["counts"].get(k) != v
            }
            return [f"digest {digest} differs from earlier run {seen['digest']}; counts {diff}"]
    else:
        record.write_text(json.dumps(mine, indent=1, sort_keys=True))
    return []


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _run_record(args, wl, n_passes) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "passes": n_passes,
        "sizes": wl.sizes,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "gdarb_threads": "unset" + (
            f" (removed {GDARB_THREADS_REMOVED!r} from the environment)"
            if GDARB_THREADS_REMOVED is not None else ""
        ),
    }


def _pass_seconds(p, scaled=True) -> float:
    """Time of one pass's operations, without the benchmark's own work
    between them."""
    return sum(op.seconds for op in p.ops) * (p.speed_factor if scaled else 1.0)


def _end_to_end(wl, passes, setup_s) -> dict:
    pass_s = statistics.median(_pass_seconds(p) for p in passes)
    # an operation's latency is the median of its repeats; the percentiles
    # run over the distinct operations of a pass
    op_ms = [
        statistics.median(p.ops[i].seconds * p.speed_factor for p in passes) * 1e3
        for i in range(len(passes[0].ops))
    ]
    q = statistics.quantiles(op_ms, n=100, method="inclusive")
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (pass_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "markets_per_s": (wl.markets_per_pass / pass_s, "1/s"),
        "op_p50_ms": (q[49], "ms"),
        "op_p99_ms": (q[98], "ms"),
    }


def _workload_extras(passes, raw_setup_s) -> dict:
    """Metrics that exist on some workloads only, and the raw times;
    printed, not gated."""
    ops = passes[0].ops
    failed = sum(op.failure is not None for op in ops)
    out = {"failed_frac": (failed / len(ops), "1")}
    if "path_steps" in passes[0].counts:
        out["path_steps_per_s"] = (
            passes[0].counts["path_steps"] / statistics.median(map(_pass_seconds, passes)), "1/s"
        )
    for part in ops[0].parts:
        if part != "op":
            out[f"cli_{part}_s"] = (statistics.median(
                sum(op.parts[part] for op in p.ops) * p.speed_factor for p in passes
            ), "s")
    out["host_speed_factor"] = (statistics.median(p.speed_factor for p in passes), "1")
    out["raw_setup_s"] = (raw_setup_s, "s")
    out["raw_wall_s"] = (statistics.median(_pass_seconds(p, scaled=False) for p in passes), "s")
    return out


def _print_metrics(title, metrics):
    print(f"-- {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "gdarb" / "__init__.py").is_file():
        print(f"error: no gdarb sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    if args.setup_probe:
        _, seconds = _setup(args)
        print(seconds)
        return 0

    OUT.mkdir(exist_ok=True)
    wl, own_setup = _setup(args)
    wl.speed.sample()
    raw_setup_s = statistics.median([own_setup] + _setup_probe_seconds(args, wl.speed))
    setup_s = raw_setup_s * wl.speed.take_factor()

    import tracing
    import workloads

    if args.trace:
        untraced = _measure(wl, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            passes = _measure(wl, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        checked = untraced + passes
    else:
        passes = _measure(wl, args.seconds)
        checked = passes

    problems = _check_determinism(args, checked)
    for problem in problems:
        print(f"DETERMINISM FAILURE: {problem}", file=sys.stderr)

    # the determinism check has made sure every pass gives the same
    # outputs and failures, so the checked operations are one pass's
    # distinct ones, and attempted and failed depend on the seed alone
    ops = checked[0].ops
    failed = [op for op in ops if op.failure is not None]
    unexpected = [op for op in failed if not op.known_defect]

    record = _run_record(args, wl, len(checked))
    if args.trace:
        metrics = tracing.layer_metrics(tracer, workloads.MARKETS, passes, untraced)
    else:
        metrics = _end_to_end(wl, passes, setup_s)
    extras = _workload_extras(checked, raw_setup_s)
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    record["workload_metrics"] = {k: v for k, (v, _) in extras.items()}
    record["failures"] = sorted({f"{op.label}: {op.failure}" for op in failed})
    record["determinism"] = problems or "ok"
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str)
    )

    print(f"gdarb benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("run record: " + json.dumps({k: v for k, v in record.items()
                                       if k not in ("metrics", "workload_metrics", "failures")},
                                      default=str))
    _print_metrics("per-layer metrics (traced run)" if args.trace
                   else "end-to-end metrics (times scaled to the reference host speed)", metrics)
    _print_metrics("workload metrics (not gated)", extras)
    if args.trace:
        layers = sum(metrics[name][0] for name in tracing.LAYER_TIMES)
        print(f"-- self times of all layers and the benchmark sum to {layers:.6g} s "
              f"of trace.wall_s {metrics['trace.wall_s'][0]:.6g} s")
    print(f"-- failed checks: {len(failed)} of {len(ops)} distinct operations, each "
          f"repeated in {len(checked)} passes ({len(unexpected)} outside the known defects)")
    for line in record["failures"]:
        print(f"  {line}")

    if problems:
        return 1
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
