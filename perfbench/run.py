"""macsat benchmark: run one workload, check its results, print its metrics.

    python3 perfbench/run.py --workload density-evolution --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 1

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy. With `--trace 0` the run
prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb); with
`--trace 1` it prints the per-layer metrics of a traced run plus the kernel
sweep. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--workload all` runs every
workload in a fresh process of its own. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("density-evolution", "simulate-waterfall")
SETUP_PROBES = 4  # fresh processes that time set-up, besides the run's own
CHILD_TIMEOUT_S = 170
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("MACSAT_CACHE_DIR", None)  # the box-plus disk cache would hide set-up
    return env


def _run_child(args: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        env=_child_env(),
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _import_workloads():
    """Import the package from the checkout (timed as set-up by callers)."""
    import macsat
    import workloads

    if Path(macsat.__file__).resolve().parent != SRC / "macsat":
        raise BenchError(f"macsat imported from {macsat.__file__}, not from {SRC}")
    return workloads


def _setup(name: str, seed: int):
    workloads = _import_workloads()
    wl = workloads.WORKLOADS[name]
    return wl, wl.setup(seed)


def measure(wl, ctx, seconds: float | None, units: int | None = None):
    """Run exactly `units` units, or start units while half a unit more still
    ends within `seconds`, so that long units fill the window about as well
    as short ones. Returns (durations, results, problems per unit)."""
    durations, results, problems = [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        try:
            res = wl.unit(ctx, len(durations))
            dt = perf_counter() - t0
            found = wl.check(res)
        except Exception as exc:  # a failed unit counts against fail_frac
            dt, res, found = perf_counter() - t0, None, [f"{type(exc).__name__}: {exc}"]
        durations.append(dt)
        results.append(res)
        problems.append(found)
        if units is not None:
            if len(durations) >= units:
                break
        elif perf_counter() - start + 0.5 * median(durations) > seconds:
            break
    return durations, results, problems


def _tally(wl, results, problems) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages); a run-level check counts as one more."""
    messages = [m for found in problems for m in found]
    attempted, failed = len(problems), sum(1 for found in problems if found)
    check_all = getattr(wl, "check_all", None)
    if check_all is not None:
        found = check_all([r for r in results if r is not None])
        attempted, failed = attempted + 1, failed + bool(found)
        messages += found
    return attempted, failed, messages


def _tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    pct = int(100 * (n - 10) / n)
    ordered = sorted(values)
    return pct, ordered[min(n - 1, (pct * n) // 100)]


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():  # a plain source tree has no commit to name
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "macsat").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    t0 = perf_counter()
    wl, ctx = _setup(name, seed)
    setup_times = [perf_counter() - t0]
    for _ in range(SETUP_PROBES):
        proc = _run_child(["--setup-probe", "--workload", name, "--seed", str(seed)])
        setup_times.append(_last_json(proc.stdout)["setup_s"])

    durations, results, problems = measure(wl, ctx, seconds)
    attempted, failed, messages = _tally(wl, results, problems)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {name}  seed {seed}  units {len(durations)}")
    tail = _tail_percentile(durations)
    tail_txt = f", p{tail[0]} {tail[1]:.4f} s" if tail else ""
    print(f"  wall_s       {median(durations):.4f} s  (median of {len(durations)} units{tail_txt})")
    print(f"  setup_s      {median(setup_times):.4f} s  (median of {len(setup_times)} fresh processes)")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"  fail_frac    {failed / attempted:.4f}  ({failed} of {attempted})")
    for message in messages:
        print(f"  FAIL {message}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": median(durations), "unit": "s"},
            "setup_s": {"value": median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
    }


def run_traced(name: str, seed: int) -> dict:
    workloads = _import_workloads()
    from kernels import kernel_sweep
    from layers import TARGETS, layer_metrics
    from tracer import Tracer

    wl = workloads.WORKLOADS[name]
    setup_tracer, unit_tracer = Tracer(), Tracer()
    setup_tracer.install(TARGETS)
    try:
        ctx = wl.setup(seed)
    finally:
        setup_tracer.uninstall()

    # untraced units on both sides of the traced ones, so that a drift in
    # machine speed does not read as tracing overhead
    before = measure(wl, ctx, None, units=wl.traced_units)
    unit_tracer.install(TARGETS)
    try:
        traced = measure(wl, ctx, None, units=wl.traced_units)
    finally:
        unit_tracer.uninstall()
    after = measure(wl, ctx, None, units=wl.traced_units)
    plain = [a + b for a, b in zip(before, after)]
    attempted, failed, messages = _tally(wl, plain[1] + traced[1], plain[2] + traced[2])

    metrics, absent = layer_metrics(setup_tracer, unit_tracer)
    sweep, sweep_absent = kernel_sweep(seed)
    metrics.update(sweep)
    absent += sweep_absent
    wall, traced_wall = median(plain[0]), median(traced[0])
    metrics["trace.overhead_s"] = (traced_wall - wall, "s")
    metrics["trace.overhead_frac"] = (traced_wall / wall - 1.0, "ratio")

    print(f"workload {name}  seed {seed}  traced units {len(traced[0])}")
    print(f"  wall_s untraced {wall:.4f} s, traced {traced_wall:.4f} s")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:36s} {value:.6g} {unit}")
    for metric in absent:
        print(f"  {metric:36s} absent (its target is not in the package)")
    for message in messages:
        print(f"  FAIL {message}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in a fresh process; metrics prefixed by workload name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOAD_NAMES:
        proc = _run_child(
            ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        )
        print("\n".join(proc.stdout.strip().splitlines()[:-1]))
        res = _last_json(proc.stdout)
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, entry in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
        rows.append((name, res))
    if not trace:
        print(f"{'workload':20s} {'wall_s':>10s} {'setup_s':>10s} {'peak_rss_mb':>12s} {'fail_frac':>10s}")
        for name, res in rows:
            m = res["metrics"]
            print(
                f"{name:20s} {m['wall_s']['value']:10.4f} {m['setup_s']['value']:10.4f} "
                f"{m['peak_rss_mb']['value']:12.1f} {res['failed'] / res['attempted']:10.4f}"
            )
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "macsat" / "__init__.py").is_file():
        print(f"error: no macsat sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("MACSAT_CACHE_DIR", None)
    sys.path.insert(0, str(SRC))

    try:
        if args.setup_probe:
            t0 = perf_counter()
            _setup(args.workload, args.seed)
            print(json.dumps({"setup_s": perf_counter() - t0}))
            return 0
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        elif args.trace:
            result = run_traced(args.workload, args.seed)
        else:
            result = run_untraced(args.workload, args.seed, args.seconds)
        print("env " + json.dumps(environment()))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
