"""Benchmark for hgs: one workload per process, a closed loop of one caller.

    python3 perfbench/run.py --workload {loops,arrays}
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; it drives the hgs sources under ../src of this file
without installing them.  A run sets the workload up several times (each
set-up = a fresh interpreter importing hgs, plus building the workload's
grids, fields, suites and points), runs one warm-up pass, then repeats
passes for --seconds.  Every output is checked against the acceptance
criteria's own bounds.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones (setup_s, wall_s, peak_rss_mb); with
--trace 1 they are the per-layer ones, from one more set-up and pass run
under spans and the deterministic profiler.  Lines before the last give
the environment, quartiles and pass count; --trace 1 also writes the spans
to .bench_work/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin the BLAS pool to one thread before numpy is imported: the only extra
# threads a run may have are the workers `hgs sinc` starts itself.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0x5EED     # the acceptance criteria's seed
SETUP_REPEATS = 7
MIN_PASSES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("loops", "arrays"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="points/fields per pass; tiny is for self-tests")
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def fresh_import_seconds():
    """Wall time of a new interpreter that imports hgs and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import hgs"], env=child_env(),
                   cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - t0


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "hgs" / "__init__.py").is_file():
        sys.stderr.write(f"error: no hgs sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import hgs
    from tracing import Tracer, layer_metrics
    from workloads import LAYERS, SIZES, WORKLOADS
    if Path(hgs.__file__).resolve().parent != SRC / "hgs":
        sys.stderr.write(f"error: imported hgs from {hgs.__file__}\n")
        return 2

    workload = WORKLOADS[args.workload]
    size = SIZES[args.size]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    try:
        setups, reference = [], {}
        for _ in range(SETUP_REPEATS):
            t_import = fresh_import_seconds()
            t0 = time.perf_counter()
            ctx = workload.setup(args.seed, size, work, reference)
            setups.append(t_import + time.perf_counter() - t0)

        attempted, failures = 0, []

        def tally(chk):
            nonlocal attempted
            attempted += chk.attempted
            failures.extend(chk.failures)

        # the warm-up uses the first input set, so the first timed pass
        # checks its outputs byte for byte
        _, chk = workload.run_pass(ctx, tracer.span, 0)
        tally(chk)
        walls = []
        t_start = time.perf_counter()
        while len(walls) < MIN_PASSES or (
                time.perf_counter() - t_start + statistics.median(walls)
                <= args.seconds):
            wall, chk = workload.run_pass(ctx, tracer.span, len(walls))
            walls.append(wall)
            tally(chk)
        q1, wall_s, q3 = statistics.quantiles(walls, n=4)

        if args.trace:
            with tracer.traced(pass_id="setup"):
                with tracer.span("setup"):
                    traced_ctx = workload.setup(args.seed, size, work,
                                                reference)
            with tracer.traced(pass_id="pass"):
                traced_wall, chk = workload.run_pass(traced_ctx,
                                                     tracer.span, 0)
            tally(chk)
            metrics = layer_metrics(tracer, LAYERS)
            metrics["trace.overhead_ratio"] = (traced_wall / wall_s, "ratio")
            trace_path = (ROOT / ".bench_work"
                          / f"trace-{args.workload}-{args.seed}.json")
            trace_path.write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed,
                 "spans": tracer.span_table()}, indent=1) + "\n")
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {"setup_s": (statistics.median(setups), "s"),
                       "wall_s": (wall_s, "s"),
                       "peak_rss_mb": (peak, "MB")}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in failures[:20]:
        sys.stderr.write(f"FAILED {msg}\n")
    print(json.dumps({"env": {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "passes": len(walls),
        "wall_s_q1": q1, "wall_s_median": wall_s, "wall_s_q3": q3,
        "setup_s_all": setups, "failed_frac": len(failures) / attempted}}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
