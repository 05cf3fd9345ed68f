"""hybvp benchmark: one workload, timed end to end or traced per layer.

Usage (from the repository root):

    python3 bench/run.py --workload chain_linear --seed 1 --seconds 15 --trace 0

Workloads are described in bench/README.md.  Each is a closed loop: the
next op starts when the previous one returns.  Every op's answer is
checked against a closed form outside the timed region.  Human-readable
lines start with '#'; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common

SETUP_PROBES = 5   # fresh processes timed for setup_s; the median is reported
BENCH_DIR = Path(__file__).resolve().parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": common.nproc(), "blas_threads": blas_threads,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def setup_seconds(workload: str, seed: int) -> float:
    """Run probe.py in a fresh process and return the set-up time it reports."""
    done = subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)],
                          capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.split()[-1])


def high_percentile(times: list) -> str:
    """Highest percentile with at least ten samples above it, when above the median."""
    n = len(times)
    if n < 21:
        return f"n={n}"
    return f"p{100 * (n - 10) // n}={sorted(times)[n - 11] * 1e3:.2f} ms, n={n}"


def measure(workload, seconds: float, recorder=None):
    """Closed loop of ops until their total time reaches `seconds`.

    Op 0 runs first, untimed, as warm-up.  With a recorder, ops alternate between untraced and traced so both
    see the same machine state.  Returns per-op times (untraced, traced)
    and outcomes in op order.
    """
    from workloads import Outcome, attempt

    def check(i, out):
        try:
            return workload.check(i, out)
        except Exception as exc:  # a check that cannot read the answer fails the op
            print(f"# check of op {i} raised {exc!r}")
            return Outcome(answered=False, max_err=math.inf, reasons=["check_raised"])

    check(0, attempt(workload.run_op, 0))   # the check also clears the op's output files
    plain, traced, outcomes = [], [], []
    spent, i = 0.0, 1
    while spent < seconds or not plain or (recorder is not None and not traced):
        trace_this = recorder is not None and i % 2 == 0
        t0 = time.perf_counter()
        out = attempt(recorder.run, i, workload.run_op, i) if trace_this else attempt(workload.run_op, i)
        dt = time.perf_counter() - t0
        spent += dt
        (traced if trace_this else plain).append(dt)
        outcomes.append(check(i, out))
        i += 1
    return plain, traced, outcomes


def peak_mib(workload) -> float:
    """Peak traced allocation of one op, relative to its start."""
    import tracemalloc

    from workloads import attempt

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        attempt(workload.run_op, 0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = common.pin_blas_threads()
    hybvp = common.import_hybvp()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    outdir = common.OUTPUT_DIR / args.workload
    try:
        return _run(args, threads, hybvp, spec, workloads, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            common.OUTPUT_DIR.rmdir()


def _run(args, threads, hybvp, spec, workloads, outdir) -> int:
    print("# env " + json.dumps(environment(threads)))
    setup = [] if args.trace else [setup_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    workload = workloads.make(args.workload, hybvp, args.seed, outdir)
    print(f"# workload {args.workload} seed {args.seed} inputs sha256:{workload.digest}")

    recorder = None
    if args.trace:
        import tracing
        recorder = tracing.Recorder()
    plain, traced, outcomes = measure(workload, args.seconds, recorder)

    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    answered = [o for o in outcomes if o.answered]
    correct = not any(o.wrong for o in outcomes)
    reasons = {}
    for o in outcomes:
        for r in o.reasons:
            reasons[r] = reasons.get(r, 0) + 1
    print(f"# ops {attempted} failed {failed} failed_frac {failed / attempted:.4g} "
          f"reasons {json.dumps(reasons, sort_keys=True)}")

    if args.trace:
        values = recorder.layer_metrics()
        values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        print(f"# absent hooks: {', '.join(recorder.absent) or 'none'}")
        if recorder.measure_errors:
            print(f"# hook measures that failed: {dict(recorder.measure_errors)}")
        wanted = spec["per_layer"]
    else:
        worst = max((o.max_err for o in answered), default=math.inf)
        values = {
            "solve_ms": statistics.median(plain) * 1e3,
            "solves_per_s": len(plain) / sum(plain),
            "accuracy_digits": -math.log10(max(worst, 1e-300)) if math.isfinite(worst) else 0.0,
            "peak_mib": peak_mib(workload),
            "setup_s": statistics.median(setup),
        }
        print(f"# solve_ms median {values['solve_ms']:.2f} ms ({high_percentile(plain)}); "
              f"worst abs error {worst:.3g}; setup probes {[round(s, 3) for s in setup]}")
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, entry in metrics.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
