"""Set-up time of one workload in a fresh process.

Usage: python3 bench/probe.py <workload> <seed>

Times importing hybvp (and with it numpy and scipy), generating the
workload's inputs and running its first op, then prints the seconds.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import common  # noqa: E402


def main(argv):
    name, seed = argv[0], int(argv[1])
    common.pin_blas_threads()
    hybvp = common.import_hybvp()
    import workloads

    workload = workloads.make(name, hybvp, seed, common.OUTPUT_DIR / name / "probe")
    workloads.attempt(workload.run_op, 0)
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main(sys.argv[1:])
