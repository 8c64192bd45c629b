"""Run one benchmark workload and print its result as the last stdout line.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig7-bp3d --seed 0 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of the traced run (spans are written to ``perfbench/traces/``).
The line before the result is a JSON report with the run manifest,
workload-specific metrics and the output checks.  The exit code is 1 when
an output check failed and 2 when the program under test cannot be found.

With ``--trace 0`` the run also re-runs itself with ``--setup-only``, a few
times spread over the timed window: each child interpreter times its
imports, input construction and warm-up pass and prints that time;
``setup_s`` is the fastest of them.
"""

import argparse
import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOAD_NAMES = ("fig7-bp3d", "interference-sweep", "priority-backlog-x32", "service-zipf")
#: One thread per BLAS/OpenMP pool: the benchmark measures one process, one thread.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def cold_setup(workload: str, seed: int) -> float:
    """Set-up time measured by a fresh child interpreter run with ``--setup-only``."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed)]
        + ["--seconds", "0", "--setup-only"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"--setup-only child exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"cannot find the repro package under {src}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    start = time.perf_counter()
    import bench_runner
    from bench_workloads import WORKLOADS

    import_s = time.perf_counter() - start
    if args.setup_only:
        _, _, elapsed = bench_runner.set_up(WORKLOADS[args.workload], args.seed)
        print(json.dumps({"setup_s": import_s + elapsed}))
        return 0
    result, report = bench_runner.measure(
        WORKLOADS[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        cold_setup=functools.partial(cold_setup, args.workload, args.seed),
        import_s=import_s,
        trace_dir=here / "traces",
    )
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
