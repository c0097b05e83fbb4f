"""Job runner for the benchmark, started by run.py in a fresh interpreter.

    worker.py --bits B,B,... --setup-only
    worker.py --bits B,B,... --run-dir DIR --seconds S [--trace --gram M,K] -- ARGV...

It imports cfquant and warms the step cache for the workload's bit depths;
``time.monotonic()`` at that moment is the end of set-up (the clock is
system-wide, so run.py can subtract the moment it started the process).
With ``--setup-only`` it prints that moment and its peak memory as one
JSON line and ends.

Otherwise it runs ``cfquant.cli.main(ARGV)`` jobs one after another until
their summed wall time reaches S seconds.  Job i runs with every ``{out}``
in ARGV replaced by ``DIR/job<i>``, and what it prints goes to
``DIR/job<i>/stdout.txt``; run.py checks those directories afterwards.
With ``--trace`` every second job is traced and the spans go to
``DIR/spans.jsonl``.  The job times, the peak memory and the machine are
written to ``DIR/jobs.json`` at the end.
"""

import argparse
import contextlib
import ctypes
import json
import logging
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _WarningCounter(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def run_job(cli, modules, argv, job_dir, tracer, warnings):
    job_dir.mkdir(parents=True)
    argv = [arg.replace("{out}", str(job_dir)) for arg in argv]
    root = cli.main
    if tracer is not None:
        tracer.install(modules)
        before = warnings.count
        root = tracer.wrap("job", cli.main, lambda *_: {"cond_warnings": warnings.count - before})
    error = None
    code = None
    with open(job_dir / "stdout.txt", "w") as captured, contextlib.redirect_stdout(captured):
        wall = time.perf_counter()
        cpu = time.process_time()
        try:
            code = root(argv)
        except (Exception, SystemExit):  # a failed job is counted, not fatal
            error = traceback.format_exc()
        finally:
            cpu = time.process_time() - cpu
            wall = time.perf_counter() - wall
            if tracer is not None:
                tracer.uninstall()
    return {"dir": job_dir.name, "traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
            "code": code, "error": error}


def zgemm_gflops(m, k):
    """Measured rate of the K x M by M x K complex product that forms the
    Gram matrix in ``error_covariance``: median over batches timed for
    half a second."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
    b = rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
    reps = 1
    while True:
        start = time.perf_counter()
        for _ in range(reps):
            a @ b
        if time.perf_counter() - start > 0.01:
            break
        reps *= 2
    rates = []
    deadline = time.perf_counter() + 0.5
    while time.perf_counter() < deadline or len(rates) < 5:
        start = time.perf_counter()
        for _ in range(reps):
            a @ b
        rates.append(8.0 * m * k * k * reps / (time.perf_counter() - start) / 1e9)
    rates.sort()
    return rates[len(rates) // 2]


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, or None."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine():
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bits", required=True, help="bit depths whose steps set-up solves")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--run-dir", type=Path)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--gram", help="M,K of the Gram product timed for the BLAS bound")
    parser.add_argument("argv", nargs="*", help="sim command of one job, after --")
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    from cfquant import cli, quantizer, simulation

    bits = [int(b) for b in args.bits.split(",") if int(b) > 0]
    solve = quantizer.optimal_step
    if tracer is not None:
        solve = tracer.wrap("optimal_step", solve)

    def warm():
        for b in bits:
            solve(2**b)

    (warm if tracer is None else tracer.wrap("setup", warm))()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_clock": ready, "peak_rss_mb": peak_rss_mb()}))
        return 0

    modules = {"simulation": simulation, "cli": cli}
    warnings = _WarningCounter()
    logging.getLogger("cfquant.detection").addHandler(warnings)
    jobs = []
    measured = 0.0
    while measured < args.seconds or (tracer is not None and len(jobs) < 2):
        traced = tracer if len(jobs) % 2 == 1 else None
        job = run_job(cli, modules, args.argv, args.run_dir / f"job{len(jobs):03d}",
                      traced, warnings)
        jobs.append(job)
        measured += job["wall_s"]

    record = {"ready_clock": ready, "jobs": jobs, "peak_rss_mb": peak_rss_mb(),
              "machine": machine()}
    if tracer is not None:
        tracer.dump(args.run_dir / "spans.jsonl")
        m, k = (int(v) for v in args.gram.split(","))
        record["zgemm_peak_gflops"] = zgemm_gflops(m, k)
    (args.run_dir / "jobs.json").write_text(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
