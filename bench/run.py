"""Benchmark of the cfquant command line: one workload per run.

    python3 bench/run.py --workload sinr-ref --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout; cfquant is imported from ``src/``.  The
load is a closed loop with one client: a single job-runner interpreter
(bench/worker.py) runs ``cfquant.cli.main(argv)`` jobs one after another
with ``--workers 1``, and BLAS threads are capped at the number of usable
cores.  Set-up is timed in fresh interpreters, from process start to
cfquant imported and the step cache warm.  Every job writes to its own
directory, and every job's output is checked (bench/checks.py) after the
job runner has ended.

With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced jobs
and reports the per-layer metrics (bench/tracing.py).  The last line of
stdout is the JSON result; the full record, with the machine, goes to
``.bench_runs/<workload>/seed<seed>-trace<t>/result.json``.  See
bench/README.md for the workloads and what each metric should move.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True

import checks  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"
SETUP_SAMPLES = 3
# Hard limit on one run, so a hung job cannot hold the machine.
RUN_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    argv: tuple  # sim command without seed and output options
    campaign: str | None  # CDF file prefix, None for validate
    bits: tuple  # bit depths the command uses; set-up warms their steps
    rows: int  # rows per CDF file
    gram: tuple  # (M, K) of the Gram product in error_covariance


SINR_BITS = ("--bits", "6,8,10,12,14,0")

# nmse-cdf has no workload: its job time moved by more than the job_s bound
# between two sets of runs of the same code (see bench/README.md).
WORKLOADS = {
    "sinr-ref": Workload(
        ("sinr-cdf", "--geoms", "50", "--smallscale", "10", *SINR_BITS),
        "sinr", (6, 8, 10, 12, 14, 0), 40 * 50 * 10, (200, 40)),
    "sinr-legacy": Workload(
        ("sinr-cdf", "--legacy-eq21", "--geoms", "2", "--smallscale", "10", *SINR_BITS),
        "sinr", (6, 8, 10, 12, 14, 0), 40 * 2 * 10, (200, 40)),
    # validate's own defaults: 10 APs x 4 users, 1e5 trials, estimation
    # checks at 4, 8, 12 bits and detection checks at 6, 10, 14 bits.
    "validate-small": Workload(("validate",), None, (4, 8, 12, 6, 10, 14), 0, (10, 4)),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def git_state():
    """(commit, dirty) of the checkout, or (None, None) outside a git tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=20)

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return None, None
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def start_worker(args, env, log, deadline):
    """Run worker.py to its end; returns (monotonic start time, stdout)."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            stdout=subprocess.PIPE, stderr=log, cwd=ROOT, env=env, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"job runner still running {RUN_LIMIT_S:.0f} s after the start") from None
    if proc.returncode != 0:
        raise BenchError(f"job runner exited with code {proc.returncode}; see {log.name}")
    return started, proc.stdout


def judge(workload, job, job_dir, reference):
    """Problems with one job; adds the validate outcomes to ``job``."""
    if job["error"]:
        return [f"{job['dir']} raised: {job['error'].strip().splitlines()[-1]}"]
    if workload.campaign is None:
        problems, job["validate_fails"], job["validate_min_margin"] = (
            checks.check_validate((job_dir / "stdout.txt").read_text()))
    else:
        problems = [] if job["code"] == 0 else [f"exit code {job['code']}"]
        problems += checks.check_campaign(
            job_dir, workload.campaign, workload.bits, workload.rows, reference)
    return [f"{job['dir']}: {problem}" for problem in problems]


def tail(times):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None with fewer than eleven samples."""
    if len(times) < 11:
        return None
    ordered = sorted(times)
    n = len(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(setup, jobs, runner):
    return {
        "setup_s": statistics.median(setup),
        "job_s": statistics.median(job["wall_s"] for job in jobs),
        "peak_rss_mb": runner["peak_rss_mb"],
    }


def per_layer(jobs, runner, spans):
    metrics = tracing.layer_metrics(spans, runner["zgemm_peak_gflops"])
    plain = [job for job in jobs if not job["traced"]]
    traced = [job for job in jobs if job["traced"]]
    fails = [job["validate_fails"] for job in jobs if "validate_fails" in job]
    margins = [job["validate_min_margin"] for job in jobs if "validate_min_margin" in job]
    metrics["simulation.validate_fails"] = max(fails) if fails else 0
    metrics["simulation.validate_min_margin"] = min(margins) if margins else 1.0
    metrics["simulation.process_cpu_s"] = statistics.median(job["cpu_s"] for job in plain)
    metrics["trace.overhead_frac"] = (
        statistics.median(job["wall_s"] for job in traced)
        / statistics.median(job["wall_s"] for job in plain) - 1.0)
    return metrics


def run(name, seed, seconds, trace):
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    if not (ROOT / "src" / "cfquant" / "__init__.py").is_file():
        raise BenchError(f"no cfquant source tree at {ROOT / 'src'}; run from a repository checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[name]
    run_dir = RUNS / name / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    broken = checks.selftest(run_dir / "selftest")
    if broken:
        raise BenchError("output checker self-test failed: " + "; ".join(broken))
    reference = None
    if seed == checks.REFERENCE_SEED and workload.campaign:
        reference = checks.load_reference(name)
        if reference is None:
            raise BenchError(f"no reference quantiles for {name} in {checks.REFERENCE_FILE}")
    argv = [*workload.argv, "--seed", str(seed)]
    if workload.campaign:
        argv += ["--workers", "1", "--out", "{out}"]

    env = child_env()
    bits = ["--bits", ",".join(map(str, workload.bits))]
    setup, setup_rss = [], []
    with open(run_dir / "worker.log", "w") as log:
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                begun, out = start_worker([*bits, "--setup-only"], env, log, deadline)
                sample = json.loads(out)
                setup.append(sample["ready_clock"] - begun)
                setup_rss.append(sample["peak_rss_mb"])
        extra = ["--trace", "--gram", "%d,%d" % workload.gram] if trace else []
        begun, _ = start_worker(
            [*bits, "--run-dir", str(run_dir), "--seconds", str(seconds), *extra, "--", *argv],
            env, log, deadline)
    runner = json.loads((run_dir / "jobs.json").read_text())
    setup.append(runner["ready_clock"] - begun)
    jobs = runner["jobs"]
    for job in jobs:
        job_dir = run_dir / job["dir"]
        job["problems"] = judge(workload, job, job_dir, reference)
        shutil.rmtree(job_dir)

    absent = []
    if trace:
        spans, absent = tracing.load_spans(run_dir / "spans.jsonl")
        values = per_layer(jobs, runner, spans)
        declared = spec["per_layer"]
    else:
        values = end_to_end(setup, jobs, runner)
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    failed = sum(1 for job in jobs if job["problems"])
    commit, dirty = git_state()
    record = {
        "seconds": seconds, "trace": trace, "argv": argv,
        "provenance": {"workload": name, "seed": seed, "nproc": len(os.sched_getaffinity(0)),
                       "cpu_model": cpu_model(), **runner["machine"],
                       "git_commit": commit, "git_dirty": dirty},
        "setup_s_samples": setup,
        "setup_only_peak_rss_mb": setup_rss,
        "jobs": jobs,
        "job_tail": tail([job["wall_s"] for job in jobs]),
        "failed_frac": failed / len(jobs),
        "absent": absent,
        "metrics": metrics,
        "run_s": time.monotonic() - started,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return record, failed


def report(record, failed):
    jobs = record["jobs"]
    for job in jobs:
        for problem in job["problems"]:
            print(f"FAILED CHECK: {problem}")
    for name, metric in record["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    times = sorted(job["wall_s"] for job in jobs)
    tail_text = ("p%.0f = %.4f s" % record["job_tail"]) if record["job_tail"] else \
        "no percentile has ten samples above it"
    print(f"jobs: n = {len(jobs)}, wall s min/median/max = {times[0]:.4f}/"
          f"{statistics.median(times):.4f}/{times[-1]:.4f}; tail: {tail_text}")
    if record["setup_only_peak_rss_mb"]:
        print("set-up alone: peak_rss_mb = %.1f" % max(record["setup_only_peak_rss_mb"]))
    print(f"failed_frac = {record['failed_frac']:.6g} ({failed}/{len(jobs)})")
    if record["absent"]:
        print(f"absent (recorded, not traced): {', '.join(record['absent'])}")
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": record["metrics"]}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=checks.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="job time to measure; jobs start until their total reaches it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, failed = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    report(record, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
