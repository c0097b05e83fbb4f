"""Output checks for the benchmark jobs, and a self-test of the checker.

A campaign job passes when every CDF file it wrote is well formed and
plausible: one file per bit depth with header ``value,cum_prob``, the
expected row count, nondecreasing values with ``cum_prob == i/N``, and
medians rising with bit depth with the unquantized fronthaul highest.
Every campaign workload writes SINR CDFs.  At the reference seed the files
are also compared against stored quantiles within ``REF_RTOL``; a
tolerance rather than a byte digest, because an algorithm change may move
the last digits.

A ``validate`` job passes unless it raised or an ``unquantized_*_identity``
check failed.  Statistical FAILs are counted separately and do not fail the
job: their false-alarm rate on correct code is not yet calibrated.

Run ``python3 bench/checks.py`` to run the self-test on its own.
"""

import json
import re
import sys
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 1
# Order statistics stored per CDF file, as fractions of the row count.
REFERENCE_QUANTILES = (0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999)
# Relative tolerance on those order statistics.  The CSVs carry 9
# significant digits; 1e-6 admits reordered floating-point arithmetic and
# nothing that moves a figure of the paper.
REF_RTOL = 1e-6
HEADER = "value,cum_prob"
_PROB_RTOL = 1e-8

_CHECK_LINE = re.compile(r"^(PASS|FAIL) (\S+): statistic=(\S+) threshold=(\S+)")
_SUMMARY_LINE = re.compile(r"^(\d+)/(\d+) checks passed$")


def read_cdf(path):
    """(values, probs) of one CDF file; raises ValueError on a bad header."""
    with open(path) as handle:
        header = handle.readline().rstrip("\n")
        if header != HEADER:
            raise ValueError(f"{path.name}: header {header!r}, expected {HEADER!r}")
        table = np.loadtxt(handle, delimiter=",", ndmin=2)
    if table.shape[1:] != (2,):
        raise ValueError(f"{path.name}: {table.shape[0]} rows of {table.shape[1]} columns, expected 2")
    return table[:, 0], table[:, 1]


def order_statistics(values):
    n = values.size
    return [float(values[min(n - 1, int(q * n))]) for q in REFERENCE_QUANTILES]


def check_campaign(out_dir, campaign, bits_list, expected_rows, reference=None):
    """Problems found in one campaign's CDF files (empty list: pass).

    ``reference`` maps bit-depth labels to stored order statistics, or is
    None when no comparison applies.
    """
    problems = []
    medians = {}
    for bits in bits_list:
        path = Path(out_dir) / f"{campaign}_b{bits}.csv"
        if not path.is_file():
            problems.append(f"{path.name}: missing")
            continue
        try:
            values, probs = read_cdf(path)
        except ValueError as exc:
            problems.append(str(exc))
            continue
        n = values.size
        if n != expected_rows:
            problems.append(f"{path.name}: {n} rows, expected {expected_rows}")
        if n == 0:
            continue
        if np.any(np.diff(values) < 0.0):
            problems.append(f"{path.name}: values not nondecreasing")
        if not np.allclose(probs, np.arange(1, n + 1) / n, rtol=_PROB_RTOL, atol=0.0):
            problems.append(f"{path.name}: cum_prob differs from i/N")
        medians[bits] = float(np.median(values))
        if reference is not None:
            stored = reference.get(str(bits))
            got = order_statistics(values)
            if stored is None:
                problems.append(f"{path.name}: no reference quantiles stored")
            elif not np.allclose(got, stored, rtol=REF_RTOL, atol=0.0):
                worst = float(np.max(np.abs(np.subtract(got, stored)) / np.abs(stored)))
                problems.append(f"{path.name}: quantiles off reference by {worst:.3g} relative")
    if len(medians) == len(bits_list):
        problems.extend(_median_order(medians))
    return problems


def _median_order(medians):
    """Median SINR must rise strictly with bits; unquantized (0) is highest."""
    ranked = sorted(b for b in medians if b != 0) + ([0] if 0 in medians else [])
    for b0, b1 in zip(ranked, ranked[1:]):
        m0, m1 = medians[b0], medians[b1]
        if m1 <= m0:
            return [f"median at b{b1} ({m1:.6g}) does not rise above b{b0} ({m0:.6g})"]
    return []


def check_validate(stdout):
    """(problems, statistical FAIL count, smallest relative margin).

    The margin of a check is (threshold - statistic)/threshold; it is
    negative for a FAIL and 1 when the statistic is 0.
    """
    problems = []
    fails = 0
    margins = []
    identities = {}
    summary = None
    for line in stdout.splitlines():
        match = _CHECK_LINE.match(line)
        if match:
            status, name, statistic, threshold = match.groups()
            statistic, threshold = float(statistic), float(threshold)
            margins.append((threshold - statistic) / threshold)
            if name.startswith("unquantized_") and name.endswith("_identity"):
                identities[name] = status
            elif status == "FAIL":
                fails += 1
            continue
        match = _SUMMARY_LINE.match(line.strip())
        if match:
            summary = (int(match.group(1)), int(match.group(2)))
    for name in ("unquantized_estimation_identity", "unquantized_detection_identity"):
        if identities.get(name) != "PASS":
            problems.append(f"{name}: {identities.get(name, 'missing')}")
    if summary is None or summary[1] != len(margins):
        problems.append("validate output: check count does not match summary line")
    return problems, fails, (min(margins) if margins else 1.0)


def load_reference(workload):
    if not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(workload)


def store_reference(workload, out_dir, campaign, bits_list):
    """Store the order statistics of the CDF files in ``out_dir`` as the
    reference of ``workload`` (see bench/README.md for when)."""
    stored = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    stored[workload] = {
        str(bits): order_statistics(read_cdf(Path(out_dir) / f"{campaign}_b{bits}.csv")[0])
        for bits in bits_list
    }
    REFERENCE_FILE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def _write_cdf(path, values):
    n = values.size
    with open(path, "w") as handle:
        handle.write(HEADER + "\n")
        for i, value in enumerate(values, start=1):
            handle.write(f"{value:.9g},{i / n:.9g}\n")


def _rewrite_rows(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(lines[0] + "".join(edit(lines[1:])))


def selftest(work_dir):
    """Show that the checker passes clean output and flags a perturbed
    value, a swapped row and a wrong row count.  Returns a list of
    problems with the checker itself (empty: the checker works)."""
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(0)
    bits_list, rows = (4, 8, 0), 400
    clean = {b: np.sort(rng.uniform(0.01, 0.5, rows)) * (1.0 + b) for b in bits_list}
    clean[0] = clean[0] * 100.0
    reference = {str(b): order_statistics(v) for b, v in clean.items()}
    target = work_dir / "sinr_b8.csv"
    mid = rows // 2 + 1  # 1-based data row at the stored median

    def perturb(rows_):
        value, prob = rows_[mid - 1].split(",")
        rows_[mid - 1] = f"{float(value) * (1.0 + 1e-5):.9g},{prob}"
        return rows_

    def swap(rows_):
        rows_[9], rows_[10] = rows_[10], rows_[9]
        return rows_

    cases = [("clean", None, False), ("perturbed value", perturb, True),
             ("swapped rows", swap, True), ("row count", lambda r: r[:-1], True)]
    failures = []
    for label, edit, should_flag in cases:
        for bits, values in clean.items():
            _write_cdf(work_dir / f"sinr_b{bits}.csv", values)
        if edit is not None:
            _rewrite_rows(target, edit)
        problems = check_campaign(work_dir, "sinr", bits_list, rows, reference)
        if bool(problems) != should_flag:
            failures.append(f"{label}: expected {'a flag' if should_flag else 'a pass'}, got {problems}")

    identity_fail = (
        "FAIL unquantized_estimation_identity: statistic=1e-9 threshold=1e-12 (x)\n"
        "PASS unquantized_detection_identity: statistic=0 threshold=1e-12 (x)\n"
        "PASS estimation_mse_mc_b8: statistic=1.5 threshold=3 (x)\n1/3 checks passed\n"
    )
    statistical_fail = (
        "PASS unquantized_estimation_identity: statistic=0 threshold=1e-12 (x)\n"
        "PASS unquantized_detection_identity: statistic=0 threshold=1e-12 (x)\n"
        "FAIL estimation_mse_mc_b8: statistic=3.5 threshold=3 (x)\n2/3 checks passed\n"
    )
    problems, fails, margin = check_validate(identity_fail)
    if not problems:
        failures.append("validate: failed identity check not flagged")
    problems, fails, margin = check_validate(statistical_fail)
    if problems or fails != 1 or not margin < 0.0:
        failures.append(f"validate: statistical FAIL miscounted ({problems}, {fails}, {margin})")
    for path in work_dir.glob("sinr_b*.csv"):
        path.unlink()
    return failures


if __name__ == "__main__":
    found = selftest(Path(__file__).resolve().parent.parent / ".bench_runs" / "selftest")
    for line in found:
        print("SELFTEST FAIL", line)
    print("checker self-test:", "FAIL" if found else "PASS")
    sys.exit(1 if found else 0)
