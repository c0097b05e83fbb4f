"""Spans around calls into cfquant's layers, recorded from outside the
package, and the per-layer metrics derived from them.

The tracer replaces functions by timing wrappers on the module attributes
that ``cfquant.simulation`` and ``cfquant.cli`` look up at call time, so the
package itself is not edited.  Spans are kept in memory and written out
once, when the job runner ends.  A name that no longer exists in its module
is recorded as absent and its metrics read zero.
"""

import itertools
import json
import os
import statistics
import time

# (module, attribute) pairs to wrap.  Every one is looked up by name at
# call time inside cfquant, so replacing the attribute intercepts the call.
TARGETS = (
    ("simulation", "optimal_step"),
    ("simulation", "bussgang_alpha"),
    ("simulation", "power_gain_gamma"),
    ("simulation", "quantize_complex_with_steps"),
    ("simulation", "draw_geometry"),
    ("simulation", "large_scale_gains"),
    ("simulation", "draw_small_scale"),
    ("simulation", "estimation_mse"),
    ("simulation", "lmmse_coefficient"),
    ("simulation", "distortion_covariance"),
    ("simulation", "error_covariance"),
    ("simulation", "mmse_weights"),
    ("simulation", "error_covariance_for_weights"),
    ("simulation", "make_cdf"),
    ("cli", "write_cdf_csv"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _quantize_attrs(args, kwargs, result):
    return {"samples": int(_arg(args, kwargs, 0, "x").size)}


def _gram_attrs(args, kwargs, result):
    m, k = _arg(args, kwargs, 0, "G").shape
    return {"m": int(m), "k": int(k)}


def _distortion_attrs(args, kwargs, result):
    # A cheap fingerprint of (geometry, bits): the large-scale gains are
    # continuous random draws, so a strided sample of them plus the
    # quantizer factors tells distinct inputs apart.
    beta = _arg(args, kwargs, 0, "beta")
    key = (beta.shape, beta.ravel()[::97].tobytes(), *args[1:], *sorted(kwargs.items()))
    return {"key": hash(key)}


def _csv_attrs(args, kwargs, result):
    rows = sum(int(entry.values.size) for entry in _arg(args, kwargs, 0, "series"))
    size = sum(os.path.getsize(path) for path in result if str(path).endswith(".csv"))
    return {"rows": rows, "bytes": size}


ATTRS = {
    "quantize_complex_with_steps": _quantize_attrs,
    "error_covariance": _gram_attrs,
    "distortion_covariance": _distortion_attrs,
    "write_cdf_csv": _csv_attrs,
}


class Tracer:
    """In-memory span recorder.  A span is (id, parent id, name, start,
    end, attrs); ``attrs`` are computed after the timed call returns."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._ids = itertools.count()
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            extra = attrs(args, kwargs, result) if attrs is not None else None
            self.spans.append((sid, parent, name, start, end, extra))
            return result

        return traced

    def install(self, modules):
        """Wrap every target found in ``modules`` (name -> module object)."""
        for module_name, attr in TARGETS:
            module = modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                if attr not in self.absent:
                    self.absent.append(attr)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(attr, fn, ATTRS.get(attr)))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"absent": self.absent}, handle)
            handle.write("\n")
            for span in self.spans:
                json.dump(span, handle)
                handle.write("\n")


def load_spans(path):
    with open(path) as handle:
        absent = json.loads(handle.readline())["absent"]
        spans = [tuple(json.loads(line)) for line in handle]
    return spans, absent


def _roots(spans, name):
    return [span for span in spans if span[2] == name and span[1] is None]


def _descendants(spans):
    """Map span id -> list of direct children."""
    children = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    return children


def _subtree(children, root):
    out = []
    todo = [root]
    while todo:
        span = todo.pop()
        kids = children.get(span[0], [])
        out.extend(kids)
        todo.extend(kids)
    return out


def _self_time(children, span):
    return (span[4] - span[3]) - sum(c[4] - c[3] for c in children.get(span[0], []))


def _complex_gram_inverse_flop(m, k):
    """Real flops of one error_covariance call: the K x M x K complex Gram
    product (8 M K^2) and the K x K complex inverse (8 K^3)."""
    return 8.0 * m * k * k + 8.0 * k ** 3


def job_layer_metrics(children, job):
    """Per-layer figures of one traced job (a root span named 'job');
    ``children`` maps span ids to their direct children."""
    inner = _subtree(children, job)
    time_in, calls = {}, {}
    for span in inner:
        name = span[2]
        time_in[name] = time_in.get(name, 0.0) + _self_time(children, span)
        calls[name] = calls.get(name, 0) + 1

    def t(*names):
        return sum(time_in.get(n, 0.0) for n in names)

    def n(name):
        return calls.get(name, 0)

    def attr_sum(name, key):
        return sum(s[5][key] for s in inner if s[2] == name and s[5])

    samples = attr_sum("quantize_complex_with_steps", "samples")
    rows = attr_sum("write_cdf_csv", "rows")
    gflop = sum(
        _complex_gram_inverse_flop(s[5]["m"], s[5]["k"])
        for s in inner if s[2] == "error_covariance" and s[5]
    ) / 1e9
    distinct = len({s[5]["key"] for s in inner if s[2] == "distortion_covariance" and s[5]})
    return {
        "quantizer.optimal_step_calls": n("optimal_step"),
        "quantizer.bussgang_coeff_s": t("bussgang_alpha", "power_gain_gamma"),
        "quantizer.quantize_s": t("quantize_complex_with_steps"),
        "quantizer.quantize_calls": n("quantize_complex_with_steps"),
        "quantizer.quantized_samples": samples,
        "quantizer.quantize_ns_per_sample":
            1e9 * t("quantize_complex_with_steps") / samples if samples else 0.0,
        "channel.geometry_s": t("draw_geometry", "large_scale_gains"),
        "channel.geometry_draws": n("draw_geometry"),
        "channel.fading_s": t("draw_small_scale"),
        "channel.fading_draws": n("draw_small_scale"),
        "estimation.closed_form_s": t("estimation_mse", "lmmse_coefficient"),
        "estimation.closed_form_calls": n("estimation_mse") + n("lmmse_coefficient"),
        "detection.error_cov_s": t("error_covariance"),
        "detection.error_cov_calls": n("error_covariance"),
        "detection.error_cov_gflop": gflop,
        "detection.distortion_cov_s": t("distortion_covariance"),
        "detection.distortion_cov_calls": n("distortion_covariance"),
        "detection.distortion_cov_useful_ratio":
            distinct / n("distortion_covariance") if n("distortion_covariance") else 0.0,
        "detection.mmse_weights_s": t("mmse_weights"),
        "detection.mmse_weights_calls": n("mmse_weights"),
        "detection.weights_cov_s": t("error_covariance_for_weights"),
        "detection.cond_warnings": job[5]["cond_warnings"] if job[5] else 0,
        "simulation.cdf_sort_s": t("make_cdf"),
        "simulation.csv_write_s": t("write_cdf_csv"),
        "simulation.csv_rows": rows,
        "simulation.csv_bytes": attr_sum("write_cdf_csv", "bytes"),
        "simulation.csv_rows_per_s": rows / t("write_cdf_csv") if rows else 0.0,
        "simulation.self_s": _self_time(children, job),
    }


def layer_metrics(spans, zgemm_peak_gflops):
    """Median over traced jobs of each per-job figure, plus the set-up
    figures of the step solver and the BLAS-bound comparison."""
    children = _descendants(spans)
    jobs = [job_layer_metrics(children, job) for job in _roots(spans, "job")]
    out = {key: statistics.median(job[key] for job in jobs) for key in jobs[0]}
    setup = [s for root in _roots(spans, "setup") for s in _subtree(children, root)]
    out["quantizer.optimal_step_s"] = sum(
        _self_time(children, s) for s in setup if s[2] == "optimal_step"
    )
    out["detection.zgemm_peak_gflops"] = zgemm_peak_gflops
    achieved = (
        out["detection.error_cov_gflop"] / out["detection.error_cov_s"]
        if out["detection.error_cov_s"] else 0.0
    )
    out["detection.error_cov_frac_of_peak"] = achieved / zgemm_peak_gflops
    return out
