"""Command line front end: campaign runners, closed-form validation and the
quantizer design table.  Results go to CSV files or stdout; logs to stderr.
"""

import argparse
import ctypes
import logging
import math
import sys
import warnings

from .quantizer import bussgang_row, sdnr
from .simulation import (
    _FIELD_TYPES,
    NMSE_DEFAULT_BITS,
    SINR_DEFAULT_BITS,
    SimulationConfig,
    campaign_manifest,
    parse_config_file,
    run_nmse_campaign,
    run_sinr_campaign,
    validate_closed_forms,
    write_cdf_csv,
)

logger = logging.getLogger("cfquant")

# One flag per config field, in field order; these four have flags of their own.
_CONFIG_FLAGS = {
    name: kind
    for name, kind in _FIELD_TYPES.items()
    if name not in {"bits_list", "n_geometries", "n_smallscale", "seed"}
}

# Small defaults for validate unless the user says otherwise: the
# sample-level pipeline is quadratic in the network size.  Shadowing is off
# by default because it only rescales the gains while pushing the
# quantized-pipeline bridge checks into the regime where the closed forms'
# cross-AP independence approximation becomes visible.
_VALIDATE_DEFAULTS = {"m_aps": 10, "k_users": 4, "sigma_sh_db": 0.0}


def _add_config_args(parser):
    parser.add_argument("--config", metavar="FILE", help="flat key=value settings file")
    parser.add_argument("--seed", type=int, help="master seed for all substreams")
    for name, kind in _CONFIG_FLAGS.items():
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name, type=kind)


def _build_config(args, bits=None, geoms=None, smallscale=None, defaults=None):
    """The run's config: defaults, then the config file, then the flags."""
    flags = {name: getattr(args, name, None) for name in _CONFIG_FLAGS}
    flags.update(seed=args.seed, bits_list=bits, n_geometries=geoms, n_smallscale=smallscale)
    settings = dict(defaults or {})
    if args.config:
        settings.update(parse_config_file(args.config))
    settings.update((name, value) for name, value in flags.items() if value is not None)
    return SimulationConfig.from_mapping(settings)


def _parse_int_list(text):
    try:
        return tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _worker_count(text):
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _cmd_nmse(args):
    cfg = _build_config(args, bits=args.bits, geoms=args.geoms)
    return _campaign_command(args, cfg, "nmse", run_nmse_campaign, NMSE_DEFAULT_BITS,
                             f"geometries={cfg.n_geometries}")


def _cmd_sinr(args):
    cfg = _build_config(args, bits=args.bits, geoms=args.geoms, smallscale=args.smallscale)
    return _campaign_command(args, cfg, "sinr", run_sinr_campaign, SINR_DEFAULT_BITS,
                             f"geometries={cfg.n_geometries} smallscale={cfg.n_smallscale}",
                             " (legacy noise scaling)" if args.legacy_eq21 else "",
                             legacy_eq21=args.legacy_eq21)


def _campaign_command(args, cfg, campaign, run, default_bits, trials, note="", **extra):
    """Run a campaign, write its CSVs and manifest and log each path; ``trials`` and
    ``note`` complete the first log line, and ``extra`` goes to the runner and manifest."""
    bits_list = cfg.resolved_bits(default_bits)
    logger.info("%s campaign: M=%d K=%d %s bits=%s seed=%d%s",
                campaign, cfg.m_aps, cfg.k_users, trials, list(bits_list), cfg.seed, note)
    series = run(cfg, n_workers=args.workers, **extra)
    manifest = campaign_manifest(cfg, campaign, bits_list, **extra)
    for path in write_cdf_csv(series, args.out, campaign=campaign, manifest=manifest):
        logger.info("wrote %s", path)
    return 0


def _cmd_validate(args):
    cfg = _build_config(args, defaults=_VALIDATE_DEFAULTS)
    logger.info("validation: M=%d K=%d trials=%d seed=%d", cfg.m_aps, cfg.k_users, args.trials, cfg.seed)
    results = validate_closed_forms(cfg, n_trials=args.trials)
    failures = 0
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        failures += 0 if check.passed else 1
        print(f"{status} {check.name}: statistic={check.statistic:.4g} "
              f"threshold={check.threshold:.4g} ({check.detail})")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def _cmd_quantizer_table(args):
    print("levels,bits,step_opt,alpha,gamma,sdnr_db")
    for levels in args.levels:
        row = bussgang_row(levels)
        step, alpha, gamma = row["step"], row["alpha"], row["gamma"]
        ratio = sdnr(alpha, gamma)
        ratio_db = math.inf if math.isinf(ratio) else 10.0 * math.log10(ratio)
        print(f"{levels},{math.log2(levels):.6g},{step:.6g},{alpha:.6g},{gamma:.6g},{ratio_db:.6g}")
    return 0


def _add_campaign_parser(sub, name, summary, func, bits_example, *extra):
    """A campaign command: the config flags, --bits, --geoms, the command's own
    ``extra`` (flag, keyword arguments) pairs, --out and --workers."""
    parser = sub.add_parser(name, help=summary)
    _add_config_args(parser)
    parser.add_argument("--bits", type=_parse_int_list,
                        help=f"bit depths, e.g. {bits_example} (0 = unquantized)")
    parser.add_argument("--geoms", type=int, help="number of geometry draws")
    for flag, kwargs in extra:
        parser.add_argument(flag, **kwargs)
    parser.add_argument("--out", default="results", help="output directory (default: results)")
    parser.add_argument("--workers", type=_worker_count,
                        help="trial threads, the calling one included (default: usable cores)")
    parser.set_defaults(func=func)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sim",
        description="Quantized-fronthaul cell-free massive MIMO uplink simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_campaign_parser(sub, "nmse-cdf", "CDF of normalized channel-estimation MSE", _cmd_nmse,
                         "4,6,8")
    _add_campaign_parser(
        sub, "sinr-cdf", "CDF of per-user SINR with perfect CSI", _cmd_sinr, "6,8,10",
        ("--smallscale", dict(type=int, help="fading draws per geometry")),
        ("--legacy-eq21", dict(action="store_true",
                               help="receiver noise term without the squared linear gain")),
    )

    p_val = sub.add_parser("validate", help="compare closed forms against direct simulation")
    _add_config_args(p_val)
    p_val.add_argument("--trials", type=int, default=100_000, help="Monte Carlo trials per check")
    p_val.set_defaults(func=_cmd_validate)

    p_table = sub.add_parser("quantizer-table", help="optimal step and linearization table")
    p_table.add_argument("--levels", type=_parse_int_list, required=True,
                         help="level counts, e.g. 2,4,8,16")
    p_table.set_defaults(func=_cmd_quantizer_table)
    return parser


def _keep_freed_blocks():
    """Set glibc's mmap and trim thresholds to the maxima its own dynamic
    thresholds reach, 32 and 64 MiB, so the arrays of a few hundred KB to a
    few MB that each Monte Carlo check, block or run and each fading draw
    allocates and frees are reused from the heap, not mapped or trimmed and
    faulted in afresh every time.  Without this, a warm job takes about 11k
    minor page faults on validate (some 2k per Monte Carlo check, on either
    thread, all in the check's first blocks, as they touch its arrays),
    0.4k-0.9k on sinr-cdf and 0.8k on sinr-cdf --legacy-eq21, against 3-220,
    0-190 and 0-4 with it; peak RSS is the same.  Without glibc, do nothing."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform == "linux" else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _log_warning(message, category, filename, lineno, file=None, line=None):
    """A library warning as one log line, without its source location."""
    logger.warning("%s: %s", category.__name__, message)


def main(argv=None):
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    _keep_freed_blocks()
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _log_warning
            return args.func(args)
    except (OSError, ValueError) as exc:
        # An invalid setting, an unreadable or unwritable file, or a run the
        # models cannot complete ends the command with a one-line message.
        raise SystemExit(f"{args.command}: {exc}") from exc


if __name__ == "__main__":
    raise SystemExit(main())
