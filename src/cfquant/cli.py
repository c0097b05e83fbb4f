"""Command line front end: campaign runners, closed-form validation and the
quantizer design table.  Results go to CSV files or stdout; logs to stderr.
"""

import argparse
import logging
import math
import sys

from .quantizer import UniformQuantizer, bussgang_factors, optimal_step
from .simulation import (
    NMSE_DEFAULT_BITS,
    SINR_DEFAULT_BITS,
    SimulationConfig,
    bussgang_table,
    campaign_manifest,
    parse_config_file,
    run_nmse_campaign,
    run_sinr_campaign,
    validate_closed_forms,
    write_cdf_csv,
)

logger = logging.getLogger("cfquant")

_CONFIG_FLAGS = {
    "m_aps": int,
    "k_users": int,
    "l_serv_m": float,
    "snr_edge_db": float,
    "sigma_sh_db": float,
    "tau": int,
    "sigma_s2": float,
    "d0_m": float,
    "d1_m": float,
    "gamma0": float,
    "gamma1": float,
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
    settings = dict(defaults or {})
    if args.config:
        settings.update(parse_config_file(args.config))
    for name in _CONFIG_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            settings[name] = value
    if args.seed is not None:
        settings["seed"] = args.seed
    if bits is not None:
        settings["bits_list"] = bits
    if geoms is not None:
        settings["n_geometries"] = geoms
    if smallscale is not None:
        settings["n_smallscale"] = smallscale
    return SimulationConfig.from_mapping(settings)


def _parse_int_list(text):
    try:
        return tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _cmd_nmse(args):
    cfg = _build_config(args, bits=args.bits, geoms=args.geoms)
    bits_list = cfg.resolved_bits(NMSE_DEFAULT_BITS)
    logger.info(
        "nmse campaign: M=%d K=%d geometries=%d bits=%s seed=%d",
        cfg.m_aps, cfg.k_users, cfg.n_geometries, list(bits_list), cfg.seed,
    )
    table = bussgang_table(bits_list)
    series = run_nmse_campaign(cfg, n_workers=args.workers, table=table)
    manifest = campaign_manifest(cfg, "nmse", bits_list, bussgang_table=table)
    paths = write_cdf_csv(series, args.out, campaign="nmse", manifest=manifest)
    for path in paths:
        logger.info("wrote %s", path)
    return 0


def _cmd_sinr(args):
    cfg = _build_config(args, bits=args.bits, geoms=args.geoms, smallscale=args.smallscale)
    bits_list = cfg.resolved_bits(SINR_DEFAULT_BITS)
    logger.info(
        "sinr campaign: M=%d K=%d geometries=%d smallscale=%d bits=%s seed=%d%s",
        cfg.m_aps, cfg.k_users, cfg.n_geometries, cfg.n_smallscale, list(bits_list),
        cfg.seed, " (legacy noise scaling)" if args.legacy_eq21 else "",
    )
    table = bussgang_table(bits_list)
    series = run_sinr_campaign(
        cfg, n_workers=args.workers, legacy_eq21=args.legacy_eq21, table=table
    )
    manifest = campaign_manifest(
        cfg, "sinr", bits_list, legacy_eq21=args.legacy_eq21, bussgang_table=table
    )
    paths = write_cdf_csv(series, args.out, campaign="sinr", manifest=manifest)
    for path in paths:
        logger.info("wrote %s", path)
    return 0


def _cmd_validate(args):
    cfg = _build_config(args, defaults=_VALIDATE_DEFAULTS)
    logger.info("validation: M=%d K=%d trials=%d seed=%d", cfg.m_aps, cfg.k_users, args.trials, cfg.seed)
    try:
        results = validate_closed_forms(cfg, n_trials=args.trials)
    except ValueError as exc:
        raise SystemExit(f"validate: {exc}") from exc
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
        try:
            step = optimal_step(levels)
        except ValueError as exc:
            raise SystemExit(f"quantizer-table: {exc}") from exc
        f = bussgang_factors(UniformQuantizer(levels, step), 1.0)
        ratio_db = math.inf if math.isinf(f.sdnr) else 10.0 * math.log10(f.sdnr)
        print(f"{levels},{math.log2(levels):.6g},{step:.6g},{f.alpha:.6g},{f.gamma:.6g},{ratio_db:.6g}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sim",
        description="Quantized-fronthaul cell-free massive MIMO uplink simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_nmse = sub.add_parser("nmse-cdf", help="CDF of normalized channel-estimation MSE")
    _add_config_args(p_nmse)
    p_nmse.add_argument("--bits", type=_parse_int_list, help="bit depths, e.g. 4,6,8 (0 = unquantized)")
    p_nmse.add_argument("--geoms", type=int, help="number of geometry draws")
    p_nmse.add_argument("--out", default="results", help="output directory (default: results)")
    p_nmse.add_argument("--workers", type=int, default=1, help="parallel workers (default: 1)")
    p_nmse.set_defaults(func=_cmd_nmse)

    p_sinr = sub.add_parser("sinr-cdf", help="CDF of per-user SINR with perfect CSI")
    _add_config_args(p_sinr)
    p_sinr.add_argument("--bits", type=_parse_int_list, help="bit depths, e.g. 6,8,10 (0 = unquantized)")
    p_sinr.add_argument("--geoms", type=int, help="number of geometry draws")
    p_sinr.add_argument("--smallscale", type=int, help="fading draws per geometry")
    p_sinr.add_argument("--legacy-eq21", action="store_true",
                        help="receiver noise term without the squared linear gain")
    p_sinr.add_argument("--out", default="results", help="output directory (default: results)")
    p_sinr.add_argument("--workers", type=int, default=1, help="parallel workers (default: 1)")
    p_sinr.set_defaults(func=_cmd_sinr)

    p_val = sub.add_parser("validate", help="compare closed forms against direct simulation")
    _add_config_args(p_val)
    p_val.add_argument("--trials", type=int, default=100_000, help="Monte Carlo trials per check")
    p_val.set_defaults(func=_cmd_validate)

    p_table = sub.add_parser("quantizer-table", help="optimal step and linearization table")
    p_table.add_argument("--levels", type=_parse_int_list, required=True,
                         help="level counts, e.g. 2,4,8,16")
    p_table.set_defaults(func=_cmd_quantizer_table)
    return parser


def main(argv=None):
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
