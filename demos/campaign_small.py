# Desk-scale versions of the two headline experiments: how fronthaul
# resolution moves the CDF of normalized channel-estimation MSE and of
# per-user SINR.  Writes the same CSV files the CLI produces.
#
# Run: python demos/campaign_small.py

import numpy as np

from cfquant import SimulationConfig, run_nmse_campaign, run_sinr_campaign, write_cdf_csv
from cfquant.simulation import (
    NMSE_DEFAULT_BITS,
    SINR_DEFAULT_BITS,
    bussgang_table,
    campaign_manifest,
)

cfg = SimulationConfig(m_aps=60, k_users=12, n_geometries=10, n_smallscale=4, seed=7)
print(f"network: {cfg.m_aps} APs, {cfg.k_users} users, "
      f"{cfg.n_geometries} geometry draws, seed {cfg.seed}")

# Step, alpha and gamma per bit depth; the manifests record what ran.
nmse_table = bussgang_table(NMSE_DEFAULT_BITS)
nmse = run_nmse_campaign(cfg, table=nmse_table)
print("\nnormalized estimation MSE, median per bit depth (0 = unquantized):")
for series in nmse:
    med = np.median(series.values)
    p95 = np.quantile(series.values, 0.95)
    print(f"  b={series.label:>2}: median {med:.5f}   95th pct {p95:.5f}")

sinr_table = bussgang_table(SINR_DEFAULT_BITS)
sinr = run_sinr_campaign(cfg, table=sinr_table)
print("\nper-user SINR [dB], median per bit depth:")
for series in sinr:
    print(f"  b={series.label:>2}: median {np.median(series.values):6.2f}   "
          f"5th pct {np.quantile(series.values, 0.05):6.2f}")

out = "demo_results"
write_cdf_csv(nmse, out, campaign="nmse",
              manifest=campaign_manifest(cfg, "nmse", NMSE_DEFAULT_BITS,
                                         bussgang_table=nmse_table))
write_cdf_csv(sinr, out, campaign="sinr",
              manifest=campaign_manifest(cfg, "sinr", SINR_DEFAULT_BITS,
                                         bussgang_table=sinr_table))
print(f"\nCDF files written to ./{out}/ (value,cum_prob rows, one file per depth)")
