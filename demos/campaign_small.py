# Desk-scale versions of the two headline experiments: how fronthaul
# resolution moves the CDF of normalized channel-estimation MSE and of
# per-user SINR.  Writes the same CSV files the CLI produces.
#
# Run: python demos/campaign_small.py

import numpy as np

from cfquant import SimulationConfig, run_nmse_campaign, run_sinr_campaign, write_cdf_csv

cfg = SimulationConfig(m_aps=60, k_users=12, n_geometries=10, n_smallscale=4, seed=7)
print(f"network: {cfg.m_aps} APs, {cfg.k_users} users, "
      f"{cfg.n_geometries} geometry draws, seed {cfg.seed}")

nmse = run_nmse_campaign(cfg)
print("\nnormalized estimation MSE, median per bit depth (0 = unquantized):")
for series in nmse:
    med = np.median(series.values)
    p95 = np.quantile(series.values, 0.95)
    print(f"  b={series.label:>2}: median {med:.5f}   95th pct {p95:.5f}")

sinr = run_sinr_campaign(cfg)
print("\nper-user SINR [dB], median per bit depth:")
for series in sinr:
    print(f"  b={series.label:>2}: median {np.median(series.values):6.2f}   "
          f"5th pct {np.quantile(series.values, 0.05):6.2f}")

out = "demo_results"
# nmse_manifest.json and sinr_manifest.json record the configuration and the step,
# alpha, gamma and gap of each bit depth whose CSV is written beside them.
write_cdf_csv(nmse, out, campaign="nmse", cfg=cfg)
write_cdf_csv(sinr, out, campaign="sinr", cfg=cfg)
print(f"\nCDF files written to ./{out}/ (value,cum_prob rows, one file per depth)")
