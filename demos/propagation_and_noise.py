# The propagation layer: three-slope path loss, log-normal shadowing,
# the edge-SNR noise anchor, and the per-AP received variance that sizes
# each fronthaul quantizer.
#
# Run: python demos/propagation_and_noise.py

import numpy as np

from cfquant import (
    PathLossModel,
    draw_geometry,
    large_scale_gains,
    noise_variance,
    path_loss,
    received_variance,
)

model = PathLossModel()  # d0=10 m, d1=100 m, exponents 2 and 3.5

print("distance [m]   gain [dB]")
for d in (1, 5, 10, 30, 100, 300, 500, 1000):
    print(f"{d:10d}   {10 * np.log10(path_loss(d, model)):9.2f}")

# The noise floor is anchored so a user at half the service width is
# received at the configured edge SNR.
snr_edge = 10.0 ** (20.0 / 10.0)
sigma_n2 = noise_variance(model, l_serv=1000.0, snr_edge=snr_edge)
print(f"\nnoise variance at 20 dB edge SNR: {sigma_n2:.4e}")
print(f"identity check PL(500 m)/SNR:     {path_loss(500.0, model) / snr_edge:.4e}")

# One network drop: the spread of the per-AP received variance is what
# makes per-AP quantizer sizing matter.
rng = np.random.default_rng(3)
ap, ut = draw_geometry(m_aps=200, k_users=40, l_serv=1000.0, rng=rng)
beta = large_scale_gains(ap, ut, model, sigma_sh_db=8.0, rng=rng)
sigma_m2 = received_variance(beta, 1.0, sigma_n2)  # unit symbol power
print(f"\n200 APs, 40 users, 8 dB shadowing:")
print(f"  per-AP received variance: median {np.median(sigma_m2):.3f}, "
      f"min {sigma_m2.min():.3f}, max {sigma_m2.max():.3f}")
print(f"  dynamic range across APs: {10 * np.log10(sigma_m2.max() / sigma_m2.min()):.1f} dB")
