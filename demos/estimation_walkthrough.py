# One pilot phase end to end: generate a network, quantize the received
# pilot block at every AP, estimate each channel coefficient at the
# central unit, and compare the realized squared error with the
# closed-form prediction.
#
# Run: python demos/estimation_walkthrough.py

import numpy as np

from cfquant import (
    PathLossModel,
    bussgang_row,
    complex_normal,
    correlate_all,
    draw_geometry,
    draw_small_scale,
    estimation_mse,
    large_scale_gains,
    lmmse_coefficient,
    make_pilot_book,
    noise_variance,
    simulate_pilot_phase,
)

M, K, BITS = 30, 8, 6
LEVELS = 2**BITS

rng = np.random.default_rng(42)
model = PathLossModel()
sigma_n2 = noise_variance(model, l_serv=1000.0, snr_edge=10.0 ** (20.0 / 10.0))  # 20 dB edge SNR

ap, ut = draw_geometry(M, K, 1000.0, rng)
beta = large_scale_gains(ap, ut, model, 8.0, rng)
h = draw_small_scale(M, K, rng)
G = h * np.sqrt(beta)

# Every AP quantizes with the same normalized step; the absolute step
# follows its own received variance, so the linearization coefficients
# are shared across APs.
row = bussgang_row(LEVELS)
alpha, gap = row["alpha"], row["gap"]  # gap: gamma - alpha**2, summed without cancellation
print(f"{BITS}-bit fronthaul: alpha={alpha:.5f}, gamma={row['gamma']:.5f}")

# The central unit correlates each AP's pilot block with every pilot and
# scales each correlation by its LMMSE coefficient, built from the
# large-scale gains; the closed forms give the resulting (normalized) MSE.
tau = K
pilots = make_pilot_book(K, tau)  # the (tau, K) pilot matrix
c = lmmse_coefficient(beta, tau, alpha, gap, sigma_n2)
mse, nmse = estimation_mse(beta, tau, alpha, gap, sigma_n2)
# The receiver noise of one pilot block, (M, tau) complex samples of variance
# sigma_n2, is drawn here; the pilot phase adds it to the clean samples and
# quantizes the sum in place.
noise_block = (M, tau)
noise_scale = np.sqrt(sigma_n2 / 2.0)
n = complex_normal(rng, noise_block, noise_scale)
y = simulate_pilot_phase(G, pilots, sigma_n2, BITS, n, beta)
g_hat = c * correlate_all(y, pilots)

realized = np.abs(g_hat - G) ** 2
print(f"\nrealized squared error, one shot: median {np.median(realized):.3e}")
print(f"closed-form MSE:                  median {np.median(mse):.3e}")
print(f"normalized MSE across pairs: median {np.median(nmse):.4f}, "
      f"worst {nmse.max():.4f}")

# The closed form predicts the average over fading and noise; averaging
# the realized error over many pilot phases converges to it.
trials = 400
acc = np.zeros((M, K))
for _ in range(trials):
    h = draw_small_scale(M, K, rng)
    G = h * np.sqrt(beta)
    n = complex_normal(rng, noise_block, noise_scale)
    y = simulate_pilot_phase(G, pilots, sigma_n2, BITS, n, beta)
    acc += np.abs(c * correlate_all(y, pilots) - G) ** 2
ratio = (acc / trials) / mse
print(f"\nempirical/closed-form MSE ratio over {trials} pilot phases: "
      f"median {np.median(ratio):.3f} (should be near 1)")
