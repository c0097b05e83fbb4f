# One pilot phase end to end: generate a network, quantize the received
# pilot block at every AP, estimate each channel coefficient at the
# central unit, and compare the realized squared error with the
# closed-form prediction.
#
# Run: python demos/estimation_walkthrough.py

import numpy as np

from cfquant import (
    NoiseModel,
    PathLossModel,
    UniformQuantizer,
    bussgang_alpha,
    draw_geometry,
    draw_small_scale,
    estimate_from_pilots,
    large_scale_gains,
    make_pilot_book,
    optimal_step,
    power_gain_gamma,
    simulate_pilot_phase,
)

M, K, BITS = 30, 8, 6
LEVELS = 2**BITS

rng = np.random.default_rng(42)
model = PathLossModel()
noise = NoiseModel.from_edge_snr_db(20.0, model, l_serv=1000.0)

geo = draw_geometry(M, K, 1000.0, rng)
beta = large_scale_gains(geo, model, 8.0, rng)
h = draw_small_scale(M, K, rng)
G = h * np.sqrt(beta)

# Every AP quantizes with the same normalized step; the absolute step
# follows its own received variance, so the linearization coefficients
# are shared across APs.
ref = UniformQuantizer(LEVELS, optimal_step(LEVELS))
alpha = bussgang_alpha(ref, 1.0)
gamma = power_gain_gamma(ref, 1.0)
print(f"{BITS}-bit fronthaul: alpha={alpha:.5f}, gamma={gamma:.5f}")

pilots = make_pilot_book(K, tau=K)
y = simulate_pilot_phase(G, pilots, noise, BITS, rng, beta)
est = estimate_from_pilots(y, pilots, beta, alpha, gamma, noise.sigma_n2)

realized = np.abs(est.g_hat - G) ** 2
print(f"\nrealized squared error, one shot: median {np.median(realized):.3e}")
print(f"closed-form MSE:                  median {np.median(est.mse):.3e}")
print(f"normalized MSE across pairs: median {np.median(est.nmse):.4f}, "
      f"worst {est.nmse.max():.4f}")

# The closed form predicts the average over fading and noise; averaging
# the realized error over many pilot phases converges to it.
trials = 400
acc = np.zeros((M, K))
for _ in range(trials):
    h = draw_small_scale(M, K, rng)
    G = h * np.sqrt(beta)
    y = simulate_pilot_phase(G, pilots, noise, BITS, rng, beta)
    est = estimate_from_pilots(y, pilots, beta, alpha, gamma, noise.sigma_n2)
    acc += np.abs(est.g_hat - G) ** 2
ratio = (acc / trials) / est.mse
print(f"\nempirical/closed-form MSE ratio over {trials} pilot phases: "
      f"median {np.median(ratio):.3f} (should be near 1)")
