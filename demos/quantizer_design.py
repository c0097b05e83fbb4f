# Designing the fronthaul quantizer: optimal step size, linearization
# coefficients and SDNR as the per-sample bit budget grows.
#
# Run: python demos/quantizer_design.py

import warnings

import numpy as np

from cfquant import FlatObjectiveWarning, bussgang_row, quantize, sdnr

# ---------------------------------------------------------------
# Optimal normalized step per bit depth
# ---------------------------------------------------------------
# bussgang_row(L) is the row the campaigns run with: the SDNR-optimal
# step and the linear gain alpha, power ratio gamma and distortion gap
# gamma - alpha**2 there, at unit input variance.  The SDNR objective is flat for the 2-level quantizer,
# so the solver warns and returns the canonical minimum-distortion step.
print("bits  levels  step/sigma   alpha     gamma     SDNR [dB]")
for bits in range(1, 11):
    levels = 2**bits
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FlatObjectiveWarning)
        row = bussgang_row(levels)
    step, alpha, gamma = row["step"], row["alpha"], row["gamma"]
    print(
        f"{bits:4d}  {levels:6d}  {step:10.6f}  {alpha:.6f}  {gamma:.6f}"
        f"  {10 * np.log10(sdnr(alpha, row['gap'])):9.3f}"
    )

# Roughly 5.3 dB of SDNR per extra bit once the quantizer is fine enough,
# and alpha approaches 1 from below: the linearized model tends to the
# identity as the fronthaul budget grows.

# ---------------------------------------------------------------
# The closed-form gain really is the regression of output on input
# ---------------------------------------------------------------
# A quantizer is its level count and its step.  The input here has unit
# variance, so the normalized step is the step itself; at input std sigma
# the same row would quantize with step row["step"] * sigma.
rng = np.random.default_rng(7)
x = rng.normal(size=2_000_000)
row = bussgang_row(16)
gx = quantize(x, 16, row["step"])
alpha_mc = np.mean(x * gx)
print(f"\n16-level quantizer: closed-form alpha {row['alpha']:.6f}, "
      f"sampled E[x g(x)] {alpha_mc:.6f}")
resid = np.mean(x * (gx - row["alpha"] * x))
print(f"input-distortion correlation (should be ~0): {resid:+.2e}")
