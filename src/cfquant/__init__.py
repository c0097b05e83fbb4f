"""Link-level simulator for cell-free massive MIMO uplinks whose access
points forward uniformly quantized baseband samples over a fronthaul.

The package models the quantizer through its Bussgang linearization,
estimates channels with per-coefficient LMMSE scaling of pilot
correlations, detects data with an MMSE receiver that accounts for the
quantization distortion (``mmse_receiver``, with its error covariance),
and runs Monte Carlo campaigns producing empirical CDFs of normalized
estimation MSE and per-user SINR.
"""

from .quantizer import (
    FlatObjectiveWarning,
    bussgang_row,
    distortion_power,
    fronthaul,
    optimal_step,
    quantize,
    sdnr,
)
from .channel import (
    PathLossModel,
    complex_normal,
    draw_geometry,
    draw_small_scale,
    large_scale_gains,
    noise_variance,
    path_loss,
    received_variance,
)
from .estimation import (
    correlate_all,
    estimation_mse,
    lmmse_coefficient,
    make_pilot_book,
    simulate_pilot_phase,
)
from .detection import (
    error_variances,
    mmse_receiver,
    per_user_sinr,
    simulate_uplink,
)
from .simulation import (
    CdfSeries,
    SimulationConfig,
    run_nmse_campaign,
    run_sinr_campaign,
    validate_closed_forms,
    write_cdf_csv,
)

__version__ = "0.1.0"
