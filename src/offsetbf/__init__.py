"""Offset-based robust downlink beamforming for multi-user MISO systems.

The design target is a per-user offset between the mean and the standard
deviation of a quadratic SINR slack under Gaussian channel uncertainty:
constraining mu_f_k >= r sigma_f_k bounds the outage probability without
solving a conic program. Modules:

channel     scenario generation, uncertainty models, serialization
stats       beamformer sets, SINR evaluation, offset-outage conversions
directions  beamforming direction solvers (dual fixed point, baselines)
powerload   slack moments and power loading for fixed directions (QoS, max-r,
            perturbation)
montecarlo  empirical outage validation and power/outage sweeps
cli         command-line front end
"""

__version__ = "1.0.0"

from .errors import ConvergenceError, DegenerateChannelsError, InfeasibleLoadingError

__all__ = [
    "ConvergenceError",
    "DegenerateChannelsError",
    "InfeasibleLoadingError",
    "__version__",
]
