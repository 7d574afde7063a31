"""Offset-based robust downlink beamforming for multi-user MISO systems.

The design target is a per-user offset between the mean and the standard
deviation of a quadratic SINR slack under i.i.d. Gaussian channel errors
e ~ CN(0, sigma_e^2 I), one sigma_e per user: constraining
mu_f_k >= r sigma_f_k bounds the outage probability without solving a conic
program. Modules:

channel     scenario generation, the CN(0, sigma_e^2 I) error model, serialization
stats       offset-outage conversions
lapack      numpy.linalg's LAPACK gufuncs without its per-call wrappers
directions  beamforming direction solvers (dual fixed point, baselines)
powerload   slack moments and power loading for fixed directions (QoS, max-r,
            perturbation), and the design report
montecarlo  empirical outage validation and power/outage sweeps
design      each algorithm id's directions and power loading, as one closure of r
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
