"""Offset-outage conversions.

For user k with SINR target gamma_k, define
    Q_k = beta_k u_k u_k^H / gamma_k - sum_{j != k} beta_j u_j u_j^H,
    f_k(e) = h_e^H Q_k h_e + 2 Re(e^H Q_k h_e) + e^H Q_k e - sigma_k^2.
Then f_k(e) >= 0 iff SINR_k >= gamma_k for the true channel h = h_e + e.
The offset design enforces mu_f >= r * sigma_f, where (mu_f, sigma_f) are the
mean and standard deviation of f_k under the Gaussian error model. Both
moments, exact and simplified, are computed by powerload.CouplingMatrix.

This is the package's one Gaussian module. It takes Phi^{-1} and erfc from
the standard library (statistics.NormalDist and math.erfc), so the package
needs numpy alone; powerload fits its outage surrogate to predicted_outage.
"""

import math
from statistics import NormalDist

import numpy as np

_erfc = np.frompyfunc(math.erfc, 1, 1)
R_MODES = ("cantelli", "gaussian")      # the modes of r_from_delta


def r_from_delta(delta: float, mode: str = "cantelli") -> float:
    """Offset coefficient for an outage tolerance delta.

    cantelli: r = sqrt(1/delta - 1), a safe bound for any error distribution.
    gaussian: r = Phi^{-1}(1 - delta), exact under the Gaussian approximation.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if mode == "cantelli":
        return float(np.sqrt(1.0 / delta - 1.0))
    if mode == "gaussian":
        return NormalDist().inv_cdf(1.0 - delta)
    raise ValueError(f"unknown mode {mode!r}, expected 'cantelli' or 'gaussian'")


def predicted_outage(mu, sigma) -> np.ndarray:
    """Gaussian-approximation outage Q(mu/sigma) = 0.5 erfc(mu / (sigma sqrt(2))).

    Elementwise over arrays, with math.erfc on each entry; a degenerate
    sigma = 0 gives 0 when the mean constraint holds, else 1.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    degenerate = sigma == 0.0
    z = mu / (np.where(degenerate, 1.0, sigma) * np.sqrt(2.0))
    tail = 0.5 * np.asarray(_erfc(z), dtype=float)
    return np.where(degenerate, np.where(mu >= 0, 0.0, 1.0), tail)
