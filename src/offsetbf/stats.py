"""Beamformer sets and offset-outage conversions.

For user k with SINR target gamma_k, define
    Q_k = beta_k u_k u_k^H / gamma_k - sum_{j != k} beta_j u_j u_j^H,
    f_k(e) = h_e^H Q_k h_e + 2 Re(e^H Q_k h_e) + e^H Q_k e - sigma_k^2.
Then f_k(e) >= 0 iff SINR_k >= gamma_k for the true channel h = h_e + e.
The offset design enforces mu_f >= r * sigma_f, where (mu_f, sigma_f) are the
mean and standard deviation of f_k under the Gaussian error model. Both
moments, exact and simplified, are computed by powerload.CouplingMatrix.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, ndtri


@dataclass
class BeamformerSet:
    """Unit-norm directions (rows) plus nonnegative power loading.

    The beamformer of user k is w_k = sqrt(powers[k]) * directions[k].
    """

    directions: np.ndarray  # (K, N_t) complex, unit-norm rows
    powers: np.ndarray      # (K,) Watts

    def __post_init__(self):
        self.directions = np.asarray(self.directions, dtype=complex)
        self.powers = np.asarray(self.powers, dtype=float)
        norms = np.linalg.norm(self.directions, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError(f"directions must be unit norm, got norms {norms}")
        if np.any(self.powers < 0):
            raise ValueError(f"powers must be nonnegative, got {self.powers}")

    @property
    def n_users(self) -> int:
        return self.directions.shape[0]

    def weights(self) -> np.ndarray:
        """Beamformers w_k = sqrt(beta_k) u_k stacked as rows."""
        return np.sqrt(self.powers)[:, None] * self.directions


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
        return float(ndtri(1.0 - delta))
    raise ValueError(f"unknown mode {mode!r}, expected 'cantelli' or 'gaussian'")


def predicted_outage(mu, sigma) -> np.ndarray:
    """Gaussian-approximation outage Q(mu/sigma) = 0.5 erfc(mu / (sigma sqrt(2))).

    Elementwise over arrays; a degenerate sigma = 0 gives 0 when the mean
    constraint holds, else 1.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    degenerate = sigma == 0.0
    tail = 0.5 * erfc(mu / (np.where(degenerate, 1.0, sigma) * np.sqrt(2.0)))
    return np.where(degenerate, np.where(mu >= 0, 0.0, 1.0), tail)
