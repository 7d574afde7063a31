"""Synthetic multi-user MISO scenarios and the Gaussian channel-error model.

A base station with N_t antennas serves K single-antenna users. The BS only
knows an estimate h_est of each user's channel; the true channel is
h = h_est + e with i.i.d. errors e ~ CN(0, sigma_e^2 I), one sigma_e per user.
"""

import json
from dataclasses import dataclass

import numpy as np


def _standard_complex(rng: np.random.Generator, shape) -> np.ndarray:
    """Draw CN(0, I) samples of the given shape.

    Real and imaginary parts are interleaved in a single draw so that the
    first n rows of a length-2n draw equal a length-n draw (stable prefixes
    for Monte-Carlo trial counts).
    """
    z = rng.standard_normal(size=tuple(shape) + (2,)).view(np.complex128)[..., 0]
    z /= np.sqrt(2.0)
    return z


@dataclass
class UserChannel:
    """Per-user channel state: estimate, error size and QoS targets.

    The true channel is h = h_est + e with e ~ CN(0, sigma_e^2 I).
    """

    h_est: np.ndarray
    sigma_e: float              # error standard deviation per antenna
    noise_power: float          # receiver noise sigma_k^2, Watts
    sinr_target: float          # gamma_k, linear scale

    def __post_init__(self):
        self.h_est = np.asarray(self.h_est, dtype=complex)
        self.sigma_e = float(self.sigma_e)
        if not 0 <= self.sigma_e < np.inf:
            raise ValueError(f"sigma_e must be finite and nonnegative, got {self.sigma_e}")
        if not 0 < self.noise_power < np.inf:
            raise ValueError(f"noise_power must be finite and positive, got {self.noise_power}")
        if not 0 < self.sinr_target < np.inf:
            raise ValueError(f"sinr_target must be finite and positive, got {self.sinr_target}")
        if not np.all(np.isfinite(self.h_est)):
            raise ValueError("h_est must be finite")


@dataclass
class Scenario:
    """An ordered set of users sharing one base station."""

    users: list
    n_antennas: int

    def __post_init__(self):
        if len(self.users) < 1:
            raise ValueError("scenario needs at least one user")
        for u in self.users:
            if u.h_est.shape[0] != self.n_antennas:
                raise ValueError("all users must share n_antennas")

    @property
    def n_users(self) -> int:
        return len(self.users)

    def h_est_matrix(self) -> np.ndarray:
        """Estimated channels stacked as rows, shape (K, N_t)."""
        return np.array([u.h_est for u in self.users])

    def noise_vector(self) -> np.ndarray:
        return np.array([u.noise_power for u in self.users])

    def sinr_targets(self) -> np.ndarray:
        return np.array([u.sinr_target for u in self.users])

    def sigma_e_vector(self) -> np.ndarray:
        """Per-user error standard deviations sigma_e."""
        return np.array([u.sigma_e for u in self.users])


@dataclass
class GeometryConfig:
    """Cell geometry: user count, antenna count and cell radius."""

    n_users: int = 3
    n_antennas: int = 4
    radius_km: float = 3.2


@dataclass
class FadingConfig:
    """Large-scale model, error size and link targets.

    The path-loss reference distance is fixed at 1 km: the large-scale gain
    in dB is -10 * exponent * log10(d_km / 1 km) plus log-normal shadowing.
    """

    path_loss_exponent: float = 3.52
    shadowing_std_db: float = 8.0
    noise_dbm: float = -90.0
    sigma_e: float = 0.1
    gamma_db: float = 6.0


def generate_scenario(geometry: GeometryConfig, fading: FadingConfig, seed) -> Scenario:
    """Drop users uniformly in a disc and draw Rayleigh channels.

    The true channel is sqrt(gain) * g with g ~ CN(0, I); the BS sees
    h_est = sqrt(gain) * g - e with e ~ CN(0, sigma_e^2 I), and only h_est is
    kept. Deterministic given seed.
    """
    if geometry.n_users < 1 or geometry.n_antennas < 1:
        raise ValueError("n_users and n_antennas must be at least 1")
    if geometry.radius_km <= 0:
        raise ValueError("radius_km must be positive")

    rng = np.random.default_rng(seed)
    k, nt = geometry.n_users, geometry.n_antennas

    # uniform position in the disc: density of d is proportional to d
    d_km = geometry.radius_km * np.sqrt(rng.uniform(size=k))
    shadow_db = rng.normal(0.0, fading.shadowing_std_db, size=k)
    gain_db = -10.0 * fading.path_loss_exponent * np.log10(d_km / 1.0) + shadow_db
    gain = 10.0 ** (gain_db / 10.0)

    g = _standard_complex(rng, (k, nt))
    e = fading.sigma_e * _standard_complex(rng, (k, nt))
    h_est = np.sqrt(gain)[:, None] * g - e

    noise_w = 10.0 ** (fading.noise_dbm / 10.0) / 1000.0
    gamma = 10.0 ** (fading.gamma_db / 10.0)
    users = [UserChannel(h_est=h_est[i], sigma_e=fading.sigma_e,
                         noise_power=noise_w, sinr_target=gamma) for i in range(k)]
    return Scenario(users=users, n_antennas=nt)


def draw_errors(user: UserChannel, n_draws: int, seed) -> np.ndarray:
    """Draw n_draws error realizations e ~ CN(0, sigma_e^2 I), shape (n_draws, N_t).

    ``seed`` may be anything np.random.default_rng accepts (int, SeedSequence,
    Generator). Prefixes are stable: increasing n_draws keeps earlier rows.
    """
    rng = np.random.default_rng(seed)
    errors = _standard_complex(rng, (n_draws, user.h_est.shape[0]))
    errors *= user.sigma_e
    return errors


# ---------------------------------------------------------------------------
# JSON serialization. Complex vectors are stored as [re, im] pairs. Files
# written before the error model was reduced to one sigma_e also carry
# h_true, rng_seed and a per-user delta; loading ignores them.
# ---------------------------------------------------------------------------

def _encode_cvec(v: np.ndarray) -> list:
    return [[float(x.real), float(x.imag)] for x in v]


def _decode_cvec(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def scenario_to_dict(scenario: Scenario) -> dict:
    users = [{
        "h_est": _encode_cvec(u.h_est),
        "sigma_e": u.sigma_e,
        "noise_power": float(u.noise_power),
        "gamma": float(u.sinr_target),
    } for u in scenario.users]
    return {"n_antennas": scenario.n_antennas, "users": users}


def scenario_from_dict(doc: dict) -> Scenario:
    users = [UserChannel(
        h_est=_decode_cvec(entry["h_est"]),
        sigma_e=float(entry["sigma_e"]),
        noise_power=float(entry["noise_power"]),
        sinr_target=float(entry["gamma"]),
    ) for entry in doc["users"]]
    return Scenario(users=users, n_antennas=int(doc["n_antennas"]))


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))
