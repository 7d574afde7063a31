"""Synthetic multi-user MISO scenarios and the Gaussian channel-error model.

A base station with N_t antennas serves K single-antenna users. The BS only
knows an estimate h_est of each user's channel; the true channel is
h = h_est + e with e ~ CN(m, C). The i.i.d. case C = sigma_e^2 * I, m = 0 is
the one used throughout the simulation protocol, but the general model is
supported as well.
"""

import json
from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-12


def _standard_complex(rng: np.random.Generator, shape) -> np.ndarray:
    """Draw CN(0, I) samples of the given shape.

    Real and imaginary parts are interleaved in a single draw so that the
    first n rows of a length-2n draw equal a length-n draw (stable prefixes
    for Monte-Carlo trial counts).
    """
    z = rng.standard_normal(size=tuple(shape) + (2,))
    return (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)


@dataclass
class UncertaintyModel:
    """Distribution of the channel estimation error e ~ CN(mean_vector, covariance)."""

    mean_vector: np.ndarray
    covariance: np.ndarray
    iid_flag: bool = False
    iid_std: float = 0.0

    def __post_init__(self):
        self.mean_vector = np.asarray(self.mean_vector, dtype=complex)
        self.covariance = np.asarray(self.covariance, dtype=complex)
        n = self.mean_vector.shape[0]
        if self.covariance.shape != (n, n):
            raise ValueError("covariance shape does not match mean vector")
        herm_err = np.max(np.abs(self.covariance - self.covariance.conj().T))
        if herm_err > HERMITIAN_TOL * max(1.0, np.max(np.abs(self.covariance))):
            raise ValueError(f"covariance is not Hermitian (error {herm_err:.2e})")
        if self.iid_flag:
            if self.iid_std < 0:
                raise ValueError("iid_std must be nonnegative")
            expected = self.iid_std ** 2 * np.eye(n)
            if np.max(np.abs(self.covariance - expected)) > HERMITIAN_TOL:
                raise ValueError("iid model requires covariance sigma_e^2 * I")
            if np.any(self.mean_vector != 0):
                raise ValueError("iid model requires zero mean")
        else:
            eigvals = np.linalg.eigvalsh(self.covariance)
            if eigvals.size and eigvals[0] < -PSD_TOL:
                raise ValueError(f"covariance is not PSD (min eigenvalue {eigvals[0]:.2e})")

    @classmethod
    def iid(cls, sigma_e: float, n_antennas: int) -> "UncertaintyModel":
        """Zero-mean error with covariance sigma_e^2 * I."""
        return cls(
            mean_vector=np.zeros(n_antennas, dtype=complex),
            covariance=sigma_e ** 2 * np.eye(n_antennas),
            iid_flag=True,
            iid_std=float(sigma_e),
        )

    @classmethod
    def general(cls, mean_vector, covariance) -> "UncertaintyModel":
        return cls(mean_vector=mean_vector, covariance=covariance)

    def sqrt_covariance(self) -> np.ndarray:
        """Hermitian square root of the covariance (eigenvalue clipping at 0)."""
        if self.iid_flag:
            return self.iid_std * np.eye(self.mean_vector.shape[0])
        eigvals, eigvecs = np.linalg.eigh(self.covariance)
        eigvals = np.clip(eigvals, 0.0, None)
        return (eigvecs * np.sqrt(eigvals)) @ eigvecs.conj().T


@dataclass
class UserChannel:
    """Per-user channel state: truth, estimate, error model and QoS targets."""

    h_true: np.ndarray
    h_est: np.ndarray
    uncertainty: UncertaintyModel
    noise_power: float          # receiver noise sigma_k^2, Watts
    sinr_target: float          # gamma_k, linear scale
    outage_tolerance: float     # delta_k

    def __post_init__(self):
        self.h_true = np.asarray(self.h_true, dtype=complex)
        self.h_est = np.asarray(self.h_est, dtype=complex)
        if self.h_true.shape != self.h_est.shape:
            raise ValueError("h_true and h_est must have the same shape")
        if self.sinr_target <= 0:
            raise ValueError("sinr_target must be positive")
        if self.noise_power <= 0:
            raise ValueError("noise_power must be positive")
        if not 0 < self.outage_tolerance < 1:
            raise ValueError("outage_tolerance must lie in (0, 1)")


@dataclass
class Scenario:
    """An ordered set of users sharing one base station."""

    users: list
    n_antennas: int
    rng_seed: int = 0

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
        """Per-user i.i.d. error standard deviations sigma_e.

        The design chain models errors as CN(0, sigma_e^2 I); a user with a
        general error model has no such sigma_e, so it raises ValueError.
        """
        general = [k for k, u in enumerate(self.users) if not u.uncertainty.iid_flag]
        if general:
            raise ValueError(f"users {general} have a general error model; "
                             "the design chain needs sigma_e^2 I covariances")
        return np.array([u.uncertainty.iid_std for u in self.users])


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
    delta: float = 0.05


def generate_scenario(geometry: GeometryConfig, fading: FadingConfig, seed) -> Scenario:
    """Drop users uniformly in a disc and draw Rayleigh channels.

    h_true = sqrt(gain) * g with g ~ CN(0, I), and the BS sees
    h_est = h_true - e with e ~ CN(0, sigma_e^2 I). Deterministic given seed.
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
    h_true = np.sqrt(gain)[:, None] * g
    e = fading.sigma_e * _standard_complex(rng, (k, nt))
    h_est = h_true - e

    noise_w = 10.0 ** (fading.noise_dbm / 10.0) / 1000.0
    gamma = 10.0 ** (fading.gamma_db / 10.0)

    users = []
    for i in range(k):
        users.append(UserChannel(
            h_true=h_true[i],
            h_est=h_est[i],
            uncertainty=UncertaintyModel.iid(fading.sigma_e, nt),
            noise_power=noise_w,
            sinr_target=gamma,
            outage_tolerance=fading.delta,
        ))
    return Scenario(users=users, n_antennas=nt, rng_seed=seed if isinstance(seed, int) else 0)


def draw_errors(user: UserChannel, n_draws: int, seed) -> np.ndarray:
    """Draw n_draws error realizations e ~ CN(m, C), shape (n_draws, N_t).

    ``seed`` may be anything np.random.default_rng accepts (int, SeedSequence,
    Generator). Prefixes are stable: increasing n_draws keeps earlier rows.
    """
    rng = np.random.default_rng(seed)
    model = user.uncertainty
    n = model.mean_vector.shape[0]
    g = _standard_complex(rng, (n_draws, n))
    if model.iid_flag:
        return model.iid_std * g
    root = model.sqrt_covariance()
    return model.mean_vector + g @ root.T


# ---------------------------------------------------------------------------
# JSON serialization. Complex vectors are stored as [re, im] pairs. Only the
# iid error model round-trips; the schema carries a single sigma_e per user.
# ---------------------------------------------------------------------------

def _encode_cvec(v: np.ndarray) -> list:
    return [[float(x.real), float(x.imag)] for x in v]


def _decode_cvec(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def scenario_to_dict(scenario: Scenario) -> dict:
    users = []
    for u in scenario.users:
        if not u.uncertainty.iid_flag:
            raise ValueError("only iid uncertainty models serialize to JSON")
        users.append({
            "h_true": _encode_cvec(u.h_true),
            "h_est": _encode_cvec(u.h_est),
            "sigma_e": float(u.uncertainty.iid_std),
            "noise_power": float(u.noise_power),
            "gamma": float(u.sinr_target),
            "delta": float(u.outage_tolerance),
        })
    return {
        "n_antennas": scenario.n_antennas,
        "rng_seed": scenario.rng_seed,
        "users": users,
    }


def scenario_from_dict(doc: dict) -> Scenario:
    nt = int(doc["n_antennas"])
    users = []
    for entry in doc["users"]:
        users.append(UserChannel(
            h_true=_decode_cvec(entry["h_true"]),
            h_est=_decode_cvec(entry["h_est"]),
            uncertainty=UncertaintyModel.iid(float(entry["sigma_e"]), nt),
            noise_power=float(entry["noise_power"]),
            sinr_target=float(entry["gamma"]),
            outage_tolerance=float(entry["delta"]),
        ))
    return Scenario(users=users, n_antennas=nt, rng_seed=int(doc.get("rng_seed", 0)))


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))
