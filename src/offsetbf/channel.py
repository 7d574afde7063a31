"""Synthetic multi-user MISO scenarios and the Gaussian channel-error model.

A base station with N_t antennas serves K single-antenna users. The BS only
knows an estimate h_est of each user's channel; the true channel is
h = h_est + e with i.i.d. errors e ~ CN(0, sigma_e^2 I), one sigma_e per user.
A Scenario stacks the users: the K x N_t estimate matrix and K-vectors of
error sizes, noise powers and SINR targets. generate_scenario draws one from a
CellConfig; draw_errors samples a user's errors; the JSON files keep one
entry per user.
"""

import json
from dataclasses import dataclass

import numpy as np

# sigma_e^4 enters the slack variance, and it overflows from 2^256 up
SIGMA_E_LIMIT = 2.0 ** 256
# a nonzero h_est row norm lies in [1 / H_EST_LIMIT, H_EST_LIMIT], so its square is normal
H_EST_LIMIT = 2.0 ** 500


def _standard_complex(rng: np.random.Generator, shape) -> np.ndarray:
    """Draw CN(0, I) samples of the given shape.

    Real and imaginary parts are interleaved in a single draw so that the
    first n rows of a length-2n draw equal a length-n draw (stable prefixes
    for Monte-Carlo trial counts).
    """
    z = rng.standard_normal(size=tuple(shape) + (2,))
    z *= 1.0 / np.sqrt(2.0)     # the bits of complex division by sqrt(2)
    return z.view(np.complex128)[..., 0]


@dataclass(eq=False)
class Scenario:
    """K users of one base station, stacked.

    Row k of h_est is user k's channel estimate; the true channel is
    h_k = h_est[k] + e_k with e_k ~ CN(0, sigma_e[k]^2 I). sigma_e,
    noise_power and sinr_target hold one entry per user, and a scalar
    broadcasts to every user. The arrays are copies owned by the scenario.
    """

    h_est: np.ndarray           # (K, N_t) channel estimates
    sigma_e: np.ndarray         # (K,) error standard deviation per antenna
    noise_power: np.ndarray     # (K,) receiver noise sigma_k^2, Watts
    sinr_target: np.ndarray     # (K,) gamma_k, linear scale

    def __post_init__(self):
        self.h_est = np.array(self.h_est, dtype=complex)
        if self.h_est.ndim != 2:
            raise ValueError(f"h_est must have shape (K, N_t), got {self.h_est.shape}")
        if self.h_est.shape[0] < 1:
            raise ValueError("scenario needs at least one user")
        for name, bound in (("sigma_e", "nonnegative"), ("noise_power", "positive"),
                            ("sinr_target", "positive")):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.ndim and value.shape != (self.n_users,):
                raise ValueError(f"{name} has {value.size} entries for "
                                 f"{self.n_users} users")
            value = np.full(self.n_users, value)
            ok = (value >= 0 if bound == "nonnegative" else value > 0) & (value < np.inf)
            if not ok.all():
                raise ValueError(f"{name} must be finite and {bound}, got {value[~ok][0]}")
            setattr(self, name, value)
        if (self.sigma_e >= SIGMA_E_LIMIT).any():
            raise ValueError(f"sigma_e must be below {SIGMA_E_LIMIT:.4g}, where sigma_e^4 "
                             f"overflows, got {self.sigma_e.max():g}")
        if not np.isfinite(self.h_est).all():
            raise ValueError("h_est must be finite")
        norms = np.hypot.reduce(np.abs(self.h_est), axis=1)     # without overflow
        outside = (norms > H_EST_LIMIT) | ((norms < 1 / H_EST_LIMIT) & (norms > 0))
        if outside.any():
            k = int(np.argmax(outside))
            raise ValueError(f"h_est row norms must be 0 or lie in [2^-500, 2^500], got "
                             f"{norms[k]:.4g} for user {k}")

    @property
    def n_users(self) -> int:
        return self.h_est.shape[0]

    @property
    def n_antennas(self) -> int:
        return self.h_est.shape[1]

    def subset(self, indices) -> "Scenario":
        """The users at `indices`, in that order, as a new scenario."""
        idx = np.asarray(indices, dtype=int)
        return Scenario(h_est=self.h_est[idx], sigma_e=self.sigma_e[idx],
                        noise_power=self.noise_power[idx],
                        sinr_target=self.sinr_target[idx])


@dataclass
class CellConfig:
    """A cell to draw: geometry, large-scale model, error size and link targets.

    The path-loss reference distance is fixed at 1 km: the large-scale gain
    in dB is -10 * exponent * log10(d_km / 1 km) plus log-normal shadowing.
    """

    n_users: int = 3
    n_antennas: int = 4
    radius_km: float = 3.2
    path_loss_exponent: float = 3.52
    shadowing_std_db: float = 8.0
    noise_dbm: float = -90.0
    sigma_e: float = 0.1
    gamma_db: float = 6.0


def generate_scenario(cell: CellConfig, seed) -> Scenario:
    """Drop users uniformly in a disc and draw Rayleigh channels.

    The true channel is sqrt(gain) * g with g ~ CN(0, I); the BS sees
    h_est = sqrt(gain) * g - e with e ~ CN(0, sigma_e^2 I), and only h_est is
    kept. Deterministic given seed.
    """
    if cell.n_users < 1 or cell.n_antennas < 1:
        raise ValueError("n_users and n_antennas must be at least 1")
    if cell.radius_km <= 0:
        raise ValueError("radius_km must be positive")
    for key in ("noise_dbm", "gamma_db"):
        try:
            10.0 ** (getattr(cell, key) / 10.0)
        except OverflowError:
            raise ValueError(f"{key} {getattr(cell, key)!r} overflows as a power ratio") from None

    rng = np.random.default_rng(seed)
    k, nt = cell.n_users, cell.n_antennas

    # uniform position in the disc: density of d is proportional to d
    d_km = cell.radius_km * np.sqrt(rng.uniform(size=k))
    shadow_db = rng.normal(0.0, cell.shadowing_std_db, size=k)
    with np.errstate(over="ignore", invalid="ignore"):
        gain_db = -10.0 * cell.path_loss_exponent * np.log10(d_km / 1.0) + shadow_db
        gain = 10.0 ** (gain_db / 10.0)
    if np.isinf(gain).any():
        raise ValueError(f"path_loss_exponent {cell.path_loss_exponent!r} and shadowing_std_db "
                         f"{cell.shadowing_std_db!r} put a large-scale gain beyond the float range")

    g = _standard_complex(rng, (k, nt))
    e = cell.sigma_e * _standard_complex(rng, (k, nt))
    h_est = np.sqrt(gain)[:, None] * g - e

    return Scenario(h_est=h_est, sigma_e=cell.sigma_e,
                    noise_power=10.0 ** (cell.noise_dbm / 10.0) / 1000.0,
                    sinr_target=10.0 ** (cell.gamma_db / 10.0))


def draw_errors(sigma_e: float, n_antennas: int, n_draws: int, seed) -> np.ndarray:
    """Draw n_draws error realizations e ~ CN(0, sigma_e^2 I), shape (n_draws, N_t).

    ``seed`` may be anything np.random.default_rng accepts (int, SeedSequence,
    Generator). Prefixes are stable: increasing n_draws keeps earlier rows.
    """
    rng = np.random.default_rng(seed)
    errors = _standard_complex(rng, (n_draws, n_antennas))
    parts = errors.view(float)      # real and imaginary parts, scaled in place
    parts *= sigma_e
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
        "h_est": _encode_cvec(scenario.h_est[k]),
        "sigma_e": float(scenario.sigma_e[k]),
        "noise_power": float(scenario.noise_power[k]),
        "gamma": float(scenario.sinr_target[k]),
    } for k in range(scenario.n_users)]
    return {"n_antennas": scenario.n_antennas, "users": users}


def scenario_from_dict(doc: dict) -> Scenario:
    """The scenario of a scenario_to_dict document; a document of the wrong
    shape or with a value of the wrong type raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("malformed scenario: the scenario must be a JSON object")
    try:
        for key in ("users", "n_antennas"):
            if key not in doc:
                raise ValueError(f"malformed scenario: no {key!r}")
        entries = doc["users"]
        nt = doc["n_antennas"]
        if isinstance(nt, bool) or not isinstance(nt, int) or nt < 1:
            raise ValueError(f"malformed scenario: n_antennas {nt!r} is not a positive integer")
        for k, entry in enumerate(entries):
            for key in ("h_est", "sigma_e", "noise_power", "gamma"):
                if key not in entry:
                    raise ValueError(f"malformed scenario: user {k} has no {key!r}")
                flat = [x for pair in entry[key] for x in pair] if key == "h_est" else [entry[key]]
                bad = [x for x in flat if isinstance(x, bool) or not isinstance(x, (int, float))]
                if bad:
                    raise ValueError(f"malformed scenario: user {k}'s {key} has non-number {bad[0]!r}")
        rows = [_decode_cvec(entry["h_est"]) for entry in entries]
        sigma_e, noise_power, gammas = [[float(entry[key]) for entry in entries]
                                        for key in ("sigma_e", "noise_power", "gamma")]
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed scenario: {exc}") from exc
    if any(row.shape != (nt,) for row in rows):
        raise ValueError("all users must share n_antennas")
    return Scenario(h_est=np.array(rows, dtype=complex).reshape(len(rows), nt),
                    sigma_e=sigma_e, noise_power=noise_power, sinr_target=gammas)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))
