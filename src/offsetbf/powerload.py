"""Robust power loading for fixed beamforming directions.

With directions fixed, the offset constraints mu_f_k = r_k sigma_f_k become
A beta = sigma^2 + sigma_f (.) r for a K x K coupling matrix A, with sigma_f
depending on beta through a quadratic form. This module provides the power
loading at given offsets and the max-common-offset loading under a power
budget, one Newton loop for both, user rescheduling, the power-saving cap,
and the average-outage perturbation of the offset coefficients, whose
quadratic outage surrogate is fitted to stats.predicted_outage. The
CouplingMatrix carries the directions, the noise powers and the resolved
variance mode, so the loaders take only the coupling. Each returns a
DesignReport, the one design value: a loading of its coupling, from which
the report derives its slack moments.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import lapack
from .directions import const_offset_directions
from .errors import ConvergenceError, DegenerateChannelsError, InfeasibleLoadingError
from .stats import predicted_outage

VARIANCE_MODES = ("exact", "simplified")
SIMPLIFIED_ABOVE_NT = 16
CDF_FIT_WINDOW = (1.0, 3.0)   # offsets r over which the outage surrogate is fitted
CDF_FIT_POINTS = 201
# the keys of a report's per-user rows, in order: the JSON rows and the CSV columns
USER_COLUMNS = ("index", "beta", "r", "mu_f", "sigma_f", "predicted_outage", "dropped")


@dataclass
class CouplingMatrix:
    """The K x K matrix A linking powers to the offset equalities, the noise
    powers sigma^2 and the variance tensor G of fixed unit-norm directions,
    for one variance mode. coupling_matrix builds it from a Scenario, whose
    noise_power it holds as sigma^2.

    This is the one implementation of the slack moments. The mean is linear in
    the powers, mu_f = A beta - sigma^2, with
    [A]_ii = (|h_i^H u_i|^2 + sigma_e_i^2) / gamma_i
    [A]_ij = -(|h_i^H u_j|^2 + sigma_e_i^2), i != j

    The slack variance is the quadratic form sigma_f_k^2 = beta^T G_k beta
    with
      [G_k]_jl = s_j s_l (2 sigma_e_k^2 Re((h_k^H u_j)(u_j^H u_l)(u_l^H h_k))
                 + sigma_e_k^4 |u_j^H u_l|^2),  s_j = 1/gamma_k if j == k else -1,
    so each update costs O(K^2) per user once G is cached. coupling_matrix
    resolves the variance mode once: the exact G is the full tensor, the
    simplified G keeps only the j == l terms, as if the directions were
    mutually orthogonal.
    """

    directions: np.ndarray                         # (K, N_t) complex, unit-norm rows
    a: np.ndarray
    a_inv: np.ndarray
    noise: np.ndarray                              # sigma^2, Watts
    variance_mode: str                             # "exact" or "simplified"
    g_tensor: np.ndarray = field(repr=False)       # (K, K, K)

    def sigma_f(self, beta: np.ndarray) -> np.ndarray:
        var = np.einsum("kjl,j,l->k", self.g_tensor, beta, beta)
        return np.sqrt(np.maximum(var, 0.0))

    def sigma_f_gradient(self, beta: np.ndarray, sigma_f: np.ndarray) -> np.ndarray:
        """Rows d sigma_f_k / d beta; zero rows where sigma_f_k is not positive."""
        return np.divide(np.einsum("kjl,l->kj", self.g_tensor, beta), sigma_f[:, None],
                         out=np.zeros((len(sigma_f), len(beta))),
                         where=(sigma_f > 0)[:, None])

    def mu_f(self, beta: np.ndarray) -> np.ndarray:
        return self.a @ beta - self.noise


@dataclass
class DesignReport:
    """A design: a nonnegative power loading of a coupling's directions.

    The report is built from the coupling, the powers and the per-user
    offsets r_k actually enforced (a scalar broadcasts); it derives mu_f and
    sigma_f, the slack moments of the coupling at these powers, their
    predicted outage and the total power. A negative power raises
    InfeasibleLoadingError. rescheduled lists the dropped users by their
    original indices; served_indices maps report rows back to the original
    user indices.
    """

    coupling: CouplingMatrix = field(repr=False)
    powers: np.ndarray
    offsets: np.ndarray
    iterations_used: int = 1
    note: str = ""
    rescheduled: list = field(default_factory=list)
    served_indices: list = None
    mu_f: np.ndarray = field(init=False)
    sigma_f: np.ndarray = field(init=False)
    predicted_outage: np.ndarray = field(init=False)
    total_power: float = field(init=False)

    def __post_init__(self):
        self.powers = np.asarray(self.powers, dtype=float)
        if (self.powers < 0).any():
            raise InfeasibleLoadingError(
                f"power loading has negative entries: {self.powers}",
                powers=self.powers)
        self.offsets = np.full(self.powers.shape, self.offsets, dtype=float)
        self.mu_f = self.coupling.mu_f(self.powers)
        self.sigma_f = self.coupling.sigma_f(self.powers)
        self.predicted_outage = predicted_outage(self.mu_f, self.sigma_f)
        self.total_power = float(self.powers.sum())
        if self.served_indices is None:
            self.served_indices = list(range(len(self.powers)))

    @property
    def directions(self) -> np.ndarray:
        """The coupling's unit-norm directions, one row per served user."""
        return self.coupling.directions

    def weights(self) -> np.ndarray:
        """Beamformers w_k = sqrt(beta_k) u_k stacked as rows."""
        return np.sqrt(self.powers)[:, None] * self.directions

    def to_dict(self) -> dict:
        """JSON values; the users, served and dropped, are USER_COLUMNS rows by index."""
        rows = list(zip(map(int, self.served_indices), self.powers.tolist(),
                        self.offsets.tolist(), self.mu_f.tolist(), self.sigma_f.tolist(),
                        self.predicted_outage.tolist(), [False] * len(self.powers)))
        rows += [(int(orig), 0.0, None, None, None, 1.0, True) for orig in self.rescheduled]
        rows.sort(key=lambda row: row[0])
        return {
            "total_power": float(self.total_power),
            "iterations_used": int(self.iterations_used),
            "variance_mode": self.coupling.variance_mode,
            "rescheduled": [int(i) for i in self.rescheduled],
            "note": self.note,
            "users": [dict(zip(USER_COLUMNS, row)) for row in rows],
        }


def coupling_matrix(scenario, directions: np.ndarray,
                    variance_mode=None) -> CouplingMatrix:
    """Build A, its inverse and the variance tensor for fixed directions of
    a Scenario's users; the noise powers are the scenario's.

    variance_mode None is exact up to SIMPLIFIED_ABOVE_NT antennas and
    simplified above. The simplified G is the exact one built from the
    diagonal of the Gram matrix u_j^H u_l. The directions must be K x N_t of
    the scenario, with unit-norm rows.
    """
    h_est, gammas, sigma_e = scenario.h_est, scenario.sinr_target, scenario.sigma_e
    k, n_antennas = h_est.shape
    directions = np.asarray(directions, dtype=complex)
    if directions.shape != h_est.shape:
        raise ValueError(f"directions have shape {directions.shape}, the scenario "
                         f"needs {h_est.shape}")
    norms = np.linalg.norm(directions, axis=1)
    if (np.abs(norms - 1.0) > 1e-9).any():
        raise ValueError(f"directions must be unit norm, got norms {norms}")
    if variance_mode is None:
        variance_mode = "exact" if n_antennas <= SIMPLIFIED_ABOVE_NT else "simplified"
    if variance_mode not in VARIANCE_MODES:
        raise ValueError(f"unknown variance_mode {variance_mode!r}")

    cross = h_est.conj() @ directions.T        # [i, j] = h_i^H u_j
    habs2 = np.abs(cross) ** 2
    a = -(habs2 + sigma_e[:, None] ** 2)
    a[np.diag_indices(k)] = (habs2.diagonal() + sigma_e ** 2) / gammas
    try:
        a_inv = lapack.checked(lapack.inv, a)
    except np.linalg.LinAlgError as exc:
        raise DegenerateChannelsError(f"coupling matrix is singular: {exc}") from exc

    gram = directions.conj() @ directions.T    # [j, l] = u_j^H u_l
    if variance_mode == "simplified":
        gram = np.diag(gram.diagonal())
    s = -np.ones((k, k))                       # [i, j] = s_j for user i
    s[np.diag_indices(k)] = 1.0 / gammas
    triple = np.real(cross[:, :, None] * gram * cross.conj()[:, None, :])
    # float_power rounds like the scalar power sigma_e_k ** p; on AVX-512 the
    # vectorized ** can differ from it in the last bit
    e2, e4 = (np.float_power(sigma_e, p)[:, None, None] for p in (2, 4))
    g_tensor = s[:, :, None] * s[:, None, :] * (2.0 * e2 * triple
                                                + e4 * np.abs(gram) ** 2)

    return CouplingMatrix(directions=directions, a=a, a_inv=a_inv,
                          noise=scenario.noise_power, variance_mode=variance_mode,
                          g_tensor=g_tensor)


def _newton_load(coupling: CouplingMatrix, beta, r, tol, max_iters, total_power=None):
    """Newton's method from beta on F = A beta - sigma^2 - r (.) sigma_f(beta)
    with J = A - r (.) d sigma_f / d beta, r given per user. A total_power makes
    the common r unknown too: the budget row 1^T beta - Pt joins F and borders
    J as [[J, -sigma_f], [1^T, 0]]. Stops when the relative steps of beta and r
    are below tol, and returns the DesignReport of that loading. The loop runs
    under np.errstate(all="ignore"): a step that leaves the float range, as
    when sigma_f^2 overflows at sigma_e near its 2^256 bound, raises
    ConvergenceError saying so, not a RuntimeWarning. A non-finite residual or
    Jacobian gives such a step, and the check costs nothing on finite steps,
    where testing the residual itself would cost each iteration an isfinite.
    Each step is a bare lapack.solve1, which fills a singular system's step
    with NaN, so a non-finite step that is NaN in every entry, from a finite
    Jacobian and residual, raises "power loading Jacobian is singular" instead."""
    tiny, k = np.finfo(float).tiny, len(beta)
    size = k if total_power is None else k + 1
    jac, residual = np.empty((size, size)), np.empty(size)
    jac[k:, :k], jac[k:, k:] = 1.0, 0.0        # the budget row, when there is one
    with np.errstate(all="ignore"):
        for iteration in range(1, max_iters + 1):
            sigma_f = coupling.sigma_f(beta)
            residual[:k] = coupling.mu_f(beta) - r * sigma_f
            jac[:k, :k] = coupling.a - r[:, None] * coupling.sigma_f_gradient(beta, sigma_f)
            if total_power is not None:
                residual[k] = beta.sum() - total_power
                jac[:k, k] = -sigma_f
            step = lapack.solve1(jac, -residual)
            beta_new = beta + step[:k]
            change = np.abs(beta_new - beta).max() / max(np.abs(beta_new).max(), tiny)
            if change != change:        # NaN: beta_new is not finite
                if (np.isnan(step).all() and np.isfinite(jac).all()
                        and np.isfinite(residual).all()):
                    raise ConvergenceError("power loading Jacobian is singular",
                                           last_iterate=beta)
                raise ConvergenceError("power loading left the float range: its Newton "
                                       "step is not finite", last_iterate=beta)
            beta = beta_new
            if total_power is not None:
                r = r + step[-1]
                change = max(change, abs(step[-1]) / max(abs(r[0]), tiny))
            if change < tol:
                return DesignReport(coupling, beta, r, iteration)
    raise ConvergenceError(f"power loading did not converge in {max_iters} iterations",
                           last_iterate=beta)


def alg2_power_load(coupling: CouplingMatrix, r, tol: float = 1e-6,
                    max_iters: int = 50) -> DesignReport:
    """Solve A beta = sigma^2 + sigma_f(beta) (.) r for the power loading.

    The fixed point makes every offset constraint hold with equality,
    mu_f_k = r_k sigma_f_k. Newton's method finds it in a handful of steps from
    beta_0 = A^{-1} sigma^2, the answer when error variances are zero. Raises
    InfeasibleLoadingError when the fixed point has a negative power entry,
    and ConvergenceError when max_iters is hit.
    """
    r_vec = np.broadcast_to(np.asarray(r, dtype=float), coupling.noise.shape).copy()
    return _newton_load(coupling, coupling.a_inv @ coupling.noise, r_vec, tol, max_iters)


def max_r_power_load(coupling: CouplingMatrix, total_power: float,
                     tol: float = 1e-6, max_iters: int = 50):
    """Maximize the common offset r under the power budget sum(beta) <= Pt.

    Newton's method on (beta, r) solves mu_f = r sigma_f with the budget row
    1^T beta = Pt. With beta_0 = A^{-1} sigma^2 and the closed form
    r(beta) = (Pt - 1^T beta_0) / (1^T A^{-1} sigma_f(beta)), it starts from
    beta_1 = beta_0 + r(beta_0) A^{-1} sigma_f(beta_0) and r(beta_1): r(beta_0)
    is far too large, as sigma_f(beta_0) is at noise scale. With positive noise
    and beta_0 >= 0 the Z-matrix A is an M-matrix, so A^{-1} >= 0 and
    1^T A^{-1} sigma_f > 0 once any sigma_f_k > 0. With zero error variances
    r is unbounded: the report carries r = inf and beta_0.

    Raises InfeasibleLoadingError when beta_0 has negative entries (no offset
    is achievable for the given set), when Pt is below 1^T beta_0 (the budget
    cannot fund offset zero), or when the max-r loading has a negative entry,
    and ConvergenceError when max_iters is hit. Returns (beta, r, DesignReport).
    """
    base = coupling.a_inv @ coupling.noise
    if (base < 0).any():
        raise InfeasibleLoadingError(
            f"zero-offset QoS loading has negative entries: {base}", powers=base)
    budget = total_power - base.sum()
    if budget < 0:
        raise InfeasibleLoadingError(f"power budget {total_power:.6g} W is below the "
                                     f"zero-offset QoS power {base.sum():.6g} W", powers=base)
    sigma_f = coupling.sigma_f(base)
    if not (sigma_f > 0).any():
        return base, math.inf, DesignReport(coupling, base, math.inf,
                                            note="unbounded offset: zero slack variance")
    colsums = coupling.a_inv.sum(axis=0)       # 1^T A^{-1}
    with np.errstate(all="ignore"):     # a start outside the float range fails in Newton
        beta = base + budget / (colsums @ sigma_f) * (coupling.a_inv @ sigma_f)
        r = np.full(len(base), budget / (colsums @ coupling.sigma_f(beta)))
    report = _newton_load(coupling, beta, r, tol, max_iters, total_power)
    return report.powers, float(report.offsets[0]), report


def reschedule(scenario, total_power: float, r_min: float = 2.0, variance_mode=None):
    """Drop users of a Scenario until the achievable common offset reaches r_min.

    While max_r_power_load yields r < r_min, or total_power is below the set's
    zero-offset QoS power 1^T A^{-1} sigma^2 (so r < 0), and at least two users
    remain, the user with the largest entry of A^{-1} sigma^2 is dropped and the
    design is rebuilt, with constant-offset directions, on the retained set.
    Dropped users are reported as in outage.

    A retained set with nearly identical estimates can make the direction
    solve diverge, or leave the offset loading infeasible outright; such a set
    is unservable at any offset, so a user is dropped by the diagonal
    approximation of A^{-1} sigma^2 (gamma_k sigma_k^2 over the beam gain, or
    over the channel norm when no directions exist) and the loop continues.
    Once one user is left, its error reaches the caller. With finite inputs
    that do not overflow, a single user's chain fails only on a budget below
    its QoS power: A is the positive scalar (|h^H u|^2 + sigma_e^2) / gamma
    and max-r puts the whole budget on the user.

    Returns (coupling, DesignReport), both of the retained set; the report
    lists the dropped and served users by their original indices.
    """
    retained = list(range(scenario.n_users))
    dropped = []
    while True:
        sub = scenario.subset(retained)
        try:
            u_sub = const_offset_directions(sub.h_est, sub.sinr_target)
            coupling = coupling_matrix(sub, u_sub, variance_mode)
        except (ConvergenceError, DegenerateChannelsError):
            if len(retained) == 1:
                raise
            alphas = np.sum(np.abs(sub.h_est) ** 2, axis=1)
            ranking = sub.noise_power * sub.sinr_target / (alphas + sub.sigma_e ** 2)
            dropped.append(retained.pop(int(np.argmax(ranking))))
            continue
        base = coupling.a_inv @ sub.noise_power
        if len(retained) > 1 and (base >= 0).all() and base.sum() > total_power:
            dropped.append(retained.pop(int(np.argmax(base))))   # r < 0 < r_min
            continue
        try:
            _, r, report = max_r_power_load(coupling, total_power)
        except (ConvergenceError, InfeasibleLoadingError):
            if len(retained) == 1:
                raise
            ranking = sub.noise_power / np.diag(coupling.a)
            dropped.append(retained.pop(int(np.argmax(ranking))))
            continue
        if r >= r_min or len(retained) == 1:
            report.rescheduled = list(dropped)
            report.served_indices = list(retained)
            return coupling, report
        dropped.append(retained.pop(int(np.argmax(base))))


def power_saving_cap(maxr_report: DesignReport, r_cap: float = 5.0) -> DesignReport:
    """Cap the common offset: if the max-r report exceeds r_cap, re-solve the
    power minimization on its coupling at r = r_cap, typically spending far
    less. The capped report keeps the max-r report's dropped and served users."""
    if r_cap <= 0:
        raise ValueError("r_cap must be positive")
    r = maxr_report.offsets[0]
    if r > r_cap:
        capped = alg2_power_load(maxr_report.coupling, r_cap)
        capped.note = f"offset capped at {r_cap} (max-r solution reached {r:.4g})"
        capped.rescheduled = list(maxr_report.rescheduled)
        capped.served_indices = list(maxr_report.served_indices)
        return capped
    return maxr_report


@functools.cache
def fit_normal_cdf_quadratic():
    """Least-squares fit a0 r^2 + a1 r + a2 of the standard normal CDF
    Phi(r) = predicted_outage(-r, 1) over CDF_FIT_WINDOW; its inputs are
    module constants, so it is fitted once."""
    grid = np.linspace(*CDF_FIT_WINDOW, CDF_FIT_POINTS)
    a0, a1, a2 = np.polyfit(grid, predicted_outage(-grid, 1.0), 2)
    return float(a0), float(a1), float(a2)


def average_outage_perturbation(maxr_report: DesignReport) -> DesignReport:
    """Per-user offset perturbations minimizing the average Gaussian outage.

    Starting from a max-r report (all users at a common offset r_star, with
    slack deviations sigma_f), on the report's own coupling,
    maximize sum_k q(r_star + delta_r_k) subject to power conservation
    1^T A^{-1} (sigma_f (.) delta_r) = 0, where q = a0 r^2 + a1 r + a2 is
    fit_normal_cdf_quadratic() (a0 < 0). With b = (1^T A^{-1}) (.) sigma_f
    the stationarity conditions give
        zeta = -(2 a0 r* + a1) (b^T 1) / (b^T b),
        delta_r = (-(2 a0 r* + a1) 1 - zeta b) / (2 a0),
    and the powers are refreshed once with sigma_f held fixed. A finite r_star
    has some sigma_f_k > 0, and A^{-1} >= 0 is nonsingular, so b != 0.

    Returns the report of the refreshed powers at the offsets r_star + delta_r;
    a max-r report with r_star = inf comes back unchanged.
    """
    coupling, sigma_f = maxr_report.coupling, maxr_report.sigma_f
    r_star = maxr_report.offsets[0]
    if not math.isfinite(r_star):
        return maxr_report
    a0, a1, _ = fit_normal_cdf_quadratic()

    b = coupling.a_inv.sum(axis=0) * sigma_f
    slope = 2.0 * a0 * r_star + a1
    zeta = -slope * b.sum() / (b @ b)
    delta_r = (-slope - zeta * b) / (2.0 * a0)
    r_vec = r_star + delta_r
    beta = coupling.a_inv @ coupling.noise + coupling.a_inv @ (sigma_f * r_vec)
    return DesignReport(coupling, beta, r_vec, maxr_report.iterations_used,
                        note="per-user offsets perturbed to minimize average outage")
