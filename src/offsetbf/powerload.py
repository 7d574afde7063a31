"""Robust power loading for fixed beamforming directions.

With directions fixed, the offset constraints mu_f_k = r_k sigma_f_k become
A beta = sigma^2 + sigma_f (.) r for a K x K coupling matrix A, with sigma_f
depending on beta through a quadratic form. This module provides the
fixed-point power loading, the max-common-offset loading under a power
budget, user rescheduling, the power-saving cap, and the average-outage
perturbation of the offset coefficients.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .directions import const_offset_directions
from .errors import ConvergenceError, DegenerateChannelsError, InfeasibleLoadingError
from .stats import OffsetStats, predicted_outage

VARIANCE_MODES = ("exact", "simplified")
SIMPLIFIED_ABOVE_NT = 16


@dataclass
class CouplingMatrix:
    """The K x K matrix A linking powers to the offset equalities, plus caches.

    [A]_ii = (|h_i^H u_i|^2 + sigma_e_i^2) / gamma_i
    [A]_ij = -(|h_i^H u_j|^2 + sigma_e_i^2), i != j

    The exact slack variance is the quadratic form sigma_f_k^2 = beta^T G_k beta
    with
      [G_k]_jl = s_j s_l (2 sigma_e_k^2 Re((h_k^H u_j)(u_j^H u_l)(u_l^H h_k))
                 + sigma_e_k^4 |u_j^H u_l|^2),  s_j = 1/gamma_k if j == k else -1,
    so each update costs O(K^2) per user once G is cached. The simplified
    variance keeps only the j == l terms of G.
    """

    a: np.ndarray
    a_inv: np.ndarray
    habs2: np.ndarray          # [i, j] = |h_i^H u_j|^2
    gammas: np.ndarray
    sigma_e: np.ndarray
    n_antennas: int
    g_tensor: np.ndarray = field(repr=False)       # (K, K, K)
    simp_coeff: np.ndarray = field(repr=False)     # (K, K), diag(G_k)

    @property
    def n_users(self) -> int:
        return self.a.shape[0]

    def default_variance_mode(self) -> str:
        return "exact" if self.n_antennas <= SIMPLIFIED_ABOVE_NT else "simplified"

    def sigma_f(self, beta: np.ndarray, mode: str) -> np.ndarray:
        if mode == "exact":
            var = np.einsum("kjl,j,l->k", self.g_tensor, beta, beta)
        else:
            var = self.simp_coeff @ beta ** 2
        return np.sqrt(np.clip(var, 0.0, None))

    def sigma_f_gradient(self, beta: np.ndarray, sigma_f: np.ndarray,
                         mode: str) -> np.ndarray:
        """Rows d sigma_f_k / d beta; zero rows where sigma_f_k = 0."""
        if mode == "exact":
            grad = np.einsum("kjl,l->kj", self.g_tensor, beta)
        else:
            grad = self.simp_coeff * beta[None, :]
        safe = np.where(sigma_f > 0, sigma_f, 1.0)
        grad = grad / safe[:, None]
        grad[sigma_f == 0] = 0.0
        return grad

    def mu_f(self, beta: np.ndarray, noise: np.ndarray) -> np.ndarray:
        return self.a @ beta - noise


@dataclass
class DesignReport:
    """Result of a power loading run.

    offsets holds the per-user r_k actually enforced; rescheduled lists the
    dropped users by their original indices; served_indices maps report rows
    back to the original user indices.
    """

    powers: np.ndarray
    offsets: np.ndarray
    achieved_stats: list
    predicted_outage: np.ndarray
    total_power: float
    rescheduled: list
    iterations_used: int
    served_indices: list = None
    variance_mode: str = "exact"
    note: str = ""

    def __post_init__(self):
        if self.served_indices is None:
            self.served_indices = list(range(len(self.powers)))

    def to_dict(self) -> dict:
        users = []
        for row, orig in enumerate(self.served_indices):
            users.append({
                "index": int(orig),
                "beta": float(self.powers[row]),
                "r": float(self.offsets[row]),
                "mu_f": float(self.achieved_stats[row].mu),
                "sigma_f": float(self.achieved_stats[row].sigma),
                "predicted_outage": float(self.predicted_outage[row]),
                "dropped": False,
            })
        for orig in self.rescheduled:
            users.append({
                "index": int(orig),
                "beta": 0.0,
                "r": None,
                "mu_f": None,
                "sigma_f": None,
                "predicted_outage": 1.0,
                "dropped": True,
            })
        users.sort(key=lambda row: row["index"])
        return {
            "total_power": float(self.total_power),
            "iterations_used": int(self.iterations_used),
            "variance_mode": self.variance_mode,
            "rescheduled": [int(i) for i in self.rescheduled],
            "note": self.note,
            "users": users,
        }

    def csv_rows(self) -> list:
        """One row per user: index, beta, r, mu_f, sigma_f, predicted_outage, dropped."""
        return self.to_dict()["users"]


def coupling_matrix(h_est: np.ndarray, directions: np.ndarray, gammas,
                    sigma_e) -> CouplingMatrix:
    """Build A, its inverse and the variance caches for fixed directions."""
    gammas = np.asarray(gammas, dtype=float)
    k = h_est.shape[0]
    sigma_e = np.broadcast_to(np.asarray(sigma_e, dtype=float), (k,)).copy()

    cross = h_est.conj() @ directions.T        # [i, j] = h_i^H u_j
    habs2 = np.abs(cross) ** 2
    a = -(habs2 + sigma_e[:, None] ** 2)
    a[np.diag_indices(k)] = (habs2.diagonal() + sigma_e ** 2) / gammas
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise DegenerateChannelsError(f"coupling matrix is singular: {exc}") from exc

    gram = directions.conj() @ directions.T    # [j, l] = u_j^H u_l
    gram_abs2 = np.abs(gram) ** 2
    g_tensor = np.zeros((k, k, k))
    for i in range(k):
        s = -np.ones(k)
        s[i] = 1.0 / gammas[i]
        triple = np.real(cross[i][:, None] * gram * cross[i].conj()[None, :])
        g_tensor[i] = np.outer(s, s) * (2.0 * sigma_e[i] ** 2 * triple
                                        + sigma_e[i] ** 4 * gram_abs2)
    simp_coeff = np.einsum("kjj->kj", g_tensor).copy()

    return CouplingMatrix(a=a, a_inv=a_inv, habs2=habs2, gammas=gammas,
                          sigma_e=sigma_e, n_antennas=h_est.shape[1],
                          g_tensor=g_tensor, simp_coeff=simp_coeff)


def _resolve_mode(coupling: CouplingMatrix, variance_mode) -> str:
    if variance_mode is None:
        return coupling.default_variance_mode()
    if variance_mode not in VARIANCE_MODES:
        raise ValueError(f"unknown variance_mode {variance_mode!r}")
    return variance_mode


def _build_report(coupling, beta, r_vec, noise, mode, iterations, note="") -> DesignReport:
    sigma_f = coupling.sigma_f(beta, mode)
    mu = coupling.mu_f(beta, noise)
    stats = [OffsetStats(mu=float(m), sigma=float(s)) for m, s in zip(mu, sigma_f)]
    outage = np.array([predicted_outage(st) for st in stats])
    return DesignReport(powers=beta, offsets=r_vec, achieved_stats=stats,
                        predicted_outage=outage, total_power=float(beta.sum()),
                        rescheduled=[], iterations_used=iterations,
                        variance_mode=mode, note=note)


def report_for_loading(coupling: CouplingMatrix, beta, r_vec, noise,
                       variance_mode=None, iterations: int = 1,
                       note: str = "") -> DesignReport:
    """Evaluate an externally supplied loading: stats, outage, report."""
    mode = _resolve_mode(coupling, variance_mode)
    beta = np.asarray(beta, dtype=float)
    noise = np.asarray(noise, dtype=float)
    r_vec = np.broadcast_to(np.asarray(r_vec, dtype=float), beta.shape).copy()
    return _build_report(coupling, beta, r_vec, noise, mode, iterations, note=note)


def alg2_power_load(coupling: CouplingMatrix, noise, r, variance_mode=None,
                    tol: float = 1e-6, max_iters: int = 50) -> DesignReport:
    """Solve A beta = sigma^2 + sigma_f(beta) (.) r for the power loading.

    The fixed point makes every offset constraint hold with equality,
    mu_f_k = r_k sigma_f_k. It is found by Newton's method on the residual
    F(beta) = A beta - sigma^2 - r (.) sigma_f(beta), which converges in a
    handful of steps. Iteration starts from the r-independent loading
    beta_0 = A^{-1} sigma^2, so designs with zero error variance finish in a
    single iteration.

    Raises InfeasibleLoadingError when the fixed point has a negative power
    entry, and ConvergenceError when max_iters is hit.
    """
    mode = _resolve_mode(coupling, variance_mode)
    noise = np.asarray(noise, dtype=float)
    r_vec = np.broadcast_to(np.asarray(r, dtype=float), noise.shape).copy()

    beta = coupling.a_inv @ noise
    for iteration in range(1, max_iters + 1):
        sigma_f = coupling.sigma_f(beta, mode)
        residual = coupling.a @ beta - noise - r_vec * sigma_f
        jac = coupling.a - r_vec[:, None] * coupling.sigma_f_gradient(beta, sigma_f, mode)
        try:
            step = np.linalg.solve(jac, -residual)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("power loading Jacobian is singular",
                                   last_iterate=beta) from exc
        beta_new = beta + step
        scale = max(np.max(np.abs(beta_new)), np.finfo(float).tiny)
        change = np.max(np.abs(beta_new - beta)) / scale
        beta = beta_new
        if change < tol:
            if np.any(beta < 0):
                raise InfeasibleLoadingError(
                    f"power loading fixed point has negative entries: {beta}",
                    powers=beta)
            return _build_report(coupling, beta, r_vec, noise, mode, iteration)
    raise ConvergenceError(f"power loading did not converge in {max_iters} iterations",
                           last_iterate=beta)


def max_r_power_load(coupling: CouplingMatrix, noise, total_power: float,
                     variance_mode=None, tol: float = 1e-9,
                     max_iters: int = 200):
    """Maximize the common offset r under the power budget sum(beta) <= Pt.

    Alternates the closed form r = (Pt - 1^T A^{-1} sigma^2) / (1^T A^{-1} sigma_f)
    with the linear power update, so every iterate spends the budget exactly.
    Negative r is a valid outcome (outage probability above one half under the
    Gaussian approximation). When all error variances are zero the offset is
    unbounded: the report carries r = inf and the plain QoS loading.

    Raises InfeasibleLoadingError when the zero-offset QoS loading A^{-1} sigma^2
    already has negative entries (no offset is achievable for the given set) or
    when 1^T A^{-1} sigma_f <= 0 leaves the offset unfundable.

    Returns (beta, r, DesignReport).
    """
    mode = _resolve_mode(coupling, variance_mode)
    noise = np.asarray(noise, dtype=float)
    k = coupling.n_users

    base = coupling.a_inv @ noise
    if np.any(base < 0):
        raise InfeasibleLoadingError(
            f"zero-offset QoS loading has negative entries: {base}", powers=base)
    colsums = coupling.a_inv.sum(axis=0)       # 1^T A^{-1}
    budget = total_power - base.sum()

    beta = base.copy()
    sigma_f = coupling.sigma_f(beta, mode)
    if not np.any(sigma_f > 0):
        report = _build_report(coupling, beta, np.full(k, math.inf), noise, mode, 1,
                               note="unbounded offset: zero slack variance")
        return beta, math.inf, report

    r = 0.0
    for iteration in range(1, max_iters + 1):
        denom = colsums @ sigma_f
        if denom <= 0:
            raise InfeasibleLoadingError(
                "offset is unfundable: 1^T A^{-1} sigma_f <= 0", powers=beta)
        r_new = budget / denom
        beta = base + r_new * (coupling.a_inv @ sigma_f)
        sigma_f = coupling.sigma_f(beta, mode)
        converged = abs(r_new - r) <= tol * max(abs(r_new), 1e-30)
        r = r_new
        if converged:
            return beta, float(r), _build_report(coupling, beta, np.full(k, r),
                                                 noise, mode, iteration)
    raise ConvergenceError(f"max-r alternation did not converge in {max_iters} iterations",
                           last_iterate=beta)


def reschedule(h_est: np.ndarray, gammas, sigma_e, noise, total_power: float,
               r_min: float = 2.0, variance_mode=None):
    """Drop users until the achievable common offset reaches r_min.

    While max_r_power_load yields r < r_min and at least two users remain, the
    user with the largest entry of A^{-1} sigma^2 is dropped and the design is
    rebuilt, with constant-offset directions, on the retained set. Dropped
    users are reported as in outage.

    A retained set with nearly identical estimates can make the direction
    solve diverge, or leave the offset loading infeasible outright; such a set
    is unservable at any offset, so a user is dropped by the diagonal
    approximation of A^{-1} sigma^2 (gamma_k sigma_k^2 over the beam gain, or
    over the channel norm when no directions exist) and the loop continues.

    Returns (retained original indices, DesignReport, directions, coupling),
    the last two built for the retained set, so callers can reuse them.
    """
    gammas = np.asarray(gammas, dtype=float)
    noise = np.asarray(noise, dtype=float)
    k = h_est.shape[0]
    sigma_e = np.broadcast_to(np.asarray(sigma_e, dtype=float), (k,)).copy()

    retained = list(range(k))
    dropped = []
    while True:
        idx = np.array(retained)
        noise_sub = noise[idx]
        try:
            u_sub = const_offset_directions(h_est[idx], gammas[idx])
            coupling = coupling_matrix(h_est[idx], u_sub, gammas[idx], sigma_e[idx])
        except (ConvergenceError, DegenerateChannelsError):
            if len(retained) == 1:
                raise
            alphas = np.sum(np.abs(h_est[idx]) ** 2, axis=1)
            ranking = noise_sub * gammas[idx] / (alphas + sigma_e[idx] ** 2)
            dropped.append(retained.pop(int(np.argmax(ranking))))
            continue
        try:
            beta, r, report = max_r_power_load(coupling, noise_sub, total_power,
                                               variance_mode=variance_mode)
        except (ConvergenceError, InfeasibleLoadingError):
            if len(retained) == 1:
                raise
            ranking = noise_sub / np.diag(coupling.a)
            dropped.append(retained.pop(int(np.argmax(ranking))))
            continue
        if r >= r_min or len(retained) == 1:
            report.rescheduled = list(dropped)
            report.served_indices = list(retained)
            return retained, report, u_sub, coupling
        worst = int(np.argmax(coupling.a_inv @ noise_sub))
        dropped.append(retained.pop(worst))


def power_saving_cap(coupling: CouplingMatrix, noise, maxr_report: DesignReport,
                     r_cap: float = 5.0, variance_mode=None) -> DesignReport:
    """Cap the common offset: if the max-r report of this coupling exceeds r_cap,
    re-solve the power minimization at r = r_cap, typically spending far less."""
    if r_cap <= 0:
        raise ValueError("r_cap must be positive")
    r = maxr_report.offsets[0]
    if r > r_cap:
        capped = alg2_power_load(coupling, noise, r_cap, variance_mode=variance_mode)
        capped.note = f"offset capped at {r_cap} (max-r solution reached {r:.4g})"
        return capped
    return maxr_report


def fit_normal_cdf_quadratic(r_lo: float = 1.0, r_hi: float = 3.0,
                             n_grid: int = 201, cdf=None):
    """Least-squares fit a0 r^2 + a1 r + a2 of the standard normal CDF on [r_lo, r_hi]."""
    if r_lo >= r_hi:
        raise ValueError("r_lo must be below r_hi")
    if cdf is None:
        cdf = ndtr
    grid = np.linspace(r_lo, r_hi, n_grid)
    a0, a1, a2 = np.polyfit(grid, cdf(grid), 2)
    return float(a0), float(a1), float(a2)


def average_outage_perturbation(coupling: CouplingMatrix, noise, sigma_f: np.ndarray,
                                r_star: float, quad=None):
    """Per-user offset perturbations minimizing the average Gaussian outage.

    Starting from the max-r solution (all users at the common offset r_star),
    maximize sum_k quad(r_star + delta_r_k) subject to power conservation
    1^T A^{-1} (sigma_f (.) delta_r) = 0, where quad is the quadratic fit of
    the normal CDF. With b = (1^T A^{-1}) (.) sigma_f the stationarity
    conditions give
        zeta = -(2 a0 r* + a1) (b^T 1) / (b^T b),
        delta_r = (-(2 a0 r* + a1) 1 - zeta b) / (2 a0),
    and the powers are refreshed once with sigma_f held fixed.

    Returns (delta_r, beta).
    """
    noise = np.asarray(noise, dtype=float)
    sigma_f = np.asarray(sigma_f, dtype=float)
    if quad is None:
        quad = fit_normal_cdf_quadratic()
    a0, a1, _ = quad
    if a0 == 0:
        raise ValueError("quadratic coefficient a0 must be nonzero")

    b = coupling.a_inv.sum(axis=0) * sigma_f
    if not np.any(np.abs(b) > 0):
        delta_r = np.zeros_like(sigma_f)
    else:
        slope = 2.0 * a0 * r_star + a1
        zeta = -slope * b.sum() / (b @ b)
        delta_r = (-slope - zeta * b) / (2.0 * a0)
    r_vec = r_star + delta_r
    beta = coupling.a_inv @ noise + coupling.a_inv @ (sigma_f * r_vec)
    return delta_r, beta
