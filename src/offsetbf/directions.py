"""Beamforming direction design.

Baseline ZF / MRT / RZF directions, the iterative closed-form robust design
(dual fixed point plus per-user eigen equation, in the span of the channels
and their conjugates), the constant-offset variant in the K-dimensional span
of the channels, and the massive-MISO approximation nu_k ~= gamma_k / alpha_k.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateChannelsError

COND_LIMIT = 1e12


@dataclass
class DualState:
    """Dual variables of the SINR constraints and the proxy directions.

    psi_direction holds the unit vectors psi_f_k / nu_k, the proxies for the
    direction of d_k = r sqrt(2) sigma_e Q_k h_est_k; the full dual vector is
    nu_k * psi_direction[k].
    """

    nu: np.ndarray             # (K,)
    psi_direction: np.ndarray  # (K, N_t) unit rows

    def __post_init__(self):
        norms = np.linalg.norm(self.psi_direction, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("psi_direction rows must be unit norm")


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise DegenerateChannelsError("zero vector cannot be normalized")
    return m / norms


def _phase_align(u: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Rotate u so that h^H u is real and nonnegative, and renormalize."""
    c = np.vdot(h, u)
    if np.abs(c) > 0:
        u = u * (c.conjugate() / np.abs(c))
    return u / np.linalg.norm(u)


def zf_directions(h_est: np.ndarray) -> np.ndarray:
    """Zero-forcing directions for estimated channels stacked as rows (K, N_t).

    u_z_k is the k-th column of H^H (H H^H)^{-1}, normalized, so that
    h_j^H u_z_k = 0 for j != k.
    """
    k, nt = h_est.shape
    if k > nt:
        raise DegenerateChannelsError(f"ZF needs K <= N_t, got K={k}, N_t={nt}")
    gram = h_est @ h_est.conj().T
    if np.linalg.cond(gram) > COND_LIMIT:
        raise DegenerateChannelsError("estimated channel matrix is rank deficient")
    # rows u_k = rows of (H H^H)^{-T} H, so that h_j^H u_k = delta_jk
    pinv_rows = np.linalg.solve(gram, h_est)
    return _normalize_rows(pinv_rows)


def mrt_directions(h_est: np.ndarray) -> np.ndarray:
    """Maximum ratio transmission: u_k = h_est_k / ||h_est_k||."""
    return _normalize_rows(h_est)


def rzf_directions(h_est: np.ndarray, loading: float) -> np.ndarray:
    """Regularized zero forcing: u_k proportional to (sum_j h_j h_j^H + loading I)^{-1} h_k."""
    if loading <= 0:
        raise ValueError("loading must be positive")
    k, nt = h_est.shape
    s = np.einsum("ji,jl->il", h_est, h_est.conj()) + loading * np.eye(nt)
    return _normalize_rows(np.linalg.solve(s, h_est.T).T)


def nu_massive_approx(h_est: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Massive-MISO approximation nu_k = gamma_k / ||h_est_k||^2."""
    alphas = np.sum(np.abs(h_est) ** 2, axis=1)
    if np.any(alphas == 0):
        raise ValueError("zero-norm channel estimate")
    return np.asarray(gammas, dtype=float) / alphas


def _reduced_terms(h_est: np.ndarray, psi: np.ndarray, coup: float):
    """Q (N_t x m, m <= min(2K, N_t)), an orthonormal basis of span{h_j, conj h_j}
    from one reduced QR, the rows a_j = Q^H h_j, and the (K, m, m) stacks
    Q^H (h_j h_j^H - coup Re{psi_j h_j^H}) Q and Q^H Re{psi_j h_j^H} Q. The
    element-wise Re{psi_j h_j^H} = (psi_j h_j^H + conj(psi_j) h_j^T) / 2 lies in
    span Q when psi_j does, which is checked."""
    basis, _ = np.linalg.qr(np.concatenate([h_est, h_est.conj()]).T)
    h_c, hbar_c, psi_c, psibar_c = np.split(
        np.concatenate([h_est, h_est.conj(), psi, psi.conj()]) @ basis.conj(), 4)
    if np.max(np.abs(psi_c @ basis.T - psi)) > 1e-8:
        raise ValueError("psi must lie in the span of the channel estimates")
    re_psi = (np.einsum("ji,jl->jil", psi_c, h_c.conj())
              + np.einsum("ji,jl->jil", psibar_c, hbar_c.conj())) / 2.0
    return basis, h_c, np.einsum("ji,jl->jil", h_c, h_c.conj()) - coup * re_psi, re_psi


def solve_nu(h_est: np.ndarray, gammas: np.ndarray, sigma_e: float, r: float,
             psi: np.ndarray, tol: float = 1e-10, max_iters: int = 500) -> DualState:
    """Gauss-Seidel solution of the dual fixed point with common offset r.

    nu_k^{-1} = h_k^H M_k^{-1} h_k (1 + 1/gamma_k), with coup = r sqrt(2) sigma_e and
      M_k = (1 + sigma_e^2 sum_{j!=k} nu_j - nu_k sigma_e^2 / gamma_k) I
            + sum_j nu_j h_j h_j^H + (coup nu_k / gamma_k) Re{psi_k h_k^H}
            - coup sum_{j!=k} nu_j Re{psi_j h_j^H}
    for the current nu and proxy directions psi (unit rows in the channels' span,
    e.g. ZF), starting at nu_k = gamma_k / alpha_k.

    In the basis Q of _reduced_terms, M_k = c_k I + Q S_k Q^H and h_k = Q a_k,
    so the form is a_k^H (c_k I + S_k)^{-1} a_k. The shared part of S_k is
    rebuilt each sweep and updated as each nu_k changes. Cost: O(K^2 N_t) once,
    then one m x m solve, O(m^3), per user step.
    """
    gammas = np.asarray(gammas, dtype=float)
    psi = _normalize_rows(np.asarray(psi, dtype=complex))
    coup = r * np.sqrt(2.0) * sigma_e
    # S_k = sum_j nu_j terms_j + coup nu_k (1 + 1/gamma_k) re_psi_k
    _, h_c, terms, re_psi = _reduced_terms(h_est, psi, coup)
    eye = np.eye(h_c.shape[1])
    nu = nu_massive_approx(h_est, gammas)

    for _ in range(max_iters):
        total, nu_sum = np.einsum("j,jil->il", nu, terms), nu.sum()
        max_rel = 0.0
        for k in range(h_est.shape[0]):
            c_k = 1.0 + sigma_e ** 2 * (nu_sum - nu[k]) - nu[k] * sigma_e ** 2 / gammas[k]
            s_k = total + (coup * nu[k] * (1.0 + 1.0 / gammas[k])) * re_psi[k]
            try:
                x = np.linalg.solve(c_k * eye + s_k, h_c[k])
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError("dual fixed point made the user matrix singular",
                                       last_iterate=nu) from exc
            val = np.vdot(h_c[k], x).real * (1.0 + 1.0 / gammas[k])
            if val <= 0:
                raise ConvergenceError("dual fixed point left the positive cone",
                                       last_iterate=nu)
            nu_new = 1.0 / val
            max_rel = max(max_rel, abs(nu_new - nu[k]) / nu_new)
            total += (nu_new - nu[k]) * terms[k]
            nu_sum += nu_new - nu[k]
            nu[k] = nu_new
        if max_rel < tol:
            return DualState(nu=nu, psi_direction=psi)
    raise ConvergenceError(f"nu fixed point did not converge in {max_iters} sweeps",
                           last_iterate=nu)


def directions_from_nu(dual: DualState, h_est: np.ndarray, gammas: np.ndarray,
                       sigma_e: float, r: float) -> np.ndarray:
    """Per-user eigen directions: u_k is the eigenvector of
      B_k = I - M_k + nu_k (1 + 1/gamma_k) h_k h_k^H      (M_k as in solve_nu)
    for the eigenvalue of largest real part, phased so that h_k^H u_k >= 0.

    In the basis Q of _reduced_terms, B_k = shift_k I + Q T_k Q^H has spectrum
    shift_k + eig(T_k) on span Q and shift_k on its complement. One batched
    (non-Hermitian) eig of the K m x m matrices T_k gives the top y_k, and
    u_k = Q y_k: O(K^2 N_t + K m^3). If m < N_t and no eigenvalue of T_k has
    positive real part, u_k is orthogonal to every channel: DegenerateChannelsError.
    """
    gammas = np.asarray(gammas, dtype=float)
    basis, _, terms, _ = _reduced_terms(h_est, dual.psi_direction,
                                        r * np.sqrt(2.0) * sigma_e)
    small = (dual.nu * (1.0 + 1.0 / gammas))[:, None, None] * terms \
        - np.einsum("j,jil->il", dual.nu, terms)
    eigvals, eigvecs = np.linalg.eig(small)
    users, top = np.arange(h_est.shape[0]), np.argmax(eigvals.real, axis=1)
    if basis.shape[1] < h_est.shape[1] and np.any(eigvals[users, top].real <= 0):
        raise DegenerateChannelsError(
            "the top eigenvector of a user's eigen matrix is orthogonal to every channel")
    u_rows = eigvecs[users, :, top] @ basis.T      # row k is (Q y_k)^T
    return np.array([_phase_align(u, h) for u, h in zip(u_rows, h_est)])


def solve_nu_constant_offset(h_est: np.ndarray, gammas: np.ndarray,
                             tol: float = 1e-10, max_iters: int = 500) -> np.ndarray:
    """Fixed point nu_k^{-1} = h_k^H (I + sum_j nu_j h_j h_j^H)^{-1} h_k (1 + 1/gamma_k).

    The N_t x N_t matrix is I plus a rank-K term, so the iteration runs in the
    users' span: with H the K x N_t matrix of rows h_k^H, G = H H^H = [h_i^H h_j]
    and N = diag(nu), the push-through identity gives
    h_k^H (I + H^H N H)^{-1} h_k = [(I + G N)^{-1} G]_kk.
    Forming G costs O(K^2 N_t) once; each sweep is then one K x K solve,
    O(K^3).
    """
    gammas = np.asarray(gammas, dtype=float)
    k_users = h_est.shape[0]
    gram = h_est.conj() @ h_est.T          # [i, j] = h_i^H h_j
    eye = np.eye(k_users)
    nu = nu_massive_approx(h_est, gammas)

    for _ in range(max_iters):
        try:
            x = np.linalg.solve(eye + gram * nu, gram)    # (I + G N)^{-1} G
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("dual fixed point made the shared matrix singular",
                                   last_iterate=nu) from exc
        vals = np.real(np.diagonal(x)) * (1.0 + 1.0 / gammas)
        if np.any(vals <= 0):
            raise ConvergenceError("dual fixed point left the positive cone",
                                   last_iterate=nu)
        nu_new = 1.0 / vals
        max_rel = np.max(np.abs(nu_new - nu) / nu_new)
        nu = nu_new
        if max_rel < tol:
            return nu
    raise ConvergenceError(f"nu fixed point did not converge in {max_iters} sweeps",
                           last_iterate=nu)


def directions_constant_offset(nu: np.ndarray, h_est: np.ndarray,
                               gammas: np.ndarray) -> np.ndarray:
    """Principal eigenvectors of B_k = (nu_k/gamma_k) h_k h_k^H - sum_{j!=k} nu_j h_j h_j^H.

    B_k lives in the users' span: with the reduced QR factorization
    h_est^T = Q R, B_k = Q (R D_k R^H) Q^H, where D_k = diag(-nu) with entry
    (k, k) set to nu_k / gamma_k. One batched eigh over the K small Hermitian
    matrices R D_k R^H gives the top eigenvectors y_k, and u_k = Q y_k, with
    phase fixed so that h_k^H u_k >= 0. The QR costs O(K^2 N_t) and the eigh
    O(K^4).
    """
    gammas = np.asarray(gammas, dtype=float)
    basis, coords = np.linalg.qr(h_est.T)  # column k of coords is h_k in basis
    # small[k] = R diag(-nu) R^H + (nu_k/gamma_k + nu_k) c_k c_k^H, c_k = R[:, k]
    total = (coords * nu) @ coords.conj().T
    outers = np.einsum("ik,jk->kij", coords, coords.conj())
    small = (nu / gammas + nu)[:, None, None] * outers - total
    _, vecs = np.linalg.eigh(small)
    u_rows = vecs[:, :, -1] @ basis.T      # row k is (Q y_k)^T
    return np.array([_phase_align(u, h) for u, h in zip(u_rows, h_est)])


def const_offset_directions(h_est: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Constant-offset directions for estimated channels h_est (K, N_t):
    the dual fixed point, then the principal eigenvectors."""
    nu = solve_nu_constant_offset(h_est, gammas)
    return directions_constant_offset(nu, h_est, gammas)


def alg1_directions(h_est: np.ndarray, gammas: np.ndarray, sigma_e: np.ndarray,
                    r: float) -> np.ndarray:
    """Iterative closed-form directions at the common offset r: ZF proxies,
    the dual fixed point, then the per-user eigen directions."""
    sigma_e = np.asarray(sigma_e, dtype=float)
    if np.ptp(sigma_e) > 1e-12:
        raise ValueError("the closed-form design assumes a common sigma_e")
    common = float(sigma_e[0])
    dual = solve_nu(h_est, gammas, common, r, zf_directions(h_est))
    return directions_from_nu(dual, h_est, gammas, common, r)
