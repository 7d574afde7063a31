"""Beamforming direction design.

Baseline ZF / MRT / RZF directions, the iterative closed-form robust design
(dual fixed point plus per-user eigen equation, in the span of the channels
and their conjugates), the constant-offset design (dual fixed point in the
channels' span, then M^{-1} h_k in closed form, with no eigendecomposition),
and the massive-MISO approximation nu_k ~= gamma_k / alpha_k.
"""

import math

import numpy as np

from . import lapack
from .errors import ConvergenceError, DegenerateChannelsError

COND_LIMIT = 1e12
# solve_nu hands its Gauss-Seidel sweep to Newton once a sweep's largest relative
# step is below this (see its docstring for why not earlier)
NEWTON_FROM = 1e-3


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise DegenerateChannelsError("zero vector cannot be normalized")
    return m / norms


def _phase_align(u: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Rotate u so that h^H u is real and nonnegative, and renormalize."""
    c = np.vdot(h, u)
    size = np.abs(c)        # not abs(c), which rounds differently
    if size > 0:
        u = u * (c.conjugate() / size)
    return u / np.sqrt(u.real.dot(u.real) + u.imag.dot(u.imag))   # np.linalg.norm(u)


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
    if (alphas == 0).any():
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
             psi: np.ndarray, tol: float = 1e-10, max_iters: int = 500, *,
             _reduced=None) -> np.ndarray:
    """Dual fixed point with common offset r: Gauss-Seidel sweeps into the
    basin, then Newton's method in log nu.

    nu_k^{-1} = h_k^H M_k^{-1} h_k (1 + 1/gamma_k), with coup = r sqrt(2) sigma_e and
      M_k = (1 + sigma_e^2 sum_{j!=k} nu_j - nu_k sigma_e^2 / gamma_k) I
            + sum_j nu_j h_j h_j^H + (coup nu_k / gamma_k) Re{psi_k h_k^H}
            - coup sum_{j!=k} nu_j Re{psi_j h_j^H}
    for the current nu and proxy directions psi (unit rows in the channels' span,
    e.g. ZF), starting at nu_k = gamma_k / alpha_k.

    In the basis Q of _reduced_terms, M_k = c_k I + Q S_k Q^H and h_k = Q a_k,
    so the form is a_k^H (c_k I + S_k)^{-1} a_k. The shared part of S_k is
    rebuilt each sweep and updated as each nu_k changes. Cost: O(K^2 N_t) once,
    then per user step one m x m solve, O(m^3), plus O(m^2) to build c_k I + S_k
    in place. The step calls the LAPACK gesv gufunc that np.linalg.solve wraps,
    so it gives the same bits without the wrapper's per-call overhead, which is
    larger than the solve itself at m <= 16. The gufunc fills a singular
    system's solution with NaN instead of raising, so a NaN form is that error.
    A sweep's steps share one np.errstate(all="ignore"), so an overflow in a
    sweep also ends in that error, without a RuntimeWarning.

    The sweep converges only linearly, in about a hundred sweeps. So once a
    sweep's largest relative step is below NEWTON_FROM, _newton_nu finishes
    with Newton's method on f = log nu + log v, where, with X_k = c_k I + S_k,
    x_k = X_k^{-1} a_k, w_k^H = a_k^H X_k^{-1} and s_k = 1 + 1/gamma_k,
    v_k = s_k Re(a_k^H x_k) is 1/nu_k's right-hand side. As
    d(a^H X^{-1} a) = -w^H dX x,
      dv_k/dnu_j = -s_k Re(w_k^H (terms_j + sigma_e^2 I) x_k)                  j != k
      dv_k/dnu_k = -s_k Re(w_k^H (terms_k + coup s_k re_psi_k - sigma_e^2/gamma_k I) x_k)
    and J = I + diag(1/v) (dv/dnu) diag(nu); a step nu exp(-J^{-1} f) costs
    one batched inverse of the K m x m matrices X_k and O(K^2 m^2) einsums.
    About 20 sweeps and 3 Newton steps replace about 100 sweeps. The
    element-wise Re{psi h^H} term gives the map more than one fixed point, and
    Newton started at nu_0 lands on other ones, so it starts only from a sweep
    iterate already close to the sweep's own. With the threshold at 1e-2, two
    generated cells that the sweep never solves, not even in 20 000 sweeps,
    became successes; at 1e-3 every changed outcome was a cell that the sweep
    solves given more sweeps. A rejected Newton step hands back to the sweep,
    so a cell whose sweep never gets below NEWTON_FROM keeps the plain sweep's
    iterates and errors bit for bit. max_iters counts sweeps and Newton steps.
    _reduced is _reduced_terms(h_est, psi, coup) when the caller has built it.
    """
    gammas = np.asarray(gammas, dtype=float)
    coup = r * np.sqrt(2.0) * sigma_e
    if _reduced is None:
        _reduced = _reduced_terms(h_est, _normalize_rows(np.asarray(psi, dtype=complex)),
                                  coup)
    # S_k = sum_j nu_j terms_j + coup nu_k (1 + 1/gamma_k) re_psi_k
    _, h_c, terms, re_psi = _reduced
    m = h_c.shape[1]
    matrix = np.empty((m, m), dtype=complex)
    diagonal = matrix.reshape(-1)[::m + 1]
    var_e = sigma_e ** 2
    users = list(zip(gammas.tolist(), h_c, re_psi, terms))
    nu = nu_massive_approx(h_est, gammas)

    steps = 0
    while steps < max_iters:
        steps += 1
        total, nu_sum = np.einsum("j,jil->il", nu, terms), float(nu.sum())
        values = nu.tolist()
        max_rel = 0.0
        with np.errstate(all="ignore"):
            for k, (gamma, h_k, re_psi_k, terms_k) in enumerate(users):
                nu_k, scale = values[k], 1.0 + 1.0 / gamma
                c_k = 1.0 + var_e * (nu_sum - nu_k) - nu_k * var_e / gamma
                np.multiply(coup * nu_k * scale, re_psi_k, out=matrix)
                matrix += total
                diagonal += c_k
                val = np.vdot(h_k, lapack.solve1(matrix, h_k)).real * scale
                if math.isnan(val) or val <= 0:
                    raise ConvergenceError(
                        "dual fixed point made the user matrix singular" if math.isnan(val)
                        else "dual fixed point left the positive cone",
                        last_iterate=np.array(values))
                nu_new = 1.0 / val
                max_rel = max(max_rel, abs(nu_new - nu_k) / nu_new)
                np.multiply(nu_new - nu_k, terms_k, out=matrix)
                total += matrix
                nu_sum += nu_new - nu_k
                values[k] = nu_new
        nu = np.array(values)
        if max_rel < tol:
            return nu
        if max_rel < NEWTON_FROM:
            nu, newton_steps, done = _newton_nu(nu, max_iters - steps, h_c, terms, re_psi,
                                                gammas, var_e, coup, tol)
            steps += newton_steps
            if done:
                return nu
    raise ConvergenceError(f"nu fixed point did not converge in {max_iters} sweeps",
                           last_iterate=nu)


def _newton_nu(nu, budget, h_c, terms, re_psi, gammas, var_e, coup, tol):
    """Up to `budget` Newton steps of solve_nu's dual (see there) from the sweep
    iterate nu; returns (nu, steps taken, converged). A candidate is taken when
    it lowers ||f||^2, or when its relative step is already below tol, since
    at rounding level ||f||^2 need not fall. Otherwise, also when a singular
    X_k or J or a v_k <= 0 makes f non-finite, the call returns the last taken
    iterate, unconverged, for the sweep to go on from.
    """
    k_users, m = re_psi.shape[:2]
    scale = 1.0 + 1.0 / gammas
    eye = np.eye(k_users)
    jac_diagonal = np.arange(k_users)

    def evaluate(nu):
        mats = np.einsum("j,jil->il", nu, terms) + (coup * nu * scale)[:, None, None] * re_psi
        mats.reshape(k_users, -1)[:, ::m + 1] += (
            1.0 + var_e * (nu.sum() - nu) - nu * var_e / gammas)[:, None]
        inverse = lapack.inv(mats)
        x = np.einsum("kil,kl->ki", inverse, h_c)
        w = np.einsum("ki,kil->kl", h_c.conj(), inverse)      # rows w_k^H
        v = scale * np.einsum("ki,ki->k", h_c.conj(), x).real
        return (x, w, v), np.log(nu * v)

    with np.errstate(all="ignore"):
        (x, w, v), f = evaluate(nu)
        for step in range(1, budget + 1):
            wx = np.einsum("ki,ki->k", w, x).real
            minus_dv = np.einsum("ki,jil,kl->kj", w, terms, x).real + var_e * wx[:, None]
            minus_dv[jac_diagonal, jac_diagonal] += scale * (
                coup * np.einsum("ki,kil,kl->k", w, re_psi, x).real - var_e * wx)
            jac = eye - (scale / v)[:, None] * minus_dv * nu
            trial = nu * np.exp(-lapack.solve1(jac, f))
            state, f_trial = evaluate(trial)
            max_rel = (np.abs(trial - nu) / trial).max()
            if not (np.isfinite(f_trial).all() and (f_trial @ f_trial < f @ f or max_rel < tol)):
                return nu, step, False
            nu, (x, w, v), f = trial, state, f_trial
            if max_rel < tol:
                return nu, step, True
    return nu, budget, False


def directions_from_nu(nu: np.ndarray, psi: np.ndarray, h_est: np.ndarray,
                       gammas: np.ndarray, sigma_e: float, r: float, *,
                       _reduced=None) -> np.ndarray:
    """Per-user eigen directions: u_k is the eigenvector of
      B_k = I - M_k + nu_k (1 + 1/gamma_k) h_k h_k^H      (M_k as in solve_nu)
    for the eigenvalue of largest real part, phased so that h_k^H u_k >= 0.
    The proxies psi are normalized to unit rows, as in solve_nu.

    In the basis Q of _reduced_terms, B_k = shift_k I + Q T_k Q^H has spectrum
    shift_k + eig(T_k) on span Q and shift_k on its complement. One batched
    (non-Hermitian) eig of the K m x m matrices T_k gives the top y_k, and
    u_k = Q y_k: O(K^2 N_t + K m^3). If m < N_t and no eigenvalue of T_k has
    positive real part, u_k is orthogonal to every channel: DegenerateChannelsError.
    _reduced is _reduced_terms(h_est, psi, coup) when the caller has built it.
    """
    gammas = np.asarray(gammas, dtype=float)
    if _reduced is None:
        _reduced = _reduced_terms(h_est, _normalize_rows(np.asarray(psi, dtype=complex)),
                                  r * np.sqrt(2.0) * sigma_e)
    basis, _, terms, _ = _reduced
    small = (nu * (1.0 + 1.0 / gammas))[:, None, None] * terms \
        - np.einsum("j,jil->il", nu, terms)
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

    The N_t x N_t matrix is I plus a rank-K term, so the solver works in the
    users' span: with H the K x N_t matrix of rows h_k^H, G = H H^H = [h_i^H h_j]
    and N = diag(nu), the push-through identity gives
    h_k^H (I + H^H N H)^{-1} h_k = X_kk with X = (I + G N)^{-1} G, so
    v_k(nu) = (1 + 1/gamma_k) X_kk costs one K x K solve after the O(K^2 N_t)
    Gram matrix.

    The map nu -> 1/v(nu) is a standard interference function (Yates 1995), so
    its fixed point is unique. Starting at nu_k = gamma_k / alpha_k, each step
    solves f(nu) = log nu + log v(nu) = 0 by Newton's method in log nu. Since
    dX_kk/dnu_j = -X_kj X_jk, its Jacobian is
      J = I - diag((1 + 1/gamma) / v) Re(X o X^T) diag(nu).
    The Newton candidate nu exp(-J^{-1} f) is taken when it reduces ||f||^2;
    otherwise (also when J or the candidate's matrix is singular, or v leaves
    the positive cone there) the step is the plain sweep nu = 1/v(nu). The
    solver stops when a step's largest relative change is below tol;
    max_iters counts steps, Newton or plain. About five steps, ten K x K
    solves, reach tol where the plain sweep alone takes about ninety.
    A singular J or candidate matrix fills the candidate's f with NaN, which
    rejects it. I + GN is nonsingular for nu > 0 (GN is similar to
    N^1/2 G N^1/2 >= 0), but 1 + nu_k |h_k|^2 rounds to nu_k |h_k|^2 past 2^53,
    and I + GN can then be singular: "made the shared matrix singular".
    """
    gammas = np.asarray(gammas, dtype=float)
    scale = 1.0 + 1.0 / gammas
    gram = h_est.conj() @ h_est.T          # [i, j] = h_i^H h_j
    eye = np.eye(h_est.shape[0])

    def checked(nu):
        """X = (I + G N)^{-1} G, v(nu) = (1 + 1/gamma) diag X and f(nu), raising
        the solver's errors."""
        try:
            x = lapack.checked(lapack.solve, eye + gram * nu, gram)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("dual fixed point made the shared matrix singular",
                                   last_iterate=nu) from exc
        v = np.real(np.diagonal(x)) * scale
        if (v <= 0).any():
            raise ConvergenceError("dual fixed point left the positive cone",
                                   last_iterate=nu)
        return x, v, np.log(nu * v)

    nu = nu_massive_approx(h_est, gammas)
    x, v, f = checked(nu)
    for _ in range(max_iters):
        jac = eye - (scale / v)[:, None] * np.real(x * x.T) * nu
        with np.errstate(all="ignore"):
            trial = nu * np.exp(-lapack.solve1(jac, f))
            x_t = lapack.solve(eye + gram * trial, gram)
            v_t = np.real(np.diagonal(x_t)) * scale
            f_t = np.log(trial * v_t)
            newton = bool(np.isfinite(f_t).all() and f_t @ f_t < f @ f)
        nu_new = trial if newton else 1.0 / v
        max_rel = (np.abs(nu_new - nu) / nu_new).max()
        nu = nu_new
        if max_rel < tol:
            return nu
        x, v, f = (x_t, v_t, f_t) if newton else checked(nu)
    raise ConvergenceError(f"nu fixed point did not converge in {max_iters} sweeps",
                           last_iterate=nu)


def directions_constant_offset(nu: np.ndarray, h_est: np.ndarray) -> np.ndarray:
    """Principal eigenvectors u_k of B_k = (nu_k/gamma_k) h_k h_k^H - sum_{j!=k} nu_j h_j h_j^H
    at solve_nu_constant_offset's fixed point nu, in closed form: u_k = M^{-1} h_k,
    normalized, with M = I + sum_j nu_j h_j h_j^H. B_k = I - M + s_k h_k h_k^H
    with s_k = nu_k (1 + 1/gamma_k), and s_k h_k^H M^{-1} h_k = 1 at the fixed
    point, so B_k maps M^{-1} h_k to itself. M >= I, so by Cauchy interlacing
    every other eigenvalue of B_k, a rank-one update of I - M <= 0, is <= 0.
    h_k^H M^{-1} h_k > 0 leaves no phase to fix. By the push-through identity,
    with G = [h_i^H h_j] and N = diag(nu), row k of (I + G^T N)^{-1} h_est is
    (M^{-1} h_k)^T: one K x K solve after the O(K^2 N_t) Gram matrix.
    """
    gram_t = h_est @ h_est.conj().T        # [i, j] = h_j^H h_i
    return _normalize_rows(lapack.checked(lapack.solve, np.eye(len(nu)) + gram_t * nu, h_est))


def const_offset_directions(h_est: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Constant-offset directions for estimated channels h_est (K, N_t):
    the dual fixed point, then the principal eigenvectors in closed form."""
    nu = solve_nu_constant_offset(h_est, gammas)
    return directions_constant_offset(nu, h_est)


def alg1_directions(h_est: np.ndarray, gammas: np.ndarray, sigma_e: np.ndarray,
                    r: float) -> np.ndarray:
    """Iterative closed-form directions at the common offset r: ZF proxies,
    the dual fixed point, then the per-user eigen directions."""
    sigma_e = np.asarray(sigma_e, dtype=float)
    if np.ptp(sigma_e) > 1e-12:
        raise ValueError("the closed-form design assumes a common sigma_e")
    common = float(sigma_e[0])
    psi = zf_directions(h_est)
    # both stages' basis, built once; the stages are called by their public
    # names so that each keeps its own span in a trace
    reduced = _reduced_terms(h_est, _normalize_rows(psi), r * np.sqrt(2.0) * common)
    nu = solve_nu(h_est, gammas, common, r, psi, _reduced=reduced)
    return directions_from_nu(nu, psi, h_est, gammas, common, r, _reduced=reduced)
