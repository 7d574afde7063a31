"""Beamforming direction design.

Baseline ZF / MRT / RZF directions, the iterative closed-form robust design
(dual fixed point plus per-user eigen equation, in the span of the channels
and their conjugates), the constant-offset design (dual fixed point in the
channels' span, then M^{-1} h_k in closed form, with no eigendecomposition),
and the massive-MISO approximation nu_k ~= gamma_k / alpha_k. Both duals are
solved by one safeguarded Newton engine in log nu, _dual_fixed_point; alg1's
dual is one value, Alg1Dual, built once by alg1_dual, and solved by
continuation from the constant-offset fixed point (solve_nu).
"""

import math
from collections import namedtuple

import numpy as np

from . import lapack
from .errors import ConvergenceError, DegenerateChannelsError

COND_LIMIT = 1e12
# solve_nu's fallback hands its Gauss-Seidel sweep to Newton once a sweep's
# largest relative step is below this (see its docstring for why not earlier)
NEWTON_FROM = 1e-3
# solve_nu's continuation gives up after this many Newton candidates; on
# generated cells it stopped within 12, solved or not
CONTINUATION_STEPS = 20
# directions_from_nu's Rayleigh-quotient iteration stops after this many
# steps, and freezes a user whose residual is at most RQI_TOL m ||T_k||_F. On
# generated 0.5 km cells every user converged within three; on 1.5 and 3.2 km
# cells, 8 or 12 steps sent the same users to the eig fallback as 6
RQI_STEPS = 6
RQI_TOL = 4.0 * np.finfo(float).eps


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise DegenerateChannelsError("zero vector cannot be normalized")
    return m / norms


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


# alg1's dual at a common offset, as alg1_dual builds it
Alg1Dual = namedtuple("Alg1Dual", "h_est gammas sigma_e coup basis h_c terms re_psi")


def alg1_dual(h_est: np.ndarray, gammas: np.ndarray, sigma_e, r: float) -> Alg1Dual:
    """alg1's dual for channel estimates h_est (K, N_t), SINR targets gammas
    and the common offset r, with sigma_e a scalar or a per-user vector of
    equal entries: the inputs, the common sigma_e, coup = r sqrt(2) sigma_e,
    Q (N_t x m, m <= min(2K, N_t)), an orthonormal basis of span{h_j, conj h_j}
    from one reduced QR, the rows h_c_j = Q^H h_j, and the (K, m, m) stacks
    terms_j = Q^H (h_j h_j^H - coup Re{psi_j h_j^H}) Q and
    re_psi_j = Q^H Re{psi_j h_j^H} Q for the ZF proxies psi. The element-wise
    Re{psi_j h_j^H} = (psi_j h_j^H + conj(psi_j) h_j^T) / 2 lies in span Q,
    since each ZF row lies in span{h_j}."""
    sigma_e = np.asarray(sigma_e, dtype=float)
    if np.ptp(sigma_e) > 1e-12:
        raise ValueError("the closed-form design assumes a common sigma_e")
    common = float(sigma_e.flat[0])
    coup = r * np.sqrt(2.0) * common
    psi = zf_directions(h_est)
    basis, _ = np.linalg.qr(np.concatenate([h_est, h_est.conj()]).T)
    h_c, hbar_c, psi_c, psibar_c = np.split(
        np.concatenate([h_est, h_est.conj(), psi, psi.conj()]) @ basis.conj(), 4)
    re_psi = (np.einsum("ji,jl->jil", psi_c, h_c.conj())
              + np.einsum("ji,jl->jil", psibar_c, hbar_c.conj())) / 2.0
    return Alg1Dual(h_est, np.asarray(gammas, dtype=float), common, coup, basis, h_c,
                    np.einsum("ji,jl->jil", h_c, h_c.conj()) - coup * re_psi, re_psi)


def solve_nu(dual: Alg1Dual, tol: float = 1e-10, max_iters: int = 500) -> np.ndarray:
    """The fixed point of alg1's dual, by continuation from sigma_e = 0:
    Newton's method in log nu (_dual_fixed_point) from the constant-offset
    fixed point, and Gauss-Seidel sweeps into Newton's basin only as fallback.

    nu_k^{-1} = h_k^H M_k^{-1} h_k (1 + 1/gamma_k), with coup = r sqrt(2) sigma_e and
      M_k = (1 + sigma_e^2 sum_{j!=k} nu_j - nu_k sigma_e^2 / gamma_k) I
            + sum_j nu_j h_j h_j^H + (coup nu_k / gamma_k) Re{psi_k h_k^H}
            - coup sum_{j!=k} nu_j Re{psi_j h_j^H}
    for the current nu and the dual's ZF proxies psi.

    In the dual's basis Q, M_k = c_k I + Q S_k Q^H and h_k = Q a_k,
    so the form is a_k^H (c_k I + S_k)^{-1} a_k. Newton's method works on
    f = log nu + log v where, with X_k = c_k I + S_k, x_k = X_k^{-1} a_k,
    w_k^H = a_k^H X_k^{-1} and s_k = 1 + 1/gamma_k, v_k = s_k Re(a_k^H x_k) is
    1/nu_k's right-hand side. As d(a^H X^{-1} a) = -w^H dX x, the slope
    S = -dv/dnu / s_k has
      S_kj = Re(w_k^H (terms_j + sigma_e^2 I) x_k)                            j != k
      S_kk = Re(w_k^H (terms_k + coup s_k re_psi_k - sigma_e^2/gamma_k I) x_k)
    and an evaluation costs one batched inverse of the K m x m matrices X_k,
    its slope O(K^2 m^2) einsums, after O(K^2 N_t) once for the basis.

    At sigma_e = 0 the map is the constant-offset dual's, so that fixed point,
    solve_nu_constant_offset (called by its public name so that a trace shows
    it), starts Newton inside the basin: on 0.5 km cells about five
    evaluations and no sweep. This attempt has no plain step and at most
    min(max_iters, CONTINUATION_STEPS) Newton candidates: a rejected
    candidate, running out of them, or any ConvergenceError of the
    constant-offset dual ends it. The element-wise Re{psi h^H} term gives the
    map more than one fixed point, and Newton from outside the basin lands on
    other ones, so then the sweep path runs from nu_k = gamma_k / alpha_k
    with its own max_iters: Gauss-Seidel sweeps until one's largest relative
    step is below NEWTON_FROM, then Newton, which hands a rejected candidate
    back to the sweep. Newton can land on a fixed point that the sweep
    repels, which the sweep path never returns, so the continuation's nu is
    kept only where _sweep_bound, from Newton's last Jacobian, shows that the
    sweep contracts there. Otherwise, and on every cell the continuation does
    not solve, the result is the sweep path's: its iterates, errors and
    messages bit for bit. The check is necessary, not sufficient: a few
    generated 1.5 and 3.2 km cells keep a fixed point where the sweep
    contracts but that it does not reach from nu_0 (README).

    A sweep rebuilds the shared part of S_k and updates it as each nu_k
    changes: per user step one m x m solve, O(m^3), plus O(m^2) to build
    c_k I + S_k in place, through the LAPACK gesv gufunc that np.linalg.solve
    wraps: the same bits without the wrapper's per-call overhead, which is
    larger than the solve itself at m <= 16. The gufunc fills a singular
    system's solution with NaN instead of raising, so a NaN form is that
    error; under _dual_fixed_point's np.errstate(all="ignore") an overflow in
    a sweep ends the same way, without a RuntimeWarning. The sweep converges
    only linearly, so Newton takes over once it is close: with the threshold
    at 1e-2, two generated cells that the sweep never solves, not even in
    20 000 sweeps, became successes; at 1e-3 every changed outcome was a cell
    that the sweep solves given more sweeps.
    """
    # S_k = sum_j nu_j terms_j + coup nu_k (1 + 1/gamma_k) re_psi_k
    h_est, gammas, sigma_e, coup, _, h_c, terms, re_psi = dual
    k_users, m = re_psi.shape[:2]
    var_e = sigma_e ** 2
    scale = 1.0 + 1.0 / gammas
    users = list(zip(gammas.tolist(), h_c, re_psi, terms))
    jac_diagonal = np.arange(k_users)

    def sweep(nu):
        matrix = np.empty((m, m), dtype=complex)
        diagonal = matrix.reshape(-1)[::m + 1]
        total, nu_sum = np.einsum("j,jil->il", nu, terms), float(nu.sum())
        values = nu.tolist()
        for k, (gamma, h_k, re_psi_k, terms_k) in enumerate(users):
            nu_k, scale_k = values[k], 1.0 + 1.0 / gamma
            c_k = 1.0 + var_e * (nu_sum - nu_k) - nu_k * var_e / gamma
            np.multiply(coup * nu_k * scale_k, re_psi_k, out=matrix)
            matrix += total
            diagonal += c_k
            val = np.vdot(h_k, lapack.solve1(matrix, h_k)).real * scale_k
            if math.isnan(val) or val <= 0:
                raise ConvergenceError(
                    "dual fixed point made the user matrix singular" if math.isnan(val)
                    else "dual fixed point left the positive cone",
                    last_iterate=np.array(values))
            nu_new = 1.0 / val
            np.multiply(nu_new - nu_k, terms_k, out=matrix)
            total += matrix
            nu_sum += nu_new - nu_k
            values[k] = nu_new
        return np.array(values)

    def evaluate(nu):
        inverse = lapack.inv(_user_matrices(dual, nu)[1])
        x = np.einsum("kil,kl->ki", inverse, h_c)
        w = np.einsum("ki,kil->kl", h_c.conj(), inverse)      # rows w_k^H
        v = scale * np.einsum("ki,ki->k", h_c.conj(), x).real

        def slope():
            wx = np.einsum("ki,ki->k", w, x).real
            s = np.einsum("ki,jil,kl->kj", w, terms, x).real + var_e * wx[:, None]
            s[jac_diagonal, jac_diagonal] += scale * (
                coup * np.einsum("ki,kil,kl->k", w, re_psi, x).real - var_e * wx)
            return s
        return v, slope, np.log(nu * v)

    def no_sweep(nu):
        raise ConvergenceError("Newton candidate rejected", last_iterate=nu)

    try:
        nu, jac = _dual_fixed_point(no_sweep, evaluate, solve_nu_constant_offset(h_est, gammas),
                                    scale, math.inf, tol, min(max_iters, CONTINUATION_STEPS))
        if _sweep_bound(jac) < 1.0:
            return nu
    except ConvergenceError:
        pass
    return _dual_fixed_point(sweep, evaluate, nu_massive_approx(h_est, gammas), scale,
                             NEWTON_FROM, tol, max_iters)[0]


def _user_matrices(dual: Alg1Dual, nu: np.ndarray) -> tuple:
    """At nu, sum_j nu_j terms_j and the K m x m matrices X_k = c_k I + S_k of
    solve_nu's docstring, which add it."""
    k_users, m = dual.re_psi.shape[:2]
    var_e, gammas = dual.sigma_e ** 2, dual.gammas
    total = np.einsum("j,jil->il", nu, dual.terms)
    mats = total + (dual.coup * nu * (1.0 + 1.0 / gammas))[:, None, None] * dual.re_psi
    mats.reshape(k_users, -1)[:, ::m + 1] += (
        1.0 + var_e * (nu.sum() - nu) - nu * var_e / gammas)[:, None]
    return total, mats


def _sweep_bound(jac):
    """A bound on how much a Gauss-Seidel sweep near a fixed point scales
    relative errors, from Newton's Jacobian J there: the infinity norm of
    I - J, which there is the Jacobian of nu -> 1/v(nu) in relative units. With
    I - J = L + D + U in sweep order, the sweep's Jacobian (I - L)^{-1} (D + U)
    has at most that norm when it is below 1, so the sweep then contracts."""
    return float(np.abs(np.eye(len(jac)) - jac).sum(axis=1).max())


def _dual_fixed_point(plain_step, evaluate, nu, scale, newton_from, tol, max_iters):
    """The fixed point nu = 1/v(nu) of a dual, from nu: plain steps until one
    moves no entry by more than newton_from relative, then Newton's method on
    f = log nu + log v in log nu.

    evaluate(nu) returns (v, slope, f) with f = log(nu v) and slope() the
    K x K matrix S of -dv/dnu / scale, built only when a step needs it, so that
    the Jacobian of f is J = I - diag(scale / v) S diag(nu). plain_step(nu)
    returns the next plain iterate and raises the dual's own errors. A Newton
    candidate nu exp(-J^{-1} f) is taken when its f is finite and it either
    lowers ||f||^2 or moves by less than tol, since at rounding level ||f||^2
    need not fall; otherwise, also when a singular matrix or a v <= 0 makes f
    non-finite, the next step is plain, and Newton is tried again after it if
    that plain step moved by at most newton_from. newton_from = inf starts with
    Newton at nu itself. The solve stops when a step's largest relative change
    is below tol; max_iters counts Newton candidates and plain steps alike.
    Returns nu and the Jacobian J of the last Newton step, taken within tol of
    nu when the solve ends on a Newton step (None if none was taken).
    Both steps run under np.errstate(all="ignore"): a step's overflow or
    singular gufunc shows as a non-finite value, not a RuntimeWarning.
    """
    eye = np.eye(len(nu))
    newton, state, jac = newton_from == math.inf, None, None
    with np.errstate(all="ignore"):
        for _ in range(max_iters):
            if newton:
                v, slope, f = state or evaluate(nu)
                jac = eye - (scale / v)[:, None] * slope() * nu
                trial = nu * np.exp(-lapack.solve1(jac, f))
                state = evaluate(trial)
                max_rel = (np.abs(trial - nu) / trial).max()
                f_trial = state[2]
                newton = bool(np.isfinite(f_trial).all()
                              and (f_trial @ f_trial < f @ f or max_rel < tol))
                if not newton:
                    state = None
                    continue
                nu = trial
            else:
                nu_new = plain_step(nu)
                max_rel = (np.abs(nu_new - nu) / nu_new).max()
                nu, newton = nu_new, max_rel <= newton_from
            if max_rel < tol:
                return nu, jac
    raise ConvergenceError(f"nu fixed point did not converge in {max_iters} sweeps",
                           last_iterate=nu)


def directions_from_nu(dual: Alg1Dual, nu: np.ndarray) -> np.ndarray:
    """Per-user eigen directions: u_k is the eigenvector of
      B_k = I - M_k + nu_k (1 + 1/gamma_k) h_k h_k^H      (M_k as in solve_nu)
    for the eigenvalue of largest real part, with unit norm, phased so that
    h_k^H u_k >= 0: each row is rotated by conj(c_k)/|c_k|, c_k = h_k^H u_k, in
    one vectorized step, and a row whose c_k is exactly 0 is left unrotated.

    In the dual's basis Q, B_k = shift_k I + Q T_k Q^H has spectrum
    shift_k + eig(T_k) on span Q and shift_k on its complement, with
    T_k = s_k nu_k a_k a_k^H - S_k, s_k = 1 + 1/gamma_k. _top_eigenvectors
    finds T_k's top eigenvector y_k by Rayleigh-quotient iteration, certifies
    it, and takes np.linalg.eig only for the users whose pair fails the
    certificate; u_k = Q y_k, O(K^2 N_t + K m^3). The iteration starts at
    solve_nu's x_k = X_k^{-1} a_k: T_k x_k = c_k x_k + (s_k nu_k a_k^H x_k - 1) a_k,
    and the fixed point makes the real part of s_k nu_k a_k^H x_k exactly 1,
    so x_k is close to an eigenvector, and on 0.5 km cells at most three
    steps certify every user. If m < N_t and no eigenvalue of T_k has
    positive real part, u_k is orthogonal to every channel:
    DegenerateChannelsError.
    """
    h_est, basis = dual.h_est, dual.basis
    total, mats = _user_matrices(dual, nu)
    small = (nu * (1.0 + 1.0 / dual.gammas))[:, None, None] * dual.terms - total
    with np.errstate(all="ignore"):
        start = lapack.solve1(mats, dual.h_c)
    vectors, eigvals = _top_eigenvectors(small, start)
    if basis.shape[1] < h_est.shape[1] and np.any(eigvals.real <= 0):
        raise DegenerateChannelsError(
            "the top eigenvector of a user's eigen matrix is orthogonal to every channel")
    u_rows = vectors @ basis.T      # row k is (Q y_k)^T
    c = np.einsum("ki,ki->k", h_est.conj(), u_rows)
    size = np.abs(c)
    rotation = np.divide(c.conj(), size, out=np.ones_like(c), where=size > 0)
    return _normalize_rows(u_rows * rotation[:, None])


def _squared_norms(stack: np.ndarray) -> np.ndarray:
    """The squared Frobenius norm of each matrix of a contiguous complex stack."""
    return np.square(stack.view(float)).sum(axis=(1, 2))


def _top_eigenvectors(small: np.ndarray, start: np.ndarray) -> tuple:
    """For the K m x m matrices T_k = small[k], the eigenvector y_k (rows, any
    phase) of the eigenvalue lambda_k of largest real part, and lambda_k.

    Rayleigh-quotient iteration, batched over users, runs from the rows of
    start: lambda_k = y_k^H T_k y_k, then y_k <- (T_k - lambda_k I)^{-1} y_k,
    normalized. A user is frozen once ||T_k y_k - lambda_k y_k|| is at most
    4 eps m ||T_k||_F, and the iteration stops after RQI_STEPS steps; a NaN
    from a singular shift never counts as converged.

    The iteration finds an eigenpair, not necessarily the top one, so a
    converged pair is kept only where it is certified: where the Cholesky
    factorization of (Re lambda_k) I - P_k Herm(T_k) P_k, P_k = I - y_k y_k^H,
    succeeds. Proof: y_k is an exact eigenvector of T_k - r_k y_k^H, r_k the
    residual above. In a unitary basis [y_k, Y_2], that matrix is block upper
    triangular, with lambda_k on top and T_22 = Y_2^H T_k Y_2 below, so every
    other eigenvalue mu is one of T_22's and lies in its numerical range:
    Re mu <= lambda_max(Herm T_22) = lambda_max(Y_2^H Herm(T_k) Y_2). In that
    basis the certified matrix is diag(Re lambda_k, Re lambda_k I - Herm T_22),
    so its Cholesky factorization succeeds only if Re mu < Re lambda_k for
    every other mu, and also Re lambda_k > 0. The code factors twice that
    matrix, built from T_k y_k and y_k^H T_k without forming Herm(T_k) or
    P_k; a failed factorization fills its output with NaN. Every user
    without a certified pair takes one batched np.linalg.eig of its T_k and
    the eigenvector of the eigenvalue of largest real part, as LAPACK
    returns it.
    """
    m = small.shape[-1]
    eye = np.eye(m)
    y = start[:, :, None]                       # columns
    with np.errstate(all="ignore"):
        bound = (RQI_TOL * m) ** 2 * _squared_norms(small)
        for step in range(RQI_STEPS + 1):
            y = y / np.sqrt(_squared_norms(y))[:, None, None]
            y_h = y.conj().transpose(0, 2, 1)
            t_y = small @ y
            lam = y_h @ t_y
            done = _squared_norms(t_y - lam * y) <= bound
            if step == RQI_STEPS or done.all():
                break
            y = np.where(done[:, None, None], y, lapack.solve(small - lam * eye, y))
        # With H = Herm(T), g = H y and rho = y^H H y = Re lambda,
        # P H P = H - y g^H - g y^H + rho y y^H, so twice the certified matrix is
        # W + W^H + 2 rho I with W = e y^H - T and e = 2 g - rho y
        rho = lam.real
        e = t_y + (y_h @ small).conj().transpose(0, 2, 1) - rho * y
        twice = e @ y_h - small
        twice += twice.conj().transpose(0, 2, 1)
        twice.reshape(len(twice), -1)[:, ::m + 1] += 2.0 * rho[:, 0]
        factor = lapack.cholesky_lo(twice)
    y, lam = y[:, :, 0], lam.ravel()
    certified = done & np.isfinite(factor).all(axis=(1, 2))
    if not certified.all():
        rest = np.flatnonzero(~certified)
        eigvals, eigvecs = np.linalg.eig(small[rest])
        top = np.argmax(eigvals.real, axis=1)
        inner = np.arange(len(rest))
        y[rest], lam[rest] = eigvecs[inner, :, top], eigvals[inner, top]
    return y, lam


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
    its fixed point is unique, and _dual_fixed_point runs Newton's method in
    log nu from nu_k = gamma_k / alpha_k, with the plain step nu = 1/v(nu) as
    its safeguard. Since dX_kk/dnu_j = -X_kj X_jk, the slope is
    S = Re(X o X^T). About five steps, ten K x K solves, reach tol where the
    plain step alone takes about ninety. I + GN is nonsingular for nu > 0 (GN
    is similar to N^1/2 G N^1/2 >= 0), but 1 + nu_k |h_k|^2 rounds to
    nu_k |h_k|^2 past 2^53, and I + GN can then be singular: the plain step,
    which takes v from the same evaluation as Newton, raises "made the shared
    matrix singular" where the solve's NaN fill makes v NaN, and "left the
    positive cone" where a rounded X_kk <= 0.
    """
    gammas = np.asarray(gammas, dtype=float)
    scale = 1.0 + 1.0 / gammas
    gram = h_est.conj() @ h_est.T          # [i, j] = h_i^H h_j
    eye = np.eye(h_est.shape[0])

    def evaluate(nu):
        x = lapack.solve(eye + gram * nu, gram)
        v = np.real(np.diagonal(x)) * scale
        return v, lambda: np.real(x * x.T), np.log(nu * v)

    def plain_step(nu):
        v = evaluate(nu)[0]
        if not (v > 0).all():
            raise ConvergenceError(
                "dual fixed point made the shared matrix singular" if np.isnan(v).any()
                else "dual fixed point left the positive cone", last_iterate=nu)
        return 1.0 / v

    return _dual_fixed_point(plain_step, evaluate, nu_massive_approx(h_est, gammas), scale,
                             math.inf, tol, max_iters)[0]


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
    """Iterative closed-form directions at the common offset r: alg1's dual
    with ZF proxies, its fixed point, then the per-user eigen directions. The
    stages are called by their public names so that each keeps its own span
    in a trace."""
    dual = alg1_dual(h_est, gammas, sigma_e, r)
    return directions_from_nu(dual, solve_nu(dual))
