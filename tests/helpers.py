"""Shared construction helpers for the test suite."""

import numpy as np

from offsetbf.channel import Scenario, draw_errors
from offsetbf.directions import nu_massive_approx
from offsetbf.errors import (ConvergenceError, DegenerateChannelsError,
                             InfeasibleLoadingError)
from offsetbf.montecarlo import (SINR_TOLERANCE, SweepPoint, _trial_seed,
                                 viability_check)
from offsetbf.powerload import DesignReport


def standard_complex(rng, shape):
    z = rng.standard_normal(size=tuple(shape) + (2,))
    return (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)


def unit_scale_scenario(k=3, nt=4, seed=0, sigma_e=0.1, noise=1.0, gamma=4.0):
    """Scenario with h_est rows drawn CN(0, I): channel norms ~ nt >> sigma_e^2.

    This is the small-relative-uncertainty regime in which offset designs at
    moderate r are almost surely feasible, handy for statistical checks.
    """
    rng = np.random.default_rng(seed)
    return Scenario(h_est=standard_complex(rng, (k, nt)), sigma_e=sigma_e,
                    noise_power=noise, sinr_target=gamma)


def orthonormal_rows(k, nt, seed=0, norms=None):
    """k orthonormal rows of length nt, optionally rescaled to given norms."""
    rng = np.random.default_rng(seed)
    a = standard_complex(rng, (nt, nt))
    q, _ = np.linalg.qr(a)
    rows = q.T[:k]
    if norms is not None:
        rows = rows * np.sqrt(np.asarray(norms, dtype=float))[:, None]
    return rows


def scenario_from_rows(h_est, sigma_e=0.1, noise=1.0, gamma=4.0):
    """Wrap explicit channel rows into a Scenario."""
    return Scenario(h_est=h_est, sigma_e=sigma_e, noise_power=noise, sinr_target=gamma)


def solve_nu_oracle(dual, tol=1e-10, max_iters=500):
    """Oracle for directions.solve_nu's sweep on the same directions.Alg1Dual:
    the same Gauss-Seidel sweep in the dual's basis, with each user step a
    plain np.linalg.solve that raises LinAlgError on a singular matrix, and no
    Newton polish. The arithmetic is the same, so on a cell whose sweep never
    gets below directions.NEWTON_FROM the error raised and its last_iterate
    must match solve_nu bit for bit."""
    h_est, gammas, sigma_e, coup, _, h_c, terms, re_psi = dual
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
            return nu
    raise ConvergenceError(f"nu fixed point did not converge in {max_iters} sweeps",
                           last_iterate=nu)


def solve_nu_constant_offset_oracle(h_est, gammas, tol=1e-10, max_iters=500):
    """Oracle for directions.solve_nu_constant_offset: log-Newton steps from
    nu_0 with np.linalg.solve. A candidate is taken when its f is finite and
    it lowers ||f||^2 or moves by less than tol; otherwise, also when
    np.linalg.solve raises LinAlgError on a singular matrix, the next step is
    the plain nu = 1/v(nu), which ends the solve with the solver's errors.
    Candidates and plain steps count alike against max_iters. nu, the error
    raised and its last_iterate must match solve_nu_constant_offset bit for bit."""
    gammas = np.asarray(gammas, dtype=float)
    scale = 1.0 + 1.0 / gammas
    gram = h_est.conj() @ h_est.T
    eye = np.eye(h_est.shape[0])

    def evaluate(nu):
        x = np.linalg.solve(eye + gram * nu, gram)
        return x, np.real(np.diagonal(x)) * scale

    nu = nu_massive_approx(h_est, gammas)
    newton = True
    for _ in range(max_iters):
        if newton:
            with np.errstate(all="ignore"):
                try:
                    x, v = evaluate(nu)
                    f = np.log(nu * v)
                    jac = eye - (scale / v)[:, None] * np.real(x * x.T) * nu
                    trial = nu * np.exp(-np.linalg.solve(jac, f))
                    f_t = np.log(trial * evaluate(trial)[1])
                    max_rel = np.max(np.abs(trial - nu) / trial)
                    newton = bool(np.all(np.isfinite(f_t))
                                  and (f_t @ f_t < f @ f or max_rel < tol))
                except np.linalg.LinAlgError:
                    newton = False
            if not newton:
                continue
            nu = trial
        else:
            try:
                _, v = evaluate(nu)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError("dual fixed point made the shared matrix singular",
                                       last_iterate=nu) from exc
            if np.any(v <= 0):
                raise ConvergenceError("dual fixed point left the positive cone",
                                       last_iterate=nu)
            nu_new = 1.0 / v
            max_rel = np.max(np.abs(nu_new - nu) / nu_new)
            nu, newton = nu_new, True
        if max_rel < tol:
            return nu
    raise ConvergenceError(f"nu fixed point did not converge in {max_iters} sweeps",
                           last_iterate=nu)


def directions_from_nu_oracle(dual, nu):
    """Oracle for directions.directions_from_nu: one np.linalg.eig of every
    user's T_k in the dual's basis, the eigenvector of the eigenvalue of
    largest real part, the same degenerate-channel check, and the same phase
    alignment (h_k^H u_k >= 0, a row with h_k^H u_k = 0 left unrotated) and
    normalization."""
    h_est, gammas, terms, basis = dual.h_est, dual.gammas, dual.terms, dual.basis
    small = (nu * (1.0 + 1.0 / gammas))[:, None, None] * terms \
        - np.einsum("j,jil->il", nu, terms)
    eigvals, eigvecs = np.linalg.eig(small)
    users, top = np.arange(h_est.shape[0]), np.argmax(eigvals.real, axis=1)
    if basis.shape[1] < h_est.shape[1] and np.any(eigvals[users, top].real <= 0):
        raise DegenerateChannelsError(
            "the top eigenvector of a user's eigen matrix is orthogonal to every channel")
    u_rows = eigvecs[users, :, top] @ basis.T
    c = np.einsum("ki,ki->k", h_est.conj(), u_rows)
    size = np.abs(c)
    rotation = np.divide(c.conj(), size, out=np.ones_like(c), where=size > 0)
    u_rows = u_rows * rotation[:, None]
    return u_rows / np.linalg.norm(u_rows, axis=1, keepdims=True)


def newton_load_oracle(coupling, beta, r, tol, max_iters, total_power=None):
    """Oracle for powerload._newton_load, with the same signature: each step
    takes sigma_f with np.clip, divides the gradient by a np.where-guarded
    sigma_f and zeroes its rows where sigma_f = 0, builds the residual with
    np.append and the bordered Jacobian with np.block, solves with
    np.linalg.solve, and stops at a non-finite beta, all under
    np.errstate(all="ignore"). The loadings, r, the error raised and its
    last_iterate must match _newton_load bit for bit."""
    tiny = np.finfo(float).tiny
    with np.errstate(all="ignore"):
        for iteration in range(1, max_iters + 1):
            var = np.einsum("kjl,j,l->k", coupling.g_tensor, beta, beta)
            sigma_f = np.sqrt(np.clip(var, 0.0, None))
            safe = np.where(sigma_f > 0, sigma_f, 1.0)
            grad = np.einsum("kjl,l->kj", coupling.g_tensor, beta) / safe[:, None]
            grad[sigma_f == 0] = 0.0
            residual = coupling.mu_f(beta) - r * sigma_f
            jac = coupling.a - r[:, None] * grad
            if total_power is not None:
                residual = np.append(residual, beta.sum() - total_power)
                jac = np.block([[jac, -sigma_f[:, None]], [np.ones((1, len(beta))), 0.0]])
            try:
                step = np.linalg.solve(jac, -residual)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError("power loading Jacobian is singular",
                                       last_iterate=beta) from exc
            beta_new = beta + step[:len(beta)]
            if not np.all(np.isfinite(beta_new)):
                raise ConvergenceError("power loading left the float range: its Newton "
                                       "step is not finite", last_iterate=beta)
            change = np.max(np.abs(beta_new - beta)) / max(np.max(np.abs(beta_new)), tiny)
            beta = beta_new
            if total_power is not None:
                r = r + step[-1]
                change = max(change, abs(step[-1]) / max(abs(r[0]), tiny))
            if change < tol:
                return DesignReport(coupling, beta, r, iteration)
    raise ConvergenceError(f"power loading did not converge in {max_iters} iterations",
                           last_iterate=beta)


def max_r_alternation_oracle(coupling, total_power, tol=1e-9, max_iters=200):
    """Oracle for powerload.max_r_power_load: alternate the closed form
    r = (Pt - 1^T A^{-1} sigma^2) / (1^T A^{-1} sigma_f) with the linear power
    update beta = A^{-1} (sigma^2 + r sigma_f) until r changes by less than tol
    relative. Linear convergence, but each iterate spends the budget exactly.
    A^{-1} sigma^2 must be nonnegative with some sigma_f_k > 0 there.

    Returns (beta, r, iterations)."""
    base = coupling.a_inv @ coupling.noise
    colsums = coupling.a_inv.sum(axis=0)
    budget = total_power - base.sum()
    beta, r = base.copy(), 0.0
    sigma_f = coupling.sigma_f(beta)
    for iteration in range(1, max_iters + 1):
        r_new = budget / (colsums @ sigma_f)
        beta = base + r_new * (coupling.a_inv @ sigma_f)
        sigma_f = coupling.sigma_f(beta)
        converged = abs(r_new - r) <= tol * max(abs(r_new), 1e-30)
        r = r_new
        if converged:
            return beta, float(r), iteration
    raise ConvergenceError(f"max-r alternation did not converge in {max_iters} iterations",
                           last_iterate=beta)


def sinr_values(design, h_rows, noise):
    """SINR of each user for channels h_rows (K, N_t) and the given design."""
    w = design.weights()
    gains = np.abs(h_rows.conj() @ w.T) ** 2   # [i, j] = |h_i^H w_j|^2
    signal = np.diag(gains)
    interference = gains.sum(axis=1) - signal
    return signal / (interference + np.asarray(noise, dtype=float))


def dense_slack_moments(h_k, u, beta, gamma_k, sigma_e, noise_k, k):
    """Reference (mu_f, sigma_f) of user k with Q_k formed explicitly.

    Q_k = beta_k u_k u_k^H / gamma_k - sum_{j!=k} beta_j u_j u_j^H and, for
    e ~ CN(0, sigma_e^2 I),
      mu_f = h^H Q h - sigma^2 + sigma_e^2 (beta_k / gamma_k - sum_{j!=k} beta_j),
      sigma_f^2 = 2 sigma_e^2 ||Q h||^2 + sigma_e^4 ||Q||_F^2.
    """
    beta = np.asarray(beta, dtype=float)
    scale = -beta.copy()
    scale[k] = beta[k] / gamma_k
    q = np.einsum("j,ji,jl->il", scale, u, u.conj())
    qh = q @ h_k
    mu = float(np.real(np.vdot(h_k, qh))) - noise_k + sigma_e ** 2 * scale.sum()
    var = 2.0 * sigma_e ** 2 * float(np.real(np.vdot(qh, qh)))
    var += sigma_e ** 4 * float(np.sum(np.abs(q) ** 2))
    return mu, float(np.sqrt(var))


def estimate_outage_oracle(designs, scenario, n_trials, base_seed):
    """Oracle for montecarlo.estimate_outage: each user's n_trials errors in one
    draw, and each design scored on its own in full-length passes, with the
    realized SINR of every trial compared against the target."""
    weights = [design.weights() for design in designs]
    estimates = np.zeros((len(weights), scenario.n_users))
    stderrs = np.zeros_like(estimates)
    for k in range(scenario.n_users):
        h_conj = draw_errors(scenario.sigma_e[k], scenario.n_antennas, n_trials,
                             _trial_seed(base_seed, k))
        h_conj += scenario.h_est[k]
        np.conjugate(h_conj, out=h_conj)
        threshold = scenario.sinr_target[k] * (1.0 - SINR_TOLERANCE)
        for d, w in enumerate(weights):
            gains = np.abs(h_conj @ w.T) ** 2          # [t, j] = |h^H w_j|^2
            interference = gains.sum(axis=1) - gains[:, k]
            sinr = gains[:, k] / (interference + scenario.noise_power[k])
            p = float(np.mean(sinr < threshold))
            estimates[d, k] = p
            stderrs[d, k] = np.sqrt(p * (1.0 - p) / n_trials)
    return estimates, stderrs


def per_algorithm_sweep(algorithms, scenario_generator, r_values, n_realizations,
                        n_trials, base_seed=0):
    """Oracle for montecarlo.sweep: every design estimated on its own.

    algorithms: list of (name, design_fn) with design_fn(scenario, r) returning
    a DesignReport or None, or raising a design error. Each r and each
    algorithm redoes all of its work, and each kept design gets one
    single-design outage estimate seeded with spawn key (i, 1 + ri).
    """
    design_errors = (InfeasibleLoadingError, ConvergenceError,
                     DegenerateChannelsError)
    scenarios = [scenario_generator(np.random.SeedSequence(entropy=base_seed,
                                                           spawn_key=(i,)))
                 for i in range(n_realizations)]
    points = []
    for ri, r in enumerate(r_values):
        designs = {name: [] for name, _ in algorithms}
        kept = []
        for i, scenario in enumerate(scenarios):
            row = []
            for _, design_fn in algorithms:
                try:
                    row.append(design_fn(scenario, r))
                except design_errors:
                    row.append(None)
            if all(viability_check(d) for d in row):
                kept.append(i)
                for (name, _), design in zip(algorithms, row):
                    designs[name].append(design)
        for name, _ in algorithms:
            if not kept:
                points.append(SweepPoint(name, float(r), float("nan"), float("nan"),
                                         float("nan"), 0))
                continue
            powers, outages, variances = [], [], []
            for design, i in zip(designs[name], kept):
                seed = np.random.SeedSequence(entropy=base_seed, spawn_key=(i, 1 + ri))
                est, se = estimate_outage_oracle([design], scenarios[i], n_trials, seed)
                powers.append(float(np.sum(design.powers)))
                outages.append(float(np.mean(est[0])))
                variances.append(float(np.sum(se[0] ** 2)) / est.shape[1] ** 2)
            n = len(kept)
            points.append(SweepPoint(name, float(r), float(np.mean(powers)),
                                     float(np.mean(outages)),
                                     float(np.sqrt(np.sum(variances)) / n), n))
    return points
