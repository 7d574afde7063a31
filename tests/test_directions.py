"""Tests for the beamforming direction solvers."""

import numpy as np
import pytest

from offsetbf import cli
from offsetbf.directions import (DualState, alg1_directions, const_offset_directions,
                                 directions_constant_offset, directions_from_nu,
                                 mrt_directions, nu_massive_approx,
                                 rzf_directions, solve_nu,
                                 solve_nu_constant_offset, zf_directions)
from offsetbf.errors import ConvergenceError, DegenerateChannelsError
from offsetbf.stats import sinr_values

from helpers import orthonormal_rows, standard_complex, unit_scale_scenario


def literal_dual_matrix(h_est, psi, nu, gammas, sigma_e, r, k):
    """Term-by-term construction of the matrix in the nu fixed point (oracle)."""
    nt = h_est.shape[1]
    m = np.eye(nt, dtype=complex)
    for j in range(h_est.shape[0]):
        m += nu[j] * np.outer(h_est[j], h_est[j].conj())
    m -= nu[k] * sigma_e ** 2 / gammas[k] * np.eye(nt)
    for j in range(h_est.shape[0]):
        if j != k:
            m += nu[j] * sigma_e ** 2 * np.eye(nt)
    coup = r * np.sqrt(2.0) * sigma_e
    m += coup * nu[k] / gammas[k] * np.real(np.outer(psi[k], h_est[k].conj()))
    for j in range(h_est.shape[0]):
        if j != k:
            m -= coup * nu[j] * np.real(np.outer(psi[j], h_est[j].conj()))
    return m


def literal_eigen_matrix(h_est, psi, nu, gammas, sigma_e, r, k):
    """Term-by-term construction of the direction eigen matrix (oracle)."""
    nt = h_est.shape[1]
    b = nu[k] / gammas[k] * np.outer(h_est[k], h_est[k].conj())
    for j in range(h_est.shape[0]):
        if j != k:
            b -= nu[j] * np.outer(h_est[j], h_est[j].conj())
    b += nu[k] * sigma_e ** 2 / gammas[k] * np.eye(nt)
    for j in range(h_est.shape[0]):
        if j != k:
            b -= nu[j] * sigma_e ** 2 * np.eye(nt)
    coup = r * np.sqrt(2.0) * sigma_e
    b -= coup * nu[k] / gammas[k] * np.real(np.outer(psi[k], h_est[k].conj()))
    for j in range(h_est.shape[0]):
        if j != k:
            b += coup * nu[j] * np.real(np.outer(psi[j], h_est[j].conj()))
    return b


def dense_solve_nu_constant_offset(h_est, gammas, tol=1e-10, max_iters=500):
    """The constant-offset fixed point with the N_t x N_t matrix (oracle)."""
    nt = h_est.shape[1]
    outers = np.einsum("ji,jl->jil", h_est, h_est.conj())
    nu = nu_massive_approx(h_est, gammas)
    for _ in range(max_iters):
        m = np.eye(nt, dtype=complex) + np.einsum("j,jil->il", nu, outers)
        x = np.linalg.solve(m, h_est.T)
        vals = np.real(np.einsum("ik,ik->k", h_est.T.conj(), x)) * (1.0 + 1.0 / gammas)
        if np.any(vals <= 0):
            raise ConvergenceError("dual fixed point left the positive cone",
                                   last_iterate=nu)
        nu_new = 1.0 / vals
        max_rel = np.max(np.abs(nu_new - nu) / nu_new)
        nu = nu_new
        if max_rel < tol:
            return nu
    raise ConvergenceError("nu fixed point did not converge", last_iterate=nu)


def dense_directions_constant_offset(nu, h_est, gammas):
    """Per-user N_t x N_t eigh of the constant-offset eigen matrix (oracle)."""
    outers = np.einsum("ji,jl->jil", h_est, h_est.conj())
    total = np.einsum("j,jil->il", nu, outers)
    u_rows = np.zeros_like(h_est)
    for k in range(h_est.shape[0]):
        b = (nu[k] / gammas[k] + nu[k]) * outers[k] - total
        _, eigvecs = np.linalg.eigh(b)
        u = eigvecs[:, -1]
        c = np.vdot(h_est[k], u)
        u_rows[k] = u * c.conjugate() / abs(c)    # h_k^H u_k real and positive
    return u_rows


def dense_dual_matrix(h_est, outers, re_psi, nu, gammas, sigma_e, r, k):
    """The N_t x N_t matrix M_k of the nu fixed point (oracle)."""
    nt = h_est.shape[1]
    shift = sigma_e ** 2 * (nu.sum() - nu[k]) - nu[k] * sigma_e ** 2 / gammas[k]
    m = (1.0 + shift) * np.eye(nt, dtype=complex)
    m += np.einsum("j,jil->il", nu, outers)
    coup = r * np.sqrt(2.0) * sigma_e
    m += (coup * nu[k] / gammas[k]) * re_psi[k]
    m -= coup * np.einsum("j,jil->il", nu, re_psi) - coup * nu[k] * re_psi[k]
    return m


def dense_solve_nu(h_est, gammas, sigma_e, r, psi, tol=1e-10, max_iters=500):
    """Gauss-Seidel dual fixed point with a dense solve of M_k per user (oracle)."""
    outers = np.einsum("ji,jl->jil", h_est, h_est.conj())
    re_psi = np.real(np.einsum("ji,jl->jil", psi, h_est.conj()))
    nu = nu_massive_approx(h_est, gammas)
    for _ in range(max_iters):
        max_rel = 0.0
        for k in range(h_est.shape[0]):
            m = dense_dual_matrix(h_est, outers, re_psi, nu, gammas, sigma_e, r, k)
            x = np.linalg.solve(m, h_est[k])
            val = np.real(np.vdot(h_est[k], x)) * (1.0 + 1.0 / gammas[k])
            if val <= 0:
                raise ConvergenceError("dual fixed point left the positive cone",
                                       last_iterate=nu)
            nu_new = 1.0 / val
            max_rel = max(max_rel, abs(nu_new - nu[k]) / nu_new)
            nu[k] = nu_new
        if max_rel < tol:
            return nu
    raise ConvergenceError(f"nu fixed point did not converge in {max_iters} sweeps",
                           last_iterate=nu)


def dense_directions_from_nu(nu, psi, h_est, gammas, sigma_e, r):
    """Top eigenvector of the N_t x N_t eigen matrix B_k per user (oracle)."""
    nt = h_est.shape[1]
    outers = np.einsum("ji,jl->jil", h_est, h_est.conj())
    re_psi = np.real(np.einsum("ji,jl->jil", psi, h_est.conj()))
    coup = r * np.sqrt(2.0) * sigma_e
    u_rows = np.zeros_like(h_est)
    for k in range(h_est.shape[0]):
        shift = nu[k] * sigma_e ** 2 / gammas[k] - sigma_e ** 2 * (nu.sum() - nu[k])
        b = shift * np.eye(nt, dtype=complex)
        b += (nu[k] / gammas[k] + nu[k]) * outers[k] - np.einsum("j,jil->il", nu, outers)
        b -= (coup * nu[k] / gammas[k]) * re_psi[k]
        b += coup * np.einsum("j,jil->il", nu, re_psi) - coup * nu[k] * re_psi[k]
        eigvals, eigvecs = np.linalg.eig(b)
        u = eigvecs[:, np.argmax(eigvals.real)]
        c = np.vdot(h_est[k], u)
        u_rows[k] = u * c.conjugate() / abs(c) / np.linalg.norm(u)
    return u_rows


# ---------------------------------------------------------------------------
# baseline directions
# ---------------------------------------------------------------------------

def test_zf_orthogonal_channels_reduce_to_mrt():
    h = orthonormal_rows(3, 4, seed=0, norms=[1.0, 4.0, 0.25])
    u = zf_directions(h)
    expected = h / np.linalg.norm(h, axis=1)[:, None]
    assert np.max(np.abs(u - expected)) < 1e-12


def test_zf_two_user_hand_instance():
    h = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex) / np.array([[1.0], [np.sqrt(2.0)]])
    u = zf_directions(h)
    expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
    phase = u[0, 0] / expected[0]
    assert np.max(np.abs(u[0] - phase * expected)) < 1e-12
    assert abs(np.vdot(h[1], u[0])) < 1e-12


def test_zf_nulls_cross_channels():
    rng = np.random.default_rng(1)
    h = standard_complex(rng, (3, 4))
    u = zf_directions(h)
    cross = np.abs(h.conj() @ u.T)
    off = cross - np.diag(np.diag(cross))
    assert np.max(off) < 1e-9
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)


def test_zf_degenerate_inputs():
    rng = np.random.default_rng(2)
    with pytest.raises(DegenerateChannelsError):
        zf_directions(standard_complex(rng, (5, 4)))
    h = standard_complex(rng, (2, 4))
    h[1] = h[0]
    with pytest.raises(DegenerateChannelsError):
        zf_directions(h)


def test_mrt_directions():
    h = np.array([[3.0, 4.0j]], dtype=complex)
    u = mrt_directions(h)
    assert np.allclose(u, h / 5.0)


def test_rzf_limits():
    rng = np.random.default_rng(3)
    h = standard_complex(rng, (3, 4))
    heavy = rzf_directions(h, loading=1e6 * np.linalg.norm(h) ** 2)
    mrt = mrt_directions(h)
    for k in range(3):
        assert abs(abs(np.vdot(heavy[k], mrt[k])) - 1.0) < 1e-6
    light = rzf_directions(h, loading=1e-9)
    zf = zf_directions(h)
    for k in range(3):
        assert abs(abs(np.vdot(light[k], zf[k])) - 1.0) < 1e-6
    with pytest.raises(ValueError):
        rzf_directions(h, loading=0.0)


# ---------------------------------------------------------------------------
# dual fixed points
# ---------------------------------------------------------------------------

def test_nu_massive_approx_values():
    h = orthonormal_rows(2, 4, seed=4, norms=[2.0, 0.5])
    nu = nu_massive_approx(h, np.array([4.0, 4.0]))
    assert np.allclose(nu, [2.0, 8.0])
    with pytest.raises(ValueError):
        nu_massive_approx(np.zeros((1, 4), dtype=complex), np.array([1.0]))


def test_solve_nu_constant_offset_orthogonal_closed_form():
    norms = np.array([1.0, 2.0, 0.5])
    gammas = np.array([4.0, 2.0, 1.0])
    h = orthonormal_rows(3, 4, seed=5, norms=norms)
    nu = solve_nu_constant_offset(h, gammas)
    assert np.max(np.abs(nu - gammas / norms)) < 1e-8


def test_solve_nu_constant_offset_single_user():
    h = np.array([[1.0 + 1.0j, 1.0]], dtype=complex)   # alpha = 3
    nu = solve_nu_constant_offset(h, np.array([6.0]))
    assert nu[0] == pytest.approx(2.0, rel=1e-9)


def test_solve_nu_constant_offset_residual():
    rng = np.random.default_rng(6)
    h = standard_complex(rng, (3, 4))
    gammas = np.array([4.0, 2.0, 3.0])
    nu = solve_nu_constant_offset(h, gammas)
    m = np.eye(4, dtype=complex)
    for j in range(3):
        m += nu[j] * np.outer(h[j], h[j].conj())
    for k in range(3):
        val = np.real(np.vdot(h[k], np.linalg.solve(m, h[k]))) * (1 + 1 / gammas[k])
        assert abs(1.0 / nu[k] - val) < 1e-10 * val


def test_solve_nu_matches_constant_offset_when_degenerate():
    rng = np.random.default_rng(7)
    h = standard_complex(rng, (3, 4))
    gammas = np.array([4.0, 4.0, 4.0])
    psi = zf_directions(h)
    dual = solve_nu(h, gammas, sigma_e=0.0, r=0.0, psi=psi)
    nu_const = solve_nu_constant_offset(h, gammas)
    assert np.max(np.abs(dual.nu - nu_const)) < 1e-10 * np.max(nu_const)


def test_solve_nu_self_consistency():
    rng = np.random.default_rng(8)
    h = standard_complex(rng, (3, 4))
    gammas = np.array([4.0, 2.0, 3.0])
    psi = zf_directions(h)
    sigma_e, r = 0.1, 2.0
    dual = solve_nu(h, gammas, sigma_e, r, psi)
    for k in range(3):
        m = literal_dual_matrix(h, psi, dual.nu, gammas, sigma_e, r, k)
        val = np.real(np.vdot(h[k], np.linalg.solve(m, h[k]))) * (1 + 1 / gammas[k])
        assert abs(1.0 / dual.nu[k] - val) < 1e-8 * val


def test_solve_nu_constant_offset_singular_matrix_is_convergence_error():
    # Near-duplicate channels push the dual weights until the shared matrix
    # is numerically singular; the failure must surface as the package's
    # convergence error (with the last iterate attached), never a raw
    # linear-algebra exception.
    rng = np.random.default_rng(13)
    h = standard_complex(rng, (3, 4))
    h[1] = h[0] + 1e-6 * h[2]
    gammas = np.full(3, 4.0)
    with pytest.raises(ConvergenceError) as excinfo:
        solve_nu_constant_offset(h, gammas)
    assert excinfo.value.last_iterate.shape == (3,)


# ---------------------------------------------------------------------------
# eigen directions
# ---------------------------------------------------------------------------

def test_directions_from_nu_perfect_csi_orthonormal():
    h = orthonormal_rows(3, 4, seed=9)
    gammas = np.array([4.0, 4.0, 4.0])
    psi = zf_directions(h)
    dual = solve_nu(h, gammas, sigma_e=0.0, r=0.0, psi=psi)
    u = directions_from_nu(dual, h, gammas, sigma_e=0.0, r=0.0)
    for k in range(3):
        assert abs(abs(np.vdot(u[k], h[k])) - 1.0) < 1e-9


def test_directions_from_nu_eigen_residual_and_phase():
    rng = np.random.default_rng(10)
    h = standard_complex(rng, (3, 4))
    gammas = np.array([4.0, 2.0, 3.0])
    psi = zf_directions(h)
    sigma_e, r = 0.1, 2.0
    dual = solve_nu(h, gammas, sigma_e, r, psi)
    u = directions_from_nu(dual, h, gammas, sigma_e, r)
    for k in range(3):
        b = literal_eigen_matrix(h, psi, dual.nu, gammas, sigma_e, r, k)
        eigvals = np.linalg.eigvals(b)
        lam = eigvals[np.argmax(eigvals.real)]
        assert np.linalg.norm(b @ u[k] - lam * u[k]) < 1e-8
        inner = np.vdot(h[k], u[k])
        assert abs(inner.imag) < 1e-12
        assert inner.real >= 0


def test_directions_from_nu_fixed_point_structure():
    # At the converged dual variables the eigen matrix satisfies
    # B_k = I - M_k + nu_k (1 + 1/gamma_k) h_k h_k^H, so M_k^{-1} h_k is an
    # eigenvector of B_k with eigenvalue exactly 1, and it is the one the
    # solver should return.
    rng = np.random.default_rng(11)
    h = standard_complex(rng, (3, 4))
    gammas = np.array([4.0, 2.0, 3.0])
    psi = zf_directions(h)
    sigma_e, r = 0.1, 2.0
    dual = solve_nu(h, gammas, sigma_e, r, psi)
    u = directions_from_nu(dual, h, gammas, sigma_e, r)
    for k in range(3):
        m = literal_dual_matrix(h, psi, dual.nu, gammas, sigma_e, r, k)
        b = literal_eigen_matrix(h, psi, dual.nu, gammas, sigma_e, r, k)
        recon = np.eye(4) - m + dual.nu[k] * (1 + 1 / gammas[k]) * np.outer(
            h[k], h[k].conj())
        assert np.max(np.abs(b - recon)) < 1e-12
        x = np.linalg.solve(m, h[k])
        x = x / np.linalg.norm(x)
        assert abs(abs(np.vdot(u[k], x)) - 1.0) < 1e-4
        # The fixed point equates nu_k^{-1} with the real part of
        # h^H M^{-1} h (1 + 1/gamma); the discarded imaginary part (M is not
        # Hermitian) shows up as a small imaginary component of the eigenvalue.
        eigvals = np.linalg.eigvals(b)
        lam = eigvals[np.argmax(eigvals.real)]
        assert abs(lam.real - 1.0) < 1e-3
        assert abs(lam.imag) < 0.05


@pytest.mark.parametrize("k,nt", [(1, 4), (3, 4), (4, 4), (6, 60), (16, 64)])
def test_constant_offset_chain_matches_dense_oracle(k, nt):
    rng = np.random.default_rng(100 * k + nt)
    h = standard_complex(rng, (k, nt)) * np.sqrt(rng.uniform(0.2, 3.0, size=k))[:, None]
    gammas = rng.uniform(1.0, 6.0, size=k)
    nu_ref = dense_solve_nu_constant_offset(h, gammas)
    nu = solve_nu_constant_offset(h, gammas)
    assert np.max(np.abs(nu - nu_ref) / nu_ref) < 1e-10
    u_ref = dense_directions_constant_offset(nu_ref, h, gammas)
    u = directions_constant_offset(nu, h, gammas)
    assert np.max(np.abs(u - u_ref)) < 1e-10
    assert np.array_equal(const_offset_directions(h, gammas), u)


def test_constant_offset_more_users_than_antennas_is_convergence_error():
    # With K > N_t the channels are linearly dependent and the weights grow
    # without bound; both the dense and the K-space iteration give up.
    h = standard_complex(np.random.default_rng(14), (8, 3))
    gammas = np.full(8, 4.0)
    with pytest.raises(ConvergenceError):
        dense_solve_nu_constant_offset(h, gammas)
    with pytest.raises(ConvergenceError) as excinfo:
        solve_nu_constant_offset(h, gammas)
    assert excinfo.value.last_iterate.shape == (8,)


@pytest.mark.parametrize("k,nt", [(1, 4), (3, 4), (4, 8), (6, 20), (8, 32), (16, 64)])
def test_alg1_chain_matches_dense_oracle(k, nt):
    # (4, 8) has 2K = N_t, so the reduced basis spans the whole space.
    rng = np.random.default_rng(100 * k + nt)
    h = standard_complex(rng, (k, nt)) * np.sqrt(rng.uniform(0.5, 3.0, size=k))[:, None]
    gammas = rng.uniform(1.0, 4.0, size=k)
    sigma_e, r = 0.05, 2.0
    psi = zf_directions(h)
    # the same Gauss-Seidel map: equal iterates after a few sweeps
    with pytest.raises(ConvergenceError) as ref:
        dense_solve_nu(h, gammas, sigma_e, r, psi, max_iters=3)
    with pytest.raises(ConvergenceError) as got:
        solve_nu(h, gammas, sigma_e, r, psi, max_iters=3)
    early = ref.value.last_iterate
    assert np.max(np.abs(got.value.last_iterate - early) / early) < 1e-12
    nu_ref = dense_solve_nu(h, gammas, sigma_e, r, psi)
    dual = solve_nu(h, gammas, sigma_e, r, psi)
    assert np.max(np.abs(dual.nu - nu_ref) / nu_ref) < 1e-10
    u_ref = dense_directions_from_nu(nu_ref, psi, h, gammas, sigma_e, r)
    u = directions_from_nu(dual, h, gammas, sigma_e, r)
    assert np.max(np.abs(u - u_ref)) < 1e-10


@pytest.mark.parametrize("seed,message", [
    (1, "dual fixed point left the positive cone"),
    (0, "nu fixed point did not converge in 500 sweeps"),
])
def test_solve_nu_errors_match_dense_oracle(seed, message):
    # Two golden alg1 cells (K=3, N_t=4, 3.2 km) whose dual fixed point fails.
    cfg = cli.RunConfig.from_dict({
        "generate": {"n_users": 3, "n_antennas": 4, "radius_km": 3.2, "seed": seed},
        "algorithm": "alg1", "delta": 0.05})
    scenario = cli._build_scenario(cfg)
    h, gammas = scenario.h_est_matrix(), scenario.sinr_targets()
    sigma_e, r = float(scenario.sigma_e_vector()[0]), cfg.resolved_r()
    psi = zf_directions(h)
    with pytest.raises(ConvergenceError, match=message):
        dense_solve_nu(h, gammas, sigma_e, r, psi)
    with pytest.raises(ConvergenceError) as excinfo:
        solve_nu(h, gammas, sigma_e, r, psi)
    assert str(excinfo.value) == message


def test_solve_nu_rejects_proxies_outside_the_channel_span():
    # The reduced basis holds the Re{psi h^H} terms only for psi in span{h, conj h}.
    rng = np.random.default_rng(20)
    h = standard_complex(rng, (1, 4))
    with pytest.raises(ValueError, match="span of the channel estimates"):
        solve_nu(h, np.array([4.0]), 0.1, 2.0, standard_complex(rng, (1, 4)))


def degenerate_single_user():
    # One weak user whose offset term outweighs its channel,
    # r sqrt(2) sigma_e > 2 ||h||: B = shift I + (nu/gamma) Q D Q^H with D
    # negative definite on span{h, conj h}.
    h = standard_complex(np.random.default_rng(18), (1, 4))
    h *= 0.1 / np.linalg.norm(h)
    return h, zf_directions(h), np.array([1.0])


def degenerate_weak_user_among_strong():
    # A weak user 0 with a tiny weight next to a heavily weighted user 1
    # whose proxy points against its channel (h_1^H psi_1 < 0).
    h = standard_complex(np.random.default_rng(19), (2, 6))
    h[0] *= 0.05
    psi = zf_directions(h)
    psi[1] *= -1.0
    return h, psi, np.array([1e-3, 1e3])


@pytest.mark.parametrize("build", [degenerate_single_user,
                                   degenerate_weak_user_among_strong])
def test_directions_from_nu_direction_orthogonal_to_every_channel(build):
    h, psi, nu = build()
    gammas = np.full(len(nu), 4.0)
    sigma_e, r = 0.1, 2.0
    # The dense top eigenvector of B_0 lies in the complement of the
    # channels' span: no phase rotation can make h_0^H u_0 positive.
    eigvals, eigvecs = np.linalg.eig(literal_eigen_matrix(h, psi, nu, gammas,
                                                          sigma_e, r, 0))
    u_dense = eigvecs[:, np.argmax(eigvals.real)]
    assert np.max(np.abs(h.conj() @ u_dense)) < 1e-6 * np.linalg.norm(h)
    with pytest.raises(DegenerateChannelsError, match="orthogonal to every channel"):
        directions_from_nu(DualState(nu=nu, psi_direction=psi), h, gammas, sigma_e, r)


def test_directions_constant_offset_orthogonal():
    h = orthonormal_rows(3, 4, seed=12, norms=[1.0, 2.0, 0.5])
    gammas = np.array([4.0, 4.0, 4.0])
    nu = solve_nu_constant_offset(h, gammas)
    u = directions_constant_offset(nu, h, gammas)
    expected = h / np.linalg.norm(h, axis=1)[:, None]
    for k in range(3):
        assert abs(abs(np.vdot(u[k], expected[k])) - 1.0) < 1e-9


def test_directions_constant_offset_eigen_residual():
    rng = np.random.default_rng(13)
    h = standard_complex(rng, (3, 4))
    gammas = np.array([4.0, 2.0, 3.0])
    nu = solve_nu_constant_offset(h, gammas)
    u = directions_constant_offset(nu, h, gammas)
    for k in range(3):
        b = nu[k] / gammas[k] * np.outer(h[k], h[k].conj())
        for j in range(3):
            if j != k:
                b -= nu[j] * np.outer(h[j], h[j].conj())
        lam = np.max(np.linalg.eigvalsh(b))
        assert np.linalg.norm(b @ u[k] - lam * u[k]) < 1e-8


def test_directions_constant_offset_tilts_from_interferer():
    theta = 0.3
    h = np.array([[1.0, 0.0], [np.cos(theta), np.sin(theta)]], dtype=complex)
    gammas = np.array([4.0, 4.0])
    nu = solve_nu_constant_offset(h, gammas)
    u = directions_constant_offset(nu, h, gammas)
    mrt = mrt_directions(h)
    for k, j in ((0, 1), (1, 0)):
        assert abs(np.vdot(h[j], u[k])) < abs(np.vdot(h[j], mrt[k]))


def test_nu_massive_approx_improves_with_antennas():
    # For i.i.d. channels the residual cross-correlations scale like K/N_t,
    # so the approximation tightens as the array grows (at gamma = 4 the
    # population mean deviation is ~6% at N_t=64 and ~3% at N_t=128).
    gammas = np.full(4, 4.0)

    def mean_dev(nt, seed):
        h = standard_complex(np.random.default_rng(seed), (4, nt))
        exact = solve_nu_constant_offset(h, gammas)
        return np.mean(np.abs(nu_massive_approx(h, gammas) - exact) / exact)

    dev64 = np.mean([mean_dev(64, s) for s in range(5)])
    dev128 = np.mean([mean_dev(128, s) for s in range(5)])
    assert dev64 < 0.10
    assert dev128 < 0.05
    assert dev128 < dev64


# ---------------------------------------------------------------------------
# alg1: directions, then the loading at the common offset r
# ---------------------------------------------------------------------------

def alg1_design(scenario, r):
    design, _ = cli.run_algorithm("alg1", scenario, cli.RunConfig(r=r))
    return design


def test_alg1_perfect_csi_hits_targets():
    sc = unit_scale_scenario(seed=15, sigma_e=0.0)
    design = alg1_design(sc, r=2.0)
    sinr = sinr_values(design, sc.h_est_matrix(), sc.noise_vector())
    assert np.max(np.abs(sinr - sc.sinr_targets()) / sc.sinr_targets()) < 1e-6


def test_alg1_invariants():
    sc = unit_scale_scenario(seed=16, sigma_e=0.1)
    design = alg1_design(sc, r=2.0)
    assert np.allclose(np.linalg.norm(design.directions, axis=1), 1.0, atol=1e-9)
    assert np.all(design.powers >= 0)


def test_alg1_requires_common_sigma_e():
    h = standard_complex(np.random.default_rng(17), (2, 4))
    with pytest.raises(ValueError, match="common sigma_e"):
        alg1_directions(h, np.full(2, 4.0), np.array([0.1, 0.2]), r=2.0)
