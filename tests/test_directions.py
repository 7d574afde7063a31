"""Tests for the beamforming direction solvers."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offsetbf.channel import CellConfig, generate_scenario
from offsetbf.directions import (NEWTON_FROM, alg1_directions, alg1_dual,
                                 const_offset_directions, directions_constant_offset,
                                 directions_from_nu, mrt_directions, nu_massive_approx,
                                 rzf_directions, solve_nu,
                                 solve_nu_constant_offset, zf_directions)
from offsetbf.errors import ConvergenceError, DegenerateChannelsError
from offsetbf.stats import r_from_delta

from offsetbf import directions, lapack

import helpers
from helpers import (design_report, orthonormal_rows, scenario_from_rows, sinr_values,
                     solve_nu_constant_offset_oracle, solve_nu_oracle, standard_complex,
                     unit_scale_scenario)


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


@pytest.mark.parametrize("nt", [20, 40, 60])
def test_solve_nu_constant_offset_newton_converges_in_ten_steps(nt):
    # Generated K = 6 cells: the plain sweep needs about 90 sweeps, Newton in
    # log nu about five steps.
    for seed in range(5):
        scenario = generate_scenario(CellConfig(n_users=6, n_antennas=nt), seed)
        h, gammas = scenario.h_est, scenario.sinr_target
        nu = solve_nu_constant_offset(h, gammas, max_iters=10)
        nu_ref = dense_solve_nu_constant_offset(h, gammas, tol=1e-14, max_iters=5000)
        assert np.max(np.abs(nu - nu_ref) / nu_ref) < 1e-12
        with pytest.raises(ConvergenceError):
            dense_solve_nu_constant_offset(h, gammas, max_iters=10)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 6), extra=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_solve_nu_constant_offset_is_a_fixed_point(k, extra, seed):
    # nu_k v_k(nu) = 1 with v_k = (1 + 1/gamma_k) h_k^H M^{-1} h_k and the
    # N_t x N_t matrix M = I + sum_j nu_j h_j h_j^H formed explicitly.
    rng = np.random.default_rng(seed)
    nt = k + extra
    gains = 10.0 ** rng.uniform(-3.0, 3.0, size=k)
    h = standard_complex(rng, (k, nt)) * np.sqrt(gains)[:, None]
    gammas = 10.0 ** rng.uniform(0.0, 1.0, size=k)
    nu = solve_nu_constant_offset(h, gammas)
    m = np.eye(nt) + np.einsum("j,ji,jl->il", nu, h, h.conj())
    forms = np.real(np.einsum("ki,ik->k", h.conj(), np.linalg.solve(m, h.T)))
    assert np.max(np.abs(nu * forms * (1.0 + 1.0 / gammas) - 1.0)) < 1e-12


def test_solve_nu_matches_constant_offset_when_degenerate():
    # At sigma_e = 0, coup = 0, c_k = 1 and the terms are h_j h_j^H, so alg1's
    # dual has the constant-offset fixed point.
    for k, nt in ((3, 6), (6, 20)):
        for seed in range(10):
            h, gammas = cell_dual(0.5, k, nt, seed)[:2]
            nu = solve_nu(alg1_dual(h, gammas, sigma_e=0.0, r=0.0), tol=1e-14)
            assert relative_gap(nu, solve_nu_constant_offset(h, gammas)) < 1e-12, (k, nt, seed)


def test_solve_nu_self_consistency():
    rng = np.random.default_rng(8)
    h = standard_complex(rng, (3, 4))
    gammas = np.array([4.0, 2.0, 3.0])
    psi = zf_directions(h)
    sigma_e, r = 0.1, 2.0
    nu = solve_nu(alg1_dual(h, gammas, sigma_e, r))
    for k in range(3):
        m = literal_dual_matrix(h, psi, nu, gammas, sigma_e, r, k)
        val = np.real(np.vdot(h[k], np.linalg.solve(m, h[k]))) * (1 + 1 / gammas[k])
        assert abs(1.0 / nu[k] - val) < 1e-8 * val


def outcome(solver, *args):
    """("ok", nu) or (message, last_iterate) of a dual solver call."""
    try:
        return "ok", solver(*args)
    except ConvergenceError as exc:
        return str(exc), exc.last_iterate


def relative_gap(nu, ref):
    return float(np.max(np.abs(nu - ref) / ref))


@pytest.mark.parametrize("mode", ["gaussian", "cantelli"])
@pytest.mark.parametrize("k,nt,radius_km", [
    (3, 6, 3.2), (4, 8, 3.2), (6, 20, 3.2), (6, 40, 3.2), (8, 32, 0.5)])
def test_solve_nu_is_bit_identical_to_the_solve_loop(k, nt, radius_km, mode):
    # At 3.2 km many of these cells fail (left the positive cone, or no
    # convergence in 500 sweeps), and their iterates are chaotic down to the
    # last bit. On none of them does the continuation from the constant-offset
    # fixed point converge, so the sweep path runs; a cell whose sweep never
    # gets below NEWTON_FROM never takes a Newton step, and equal errors and
    # last iterates show the same arithmetic. Every other cell ends in Newton:
    # if it converges, it must be at least as close as the oracle to the
    # oracle's tol-1e-15 run, and if the oracle ran out of sweeps, the oracle
    # must reach the same nu given 20 000 sweeps.
    r = r_from_delta(0.05, mode)
    for seed in range(10):
        scenario = generate_scenario(
            CellConfig(n_users=k, n_antennas=nt, radius_km=radius_km), seed)
        dual = alg1_dual(scenario.h_est, scenario.sinr_target, scenario.sigma_e, r)
        ref_message, ref_nu = outcome(solve_nu_oracle, dual)
        message, nu = outcome(solve_nu, dual)
        if outcome(solve_nu_oracle, dual, NEWTON_FROM)[0] != "ok":
            assert message == ref_message, seed
            assert nu.dtype == ref_nu.dtype and np.array_equal(nu, ref_nu), seed
        elif ref_message == "ok":
            assert message == "ok", seed
            fine = solve_nu_oracle(dual, tol=1e-15, max_iters=20000)
            assert relative_gap(nu, fine) <= relative_gap(ref_nu, fine), seed
        else:
            assert message == "ok" and ref_message.startswith("nu fixed point"), seed
            assert relative_gap(nu, solve_nu_oracle(dual, max_iters=20000)) < 1e-8, seed


def counted_calls(monkeypatch, solver, *args, **kwargs):
    """solver(*args, **kwargs) and the lapack calls it made: complex and real
    lapack.solve1, lapack.checked and lapack.inv. An alg1 sweep makes one
    complex user solve per user, a constant-offset plain step one
    lapack.checked solve, a Newton step of either dual one real K x K
    lapack.solve1, and an evaluation of alg1's v one lapack.inv."""
    counts = {"complex": 0, "real": 0, "checked": 0, "inv": 0}
    solve1, checked, inv = lapack.solve1, lapack.checked, lapack.inv

    def counting(a, b):
        counts["complex" if np.iscomplexobj(a) else "real"] += 1
        return solve1(a, b)

    def counting_checked(*operands):
        counts["checked"] += 1
        return checked(*operands)

    def counting_inv(a):
        counts["inv"] += 1
        return inv(a)

    monkeypatch.setattr(lapack, "solve1", counting)
    monkeypatch.setattr(lapack, "checked", counting_checked)
    monkeypatch.setattr(lapack, "inv", counting_inv)
    nu = solver(*args, **kwargs)
    monkeypatch.setattr(lapack, "solve1", solve1)
    monkeypatch.setattr(lapack, "checked", checked)
    monkeypatch.setattr(lapack, "inv", inv)
    return nu, counts


def counted_constant_offset(monkeypatch, *args, **kwargs):
    """solve_nu_constant_offset(*args, **kwargs) and its (plain steps, Newton steps)."""
    nu, counts = counted_calls(monkeypatch, solve_nu_constant_offset, *args, **kwargs)
    return nu, counts["checked"], counts["real"]


def counted_solve_nu(monkeypatch, *args, **kwargs):
    """solve_nu(*args, **kwargs) and its (sweeps, evaluations of alg1's v). A
    call that the continuation solves makes no sweep, one evaluation at the
    constant-offset start and one per Newton candidate."""
    nu, counts = counted_calls(monkeypatch, solve_nu, *args, **kwargs)
    return nu, counts["complex"] / len(nu), counts["inv"]


def cell_dual(radius_km, k, nt, seed, r=r_from_delta(0.05, "gaussian")):
    """alg1's dual on one generated cell, by default at delta 0.05 (Gaussian r)."""
    scenario = generate_scenario(CellConfig(n_users=k, n_antennas=nt, radius_km=radius_km),
                                 seed)
    return alg1_dual(scenario.h_est, scenario.sinr_target, scenario.sigma_e, r)


def dual_call(dual, k, nt, seed):
    """(solver, args) of the alg1 or constant-offset dual on one generated cell."""
    alg1 = cell_dual(0.5, k, nt, seed)
    return (solve_nu, (alg1,)) if dual == "alg1" else (solve_nu_constant_offset, alg1[:2])


def plain_nu_constant_offset(h_est, gammas, tol=1e-10, max_iters=500):
    """The plain iteration nu = 1/v(nu) of the constant-offset dual in the
    users' span, with np.linalg.solve and no Newton step."""
    scale = 1.0 + 1.0 / gammas
    gram = h_est.conj() @ h_est.T
    nu = nu_massive_approx(h_est, gammas)
    for _ in range(max_iters):
        x = np.linalg.solve(np.eye(len(nu)) + gram * nu, gram)
        nu_new = 1.0 / (np.real(np.diagonal(x)) * scale)
        max_rel = np.max(np.abs(nu_new - nu) / nu_new)
        nu = nu_new
        if max_rel < tol:
            return nu
    raise ConvergenceError("nu fixed point did not converge", last_iterate=nu)


def no_constant_offset_start(h_est, gammas):
    raise ConvergenceError("forced", last_iterate=nu_massive_approx(h_est, gammas))


@pytest.mark.parametrize("dual", ["alg1", "constant_offset"])
def test_solve_nu_max_iters_counts_newton_steps(monkeypatch, dual):
    solver, args = dual_call(dual, 6, 20, seed=0)
    if dual == "alg1":
        # Each attempt has its own budget: the continuation's Newton steps at
        # most min(max_iters, CONTINUATION_STEPS) (its constant-offset start
        # keeps that solver's default budget), and then, when they run out,
        # the sweep path's steps from nu_0, which stops where the plain sweep
        # stops after max_iters sweeps.
        nu, sweeps, evaluations = counted_solve_nu(monkeypatch, *args)
        budget = evaluations - 1
        assert sweeps == 0 and 2 <= budget < directions.CONTINUATION_STEPS
        assert np.array_equal(solver(*args, max_iters=budget), nu)
        with pytest.raises(ConvergenceError,
                           match=f"did not converge in {budget - 1} sweeps") as excinfo:
            solver(*args, max_iters=budget - 1)
        with pytest.raises(ConvergenceError) as sweep_path:
            solve_nu_oracle(*args, max_iters=budget - 1)
        assert np.array_equal(excinfo.value.last_iterate, sweep_path.value.last_iterate)
        # a continuation cut short by CONTINUATION_STEPS hands the full
        # max_iters to the sweep path, as a failed constant-offset start does
        monkeypatch.setattr(directions, "CONTINUATION_STEPS", budget - 1)
        cut_short = solver(*args)
        monkeypatch.setattr(directions, "solve_nu_constant_offset", no_constant_offset_start)
        assert np.array_equal(cut_short, solver(*args))
        assert relative_gap(cut_short, nu) < 1e-9
    else:
        nu, plain, newton = counted_constant_offset(monkeypatch, *args)
        assert newton >= 2
        budget = plain + newton
        assert np.array_equal(solver(*args, max_iters=budget), nu)
        with pytest.raises(ConvergenceError,
                           match=f"did not converge in {budget - 1} sweeps") as excinfo:
            solver(*args, max_iters=budget - 1)
        # one Newton step short: the last iterate is the previous Newton iterate
        assert 0 < relative_gap(excinfo.value.last_iterate, nu) < 1e-9


@pytest.mark.parametrize("dual", ["alg1", "constant_offset"])
def test_solve_nu_rejected_newton_steps_hand_back_to_the_sweep(monkeypatch, dual):
    # NaN user matrix inverses (alg1) or Jacobian solves (constant offset) make
    # every Newton candidate non-finite, so each is rejected; for alg1 that
    # ends the continuation at its first candidate. The plain steps go on from
    # their own iterates and end where the plain iteration ends, bit for bit.
    solver, args = dual_call(dual, 6, 20, seed=0)
    if dual == "alg1":
        monkeypatch.setattr(lapack, "inv", lambda a: np.full_like(a, np.nan))
        assert np.array_equal(solver(*args), solve_nu_oracle(*args))
    else:
        monkeypatch.setattr(lapack, "solve1", lambda a, b: np.full_like(b, np.nan))
        assert np.array_equal(solver(*args), plain_nu_constant_offset(*args))


# Generated cells where Newton from the constant-offset fixed point lands on
# a fixed point that the sweep repels (its Gauss-Seidel Jacobian there has
# spectral radius above 1), so the sweep path cannot end there:
# (radius km, K, N_t, seed, r). In the five 3.2 km cells at delta 0.05 (all
# such cells of the 1260-design alg1 grid in CHANGES.md) the sweep never gets
# below NEWTON_FROM and fails; in the 1.5 km cell at r = 7 it converges to
# another fixed point.
SWEEP_REPELLED = [(3.2, 3, 4, 19, r_from_delta(0.05, "gaussian")),
                  (3.2, 3, 6, 21, r_from_delta(0.05, "gaussian")),
                  (3.2, 4, 8, 17, r_from_delta(0.05, "gaussian")),
                  (3.2, 3, 6, 18, r_from_delta(0.05, "cantelli")),
                  (3.2, 6, 40, 16, r_from_delta(0.05, "cantelli")),
                  (1.5, 4, 8, 16, 7.0)]


@pytest.mark.parametrize("cell", SWEEP_REPELLED[:5])
def test_solve_nu_falls_back_to_the_sweep_when_the_constant_offset_dual_fails(
        monkeypatch, cell):
    dual = cell_dual(*cell)
    ref_message, ref_nu = outcome(solve_nu_oracle, dual)
    assert ref_message != "ok"
    monkeypatch.setattr(directions, "solve_nu_constant_offset", no_constant_offset_start)
    message, nu = outcome(solve_nu, dual)
    assert message == ref_message
    assert nu.dtype == ref_nu.dtype and np.array_equal(nu, ref_nu)


@pytest.mark.parametrize("cell", SWEEP_REPELLED)
def test_solve_nu_rejects_a_fixed_point_that_the_sweep_repels(monkeypatch, cell):
    # The continuation's fixed point is checked, not trusted: where the sweep
    # repels it, the sweep path's outcome stands, bit for bit.
    dual = cell_dual(*cell)
    with monkeypatch.context() as patch:
        patch.setattr(directions, "solve_nu_constant_offset", no_constant_offset_start)
        sweep_path = outcome(solve_nu, dual)
    message, nu = outcome(solve_nu, dual)
    assert message == sweep_path[0] and np.array_equal(nu, sweep_path[1])
    monkeypatch.setattr(directions, "_sweep_bound", lambda jac: 0.0)
    message, nu = outcome(solve_nu, dual)
    assert message == "ok"
    assert sweep_path[0] != "ok" or relative_gap(nu, sweep_path[1]) > 0.1


def test_solve_nu_can_solve_a_cell_whose_sweep_path_fails(monkeypatch):
    # The check is necessary, not sufficient. In this 3.2 km cell at r = 0.5
    # the sweep contracts at the continuation's fixed point (spectral radius
    # about 0.998), yet from nu_0 it runs out of sweeps. alg1 keeps that nu,
    # and its power loading then fails, as on each such generated cell in
    # CHANGES.md.
    dual = cell_dual(3.2, 3, 4, 24, 0.5)
    with pytest.raises(ConvergenceError, match="did not converge in 500 sweeps"):
        solve_nu_oracle(dual)
    with monkeypatch.context() as patch:
        patch.setattr(directions, "solve_nu_constant_offset", no_constant_offset_start)
        assert outcome(solve_nu, dual)[0] == "nu fixed point did not converge in 500 sweeps"
    assert outcome(solve_nu, dual)[0] == "ok"
    scenario = generate_scenario(CellConfig(n_users=3, n_antennas=4, radius_km=3.2), 24)
    with pytest.raises(ConvergenceError, match="power loading did not converge in 50"):
        design_report("alg1", scenario, 0.5)


def test_sweep_bound_holds_for_the_plain_sweep_at_the_fixed_point(monkeypatch):
    # The bound that solve_nu checks is at least the infinity norm, in
    # relative units, of the plain sweep's Jacobian at the continuation's nu
    # (one oracle sweep, by central differences), and so at least its
    # spectral radius; in this 0.5 km cell all three are near 0.81.
    dual = cell_dual(0.5, 6, 20, seed=0)
    bounds = []
    sweep_bound = directions._sweep_bound
    monkeypatch.setattr(directions, "_sweep_bound",
                        lambda jac: bounds.append(sweep_bound(jac)) or bounds[-1])
    nu = solve_nu(dual)
    assert len(bounds) == 1 and bounds[0] < 0.85

    def one_sweep(start):
        monkeypatch.setattr(helpers, "nu_massive_approx", lambda h_est, gammas: start.copy())
        with pytest.raises(ConvergenceError) as excinfo:
            solve_nu_oracle(dual, max_iters=1)
        return excinfo.value.last_iterate / nu

    steps = 1e-6 * np.diag(nu)
    jacobian = np.column_stack([(one_sweep(nu + step) - one_sweep(nu - step)) / 2e-6
                                for step in steps])
    radius = np.abs(np.linalg.eigvals(jacobian)).max()
    norm = np.abs(jacobian).sum(axis=1).max()
    assert 0.8 < radius <= norm <= bounds[0] + 1e-6


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(k=st.integers(2, 8), extra=st.integers(0, 24), seed=st.integers(0, 10 ** 6),
       mode=st.sampled_from(["gaussian", "cantelli"]))
def test_solve_nu_continuation_matches_the_sweep_path_in_small_cells(k, extra, seed, mode):
    # In a 0.5 km cell with N_t >= 2K, as at every alg1_cells size, the
    # Newton continuation from the constant-offset fixed point lands on the
    # fixed point that the plain sweep from nu_0 converges to.
    scenario = generate_scenario(
        CellConfig(n_users=k, n_antennas=2 * k + extra, radius_km=0.5), seed)
    dual = alg1_dual(scenario.h_est, scenario.sinr_target, scenario.sigma_e,
                     r_from_delta(0.05, mode))
    sweep_path = solve_nu_oracle(dual, tol=1e-15, max_iters=20000)
    assert relative_gap(solve_nu(dual), sweep_path) < 1e-12


# (mean, max) alg1 evaluations per call over seeds 0-9 of 0.5 km cells at
# delta 0.05 (Gaussian r), as alg1_cells draws them, none of which sweeps.
# Measured: mean 5.1, 4.7 and 4.8 evaluations, at most 6, 5 and 5; the sweep
# path took 24.1, 20.5 and 20.1 sweeps and 4 evaluations on the same cells.
EVALUATION_BOUNDS = {(4, 8): (5.5, 6), (6, 20): (5.5, 6), (8, 32): (5.5, 6)}


@pytest.mark.parametrize("k,nt", sorted(EVALUATION_BOUNDS))
def test_solve_nu_step_counts_stay_low(monkeypatch, k, nt):
    # A count, not a clock, so that the continuation cannot quietly stop paying.
    mean_bound, max_bound = EVALUATION_BOUNDS[k, nt]
    counts = np.array([counted_solve_nu(monkeypatch, cell_dual(0.5, k, nt, seed))[1:]
                       for seed in range(10)])
    assert (counts[:, 0] == 0).all()
    assert counts[:, 1].mean() <= mean_bound and counts[:, 1].max() <= max_bound


def test_solve_nu_singular_user_matrix_is_convergence_error():
    # A real channel spans a 1-D space with its conjugate, so the second basis
    # vector sees only c_k, which is exactly 0 at the start nu = gamma / alpha = 4.
    # The singular solve raises only the package's error, no RuntimeWarning.
    h = np.array([[1.0, 0.0]])
    with warnings.catch_warnings(), pytest.raises(
            ConvergenceError, match="dual fixed point made the user matrix singular") as excinfo:
        warnings.simplefilter("error")
        solve_nu(alg1_dual(h, np.array([4.0]), 1.0, 2.0))
    assert np.array_equal(excinfo.value.last_iterate, [4.0])


@pytest.mark.parametrize("k,nt,radius_km", [
    (3, 6, 3.2), (4, 8, 3.2), (6, 20, 3.2), (6, 40, 3.2), (4, 8, 0.5), (6, 20, 0.5),
    (8, 32, 0.5)])
def test_solve_nu_constant_offset_is_bit_identical_to_the_solve_loop(k, nt, radius_km):
    for seed in range(10):
        scenario = generate_scenario(
            CellConfig(n_users=k, n_antennas=nt, radius_km=radius_km), seed)
        args = (scenario.h_est, scenario.sinr_target)
        ref_message, ref_nu = outcome(solve_nu_constant_offset_oracle, *args)
        message, nu = outcome(solve_nu_constant_offset, *args)
        assert message == ref_message, seed
        assert nu.dtype == ref_nu.dtype and np.array_equal(nu, ref_nu), seed


def test_solve_nu_constant_offset_edge_cases_are_bit_identical_to_the_solve_loop():
    # Near-duplicate channels that run out of steps; twin channels whose shared
    # matrix is singular (next test); and near-twin real channels at gamma 1e12,
    # where the oracle's np.linalg.solve raises on 17 singular Newton candidates
    # and the plain steps still converge.
    rng = np.random.default_rng(13)
    h = standard_complex(rng, (3, 4))
    h[1] = h[0] + 1e-6 * h[2]
    cases = ((h, np.full(3, 4.0)),
             (np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex), np.full(2, 1e17)),
             (np.array([[1.0, 0.0], [1.0, 1e-4]], dtype=complex), np.full(2, 1e12)))
    messages = []
    for args in cases:
        ref_message, ref_nu = outcome(solve_nu_constant_offset_oracle, *args)
        message, nu = outcome(solve_nu_constant_offset, *args)
        assert message == ref_message and np.array_equal(nu, ref_nu)
        messages.append(message)
    assert messages == ["nu fixed point did not converge in 500 sweeps",
                        "dual fixed point made the shared matrix singular", "ok"]


def test_solve_nu_constant_offset_singular_shared_matrix():
    # Twin channels with gamma = 1e17 start at nu = gamma, where 1 + gamma
    # rounds to gamma: I + G N is [[1e17, 1e17], [1e17, 1e17]] in floating point.
    h = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    with warnings.catch_warnings(), pytest.raises(
            ConvergenceError, match="dual fixed point made the shared matrix singular") as excinfo:
        warnings.simplefilter("error")
        solve_nu_constant_offset(h, np.full(2, 1e17))
    assert np.array_equal(excinfo.value.last_iterate, [1e17, 1e17])


def test_lapack_gufuncs_match_numpy_linalg():
    rng = np.random.default_rng(5)
    a = standard_complex(rng, (5, 5))
    b = standard_complex(rng, (5, 3))
    assert np.array_equal(lapack.checked(lapack.solve, a, b), np.linalg.solve(a, b))
    assert np.array_equal(lapack.checked(lapack.solve1, a.real, b[:, 0].real),
                          np.linalg.solve(a.real, b[:, 0].real))
    assert np.array_equal(lapack.checked(lapack.inv, a.real), np.linalg.inv(a.real))
    spd = a @ a.conj().T
    assert np.array_equal(lapack.checked(lapack.cholesky_lo, spd), np.linalg.cholesky(spd))
    with np.errstate(all="ignore"):
        assert np.isnan(lapack.cholesky_lo(-spd)).all()


def test_lapack_checked_raises_numpy_linalg_error_on_a_singular_matrix():
    singular = np.ones((2, 2))
    with pytest.raises(np.linalg.LinAlgError) as want:
        np.linalg.inv(singular)
    for gufunc, operands in ((lapack.inv, ()), (lapack.solve1, (np.ones(2),)),
                             (lapack.solve, (np.eye(2),))):
        with warnings.catch_warnings(), pytest.raises(np.linalg.LinAlgError) as got:
            warnings.simplefilter("error")
            lapack.checked(gufunc, singular, *operands)
        assert str(got.value) == str(want.value) == "Singular matrix"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            assert np.isnan(lapack.solve1(singular, np.ones(2))).all()


def test_solve_nu_constant_offset_near_duplicate_channels_do_not_converge():
    # Near-duplicate channels (Gram condition number 4e16) need huge dual
    # weights, and in floating point they grow without settling: user 1's
    # passes 1e20 in the 500 steps. The failure must surface as the package's
    # convergence error (with the last iterate attached), never a raw
    # linear-algebra exception.
    rng = np.random.default_rng(13)
    h = standard_complex(rng, (3, 4))
    h[1] = h[0] + 1e-6 * h[2]
    gammas = np.full(3, 4.0)
    with pytest.raises(ConvergenceError,
                       match="nu fixed point did not converge in 500 sweeps") as excinfo:
        solve_nu_constant_offset(h, gammas)
    assert excinfo.value.last_iterate.shape == (3,)


# ---------------------------------------------------------------------------
# eigen directions
# ---------------------------------------------------------------------------

def test_directions_from_nu_perfect_csi_orthonormal():
    h = orthonormal_rows(3, 4, seed=9)
    gammas = np.array([4.0, 4.0, 4.0])
    dual = alg1_dual(h, gammas, sigma_e=0.0, r=0.0)
    u = directions_from_nu(dual, solve_nu(dual))
    for k in range(3):
        assert abs(abs(np.vdot(u[k], h[k])) - 1.0) < 1e-9


def test_directions_from_nu_eigen_residual_and_phase():
    rng = np.random.default_rng(10)
    h = standard_complex(rng, (3, 4))
    gammas = np.array([4.0, 2.0, 3.0])
    psi = zf_directions(h)
    sigma_e, r = 0.1, 2.0
    dual = alg1_dual(h, gammas, sigma_e, r)
    nu = solve_nu(dual)
    u = directions_from_nu(dual, nu)
    for k in range(3):
        b = literal_eigen_matrix(h, psi, nu, gammas, sigma_e, r, k)
        eigvals = np.linalg.eigvals(b)
        lam = eigvals[np.argmax(eigvals.real)]
        assert np.linalg.norm(b @ u[k] - lam * u[k]) < 1e-8
        inner = np.vdot(h[k], u[k])
        assert abs(inner.imag) < 1e-12
        assert inner.real >= 0


def test_directions_from_nu_leaves_a_row_orthogonal_to_its_channel_unrotated():
    # With N_t = 2 the basis is the whole space, so no DegenerateChannelsError,
    # and at nu = [1, 1] each user's top eigenvector is the other user's
    # channel: h_k^H u_k is exactly 0, and there is no phase to fix.
    dual = alg1_dual(np.eye(2, dtype=complex), np.full(2, 4.0), 0.5, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        u = directions_from_nu(dual, np.ones(2))
    assert np.isfinite(u).all()
    assert np.array_equal(np.linalg.norm(u, axis=1), np.ones(2))
    assert np.array_equal(np.einsum("ki,ki->k", dual.h_est.conj(), u), np.zeros(2))
    assert np.array_equal(u.imag, np.zeros((2, 2)))
    assert np.array_equal(np.abs(u), [[0.0, 1.0], [1.0, 0.0]])


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
    dual = alg1_dual(h, gammas, sigma_e, r)
    nu = solve_nu(dual)
    u = directions_from_nu(dual, nu)
    for k in range(3):
        m = literal_dual_matrix(h, psi, nu, gammas, sigma_e, r, k)
        b = literal_eigen_matrix(h, psi, nu, gammas, sigma_e, r, k)
        recon = np.eye(4) - m + nu[k] * (1 + 1 / gammas[k]) * np.outer(
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
    nu_ref = dense_solve_nu_constant_offset(h, gammas, tol=1e-14, max_iters=5000)
    nu = solve_nu_constant_offset(h, gammas)
    assert np.max(np.abs(nu - nu_ref) / nu_ref) < 1e-12
    u_ref = dense_directions_constant_offset(nu_ref, h, gammas)
    u = directions_constant_offset(nu, h)
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
    # the same Gauss-Seidel map: equal iterates after a few sweeps, all of them
    # above the Newton threshold (three Newton steps from the constant-offset
    # start are too few, so the sweep path runs with its own three)
    with pytest.raises(ConvergenceError):
        dense_solve_nu(h, gammas, sigma_e, r, psi, tol=NEWTON_FROM, max_iters=3)
    with pytest.raises(ConvergenceError) as ref:
        dense_solve_nu(h, gammas, sigma_e, r, psi, max_iters=3)
    dual = alg1_dual(h, gammas, sigma_e, r)
    with pytest.raises(ConvergenceError) as got:
        solve_nu(dual, max_iters=3)
    early = ref.value.last_iterate
    assert np.max(np.abs(got.value.last_iterate - early) / early) < 1e-12
    nu_ref = dense_solve_nu(h, gammas, sigma_e, r, psi, tol=1e-14, max_iters=5000)
    nu = solve_nu(dual)
    assert np.max(np.abs(nu - nu_ref) / nu_ref) < 1e-12
    u_ref = dense_directions_from_nu(nu_ref, psi, h, gammas, sigma_e, r)
    u = directions_from_nu(dual, nu)
    assert np.max(np.abs(u - u_ref)) < 1e-10


@pytest.mark.parametrize("seed,message", [
    (1, "dual fixed point left the positive cone"),
    (0, "nu fixed point did not converge in 500 sweeps"),
])
def test_solve_nu_errors_match_dense_oracle(seed, message):
    # Two golden alg1 cells (K=3, N_t=4, 3.2 km) whose dual fixed point fails.
    scenario = generate_scenario(CellConfig(n_users=3, n_antennas=4, radius_km=3.2), seed)
    h, gammas = scenario.h_est, scenario.sinr_target
    sigma_e, r = float(scenario.sigma_e[0]), r_from_delta(0.05, "cantelli")
    with pytest.raises(ConvergenceError, match=message):
        dense_solve_nu(h, gammas, sigma_e, r, zf_directions(h))
    with pytest.raises(ConvergenceError) as excinfo:
        solve_nu(alg1_dual(h, gammas, sigma_e, r))
    assert str(excinfo.value) == message


def degenerate_single_user(sigma_e, r):
    # One weak user whose offset term outweighs its channel,
    # r sqrt(2) sigma_e > 2 ||h||: B = shift I + (nu/gamma) Q D Q^H with D
    # negative definite on span{h, conj h}.
    h = standard_complex(np.random.default_rng(18), (1, 4))
    h *= 0.1 / np.linalg.norm(h)
    return h, zf_directions(h), alg1_dual(h, np.full(1, 4.0), sigma_e, r), np.array([1.0])


def degenerate_weak_user_among_strong(sigma_e, r):
    # A weak user 0 with a tiny weight next to a heavily weighted user 1
    # whose proxy points against its channel (h_1^H psi_1 < 0). Flipping
    # psi_1 flips re_psi_1 exactly, and with it user 1's term.
    h = standard_complex(np.random.default_rng(19), (2, 6))
    h[0] *= 0.05
    psi = zf_directions(h)
    psi[1] *= -1.0
    dual = alg1_dual(h, np.full(2, 4.0), sigma_e, r)
    re_psi = dual.re_psi * np.array([1.0, -1.0])[:, None, None]
    outers = np.einsum("ji,jl->jil", dual.h_c, dual.h_c.conj())
    dual = dual._replace(re_psi=re_psi, terms=outers - dual.coup * re_psi)
    return h, psi, dual, np.array([1e-3, 1e3])


@pytest.mark.parametrize("build", [degenerate_single_user,
                                   degenerate_weak_user_among_strong])
def test_directions_from_nu_direction_orthogonal_to_every_channel(build):
    sigma_e, r = 0.1, 2.0
    h, psi, dual, nu = build(sigma_e, r)
    # The dense top eigenvector of B_0 lies in the complement of the
    # channels' span: no phase rotation can make h_0^H u_0 positive.
    eigvals, eigvecs = np.linalg.eig(literal_eigen_matrix(h, psi, nu, dual.gammas,
                                                          sigma_e, r, 0))
    u_dense = eigvecs[:, np.argmax(eigvals.real)]
    assert np.max(np.abs(h.conj() @ u_dense)) < 1e-6 * np.linalg.norm(h)
    with pytest.raises(DegenerateChannelsError, match="orthogonal to every channel"):
        directions_from_nu(dual, nu)


ALG1_CELL_SIZES = [(4, 8), (6, 20), (8, 32)]


def counted_eig(monkeypatch):
    """Patch np.linalg.eig to record the number of matrices of each call."""
    calls, eig = [], np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(len(a)) or eig(a))
    return calls


def test_directions_from_nu_takes_no_eig_on_small_cells(monkeypatch):
    # Every user of a 0.5 km alg1_cells design has a certified Rayleigh-quotient
    # pair, so a change that sends them to the eig fallback fails here.
    calls = counted_eig(monkeypatch)
    for k, nt in ALG1_CELL_SIZES:
        for seed in range(10):
            scenario = generate_scenario(
                CellConfig(n_users=k, n_antennas=nt, radius_km=0.5), seed)
            alg1_directions(scenario.h_est, scenario.sinr_target, scenario.sigma_e,
                            r_from_delta(0.05, "gaussian"))
    assert calls == []


@pytest.mark.parametrize("radius_km", [0.5, 1.5, 3.2])
def test_directions_from_nu_matches_the_eig_oracle(monkeypatch, radius_km):
    # At the dual's fixed point, or at the last iterate where the dual fails.
    # At 1.5 and 3.2 km some users fail the certificate and take eig.
    fallback_users = 0
    for k, nt in ALG1_CELL_SIZES:
        for seed in range(10):
            dual = cell_dual(radius_km, k, nt, seed)
            try:
                nu = solve_nu(dual)
            except ConvergenceError as exc:
                nu = exc.last_iterate
            want = helpers.directions_from_nu_oracle(dual, nu)
            calls = counted_eig(monkeypatch)
            got = directions_from_nu(dual, nu)
            monkeypatch.undo()
            fallback_users += sum(calls)
            assert np.abs(got - want).max() < 1e-12
    assert (fallback_users > 0) == (radius_km > 0.5)


def test_top_eigenvectors_falls_back_to_eig_when_the_certificate_fails(monkeypatch):
    # From e_1, T = diag(0, 1) has the exact eigenpair (0, e_1), so the
    # iteration stops at once, without a solve. The certificate's matrix
    # 0 I - P T P = diag(0, -1), factored as twice itself, is not positive
    # definite, and eig decides.
    small = np.diag([0.0, 1.0]).astype(complex)[None]
    certificates, cholesky_lo = [], lapack.cholesky_lo
    monkeypatch.setattr(lapack, "cholesky_lo",
                        lambda a: certificates.append(a.copy()) or cholesky_lo(a))
    monkeypatch.setattr(lapack, "solve", None)
    calls = counted_eig(monkeypatch)
    vectors, eigvals = directions._top_eigenvectors(small, np.array([[1.0, 0.0j]]))
    assert np.array_equal(certificates[0], np.diag([0.0, -2.0])[None])
    assert calls == [1]
    values, eigvecs = np.linalg.eig(small)
    top = np.argmax(values[0].real)
    assert np.array_equal(eigvals, values[:, top]) and eigvals[0] == 1.0
    assert np.array_equal(vectors, eigvecs[:, :, top])


def test_mrt_zero_channel_row_is_degenerate():
    # A Scenario accepts an all-zero estimate, which MRT cannot normalize.
    h = standard_complex(np.random.default_rng(21), (2, 4))
    h[1] = 0.0
    with pytest.raises(DegenerateChannelsError, match="zero vector cannot be normalized"):
        design_report("mrt", scenario_from_rows(h), 2.0)


def test_directions_constant_offset_orthogonal():
    h = orthonormal_rows(3, 4, seed=12, norms=[1.0, 2.0, 0.5])
    gammas = np.array([4.0, 4.0, 4.0])
    nu = solve_nu_constant_offset(h, gammas)
    u = directions_constant_offset(nu, h)
    expected = h / np.linalg.norm(h, axis=1)[:, None]
    for k in range(3):
        assert abs(abs(np.vdot(u[k], expected[k])) - 1.0) < 1e-9


def test_directions_constant_offset_eigen_residual():
    rng = np.random.default_rng(13)
    h = standard_complex(rng, (3, 4))
    gammas = np.array([4.0, 2.0, 3.0])
    nu = solve_nu_constant_offset(h, gammas)
    u = directions_constant_offset(nu, h)
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
    u = directions_constant_offset(nu, h)
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
    return design_report("alg1", scenario, r)


def test_alg1_perfect_csi_hits_targets():
    sc = unit_scale_scenario(seed=15, sigma_e=0.0)
    design = alg1_design(sc, r=2.0)
    sinr = sinr_values(design, sc.h_est, sc.noise_power)
    assert np.max(np.abs(sinr - sc.sinr_target) / sc.sinr_target) < 1e-6


def test_alg1_invariants():
    sc = unit_scale_scenario(seed=16, sigma_e=0.1)
    design = alg1_design(sc, r=2.0)
    assert np.allclose(np.linalg.norm(design.directions, axis=1), 1.0, atol=1e-9)
    assert np.all(design.powers >= 0)


def test_alg1_requires_common_sigma_e():
    h = standard_complex(np.random.default_rng(17), (2, 4))
    with pytest.raises(ValueError, match="common sigma_e"):
        alg1_directions(h, np.full(2, 4.0), np.array([0.1, 0.2]), r=2.0)
    # a scalar and a vector of equal entries build the same dual
    scalar = alg1_dual(h, np.full(2, 4.0), 0.1, r=2.0)
    vector = alg1_dual(h, np.full(2, 4.0), np.full(2, 0.1), r=2.0)
    assert type(scalar.sigma_e) is float and scalar.sigma_e == vector.sigma_e == 0.1
    assert all(np.array_equal(a, b) for a, b in zip(scalar, vector))


def test_alg1_directions_build_the_reduced_basis_once(monkeypatch):
    # One dual, and with it one basis, for both stages, with the same bits as
    # the two public stages on a dual built beforehand.
    scenario = generate_scenario(CellConfig(n_users=6, n_antennas=20, radius_km=0.5), 1)
    args = (scenario.h_est, scenario.sinr_target, scenario.sigma_e,
            r_from_delta(0.05, "gaussian"))
    dual = alg1_dual(*args)
    want = directions_from_nu(dual, solve_nu(dual))
    calls = []
    monkeypatch.setattr(directions, "alg1_dual",
                        lambda *a: calls.append(1) or alg1_dual(*a))
    got = alg1_directions(*args)
    assert len(calls) == 1 and np.array_equal(got, want)
