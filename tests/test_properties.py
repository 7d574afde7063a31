"""Symmetry properties of the design chain.

The model is invariant under a unitary change of the antenna basis, under a
relabelling of the users, and under scaling the channels by c together with
the noise by c^2 and the error size by c. Every design must respect all
three: the powers stay put, or are permuted with the users. They are checked
for the constant-offset directions followed by the max-common-offset loading,
and for every algorithm id of cli.run_algorithm. alg1 is left out of the
rotation check only: its Re{psi h^H} term is taken element-wise and so
depends on the antenna basis, while user permutation and joint scaling
leave it unchanged.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from offsetbf import cli
from offsetbf.directions import const_offset_directions
from offsetbf.errors import (ConvergenceError, DegenerateChannelsError,
                             InfeasibleLoadingError)
from offsetbf.powerload import coupling_matrix, max_r_power_load

from helpers import scenario_from_rows, standard_complex

DESIGN_ERRORS = (ConvergenceError, DegenerateChannelsError, InfeasibleLoadingError)
# The transformed designs differ by rounding only (about 1e-14 observed);
# the margin covers a fixed-point stopping one sweep apart (tol 1e-10 on nu).
RTOL = 1e-9

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw):
    """A cell of 1-4 users on K..K+4 antennas, its error size and variance mode,
    and the generator that drew it (for further random draws)."""
    k = draw(st.integers(1, 4))
    nt = k + draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gains = 10.0 ** rng.uniform(-1.0, 1.0, size=k)
    h = standard_complex(rng, (k, nt)) * np.sqrt(gains)[:, None]
    gammas = 10.0 ** rng.uniform(0.0, 0.8, size=k)
    noise = 10.0 ** rng.uniform(-1.0, 0.0, size=k)
    sigma_e = draw(st.floats(0.01, 0.3))
    mode = draw(st.sampled_from(("exact", "simplified")))
    return h, gammas, noise, np.full(k, sigma_e), mode, rng


def max_r_powers(h, gammas, noise, sigma_e, mode, budget_factor=3.0,
                 total_power=None):
    """Constant-offset directions, then the max-r loading; returns (beta, Pt).

    Without total_power the budget is budget_factor times the zero-offset
    QoS power of this instance.
    """
    u = const_offset_directions(h, gammas)
    coupling = coupling_matrix(h, u, gammas, sigma_e)
    if total_power is None:
        total_power = budget_factor * np.sum(coupling.a_inv @ noise)
    beta, _, _ = max_r_power_load(coupling, noise, total_power, variance_mode=mode)
    return beta, total_power


def reference_powers(h, gammas, noise, sigma_e, mode):
    try:
        return max_r_powers(h, gammas, noise, sigma_e, mode)
    except DESIGN_ERRORS:
        assume(False)


def assert_close(beta, expected):
    assert np.max(np.abs(beta - expected)) <= RTOL * np.max(np.abs(expected))


@SETTINGS
@given(instances())
def test_antenna_basis_rotation_leaves_powers_unchanged(instance):
    h, gammas, noise, sigma_e, mode, rng = instance
    beta, total_power = reference_powers(h, gammas, noise, sigma_e, mode)
    nt = h.shape[1]
    unitary, _ = np.linalg.qr(standard_complex(rng, (nt, nt)))
    rotated = h @ unitary.T                    # h_k -> U h_k for every user
    beta_rot, _ = max_r_powers(rotated, gammas, noise, sigma_e, mode,
                               total_power=total_power)
    assert_close(beta_rot, beta)


@SETTINGS
@given(instances(), st.data())
def test_user_permutation_permutes_powers(instance, data):
    h, gammas, noise, sigma_e, mode, _ = instance
    beta, total_power = reference_powers(h, gammas, noise, sigma_e, mode)
    perm = np.array(data.draw(st.permutations(range(h.shape[0]))))
    beta_perm, _ = max_r_powers(h[perm], gammas[perm], noise[perm], sigma_e[perm],
                                mode, total_power=total_power)
    assert_close(beta_perm, beta[perm])


@SETTINGS
@given(instances(), st.floats(-3.0, 3.0))
def test_joint_scaling_leaves_powers_unchanged(instance, log10_c):
    h, gammas, noise, sigma_e, mode, _ = instance
    beta, total_power = reference_powers(h, gammas, noise, sigma_e, mode)
    c = 10.0 ** log10_c
    beta_scaled, _ = max_r_powers(c * h, gammas, c ** 2 * noise, c * sigma_e, mode,
                                  total_power=total_power)
    assert_close(beta_scaled, beta)


# ---------------------------------------------------------------------------
# the same three symmetries for every algorithm id (rotation: all but alg1)
# ---------------------------------------------------------------------------

ROTATION_IDS = tuple(name for name in cli.ALGORITHM_IDS if name != "alg1")
FIXED_R = 2.0


def cli_powers(name, h, gammas, noise, sigma_e, mode, total_power):
    """Powers of cli.run_algorithm's design, zero for dropped users."""
    scenario = scenario_from_rows(h, sigma_e=sigma_e, noise=noise, gamma=gammas)
    cfg = cli.RunConfig(algorithm=name, r=FIXED_R, total_power=total_power,
                        variance_mode=mode)
    _, report = cli.run_algorithm(name, scenario, cfg)
    beta = np.zeros(h.shape[0])
    beta[report.served_indices] = report.powers
    return beta


def cli_reference(name, h, gammas, noise, sigma_e, mode):
    """The design of the untransformed instance and its budget, three times
    the zero-offset QoS power of the constant-offset design."""
    try:
        _, total_power = max_r_powers(h, gammas, noise, sigma_e, mode)
        beta = cli_powers(name, h, gammas, noise, sigma_e, mode, total_power)
    except DESIGN_ERRORS:
        assume(False)
    return beta, total_power


@pytest.mark.parametrize("name", ROTATION_IDS)
@SETTINGS
@given(instances())
def test_every_id_antenna_basis_rotation(name, instance):
    h, gammas, noise, sigma_e, mode, rng = instance
    beta, total_power = cli_reference(name, h, gammas, noise, sigma_e, mode)
    nt = h.shape[1]
    unitary, _ = np.linalg.qr(standard_complex(rng, (nt, nt)))
    beta_rot = cli_powers(name, h @ unitary.T, gammas, noise, sigma_e, mode,
                          total_power)
    assert_close(beta_rot, beta)


@pytest.mark.parametrize("name", cli.ALGORITHM_IDS)
@SETTINGS
@given(instances(), st.data())
def test_every_id_user_permutation(name, instance, data):
    h, gammas, noise, sigma_e, mode, _ = instance
    beta, total_power = cli_reference(name, h, gammas, noise, sigma_e, mode)
    perm = np.array(data.draw(st.permutations(range(h.shape[0]))))
    beta_perm = cli_powers(name, h[perm], gammas[perm], noise[perm], sigma_e[perm],
                           mode, total_power)
    assert_close(beta_perm, beta[perm])


@pytest.mark.parametrize("name", cli.ALGORITHM_IDS)
@SETTINGS
@given(instances(), st.floats(-3.0, 3.0))
def test_every_id_joint_scaling(name, instance, log10_c):
    h, gammas, noise, sigma_e, mode, _ = instance
    beta, total_power = cli_reference(name, h, gammas, noise, sigma_e, mode)
    c = 10.0 ** log10_c
    beta_scaled = cli_powers(name, c * h, gammas, c ** 2 * noise, c * sigma_e, mode,
                             total_power)
    assert_close(beta_scaled, beta)
