"""Symmetry properties of the design chain.

The model is invariant under a unitary change of the antenna basis, under a
relabelling of the users, and under scaling the channels by c together with
the noise by c^2 and the error size by c. Every design must respect all
three: the powers stay put, or are permuted with the users. They are checked
for the constant-offset directions followed by the max-common-offset loading,
and for every algorithm id of design.designer. alg1 is left out of the
rotation check only: its Re{psi h^H} term is taken element-wise and so
depends on the antenna basis, while user permutation and joint scaling
leave it unchanged.

The instances above are far from the command line's operating point. The last
properties draw generate_scenario cells at a 1 W budget instead. They check
every id but rzf and alg1 under a rotation and under the reduction of the
channels to K antennas, and the orderings that the ids promise: a fixed-offset
design's power rises with r, max-r's offset does not fall with the budget,
maxr_powersave spends at most what maxr_reschedule spends, and each served
user meets its offset with equality.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from offsetbf.channel import CellConfig, Scenario, generate_scenario
from offsetbf.design import ALGORITHM_IDS, FIXED_R_ALGORITHMS, designer
from offsetbf.directions import const_offset_directions
from offsetbf.errors import (ConvergenceError, DegenerateChannelsError,
                             InfeasibleLoadingError)
from offsetbf.powerload import coupling_matrix, max_r_power_load

from helpers import (DESIGN_DEFAULTS, design_report, scenario_from_rows, standard_complex,
                     unit_scale_scenario)

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
    coupling = coupling_matrix(scenario_from_rows(h, sigma_e, noise, gammas), u, mode)
    if total_power is None:
        total_power = budget_factor * np.sum(coupling.a_inv @ noise)
    beta, _, _ = max_r_power_load(coupling, total_power)
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

def test_designer_rejects_an_unknown_id():
    # A config's ids are checked on loading; designer checks its own.
    with pytest.raises(ValueError, match="unknown algorithm 'socp'"):
        design_report("socp", unit_scale_scenario(seed=3), 2.0)


ROTATION_IDS = tuple(name for name in ALGORITHM_IDS if name != "alg1")
FIXED_R = 2.0


def id_powers(name, h, gammas, noise, sigma_e, mode, total_power):
    """Powers of id `name`'s design at FIXED_R, zero for dropped users."""
    scenario = scenario_from_rows(h, sigma_e=sigma_e, noise=noise, gamma=gammas)
    report = design_report(name, scenario, FIXED_R, total_power=total_power,
                           variance_mode=mode)
    beta = np.zeros(h.shape[0])
    beta[report.served_indices] = report.powers
    return beta


def id_reference(name, h, gammas, noise, sigma_e, mode):
    """The design of the untransformed instance and its budget, three times
    the zero-offset QoS power of the constant-offset design."""
    try:
        _, total_power = max_r_powers(h, gammas, noise, sigma_e, mode)
        beta = id_powers(name, h, gammas, noise, sigma_e, mode, total_power)
    except DESIGN_ERRORS:
        assume(False)
    return beta, total_power


@pytest.mark.parametrize("name", ROTATION_IDS)
@SETTINGS
@given(instances())
def test_every_id_antenna_basis_rotation(name, instance):
    h, gammas, noise, sigma_e, mode, rng = instance
    beta, total_power = id_reference(name, h, gammas, noise, sigma_e, mode)
    nt = h.shape[1]
    unitary, _ = np.linalg.qr(standard_complex(rng, (nt, nt)))
    beta_rot = id_powers(name, h @ unitary.T, gammas, noise, sigma_e, mode,
                         total_power)
    assert_close(beta_rot, beta)


@pytest.mark.parametrize("name", ALGORITHM_IDS)
@SETTINGS
@given(instances(), st.data())
def test_every_id_user_permutation(name, instance, data):
    h, gammas, noise, sigma_e, mode, _ = instance
    beta, total_power = id_reference(name, h, gammas, noise, sigma_e, mode)
    perm = np.array(data.draw(st.permutations(range(h.shape[0]))))
    beta_perm = id_powers(name, h[perm], gammas[perm], noise[perm], sigma_e[perm],
                          mode, total_power)
    assert_close(beta_perm, beta[perm])


@pytest.mark.parametrize("name", ALGORITHM_IDS)
@SETTINGS
@given(instances(), st.floats(-3.0, 3.0))
def test_every_id_joint_scaling(name, instance, log10_c):
    h, gammas, noise, sigma_e, mode, _ = instance
    beta, total_power = id_reference(name, h, gammas, noise, sigma_e, mode)
    c = 10.0 ** log10_c
    beta_scaled = id_powers(name, c * h, gammas, c ** 2 * noise, c * sigma_e, mode,
                            total_power)
    assert_close(beta_scaled, beta)


# ---------------------------------------------------------------------------
# the CLI's operating point: generate_scenario cells, P_t = 1 W, exact mode
# ---------------------------------------------------------------------------

# Left out of both properties below. Measured on 200 such cells, as the largest
# change of a user's power relative to the largest power, under a random
# rotation / under the reduction to K antennas:
# - rzf: 1.6 / 1.0. Its N_t x N_t solve at the default loading K*mean(noise)/P_t
#   is ill-conditioned (ROADMAP item 8).
# - alg1: 2.9 / 0.93 where both designs succeed, and the outcome changed on 5 / 10
#   cells. Its element-wise Re{psi h^H} depends on the antenna basis (item 1).
# Every other id stayed within 3e-13, with the same outcome on every cell.
OPERATING_POINT_EXCLUDED = ("rzf", "alg1")
OPERATING_POINT_IDS = tuple(name for name in ALGORITHM_IDS
                            if name not in OPERATING_POINT_EXCLUDED)


@st.composite
def operating_cells(draw):
    """A generate_scenario cell (0.5, 1.5 or 3.2 km; K <= 6 users on N_t <= 20
    antennas; default link parameters) and a generator seeded like it."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    cell = CellConfig(n_users=draw(st.integers(1, 6)), n_antennas=draw(st.integers(1, 20)),
                      radius_km=draw(st.sampled_from((0.5, 1.5, 3.2))))
    return generate_scenario(cell, seed), np.random.default_rng(seed)


def operating_designer(name, scenario, total_power=1.0):
    """design.designer of id `name` on scenario, in exact mode."""
    return designer(name, scenario, **{**DESIGN_DEFAULTS, "total_power": total_power,
                                       "variance_mode": "exact"})


def operating_outcome(name, scenario, h_est):
    """The design error class of `name` on scenario with its channels replaced
    by h_est, or the served users and their powers."""
    moved = Scenario(h_est=h_est, sigma_e=scenario.sigma_e,
                     noise_power=scenario.noise_power, sinr_target=scenario.sinr_target)
    try:
        report = operating_designer(name, moved)(FIXED_R)
    except DESIGN_ERRORS as exc:
        return type(exc)
    return report.served_indices, report.powers


def assert_same_outcome(name, scenario, h_est):
    expected = operating_outcome(name, scenario, scenario.h_est)
    outcome = operating_outcome(name, scenario, h_est)
    if isinstance(expected, type) or isinstance(outcome, type):
        assert outcome == expected
    else:
        assert outcome[0] == expected[0]
        assert_close(outcome[1], expected[1])


@pytest.mark.parametrize("name", OPERATING_POINT_IDS)
@SETTINGS
@given(operating_cells())
def test_every_id_antenna_basis_rotation_at_the_operating_point(name, cell):
    scenario, rng = cell
    nt = scenario.n_antennas
    unitary, _ = np.linalg.qr(standard_complex(rng, (nt, nt)))
    assert_same_outcome(name, scenario, scenario.h_est @ unitary.T)


@pytest.mark.parametrize("name", OPERATING_POINT_IDS)
@SETTINGS
@given(operating_cells())
def test_every_id_reduction_to_k_antennas_at_the_operating_point(name, cell):
    # With h_est^H = QR, the scenario h_est Q (= R^H) on min(K, N_t) antennas
    # is the same problem for every design in the span of the channels.
    scenario, _ = cell
    q, _ = np.linalg.qr(scenario.h_est.conj().T)
    assert_same_outcome(name, scenario, scenario.h_est @ q)


# The orderings at the same operating point. Every served user meets its offset
# with equality (mu_f = r sigma_f) except under avg_outage, whose perturbation
# leaves the offsets it reports: on 300 such cells its ratio was off by more
# than 1e-6 in 195 of its 252 designs (ROADMAP item 20). The other properties
# held on all 300 cells.
R_GRID = (0.5, 1.0, 1.5, 2.0)
BUDGETS = (0.1, 1.0, 10.0)
OFFSET_EQUALITY_EXCLUDED = ("avg_outage",)


@pytest.mark.parametrize("name", FIXED_R_ALGORITHMS)
@SETTINGS
@given(operating_cells())
def test_fixed_offset_power_rises_with_r_at_the_operating_point(name, cell):
    scenario, _ = cell
    powers = []
    try:
        design_at = operating_designer(name, scenario)
        for r in R_GRID:
            powers.append(design_at(r).total_power)
    except DESIGN_ERRORS:
        pass        # the grid's feasible part ends at the first design error
    assert all(low < high for low, high in zip(powers, powers[1:])), powers


@SETTINGS
@given(operating_cells())
def test_maxr_offset_does_not_fall_with_the_budget_at_the_operating_point(cell):
    scenario, _ = cell
    offsets = []
    for total_power in BUDGETS:
        try:
            report = operating_designer("maxr", scenario, total_power)(None)
        except DESIGN_ERRORS:
            assert not offsets      # a larger budget keeps a design feasible
            continue
        offsets.append(report.offsets[0])
    assert offsets == sorted(offsets)


@SETTINGS
@given(operating_cells())
def test_powersave_spends_at_most_what_reschedule_spends_at_the_operating_point(cell):
    scenario, _ = cell
    outcomes = []
    for name in ("maxr_reschedule", "maxr_powersave"):
        try:
            outcomes.append(operating_designer(name, scenario)(None))
        except DESIGN_ERRORS as exc:
            outcomes.append(type(exc))
    rescheduled, saved = outcomes
    if isinstance(rescheduled, type) or isinstance(saved, type):
        assert saved == rescheduled
    else:
        assert saved.served_indices == rescheduled.served_indices
        assert saved.total_power <= rescheduled.total_power


@pytest.mark.parametrize("name", [name for name in ALGORITHM_IDS
                                  if name not in OFFSET_EQUALITY_EXCLUDED])
@SETTINGS
@given(operating_cells())
def test_every_served_user_meets_its_offset_at_the_operating_point(name, cell):
    scenario, _ = cell
    try:
        report = operating_designer(name, scenario)(FIXED_R)
    except DESIGN_ERRORS:
        return
    target = report.offsets * report.sigma_f
    assert np.all(np.abs(report.mu_f - target) <= 1e-6 * np.abs(target))
