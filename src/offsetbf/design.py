"""Each algorithm id's beamforming directions and power loading, paired once.

designer(name, scenario, ...) does the work of id `name` that does not depend
on the offset r once, and returns the closure r -> DesignReport.
"""

from . import directions, powerload

FIXED_R_ALGORITHMS = ("zf", "mrt", "rzf", "alg1", "const_offset")
MAXR_ALGORITHMS = ("maxr", "maxr_reschedule", "maxr_powersave", "avg_outage")
ALGORITHM_IDS = FIXED_R_ALGORITHMS + MAXR_ALGORITHMS


def designer(name: str, scenario, *, total_power, variance_mode, r_min, r_cap,
             rzf_loading):
    """Closure r -> DesignReport of id `name` on scenario; r-independent work runs here.

    alg1 rebuilds its r-dependent directions at each call. Budgeted ids ignore r: maxr
    and avg_outage (which then perturbs it per user) maximize const_offset's common
    offset under total_power; maxr_reschedule and maxr_powersave drop users down to
    r_min, and maxr_powersave caps each user's r at r_cap.
    """
    h_est, gammas = scenario.h_est, scenario.sinr_target
    if name == "alg1":
        return lambda r: powerload.alg2_power_load(powerload.coupling_matrix(
            scenario, directions.alg1_directions(h_est, gammas, scenario.sigma_e, r),
            variance_mode), r)
    if name in ("maxr_reschedule", "maxr_powersave"):
        _, report = powerload.reschedule(scenario, total_power, r_min=r_min,
                                         variance_mode=variance_mode)
        if name == "maxr_powersave":
            report = powerload.power_saving_cap(report, r_cap=r_cap)
        return lambda r: report

    if name == "zf":
        u_rows = directions.zf_directions(h_est)
    elif name == "mrt":
        u_rows = directions.mrt_directions(h_est)
    elif name == "rzf":
        if rzf_loading is None:
            rzf_loading = scenario.n_users * float(scenario.noise_power.mean()) / total_power
        u_rows = directions.rzf_directions(h_est, rzf_loading)
    elif name in ("const_offset", "maxr", "avg_outage"):
        u_rows = directions.const_offset_directions(h_est, gammas)
    else:
        raise ValueError(f"unknown algorithm {name!r}")
    coupling = powerload.coupling_matrix(scenario, u_rows, variance_mode)
    if name in FIXED_R_ALGORITHMS:
        return lambda r: powerload.alg2_power_load(coupling, r)
    _, _, report = powerload.max_r_power_load(coupling, total_power)
    if name == "avg_outage":
        report = powerload.average_outage_perturbation(report)
    return lambda r: report
