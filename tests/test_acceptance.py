"""End-to-end acceptance checks.

One test per numbered acceptance item. Each test prints a single line

    criterion N: PASS/FAIL (measured numbers, stated tolerance)

before asserting, so the verdicts survive into the captured output. The
module propagates at production resolution on purpose; expect a few
minutes of wall time on one core, most of it in the position sweep.
"""

import numpy as np

from oracles import (
    profile_node_mask,
    quantum_potential,
    residual_potential,
    residual_potential_expanded,
)
from qpot.bohmian import weighted_fields
from qpot.core import (
    HBAR,
    Grid1D,
    PhysicalParams,
    Wavefunction,
    default_grid,
    moments,
)
from qpot.engineering import (
    ProfileSpec,
    engineered_packet,
    engineered_profile,
    gaussian_packet,
)
from qpot.experiments import (
    SweepSpec,
    convergence_report,
    run_comparison,
    run_fitted_control,
    run_preparation_study,
    run_sweep,
)
from qpot.potentials import total_potential
from qpot.propagate import CrankNicolson, EvolveConfig, evolve


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_profile_curvature_cancels_surface_attraction():
    """The quantum potential of the bare profile density equals +c4/z^4 to
    relative 1e-3 on [0.3, 8] um, for the cosine and the sine solution
    alike, away from the profile nodes."""
    params = PhysicalParams()
    grid = Grid1D(z_max=8.2e-6, n_points=2**16 + 1, z_min=0.25e-6)
    z = grid.z
    attraction = params.c4 / z**4
    worst = {}
    for label, spec in (("cos", ProfileSpec()), ("sin", ProfileSpec(c1=0.0, c2=1.0))):
        p = engineered_profile(z, params, spec)
        q = quantum_potential(grid, p**2, params)
        # node guard: drop points where the oscillating factor is under 2%
        # of its amplitude, then widen the exclusion by three grid points
        alpha = p / z
        bad = ~q.valid | (np.abs(alpha) < 0.02 * np.hypot(spec.c1, spec.c2))
        for _ in range(3):
            bad = bad | np.roll(bad, 1) | np.roll(bad, -1)
        ok = ~bad & (z >= 0.3e-6) & (z <= 8.0e-6)
        assert ok.sum() > 10_000
        rel = np.abs(q.values[ok] - attraction[ok]) / attraction[ok]
        worst[label] = float(rel.max())
    passed = all(w < 1e-3 for w in worst.values())
    report(
        1,
        passed,
        f"max |Q - c4/z^4| / (c4/z^4): cosine {worst['cos']:.2e}, "
        f"sine {worst['sin']:.2e}, tol 1e-3",
    )


def test_criterion_2_residual_closed_form_matches_numerics():
    """Closed-form residual against the finite-difference Q + surface term,
    within 1% of the residual scale, for three packet geometries; and the
    two algebraic routes to the residual agree to 1e-9."""
    cases = [(2.3e-6, 1.0e-6), (3.0e-6, 1.0e-6), (1.0e-6, 2e-6 / 3)]
    rng = np.random.default_rng(20260819)
    worst_fd = 0.0
    worst_forms = 0.0
    for z0, sigma in cases:
        params = PhysicalParams(z0=z0, sigma=sigma)
        grid = default_grid(params)
        z = grid.z
        psi = engineered_packet(grid, params)
        q = quantum_potential(grid, psi.density(), params)
        ok = q.valid & profile_node_mask(grid, params, rel_tol=1e-2, guard=8)
        ok &= z >= 0.3e-6
        assert ok.sum() > 500
        closed = residual_potential(z[ok], params)
        numeric = q.values[ok] - params.c4 / z[ok] ** 4
        scale = np.abs(closed).max()
        worst_fd = max(worst_fd, float(np.abs(closed - numeric).max() / scale))

        # independent algebraic route, random off-node sample points
        zs = rng.uniform(0.4e-6, 8.0e-6, size=400)
        zs = zs[np.abs(np.cos(params.profile_scale / zs)) > 1e-3]
        a_form = residual_potential(zs, params)
        b_form = residual_potential_expanded(zs, params)
        anchor = params.hbar**2 / (4 * params.mass * sigma**2)
        denom = np.maximum(np.maximum(np.abs(a_form), np.abs(b_form)), anchor)
        worst_forms = max(worst_forms, float((np.abs(a_form - b_form) / denom).max()))
    passed = worst_fd < 1e-2 and worst_forms < 1e-9
    report(
        2,
        passed,
        f"closed form vs finite differences within {worst_fd:.2e} of the residual "
        f"scale (tol 1e-2); algebraic routes agree to {worst_forms:.2e} (tol 1e-9)",
    )


def test_criterion_3_propagator_spread_trap_unitarity_reversal():
    """Four propagator ground truths: analytic free spreading at 2 ms,
    stationary trap ground state, norm conservation over 1e4 steps with
    real potentials, and time-reversal recovery."""
    # free spreading, box wide enough that the pinned walls stay dark
    free = PhysicalParams(z0=12e-6, sigma=1e-6, c4=0.0, trap_omega=0.0)
    grid_f = Grid1D(z_max=24e-6, n_points=4096)
    caps_f = []
    evolve(
        gaussian_packet(grid_f, free.z0, free.sigma),
        total_potential(grid_f, free),
        free,
        EvolveConfig(dt=1e-7, t_final=2e-3),
        capture=lambda t, psi: caps_f.append((t, psi)),
        snapshot_stride=20000,
    )
    t_end, psi_end = caps_f[-1]
    _, std_end, _ = moments(Wavefunction(grid_f, psi_end))
    expected = free.sigma * np.sqrt(
        1.0 + (HBAR * t_end / (2 * free.mass * free.sigma**2)) ** 2
    )
    spread_err = abs(std_end - expected) / expected

    # trap ground state held for 1e4 steps
    trap = PhysicalParams(z0=7e-6, sigma=1e-6, c4=0.0)
    grid_t = Grid1D(z_max=14e-6, n_points=4096)
    caps_t = []
    rec_t = evolve(
        gaussian_packet(grid_t, trap.z0, trap.sigma),
        total_potential(grid_t, trap),
        trap,
        EvolveConfig(dt=1e-7, t_final=1e-3),
        capture=lambda t, psi: caps_t.append((t, np.abs(psi) ** 2)),
        snapshot_stride=10000,
    )
    rho0 = caps_t[0][1]
    rho1 = caps_t[-1][1]
    density_drift = float(np.abs(rho1 - rho0).max() / rho0.max())
    norm_drift = float(np.abs(rec_t.norms - 1.0).max())

    # forward N steps, conjugate, forward N steps, conjugate: identity
    rev = PhysicalParams(z0=3e-6, sigma=0.6e-6, absorber_strength=0.0)
    grid_r = default_grid(rev)
    solver = CrankNicolson(
        grid_r,
        total_potential(grid_r, rev),
        rev,
        1e-7,
    )
    u0 = engineered_packet(grid_r, rev).values[1:-1].copy()
    u = u0.copy()
    for _ in range(1000):
        u = solver.step_values(u)
    u = np.conj(u)
    for _ in range(1000):
        u = solver.step_values(u)
    u = np.conj(u)
    reversal = float(np.abs(u - u0).max() / np.abs(u0).max())

    passed = (
        spread_err < 5e-3
        and density_drift < 1e-3
        and norm_drift < 1e-8
        and reversal < 1e-8
    )
    report(
        3,
        passed,
        f"free-spread width error {spread_err:.1e} (tol 5e-3); trap density drift "
        f"{density_drift:.1e} (tol 1e-3); norm drift {norm_drift:.1e} over 1e4 "
        f"steps (tol 1e-8); reversal defect {reversal:.1e} (tol 1e-8)",
    )


def test_criterion_4_absorbed_fraction_self_convergence():
    """Halving dt moves the 2 ms absorbed fraction by under 1%, halving dz
    by under 2%, and both refinement ladders show second order (2 +- 0.3)
    at the comparison point z0 = 3 um, sigma = 1 um."""
    params = PhysicalParams(z0=3.0e-6, sigma=1.0e-6)

    # halving changes at production resolution; the dt ladder is coarse-led
    # by design, so its first triplet also gives a usable dt order
    rep = convergence_report(params)
    dt_order = rep.dt_order

    # The potential's slope jumps at the absorber edge z = delta. Sampling
    # that kink pointwise adds an O(dz^2) error whose sign depends on where
    # delta lands between grid points, and a doubling ladder walks that
    # phase: at production resolution the increments sign-flip and the
    # order estimate is meaningless. Measure the spatial order on grids
    # that keep delta on a grid point at every rung (delta/dz = 18, 36, 72)
    # so the ladder sees only the scheme's own truncation error.
    rep_dz = convergence_report(
        params,
        base_grid=Grid1D(z_max=10e-6, n_points=1201),
        dt_ladder=(8e-7, 4e-7),
    )
    dz_order = rep_dz.dz_order

    passed = (
        rep.dt_halving_change < 1e-2
        and rep.dz_halving_change < 2e-2
        and abs(dt_order - 2.0) <= 0.3
        and abs(dz_order - 2.0) <= 0.3
    )
    report(
        4,
        passed,
        f"dt halving moves absorbed(2 ms) by {rep.dt_halving_change:.1e} (tol 1e-2); "
        f"dz halving by {rep.dz_halving_change:.1e} (tol 2e-2); "
        f"orders dt {dt_order:.2f}, dz {dz_order:.2f} on an edge-aligned ladder "
        f"(band 2 +- 0.3)",
    )


def test_criterion_5_suppression_time_series():
    """Absorption suppression for the engineered packet at z0 = 3 um,
    sigma = 1 um: ratio above 30 somewhere before 0.5 ms, above 3
    throughout [1, 2] ms, and a crossover (ratio down to 1) at 3 +- 1.5 ms."""
    params = PhysicalParams(z0=3.0e-6, sigma=1.0e-6)
    res = run_comparison(
        params,
        config=EvolveConfig(dt=1e-7, t_final=4.5e-3),
        t_average_window=2e-3,
    )
    t = res.ratio_times
    r = res.ratios
    early = r[t < 0.5e-3]
    band = r[(t >= 1e-3) & (t <= 2e-3)]
    peak_early = float(early.max()) if early.size else 0.0
    floor_band = float(band.min()) if band.size else 0.0
    cross = res.crossover_time
    big_early = peak_early > 30.0
    stays_above = band.size > 0 and floor_band > 3.0
    crosses = cross is not None and 1.5e-3 <= cross <= 4.5e-3

    # diagnostic for the crossover clause: the instantaneous absorption
    # rates tell when the engineered packet stops being the slower absorber,
    # which leads the crossover of the accumulated ratio by a long margin
    rec_e = res.records["engineered"]
    rec_g = res.records["gaussian"]
    rate_e = np.gradient(rec_e.absorbed_fraction, rec_e.times)
    rate_g = np.gradient(rec_g.absorbed_fraction, rec_g.times)
    late = rec_e.times >= 1e-3
    rate_cross = None
    behind = late & (rate_g <= rate_e)
    if behind.any():
        rate_cross = float(rec_e.times[np.flatnonzero(behind)[0]])
    report(
        5,
        big_early and stays_above and crosses,
        f"peak ratio before 0.5 ms {peak_early:.0f} (need > 30); min ratio on "
        f"[1, 2] ms {floor_band:.2f} (need > 3); crossover time {cross} "
        f"(need within [1.5e-3, 4.5e-3] s; instantaneous rates cross at "
        f"{rate_cross})",
    )


def test_criterion_6_suppression_grows_with_relative_width():
    """Sweeping z0 from 1.5 to 4 um at sigma/z0 in {1/3, 1/2, 2/3}: every
    window-averaged suppression exceeds 1, and at fixed z0 the averaged
    suppression is non-decreasing in sigma/z0."""
    base = PhysicalParams()
    z0s = (1.5e-6, 2.0e-6, 2.5e-6, 3.0e-6, 3.5e-6, 4.0e-6)
    ratios = (1 / 3, 1 / 2, 2 / 3)
    table = {}
    for width_ratio in ratios:
        spec = SweepSpec(z0_values=z0s, sigma_rule=("ratio", width_ratio))
        rows = run_sweep(base, spec)
        assert not any(row.failed for row in rows), [row.error for row in rows]
        table[width_ratio] = {row.z0: row.averaged_ratio for row in rows}
    values = [v for sub in table.values() for v in sub.values()]
    all_above = all(v is not None and v > 1.0 for v in values)
    monotone = all(
        table[1 / 3][z] <= table[1 / 2][z] <= table[2 / 3][z] for z in z0s
    )
    report(
        6,
        all_above and monotone,
        f"{len(values)} sweep points, smallest averaged suppression "
        f"{min(values):.2f} (need > 1); non-decreasing in sigma/z0 at every "
        f"z0: {monotone}",
    )


def test_criterion_7_engineered_beats_width_matched_gaussian():
    """The engineered packet at z0 = 1.43 um out-suppresses the Gaussian
    control at z0 = 2.3 um (equal sigma) at every retained time up to 2 ms."""
    res = run_fitted_control()
    r = res.ratios
    always_ahead = r.size > 0 and bool(np.all(r > 1.0))
    report(
        7,
        always_ahead,
        f"control/engineered absorption ratio above 1 at all {r.size} retained "
        f"times to 2 ms: {always_ahead}; min {r.min():.2f}, "
        f"window average {res.averaged_ratio:.2f}",
    )


def test_criterion_8_weighted_residual_small_and_shrinks_with_width():
    """Over the packet support the density-weighted residual stays under
    a tenth of the density-weighted quantum potential, and quadrupling
    sigma^2 shrinks the residual peak at least threefold."""
    params = PhysicalParams()
    w_q, w_res, _, sup = weighted_fields(default_grid(params), params)
    peak_res = float(np.abs(w_res[sup]).max())
    peak_q = float(np.abs(w_q[sup]).max())
    small = peak_res < 0.1 * peak_q

    wide = params.replace(sigma=2.0e-6)
    _, w_res2, _, sup2 = weighted_fields(default_grid(wide), wide)
    peak_res2 = float(np.abs(w_res2[sup2]).max())
    reduction = peak_res / peak_res2
    shrinks = reduction >= 3.0
    report(
        8,
        small and shrinks,
        f"weighted residual peak {peak_res / peak_q:.2e} of weighted Q peak "
        f"(need < 0.1); quadrupling sigma^2 shrinks the peak {reduction:.2f}x "
        f"(need >= 3)",
    )


def test_criterion_9_soft_phase_imprint_prepares_faithfully():
    """Two-pulse preparation with slope K z0 <= 0.1 reaches fidelity above
    0.99 and keeps the 2 ms absorbed fraction within a factor two of the
    ideal packet's."""
    params = PhysicalParams()
    rows = run_preparation_study(
        params, slope_z0_values=(0.05, 0.1), t_window=2e-3
    )
    fid_ok = all(row.fidelity > 0.99 for row in rows)
    cost_ok = all(0.5 <= row.penalty <= 2.0 for row in rows)
    report(
        9,
        fid_ok and cost_ok,
        "fidelity at K*z0 = 0.05, 0.1: "
        f"{rows[0].fidelity:.6f}, {rows[1].fidelity:.6f} (need > 0.99); "
        f"absorption penalty {rows[0].penalty:.3f}, {rows[1].penalty:.3f} "
        f"(need within a factor 2)",
    )
