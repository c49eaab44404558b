"""Stepper tests: stability, dispersion, reversibility, absorption records."""

import ctypes
import gc
import re
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from scipy.linalg import solve_banded

from qpot.core import Grid1D, PhysicalParams, default_grid, moments
from qpot.engineering import gaussian_packet
from qpot.errors import ConfigError, GridError, NumericsError
from qpot.potentials import ComplexPotential, total_potential
from qpot.propagate import (MAX_STEPS, CrankNicolson, EvolveConfig, _zgttrf, _zgttrs,
                            evolve)

HBAR = 1.054571817e-34


def free_potential(grid):
    zeros = np.zeros(grid.n_points)
    return ComplexPotential(grid, zeros, zeros)


def energy_expectation(psi, potential, params):
    """<H> via central differences, for conservation checks (real part)."""
    z = psi.grid.z
    dz = psi.grid.dz
    vals = psi.values
    lap = np.zeros_like(vals)
    lap[1:-1] = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / dz**2
    hpsi = -(params.hbar**2 / (2 * params.mass)) * lap
    hpsi += potential.complex_values() * vals
    num = np.trapezoid(np.conj(vals) * hpsi, z)
    den = np.trapezoid(np.abs(vals) ** 2, z)
    return complex(num / den)


class TestEvolveConfig:
    def test_defaults(self):
        cfg = EvolveConfig()
        assert cfg.dt == 1e-7
        assert cfg.t_final == 5e-3
        assert cfg.n_steps == 50000
        assert [f.name for f in fields(cfg)] == ["dt", "t_final"]  # the time grid alone

    @pytest.mark.parametrize("kwargs", [
        {"dt": 0.0},
        {"dt": -1e-7},
        {"dt": 1e-7, "t_final": 1e-8},
        {"t_final": -1e-7},
    ])
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ConfigError):
            EvolveConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"dt": float("nan")},
        {"t_final": float("nan")},
        {"dt": 1e-320},  # t_final / dt overflows to inf
        {"t_final": 1000.0},  # 1e10 steps
        {"dt": 1e-7, "t_final": (MAX_STEPS + 1) * 1e-7},
    ])
    def test_rejects_step_count_over_the_cap(self, kwargs):
        config = {"dt": 1e-7, "t_final": 5e-3, **kwargs}
        with pytest.raises(ConfigError) as info:
            EvolveConfig(**kwargs)
        message = str(info.value)
        assert f"t_final = {config['t_final']!r} s" in message
        assert f"dt = {config['dt']!r} s" in message
        assert str(MAX_STEPS) in message

    def test_step_cap_itself_accepted(self):
        assert EvolveConfig(dt=1e-7, t_final=MAX_STEPS * 1e-7).n_steps == MAX_STEPS

    @pytest.mark.parametrize("t_final", [1.04e-6, 9.96e-7])
    def test_rejects_fractional_step_count(self, t_final):
        with pytest.raises(ConfigError) as info:
            EvolveConfig(dt=1e-7, t_final=t_final)
        assert repr(t_final) in str(info.value)
        assert "1e-07" in str(info.value)

    @pytest.mark.parametrize("dt, t_final, n_steps", [
        (1e-7, 1e-6, 10), (1e-7, 2e-5, 200), (1e-7, 2e-3, 20000),
        (5e-8, 2e-3, 40000), (8e-7, 2e-3, 2500), (2e-7, 2e-5, 100),
    ])
    def test_whole_step_count_accepted(self, dt, t_final, n_steps):
        assert EvolveConfig(dt=dt, t_final=t_final).n_steps == n_steps


class TestStep:
    @pytest.fixture
    def params(self):
        return PhysicalParams()

    @pytest.fixture
    def grid(self):
        return default_grid(PhysicalParams())

    def test_matches_one_evolve_step(self, grid, params):
        # 0.7 um width keeps the tail at the far wall below 1e-11 of the
        # peak, so evolve's initial renormalization is a no-op here.
        psi = gaussian_packet(grid, 5e-6, 0.7e-6)
        pot = free_potential(grid)
        cfg = EvolveConfig(dt=1e-7, t_final=1e-7)
        caps = []
        evolve(psi, pot, params, cfg, capture=lambda t, psi: caps.append((t, psi)),
               snapshot_stride=1)
        u = psi.values[1:-1].copy()
        CrankNicolson(grid, pot, params, 1e-7).step_values(u)
        stored = caps[-1][1]
        assert stored[0] == stored[-1] == 0.0
        assert np.allclose(u, stored[1:-1], rtol=0,
                           atol=1e-12 * np.abs(stored).max())

    def test_real_potential_preserves_norm(self, grid, params):
        psi = gaussian_packet(grid, 5e-6, 0.7e-6)
        pot = total_potential(grid, params.replace(absorber_strength=0.0))
        u = psi.values[1:-1].copy()
        CrankNicolson(grid, pot, params, 1e-7).step_values(u)
        out = psi.with_values(np.concatenate(([0.0], u, [0.0])))
        assert abs(out.norm() - 1.0) < 1e-12

    def test_grid_mismatch_rejected(self, grid, params):
        other = Grid1D(z_max=grid.z_max, n_points=grid.n_points + 1)
        psi = gaussian_packet(grid, 5e-6, 1e-6)
        with pytest.raises(GridError):
            CrankNicolson(grid, free_potential(other), params, 1e-7)
        # an equal grid built apart is accepted
        twin = Grid1D(z_max=grid.z_max, n_points=grid.n_points)
        assert twin is not grid
        CrankNicolson(grid, free_potential(twin), params, 1e-7)

    def test_tiny_grid_rejected(self, params):
        grid = Grid1D(z_max=1e-6, n_points=3)
        with pytest.raises(GridError):
            CrankNicolson(grid, free_potential(grid), params, 1e-7)

    def test_nonfinite_input_caught(self, grid, params):
        # named as the initial state before the renormalization divides by
        # its norm, so no step runs and numpy does not warn
        psi = gaussian_packet(grid, 5e-6, 1e-6)
        cfg = EvolveConfig(dt=1e-7, t_final=1e-7)
        for value, shown in ((np.nan, "nan"), (np.inf, "inf")):
            vals = psi.values.copy()
            vals[2000] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericsError) as info:
                    evolve(psi.with_values(vals), free_potential(grid), params, cfg)
            assert str(info.value) == (f"initial state has norm {shown}; "
                                       "it must be finite and nonzero")

    def test_zero_initial_norm_caught(self, grid, params):
        psi = gaussian_packet(grid, 5e-6, 1e-6)
        zero = psi.with_values(np.zeros_like(psi.values))
        with pytest.raises(NumericsError, match="initial state has norm 0.0;"):
            evolve(zero, free_potential(grid), params,
                   EvolveConfig(dt=1e-7, t_final=1e-7))


class TestFactoredFastPath:
    """The once-factored solver against a per-step banded solve."""

    @pytest.fixture
    def stack(self):
        params = PhysicalParams()
        grid = default_grid(params)
        pot = total_potential(grid, params)  # absorber on
        psi = gaussian_packet(grid, params.z0, params.sigma)
        return grid, pot, params, psi

    @staticmethod
    def banded(stack, dt):
        """A = 1 + i dt H / 2 hbar in solve_banded's layout, and the diagonals
        of the explicit side 1 - i dt H / 2 hbar."""
        grid, pot, params, _ = stack
        lam = 1j * dt / (2 * params.hbar)
        kin = params.hbar**2 / (2 * params.mass * grid.dz**2)
        diag = 2 * kin + pot.complex_values()[1:-1]
        off = -kin * np.ones(grid.n_points - 3, dtype=complex)
        ab = np.zeros((3, grid.n_points - 2), dtype=complex)
        ab[0, 1:] = lam * off
        ab[1, :] = 1.0 + lam * diag
        ab[2, :-1] = lam * off
        return ab, 1.0 - lam * diag, -lam * off

    def test_bitwise_equal_to_banded_reference(self, stack):
        # u' = A^-1 (2 - A) u = 2 A^-1 u - u, with A^-1 applied to 2u
        grid, pot, params, psi = stack
        ab, _, _ = self.banded(stack, 1e-7)
        solver = CrankNicolson(grid, pot, params, 1e-7)
        u_ref = psi.values[1:-1].astype(complex)
        u = u_ref.copy()
        for _ in range(2000):
            u_ref = solve_banded((1, 1), ab, 2 * u_ref, check_finite=False) - u_ref
            solver.step_values(u)
        assert np.array_equal(u, u_ref)

    def test_factors_outlive_their_inputs(self, stack):
        # the factored arrays have no reference but the solver's; memory
        # freed and refilled under them would change the amplitudes
        grid, pot, params, psi = stack
        ab, _, _ = self.banded(stack, 1e-7)
        solver = CrankNicolson(grid, pot, params, 1e-7)
        gc.collect()
        junk = [np.full(size, np.nan, dtype=complex)  # noqa: F841
                for size in (grid.n_points - 2, grid.n_points - 3, grid.n_points - 4)
                for _ in range(8)]
        u = psi.values[1:-1].astype(complex)
        ref = u.copy()
        for _ in range(20):
            solver.step_values(u)
            ref = solve_banded((1, 1), ab, 2 * ref, check_finite=False) - ref
        assert np.array_equal(u, ref)

    def test_matches_explicit_rhs_form(self, stack):
        # the textbook step A u' = (1 - i dt H / 2 hbar) u, absorber on
        grid, pot, params, psi = stack
        ab, bdiag, boff = self.banded(stack, 1e-7)
        solver = CrankNicolson(grid, pot, params, 1e-7)
        u_ref = psi.values[1:-1].astype(complex)
        u = u_ref.copy()
        for _ in range(2000):
            rhs = bdiag * u_ref
            rhs[1:] += boff * u_ref[:-1]
            rhs[:-1] += boff * u_ref[1:]
            u_ref = solve_banded((1, 1), ab, rhs, check_finite=False)
            solver.step_values(u)
        assert np.abs(u - u_ref).max() <= 1e-12 * np.abs(u_ref).max()

    def test_steps_in_place_and_step_leaves_psi(self, stack):
        # evolve steps its own copy in place; the packet it was given stays
        grid, pot, params, psi = stack
        before = psi.values.copy()
        evolve(psi, pot, params, EvolveConfig(dt=1e-7, t_final=1e-6))
        assert np.array_equal(psi.values, before)
        u = psi.values[1:-1].copy()
        assert CrankNicolson(grid, pot, params, 1e-7).step_values(u) is u
        assert not np.array_equal(u, before[1:-1])

    def test_nan_potential_caught(self, stack):
        grid, pot, params, psi = stack
        re = pot.real_part.copy()
        re[2000] = np.nan
        bad = ComplexPotential(grid, re, pot.imag_part)
        with pytest.raises(NumericsError):
            evolve(psi, bad, params, EvolveConfig(dt=1e-7, t_final=1e-6))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_one_bad_amplitude_mid_run_caught(self, stack, monkeypatch,
                                              value):
        # a single non-finite entry must make the recorded norm non-finite
        grid, pot, params, psi = stack
        real_step = CrankNicolson.step_values
        calls = []

        def corrupting(self, interior):
            out = real_step(self, interior)
            calls.append(None)
            if len(calls) == 5:
                out[1234] = value
            return out

        monkeypatch.setattr(CrankNicolson, "step_values", corrupting)
        with pytest.raises(NumericsError, match="step 5"):
            evolve(psi, pot, params, EvolveConfig(dt=1e-7, t_final=1e-6))

    def test_snapshots_equal_shorter_runs(self, stack):
        # each capture copies the state; a capture aliasing the stepped
        # amplitudes would show the final state at every stride
        grid, pot, params, psi = stack
        cfg = EvolveConfig(dt=1e-7, t_final=2e-5)
        caps = []
        evolve(psi, pot, params, cfg, capture=lambda t, psi: caps.append((t, psi)),
               snapshot_stride=50)
        assert len(caps) == 5
        for k in (1, 2, 3):
            short_caps = []
            short = evolve(psi, pot, params, EvolveConfig(dt=1e-7, t_final=k * 5e-6),
                           capture=lambda t, psi: short_caps.append((t, psi)),
                           snapshot_stride=50)
            assert short.times.size == 50 * k + 1
            assert caps[k][0] == short_caps[-1][0]
            assert np.array_equal(caps[k][1], short_caps[-1][1])
        assert not np.array_equal(caps[3][1], caps[4][1])

    def test_recorded_norm_is_the_trapezoid_norm(self, stack):
        grid, pot, params, psi = stack
        cfg = EvolveConfig(dt=1e-7, t_final=2e-5)
        caps = []
        rec = evolve(psi, pot, params, cfg,
                     capture=lambda t, psi: caps.append((t, psi)), snapshot_stride=50)
        for t, vals in caps[1:]:
            k = int(round(t / cfg.dt))
            trap = np.sqrt(np.trapezoid(np.abs(vals) ** 2, grid.z))
            assert rec.norms[k] == pytest.approx(trap, rel=1e-14, abs=0)


class TestLapackBinding:
    """The ctypes binding to numpy's LAPACK, beyond what CN systems exercise."""

    @pytest.mark.parametrize("routine", [_zgttrf, _zgttrs])
    def test_call_releases_the_interpreter_lock(self, routine):
        # a CDLL function; a PyDLL one would hold the lock through the solve
        assert not routine._flags_ & ctypes._FUNCFLAG_PYTHONAPI

    def test_pivoting_system_matches_dense_solve(self):
        # a real well of -2 kin makes the diagonal of A about 1 beside
        # off-diagonals of modulus 3, so zgttrf swaps rows; physical CN
        # matrices are diagonally dominant and never do
        params = PhysicalParams()
        grid = Grid1D(z_max=1e-6, n_points=40)
        kin = params.hbar**2 / (2 * params.mass * grid.dz**2)
        dt = 3 * 4 * params.mass * grid.dz**2 / params.hbar  # lam * kin = 3
        rng = np.random.default_rng(7)
        pot = ComplexPotential(grid, -2 * kin * (1 + 0.1 * rng.standard_normal(40)),
                               -0.2 * kin * rng.random(40))
        solver = CrankNicolson(grid, pot, params, dt)
        ipiv = solver._factors[4]
        assert ipiv.dtype == np.int64
        assert not np.array_equal(ipiv, np.arange(1, 39))
        lam = 1j * dt / (2 * params.hbar)
        off = np.full(37, -lam * kin)
        a = (np.diag(1.0 + lam * (2 * kin + pot.complex_values()[1:-1]))
             + np.diag(off, 1) + np.diag(off, -1))
        u = rng.standard_normal(38) + 1j * rng.standard_normal(38)
        want = np.linalg.solve(a, 2 * u) - u
        got = solver.step_values(u.copy())
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestFreeSpreading:
    """A free packet must disperse at the analytic rate."""

    def test_dispersion_matches_theory(self):
        grid = Grid1D(z_max=20e-6, n_points=4096)
        params = PhysicalParams(z0=10e-6, c4=0.0, absorber_strength=0.0)
        psi = gaussian_packet(grid, 10e-6, 1e-6)
        cfg = EvolveConfig(dt=1e-7, t_final=1e-3)
        assert cfg.n_steps == 10000
        caps = []
        evolve(psi, free_potential(grid), params, cfg,
               capture=lambda t, psi: caps.append((t, psi)), snapshot_stride=10000)
        t, final_vals = caps[-1]
        assert t == pytest.approx(1e-3)
        mean, std, _ = moments(psi.with_values(final_vals))
        expected = 1e-6 * np.sqrt(1.0 + (HBAR * 1e-3 / (2 * params.mass * 1e-12)) ** 2)
        assert abs(std - expected) / expected < 5e-3
        assert abs(mean - 10e-6) < 1e-9

    def test_norm_constant_without_absorber(self):
        grid = Grid1D(z_max=20e-6, n_points=2048)
        params = PhysicalParams(z0=10e-6, c4=0.0, absorber_strength=0.0)
        psi = gaussian_packet(grid, 10e-6, 1e-6)
        rec = evolve(psi, free_potential(grid), params,
                     EvolveConfig(dt=1e-7, t_final=1e-4))
        assert np.all(np.abs(rec.norms - 1.0) < 1e-10)


@pytest.fixture(scope="module")
def trap_run():
    # walls at 7 sigma, far enough that pinning the endpoints leaves
    # the ground state undisturbed at the tolerances below
    params = PhysicalParams(z0=7e-6, sigma=1e-6, c4=0.0,
                            absorber_strength=0.0)
    grid = Grid1D(z_max=14e-6, n_points=4096)
    psi = gaussian_packet(grid, 7e-6, 1e-6)
    pot = total_potential(grid, params)
    cfg = EvolveConfig(dt=1e-7, t_final=1e-3)
    caps = []
    rec = evolve(psi, pot, params, cfg, capture=lambda t, psi: caps.append((t, psi)),
                 snapshot_stride=10000)
    return params, psi, pot, rec, caps


class TestTrapGroundState:
    """With trap_omega = hbar / (2 m sigma^2) the sigma-wide Gaussian is the
    trap ground state, so its density must not move and its energy must sit
    at half a quantum."""

    def test_norm_drift_tiny_over_1e4_steps(self, trap_run):
        _, _, _, rec, _ = trap_run
        assert rec.times.size == 10001
        assert abs(rec.norms[-1] - 1.0) < 1e-8

    def test_density_stationary(self, trap_run):
        *_, caps = trap_run
        rho0 = np.abs(caps[0][1]) ** 2
        rho1 = np.abs(caps[-1][1]) ** 2
        assert np.abs(rho1 - rho0).max() < 1e-3 * rho0.max()

    def test_energy_is_half_quantum(self, trap_run):
        params, psi, pot, _, _ = trap_run
        e = energy_expectation(psi, pot, params).real
        assert e == pytest.approx(params.hbar * params.trap_omega / 2,
                                  rel=1e-3)

    def test_energy_conserved(self, trap_run):
        # compare within the propagated (endpoint-pinned) subspace
        params, psi, pot, _, caps = trap_run
        _, v0 = caps[0]
        _, v1 = caps[-1]
        e0 = energy_expectation(psi.with_values(v0), pot, params).real
        e1 = energy_expectation(psi.with_values(v1), pot, params).real
        assert abs(e1 - e0) < 1e-9 * abs(e0)


class TestTimeReversal:
    def test_conjugation_returns_packet(self):
        # conj . U^N . conj inverts U^N exactly when the potential is real,
        # so the round trip should recover the packet to roundoff.
        grid = default_grid(PhysicalParams())
        params = PhysicalParams()
        psi = gaussian_packet(grid, 3e-6, 0.6e-6)
        pot = total_potential(grid, params.replace(absorber_strength=0.0))
        solver = CrankNicolson(grid, pot, params, 1e-7)
        u0 = psi.values[1:-1].astype(complex)
        u = u0.copy()
        n = 1000
        for _ in range(n):
            u = solver.step_values(u)
        u = np.conj(u)
        for _ in range(n):
            u = solver.step_values(u)
        u = np.conj(u)
        assert np.abs(u - u0).max() < 1e-8


ABSORBER_CONFIG = EvolveConfig(dt=1e-7, t_final=2e-4)


@pytest.fixture(scope="module")
def absorber_record():
    params = PhysicalParams(z0=1.5e-6, sigma=0.3e-6)
    grid = Grid1D(z_max=10e-6, n_points=4096)
    psi = gaussian_packet(grid, 1.5e-6, 0.3e-6)
    pot = total_potential(grid, params.replace(trap_omega=0.0))
    return evolve(psi, pot, params, ABSORBER_CONFIG)


class TestAbsorberRecord:

    def test_norms_never_increase(self, absorber_record):
        assert np.all(np.diff(absorber_record.norms) <= 1e-12)

    def test_absorbed_fraction_bounded_and_monotone(self, absorber_record):
        a = absorber_record.absorbed_fraction
        assert a[0] == 0.0
        assert np.all(a >= -1e-12)
        assert np.all(a <= 1.0)
        assert np.all(np.diff(a) >= -1e-12)
        assert 1e-7 < a[-1] < 1.0

    def test_absorbed_at_interpolates(self, absorber_record):
        a = absorber_record.absorbed_fraction
        dt = ABSORBER_CONFIG.dt
        mid = absorber_record.absorbed_at(1.5 * dt)
        assert mid == pytest.approx(0.5 * (a[1] + a[2]), rel=1e-12)
        assert absorber_record.absorbed_at(0.0) == 0.0


class TestSnapshots:
    def test_stride_counts(self):
        grid = Grid1D(z_max=10e-6, n_points=512)
        params = PhysicalParams(c4=0.0, absorber_strength=0.0)
        psi = gaussian_packet(grid, 5e-6, 1e-6)
        cfg = EvolveConfig(dt=1e-7, t_final=1e-5)
        caps = []
        rec = evolve(psi, free_potential(grid), params, cfg,
                     capture=lambda t, psi: caps.append((t, psi)), snapshot_stride=10)
        assert cfg.n_steps == 100
        assert len(rec.times) == 101
        assert len(caps) == 11
        ts = [t for t, _ in caps]
        assert ts == pytest.approx([k * 10 * 1e-7 for k in range(11)])
        assert all(vals.shape == (512,) and vals[0] == vals[-1] == 0.0
                   for _, vals in caps)

    # a stride is a whole number of steps, positive with a capture and 0
    # without one: 2.5 once captured at steps 0, 5, 10, ... as if it were 5
    @pytest.mark.parametrize("stride, capture", [
        (10, None), (0, lambda t, psi: None), (2.5, lambda t, psi: None),
        (2.0, lambda t, psi: None), ("2", lambda t, psi: None),
        (-2, lambda t, psi: None), (-2, None)])
    def test_stride_and_capture_go_together(self, stride, capture, monkeypatch):
        grid = Grid1D(z_max=10e-6, n_points=512)
        psi = gaussian_packet(grid, 5e-6, 1e-6)
        cfg = EvolveConfig(dt=1e-7, t_final=2e-6)
        monkeypatch.setattr(CrankNicolson, "__init__", None)  # rejected before any step
        message = re.escape(f"snapshot_stride = {stride!r} must be")
        with pytest.raises(ConfigError, match=message):
            evolve(psi, free_potential(grid), PhysicalParams(), cfg, capture=capture,
                   snapshot_stride=stride)

    def test_numpy_integer_stride(self):
        grid = Grid1D(z_max=10e-6, n_points=512)
        psi = gaussian_packet(grid, 5e-6, 1e-6)
        caps = []
        evolve(psi, free_potential(grid), PhysicalParams(), EvolveConfig(t_final=2e-6),
               capture=lambda t, psi: caps.append(t), snapshot_stride=np.int64(5))
        assert caps == pytest.approx([0.0, 5e-7, 1e-6, 1.5e-6, 2e-6])

    def test_captures_are_not_kept(self):
        """201 captures of 4096 points through a discarding capture: the
        run's traced peak stays below a quarter of the 6.6 MB their
        densities would take if evolve kept them."""
        grid = Grid1D(z_max=10e-6, n_points=4096)
        params = PhysicalParams(c4=0.0, absorber_strength=0.0)
        psi = gaussian_packet(grid, 5e-6, 1e-6)
        cfg = EvolveConfig(dt=1e-7, t_final=2e-5)
        count = []
        tracemalloc.start()
        try:
            evolve(psi, free_potential(grid), params, cfg,
                   capture=lambda t, psi: count.append(t), snapshot_stride=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(count) == 201
        assert peak < 201 * grid.n_points * 8 / 4

    def test_zero_initial_state_rejected(self):
        grid = Grid1D(z_max=10e-6, n_points=512)
        params = PhysicalParams()
        psi = gaussian_packet(grid, 5e-6, 1e-6)
        dead = psi.with_values(np.zeros_like(psi.values))
        with pytest.raises(NumericsError):
            evolve(dead, free_potential(grid), params, EvolveConfig(t_final=1e-7))
