import warnings

import numpy as np
import pytest

from qpot.core import Grid1D, PhysicalParams, default_grid, moments
from qpot.engineering import (
    ProfileSpec,
    engineered_packet,
    engineered_profile,
    fidelity,
    gaussian_packet,
    phase_imprint,
    profile_derivative,
    two_stage_imprint,
)
from qpot.errors import (
    ConfigError,
    DomainError,
    GridError,
    NormalizationError,
    TruncationWarning,
)


def verify_profile_ode(params, spec=None, z_samples=None, h=None, node_tol=1e-2):
    """Max relative residual of P'' + (2 m c4 / hbar^2 z^4) P over samples.

    P'' is formed by a central second difference at spacing h, so the
    residual of an exact solution shrinks like h^2. By default h scales
    with each sample (1e-4 z), which keeps the stencil clear of both the
    truncation and the cancellation regimes across the whole range; a
    scalar h applies the same spacing everywhere. Samples too close to a
    node of the oscillating factor are excluded with a notice. Returns the
    maximum relative residual over the retained samples.
    """
    if spec is None:
        spec = ProfileSpec()
    if z_samples is None:
        z_samples = np.array([0.5e-6, 1e-6, 2e-6, 4e-6])
    z = np.asarray(z_samples, dtype=float)
    h = 1e-4 * z if h is None else np.broadcast_to(float(h), z.shape)
    if np.any(z <= h):
        raise DomainError("samples must stay positive after the stencil offset")

    a = params.profile_scale
    amp = np.hypot(spec.c1, spec.c2)
    alpha = spec.c1 * np.cos(a / z) + spec.c2 * np.sin(a / z)
    keep = np.abs(alpha) >= node_tol * amp
    if not np.all(keep):
        warnings.warn(
            f"excluded {np.count_nonzero(~keep)} sample(s) within the node zone",
            stacklevel=2,
        )
    z = z[keep]
    h = h[keep]
    if z.size == 0:
        raise DomainError("all samples fell inside node zones")

    plain = ProfileSpec(spec.c1, spec.c2, False)  # |P| has kinks; use signed P
    p0 = engineered_profile(z, params, plain)
    pp = engineered_profile(z + h, params, plain)
    pm = engineered_profile(z - h, params, plain)
    d2 = (pp - 2 * p0 + pm) / h**2
    ode_term = (a**2 / z**4) * p0
    scale = np.maximum(np.abs(d2), np.abs(ode_term))
    resid = np.abs(d2 + ode_term)
    # both terms vanish identically for the c4 = 0 linear profile
    out = np.where(scale > 0, resid / np.where(scale > 0, scale, 1.0), 0.0)
    return float(np.max(out))


@pytest.fixture
def params():
    return PhysicalParams()


@pytest.fixture
def grid():
    return default_grid()


class TestProfile:
    def test_small_z_suppression(self, params):
        # P = z * (bounded factor), so P -> 0 at the surface
        z = np.array([1e-8, 1e-7, 1e-6])
        p = engineered_profile(z, params)
        assert np.all(np.abs(p) <= z * np.hypot(1.0, 0.0) + 1e-30)

    def test_large_z_linear(self, params):
        # theta -> 0 far out, so the cosine profile approaches z itself
        assert engineered_profile(300e-6, params) == pytest.approx(
            300e-6, rel=1e-4
        )

    def test_domain(self, params):
        with pytest.raises(DomainError):
            engineered_profile(0.0, params)
        with pytest.raises(DomainError):
            profile_derivative(-1e-6, params)

    def test_use_abs(self, params):
        spec = ProfileSpec(use_abs=True)
        z = np.linspace(0.2e-6, 5e-6, 500)
        assert np.all(engineered_profile(z, params, spec) >= 0)

    def test_derivative_matches_finite_difference(self, params):
        z = np.array([0.5e-6, 1.1e-6, 2.0e-6, 3.7e-6])
        h = 1e-12
        for spec in (ProfileSpec(), ProfileSpec(c1=0.0, c2=1.0),
                     ProfileSpec(c1=1.0, c2=-0.5)):
            fd = (
                engineered_profile(z + h, params, spec)
                - engineered_profile(z - h, params, spec)
            ) / (2 * h)
            an = profile_derivative(z, params, spec)
            assert np.allclose(an, fd, rtol=1e-6)

    def test_bad_coefficients(self):
        with pytest.raises(ConfigError):
            ProfileSpec(c1=0.0, c2=0.0)


class TestProfileOde:
    """P must satisfy P'' = -(a/z^2)^2 P; this is the whole point of it."""

    def test_cosine_solution(self, params):
        assert verify_profile_ode(params) < 1e-6

    def test_sine_solution(self, params):
        assert verify_profile_ode(params, ProfileSpec(c1=0.0, c2=1.0)) < 1e-6

    def test_mixture(self, params):
        assert verify_profile_ode(params, ProfileSpec(c1=0.7, c2=-1.2)) < 1e-6

    def test_free_limit(self):
        # with c4 = 0 the profile is a straight line and both sides vanish
        p = PhysicalParams(c4=0.0)
        assert verify_profile_ode(p) == 0.0

    def test_node_exclusion_warns(self, params):
        node = 2 * params.profile_scale / np.pi  # first zero of cos(a/z)
        with pytest.warns(UserWarning, match="node"):
            r = verify_profile_ode(params, z_samples=np.array([node, 2e-6]))
        assert r < 1e-6

    def test_all_samples_at_nodes(self, params):
        node = 2 * params.profile_scale / np.pi
        with pytest.raises(DomainError):
            with pytest.warns(UserWarning):
                verify_profile_ode(params, z_samples=np.array([node]))

    def test_quadratic_residual_decay(self, params):
        # halving the stencil spacing should shrink the residual about 4x;
        # a single near-surface sample keeps truncation error dominant
        z = np.array([0.5e-6])
        r1 = verify_profile_ode(params, z_samples=z, h=4e-10)
        r2 = verify_profile_ode(params, z_samples=z, h=2e-10)
        assert r1 / r2 == pytest.approx(4.0, rel=0.35)


class TestEngineeredPacket:
    def test_normalized_and_zero_at_surface(self, grid, params):
        psi = engineered_packet(grid, params)
        assert psi.norm() == pytest.approx(1.0, rel=1e-12)
        assert psi.values[0] == 0.0

    def test_moments_shift_outward(self, grid, params):
        # the linear prefactor skews the density past the envelope center
        mean, std, _ = moments(engineered_packet(grid, params))
        assert mean == pytest.approx(3.2241e-6, rel=2e-4)
        assert std == pytest.approx(0.8177e-6, rel=2e-3)
        assert mean > params.z0

    def test_rejects_coarse_grid(self, params):
        with pytest.raises(GridError):
            engineered_packet(Grid1D(z_max=10e-6, n_points=256), params)

    def test_spec_override(self, grid, params):
        params = params.replace(z0=3e-6, sigma=0.5e-6)
        mean, std, _ = moments(engineered_packet(grid, params))
        assert 3e-6 < mean < 3.5e-6
        assert std < 0.7e-6

    def test_truncation_warning(self, params):
        # a 2 um box cuts 62% of the default z0 = 2.3 um envelope, as it
        # does the Gaussian's
        g = Grid1D(z_max=2e-6, n_points=1000)
        with pytest.warns(TruncationWarning, match="6.18e-01 of the packet mass"):
            engineered_packet(g, params)

    def test_envelope_underflowing_on_the_box_is_no_packet(self):
        # 96 sigma beyond a 2 um box the envelope is 0 at every point
        params = PhysicalParams(z0=50e-6, sigma=0.5e-6)
        g = Grid1D(z_max=2e-6, n_points=1000)
        with pytest.warns(TruncationWarning), \
                pytest.raises(NormalizationError, match="norm 0.0"):
            engineered_packet(g, params)


class TestGaussianPacket:
    def test_moments(self, grid):
        # well inside the box, so surface clipping is negligible
        psi = gaussian_packet(grid, 5e-6, 1e-6)
        mean, std, _ = moments(psi)
        assert mean == pytest.approx(5e-6, rel=1e-6)
        assert std == pytest.approx(1e-6, rel=1e-4)

    def test_surface_clipping_shifts_mean_out(self, grid):
        # at z0 = 2.3 um the surface cuts the left tail, nudging the
        # measured mean just above the nominal center
        mean, _, _ = moments(gaussian_packet(grid, 2.3e-6, 1e-6))
        assert 2.3e-6 < mean < 2.35e-6

    def test_truncation_warning(self):
        g = Grid1D(z_max=10e-6, n_points=1024)
        with pytest.warns(TruncationWarning):
            gaussian_packet(g, 9.5e-6, 1e-6)

    def test_envelope_underflowing_on_the_box_is_no_packet(self):
        g = Grid1D(z_max=2e-6, n_points=1000)
        with pytest.warns(TruncationWarning), \
                pytest.raises(NormalizationError, match="norm 0.0"):
            gaussian_packet(g, 50e-6, 0.5e-6)

    @pytest.mark.parametrize("z_min", [-1e-6, 0.5e-6])
    def test_zero_at_every_z_at_or_below_the_surface(self, z_min):
        # one box reaches below the surface, the other starts above it, where
        # the first point lies inside the packet
        g = Grid1D(z_max=3e-6, n_points=401, z_min=z_min)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            psi = gaussian_packet(g, 1e-6, 0.5e-6)
        assert np.all(psi.values[g.z <= 0] == 0)
        assert np.all(psi.values[g.z > 0] != 0)

    def test_no_warning_when_contained(self, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gaussian_packet(grid, 2.3e-6, 1e-6)

    def test_validation(self, grid):
        with pytest.raises(ConfigError):
            gaussian_packet(grid, -1e-6, 1e-6)
        with pytest.raises(ConfigError):
            gaussian_packet(grid, 1e-6, 0.0)


class TestImprinting:
    def test_cos_factor(self, grid):
        # equal amplitudes, zero relative phase: factor = cos(phi)
        psi = gaussian_packet(grid, 3e-6, 0.8e-6)
        out = phase_imprint(psi, 1e6 * grid.z, 0.5, 0.5)
        expected = psi.values * np.cos(1e6 * grid.z)
        n = np.sqrt(np.trapezoid(np.abs(expected) ** 2, grid.z))
        assert np.allclose(out.values, expected / n, atol=1e-12)

    def test_sin_factor(self, grid):
        # opposite amplitudes: factor = i sin(phi), a pure sine in magnitude
        psi = gaussian_packet(grid, 3e-6, 0.8e-6)
        out = phase_imprint(psi, 1e6 * grid.z, 0.5, -0.5)
        expected = psi.values * 1j * np.sin(1e6 * grid.z)
        n = np.sqrt(np.trapezoid(np.abs(expected) ** 2, grid.z))
        assert np.allclose(out.values, expected / n, atol=1e-12)

    def test_pure_phase_keeps_density(self, grid):
        psi = gaussian_packet(grid, 3e-6, 0.8e-6)
        out = phase_imprint(psi, 5e5 * grid.z, 1.0, 0.0)
        assert np.allclose(out.density(), psi.density(), atol=1e-15)

    def test_annihilation_guard(self, grid):
        # sin(0) and a vanishing pair of amplitudes both zero the packet
        psi = gaussian_packet(grid, 3e-6, 0.8e-6)
        for a, b in ((0.5, -0.5), (0.0, 0.0)):
            with pytest.raises(NormalizationError):
                phase_imprint(psi, np.zeros_like(grid.z), a, b)


class TestTwoStageImprint:
    def test_high_fidelity_at_small_slope(self, grid, params):
        target = engineered_packet(grid, params)
        slope = 0.05 / params.z0
        psi = two_stage_imprint(grid, params, slope)
        assert fidelity(psi, target) > 0.99

    def test_finite_and_zero_at_the_surface(self, grid, params):
        # the 1/z pulse is taken as 0 at z = 0, where the packet vanishes
        psi = two_stage_imprint(grid, params, 0.05 / params.z0)
        assert grid.z[0] == 0.0
        assert psi.values[0] == 0.0
        assert np.all(np.isfinite(psi.values))

    def test_fidelity_degrades_with_slope(self, grid, params):
        target = engineered_packet(grid, params)
        f_small = fidelity(two_stage_imprint(grid, params, 0.05 / params.z0),
                           target)
        f_large = fidelity(two_stage_imprint(grid, params, 2.0 / params.z0),
                           target)
        assert f_large < f_small

    def test_oscillating_stage_is_essential(self, grid, params):
        # dropping the 1/z pulse leaves a smooth packet that misses the
        # oscillating factor; it never reaches the high-fidelity regime
        target = engineered_packet(grid, params)
        base = gaussian_packet(grid, params.z0, params.sigma)
        linear_only = phase_imprint(base, 0.05 / params.z0 * grid.z, 0.5, -0.5)
        f_partial = fidelity(linear_only, target)
        f_full = fidelity(two_stage_imprint(grid, params, 0.05 / params.z0),
                          target)
        assert f_full > 0.99
        assert f_partial < 0.99
        assert f_full - f_partial > 0.02

    def test_small_slope_limit(self, grid, params):
        # sin(Kz) ~ Kz: after normalization the K dependence cancels, so the
        # result converges to the linear-prefactor packet
        psi_a = two_stage_imprint(grid, params, 1e-3 / params.z0)
        psi_b = two_stage_imprint(grid, params, 2e-3 / params.z0)
        assert fidelity(psi_a, psi_b) > 1 - 1e-8


class TestFidelity:
    def test_self(self, grid):
        psi = gaussian_packet(grid, 3e-6, 1e-6)
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_displacement(self, grid):
        a = gaussian_packet(grid, 2e-6, 0.3e-6)
        b = gaussian_packet(grid, 8e-6, 0.3e-6)
        assert fidelity(a, b) < 1e-12

    def test_grid_mismatch(self, grid):
        other = Grid1D(z_max=10e-6, n_points=512)
        a = gaussian_packet(grid, 3e-6, 1e-6)
        b = gaussian_packet(other, 3e-6, 1e-6)
        with pytest.raises(GridError):
            fidelity(a, b)

    def test_capped_at_one(self, grid):
        # quadrature noise must not push it past 1
        psi = gaussian_packet(grid, 3e-6, 1e-6)
        assert fidelity(psi, psi) <= 1.0
