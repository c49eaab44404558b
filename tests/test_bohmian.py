import numpy as np
import pytest

from oracles import (
    NodeSingularity,
    RealField,
    profile_node_mask,
    quantum_potential,
    residual_potential,
    residual_potential_expanded,
)
from qpot.bohmian import weighted_fields
from qpot.core import Grid1D, PhysicalParams, default_grid
from qpot.engineering import ProfileSpec, engineered_profile
from qpot.errors import DomainError, EmptyFieldError, GridError, NumericsError
from qpot.potentials import casimir_polder


@pytest.fixture
def params():
    return PhysicalParams()


@pytest.fixture
def grid():
    return default_grid(PhysicalParams())


def nearest_index(grid, z):
    """Index of the grid point nearest z."""
    return int(np.argmin(np.abs(grid.z - z)))


class TestQuantumPotential:
    def test_uniform_density(self, grid, params):
        q = quantum_potential(grid, np.ones(grid.n_points), params)
        inner = q.valid
        assert np.any(inner)
        assert np.all(q.values[inner] == 0.0)

    def test_gaussian_closed_form(self, grid, params):
        z0, sig = 5e-6, 1e-6
        rho = np.exp(-((grid.z - z0) ** 2) / (2 * sig**2))
        q = quantum_potential(grid, rho, params)
        s = grid.z - z0
        pref = params.hbar**2 / (4 * params.mass * sig**2)
        analytic = pref * (1 - s**2 / (2 * sig**2))
        ok = q.valid
        assert np.allclose(q.values[ok], analytic[ok], atol=1e-4 * pref)
        # peak value at the center: hbar^2 / (4 m sigma^2)
        i0 = nearest_index(grid, z0)
        assert q.values[i0] == pytest.approx(1.9307659e-32, rel=1e-4)
        assert pref == pytest.approx(1.9307659e-32, rel=1e-6)

    def test_scale_invariance(self, grid, params):
        vals = np.exp(-((grid.z - 5e-6) ** 2) / 2e-12)
        qa = quantum_potential(grid, vals, params)
        qb = quantum_potential(grid, 7.3e4 * vals, params)
        ok = qa.valid & qb.valid
        # Pointwise agreement relative to the field scale.  The floor is
        # set by conditioning, not the algorithm: the scaled input array
        # already carries 0.5 ulp of rounding per element, and the second
        # difference amplifies that to (hbar^2/2m) * ulp / dz^2, about
        # 1e-11 of the field scale on this grid.  A genuine scaling bug
        # would show up at O(1).
        assert np.allclose(qa.values[ok], qb.values[ok],
                           rtol=1e-12, atol=1e-10 * np.abs(qa.values[ok]).max())

    def test_rejects_negative_density(self, grid, params):
        vals = np.ones(grid.n_points)
        vals[10] = -1e-3
        with pytest.raises(DomainError):
            quantum_potential(grid, vals, params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_density(self, grid, params, bad):
        vals = np.ones(grid.n_points)
        vals[10] = bad
        with pytest.raises(NumericsError, match="non-finite value"):
            quantum_potential(grid, vals, params)

    def test_stencil_ends_are_masked(self, grid, params):
        # the 2h stencil has no neighbours for the two points at each end
        q = quantum_potential(grid, np.ones(grid.n_points), params)
        assert not q.valid[:2].any() and not q.valid[-2:].any()

    def test_empty(self, grid, params):
        with pytest.raises(EmptyFieldError):
            quantum_potential(grid, np.zeros(grid.n_points), params)

    def test_cancels_surface_attraction(self, grid, params):
        # untruncated P^2: the quantum potential reproduces +c4/z^4
        z = grid.z
        vals = np.zeros_like(z)
        pos = z > 0
        vals[pos] = engineered_profile(z[pos], params) ** 2
        q = quantum_potential(grid, vals, params)
        ok = (q.valid & profile_node_mask(grid, params)
              & (z >= 0.5e-6) & (z <= 5e-6))
        assert np.count_nonzero(ok) > 500
        resid = q.values[ok] + casimir_polder(z[ok], params)
        rel = np.abs(resid) / np.abs(casimir_polder(z[ok], params))
        assert rel.max() < 1e-3


class TestProfileNodeMask:
    def test_surface_band_does_not_wrap(self, params):
        ok = profile_node_mask(default_grid(params), params)
        assert not ok[:3].any()  # z = 0 and its two-point guard band
        assert ok[-3:].all()  # the far end, where |P| is largest


class TestResidualPotential:
    def test_center_value(self, params):
        # at the envelope center only the constant term survives
        got = residual_potential(params.z0, params)
        pref = params.hbar**2 / (4 * params.mass * params.sigma**2)
        assert got == pytest.approx(pref, rel=1e-12)
        assert got == pytest.approx(1.9307659e-32, rel=1e-4)
        assert got > 0

    def test_two_forms_agree(self, params):
        rng = np.random.default_rng(20260819)
        z = rng.uniform(0.3e-6, 8e-6, size=400)
        a = params.profile_scale
        keep = np.abs(np.cos(a / z)) > 1e-3
        z = z[keep][:100]
        ra = residual_potential(z, params)
        rb = residual_potential_expanded(z, params)
        assert np.max(np.abs(ra - rb) / np.abs(ra)) < 1e-9

    def test_node_singularity(self, params):
        node = 2 * params.profile_scale / np.pi
        with pytest.raises(NodeSingularity):
            residual_potential(node, params)
        # the sine profile has its node elsewhere
        sine = ProfileSpec(c1=0.0, c2=1.0)
        assert np.isfinite(residual_potential(node, params, sine))
        with pytest.raises(NodeSingularity):
            residual_potential(params.profile_scale / np.pi, params, sine)

    def test_inverse_sigma_squared_scaling(self, params):
        wide = params.replace(sigma=10 * params.sigma)
        ratio = residual_potential(params.z0, params) / residual_potential(
            params.z0, wide
        )
        assert ratio == pytest.approx(100.0, rel=1e-12)

    def test_matches_numerical_quantum_potential(self, grid, params):
        # FD quantum potential of the truncated packet, minus the surface
        # term, must land on the closed form
        from qpot.engineering import engineered_packet

        psi = engineered_packet(grid, params)
        q = quantum_potential(grid, psi.density(), params)
        ok = q.valid & profile_node_mask(grid, params) & (grid.z >= 0.3e-6)
        z = grid.z[ok]
        closed = residual_potential(z, params)
        numeric = q.values[ok] + casimir_polder(z, params)
        scale = np.abs(closed).max()
        assert np.max(np.abs(numeric - closed)) / scale < 0.01

    def test_near_surface_inverse_square_growth(self, params):
        # sample at fixed oscillation phase (tan(a/z) identical) so the
        # power law is not aliased by the oscillating factor
        a = params.profile_scale
        theta0 = 1.0
        zs = np.array([a / (theta0 + np.pi), a / (theta0 + 2 * np.pi)])
        assert np.all((zs > 0.2e-6) & (zs < 0.5e-6))
        q = np.abs(residual_potential(zs, params))
        slope = np.log(q[1] / q[0]) / np.log(zs[0] / zs[1])
        assert 1.8 <= slope <= 2.2


    @pytest.mark.parametrize("form", [residual_potential, residual_potential_expanded])
    @pytest.mark.parametrize("z", [0.0, np.array([1e-6, -1e-9, 2e-6])])
    def test_rejects_z_at_or_below_the_surface(self, params, form, z):
        with pytest.raises(DomainError, match=f"^{form.__name__} requires z > 0$"):
            form(z, params)


class TestWeightedFields:
    def test_surface_point_masked(self, grid, params):
        w_q, w_res, rho, support = weighted_fields(grid, params)
        assert not support[0]
        assert np.any(support)
        assert np.all(np.isfinite(w_q[support]))

    def test_residual_is_small_fraction(self, grid, params):
        w_q, w_res, _, ok = weighted_fields(grid, params)
        ratio = np.abs(w_res[ok]).max() / np.abs(w_q[ok]).max()
        assert 1e-4 < ratio < 0.1

    def test_finite_through_nodes(self, grid, params):
        # rho ~ P^2 kills the node singularity of Q
        w_q, _, rho, support = weighted_fields(grid, params)
        node = 2 * params.profile_scale / np.pi
        i = nearest_index(grid, node)
        assert np.isfinite(w_q[i])
        assert abs(w_q[i]) <= np.abs(w_q[support]).max()

    def test_wider_envelope_shrinks_residual(self, grid, params):
        _, res_1, _, sup_1 = weighted_fields(grid, params)
        _, res_2, _, sup_2 = weighted_fields(grid, params.replace(sigma=2e-6))
        p1 = np.abs(res_1[sup_1]).max()
        p2 = np.abs(res_2[sup_2]).max()
        assert p1 / p2 >= 3.0

    @pytest.mark.parametrize("kwargs", [{}, {"sigma": 2e-6},
                                        {"z0": 1.5e-6, "sigma": 0.75e-6}])
    def test_matches_the_closed_form(self, params, kwargs):
        # the shipped fields restate the oracle's residual, weighted by rho
        params = params.replace(**kwargs)
        grid = default_grid(params)
        w_q, w_res, rho, support = weighted_fields(grid, params)
        ok = support & profile_node_mask(grid, params)
        z = grid.z[ok]
        closed = residual_potential(z, params)
        for field, q in ((w_res, closed), (w_q, params.c4 / z**4 + closed)):
            peak = np.abs(field[support]).max()
            gap = np.abs(field[ok] - rho[ok] * q).max()
            assert gap <= 1e-12 * peak

    def test_density_normalized(self, grid, params):
        _, _, rho, _ = weighted_fields(grid, params)
        assert np.trapezoid(rho, grid.z) == pytest.approx(1.0, rel=1e-9)

    def test_empty_support(self, params):
        # envelope so far outside the box that the density underflows
        tiny = Grid1D(z_max=1e-7, n_points=16)
        with pytest.raises(EmptyFieldError):
            weighted_fields(tiny, params.replace(z0=2.3e-6, sigma=2e-8))


    @pytest.mark.parametrize("cut", [2.0, 1.0 + 1e-9])
    def test_cut_above_the_peak_leaves_no_support(self, grid, params, cut):
        with pytest.raises(EmptyFieldError, match="leaves no supported point"):
            weighted_fields(grid, params, support_cut=cut)

    def test_non_finite_supported_value_raises_numerics_error(self, grid, params,
                                                              monkeypatch):
        monkeypatch.setattr("qpot.bohmian.profile_derivative",
                            lambda z, params, spec: np.full_like(z, np.nan))
        with pytest.raises(NumericsError, match="non-finite weighted field"):
            weighted_fields(grid, params)


class TestRealField:
    def test_non_finite_value_raises_numerics_error(self):
        grid = Grid1D(z_max=1e-6, n_points=3)
        with pytest.raises(NumericsError, match="non-finite value"):
            RealField(grid, [0.0, np.inf, 1.0], [True, True, False])
        assert RealField(grid, [0.0, 1.0, np.nan], [True, True, False]).values[1] == 1.0

    def test_mask_is_required(self):
        with pytest.raises(TypeError):
            RealField(Grid1D(z_max=1e-6, n_points=3), [0.0, 1.0, 2.0])

    def test_mask_shape_must_match(self):
        with pytest.raises(GridError, match="do not match"):
            RealField(Grid1D(z_max=1e-6, n_points=3), [0.0, 1.0, 2.0], [True, False])
