import re
from dataclasses import asdict

import numpy as np
import pytest

from qpot.core import (
    HBAR,
    Grid1D,
    PhysicalParams,
    Wavefunction,
    default_grid,
    moments,
    normalize,
)
from qpot.errors import ConfigError, GridError, NormalizationError


class TestPhysicalParams:
    def test_defaults(self):
        p = PhysicalParams()
        assert p.mass == 1.44e-25
        assert p.c4 == 9.1e-56
        assert p.z0 == 2.3e-6
        assert p.sigma == 1.0e-6
        assert p.delta == 0.15e-6

    def test_derived_absorber_strength(self):
        p = PhysicalParams()
        assert p.absorber_strength == pytest.approx(p.c4 / p.delta**4, rel=1e-14)
        # magnitude of the surface potential at the absorber edge
        assert p.absorber_strength == pytest.approx(1.7975308641975309e-28)

    def test_derived_trap_omega(self):
        p = PhysicalParams()
        assert p.trap_omega == pytest.approx(
            p.hbar / (2 * p.mass * p.sigma**2), rel=1e-14
        )
        assert p.trap_omega == pytest.approx(366.1707697916667, rel=1e-12)

    def test_profile_scale(self):
        p = PhysicalParams()
        expected = np.sqrt(2 * p.mass * p.c4) / p.hbar
        assert p.profile_scale == pytest.approx(expected, rel=1e-14)
        # about 1.5351 um
        assert p.profile_scale == pytest.approx(1.5351145e-6, rel=1e-6)

    def test_explicit_values_kept(self):
        p = PhysicalParams(absorber_strength=3e-28, trap_omega=100.0)
        assert p.absorber_strength == 3e-28
        assert p.trap_omega == 100.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mass": 0.0},
            {"mass": -1e-25},
            {"sigma": 0.0},
            {"z0": -1e-6},
            {"z0": 0.1e-6},  # below the absorber edge
            {"delta": 0.0},
            {"absorber_strength": -1.0},
            {"trap_omega": -1.0},
            {"c4": -1e-56},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            PhysicalParams(**kwargs)

    @pytest.mark.parametrize("name", ["mass", "c4", "z0", "sigma", "delta",
                                      "absorber_strength", "trap_omega"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_values(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must lie in .*, got {value}$"):
            PhysicalParams(**{name: value})

    def test_rejects_a_trap_omega_whose_square_overflows(self):
        assert PhysicalParams(trap_omega=1e154).trap_omega == 1e154
        with pytest.raises(ConfigError, match=r"trap_omega must lie in \[0, 1.34"):
            PhysicalParams(trap_omega=1e200)

    @pytest.mark.parametrize("kwargs, label", [
        ({"c4": 1e300}, "absorber_strength = c4 / delta"),  # inf
        ({"delta": 1e-100, "c4": 1e-56}, "absorber_strength = c4 / delta"),  # 1/0
        ({"sigma": 1e-200}, "trap_omega = hbar / (2 mass sigma"),  # 1/0
        ({"sigma": 1e200, "z0": 1.0}, "trap_omega = hbar / (2 mass sigma"),  # sigma**2
    ])
    def test_rejects_a_derived_default_out_of_double_range(self, kwargs, label):
        with pytest.raises(ConfigError, match=re.escape(label)):
            PhysicalParams(**kwargs)

    def test_hbar_is_the_package_constant(self):
        # one hbar for the solver, weighted_fields and the oracles in tests/oracles.py
        p = PhysicalParams()
        assert p.hbar is HBAR
        assert "hbar" not in asdict(p)
        with pytest.raises(TypeError, match="hbar"):
            PhysicalParams(hbar=HBAR)
        with pytest.raises(TypeError, match="hbar"):
            p.replace(hbar=2 * HBAR)

    def test_zero_c4_allowed(self):
        # the free-particle limit is a legitimate degenerate case
        p = PhysicalParams(c4=0.0)
        assert p.profile_scale == 0.0

    def test_replace_recomputes_trap(self):
        p = PhysicalParams().replace(sigma=2e-6)
        assert p.trap_omega == pytest.approx(
            p.hbar / (2 * p.mass * (2e-6) ** 2), rel=1e-14
        )

    def test_replace_recomputes_absorber(self):
        p = PhysicalParams().replace(delta=0.3e-6)
        assert p.absorber_strength == pytest.approx(
            p.c4 / (0.3e-6) ** 4, rel=1e-14
        )

    def test_replace_keeps_pinned_values(self):
        p = PhysicalParams(trap_omega=123.0).replace(sigma=2e-6)
        # a trap frequency set to other than its formula's value survives a
        # sigma change; only a field that holds its formula's value is derived
        assert p.trap_omega == 123.0
        q = PhysicalParams().replace(sigma=2e-6, trap_omega=123.0)
        assert q.trap_omega == 123.0

    def test_replace_keeps_a_zero_strength(self):
        # a term switched off by a zero strength stays off when its inputs move
        assert PhysicalParams(trap_omega=0.0).replace(sigma=0.5e-6).trap_omega == 0.0
        p = PhysicalParams(absorber_strength=0.0).replace(delta=1e-7)
        assert p.absorber_strength == 0.0

    def test_replace_derives_a_formula_value_again(self):
        moved = {"mass": 1e-25, "c4": 1e-55, "sigma": 0.5e-6, "delta": 1e-7}
        p = PhysicalParams()
        for key, value in moved.items():  # one input at a time: still derived
            p = p.replace(**{key: value})
        fresh = PhysicalParams(**moved)
        for name in ("absorber_strength", "trap_omega"):
            assert getattr(p, name).hex() == getattr(fresh, name).hex()
        assert fresh.absorber_strength != PhysicalParams().absorber_strength
        assert fresh.trap_omega != PhysicalParams().trap_omega

    def test_replace_keeps_a_value_whose_formula_leaves_double_range(self):
        # c4 / delta**4 divides by an underflowed zero here: no formula value
        p = PhysicalParams(delta=1e-100, c4=1e-56, absorber_strength=1e-28)
        assert p.replace(z0=3e-6).absorber_strength == 1e-28


class TestGrid1D:
    def test_spacing(self):
        g = Grid1D(z_max=10e-6, n_points=4096)
        assert g.dz == pytest.approx(10e-6 / 4095, rel=1e-14)
        assert g.z[0] == 0.0
        assert g.z[-1] == 10e-6

    def test_immutable_coordinates(self):
        g = Grid1D(z_max=1e-6, n_points=16)
        with pytest.raises(ValueError):
            g.z[0] = 1.0

    def test_validation(self):
        with pytest.raises(GridError):
            Grid1D(z_max=1e-6, n_points=1)
        with pytest.raises(GridError):
            Grid1D(z_max=0.0, n_points=100)

    def test_resolves_profile(self):
        p = PhysicalParams()
        assert Grid1D(z_max=10e-6, n_points=4096).resolves_profile(p)
        assert not Grid1D(z_max=10e-6, n_points=256).resolves_profile(p)

    def test_resolution_threshold(self):
        # dz must be at most a tenth of the local oscillation wavelength
        # at the absorber edge, 2 pi delta^2 / profile_scale
        p = PhysicalParams()
        lam = 2 * np.pi * p.delta**2 / p.profile_scale
        n_ok = int(np.ceil(10e-6 / (lam / 10))) + 1
        assert Grid1D(z_max=10e-6, n_points=n_ok).resolves_profile(p)
        assert not Grid1D(z_max=10e-6, n_points=n_ok - 40).resolves_profile(p)


class TestDefaultGrid:
    def test_plain(self):
        g = default_grid(PhysicalParams())
        assert g.z_max == 10e-6
        assert g.n_points == 4096

    def test_widens_for_far_packets(self):
        p = PhysicalParams(z0=4e-6, sigma=2e-6)
        g = default_grid(p)
        assert g.z_max >= p.z0 + 6 * p.sigma
        # spacing stays at the base resolution
        base = default_grid(PhysicalParams())
        assert g.dz <= base.dz * 1.001

    def test_resolves_by_construction(self):
        for z0 in (1.5e-6, 2.3e-6, 4e-6):
            p = PhysicalParams(z0=z0, sigma=z0 / 2)
            assert default_grid(p).resolves_profile(p)


class TestWavefunction:
    def test_norm_of_gaussian(self):
        g = Grid1D(z_max=10e-6, n_points=2048)
        sigma = 1e-6
        vals = np.exp(-((g.z - 5e-6) ** 2) / (4 * sigma**2))
        amp = (2 * np.pi * sigma**2) ** -0.25
        psi = Wavefunction(g, amp * vals)
        # the box clips five-sigma tails, costing a few parts in 1e7
        assert psi.norm() == pytest.approx(1.0, rel=1e-6)

    def test_shape_mismatch(self):
        g = Grid1D(z_max=1e-6, n_points=10)
        with pytest.raises(GridError):
            Wavefunction(g, np.zeros(9))

    def test_density(self):
        g = Grid1D(z_max=1e-6, n_points=10)
        psi = Wavefunction(g, np.full(10, 1 + 1j))
        assert np.allclose(psi.density(), 2.0)


class TestNormalizeAndMoments:
    def test_normalize(self):
        g = Grid1D(z_max=10e-6, n_points=1024)
        psi = Wavefunction(g, np.exp(-((g.z - 5e-6) ** 2) / 2e-12) * 7.3)
        assert normalize(psi).norm() == pytest.approx(1.0, rel=1e-12)

    def test_normalize_zero(self):
        g = Grid1D(z_max=1e-6, n_points=10)
        with pytest.raises(NormalizationError):
            normalize(Wavefunction(g, np.zeros(10)))

    def test_gaussian_moments(self):
        g = Grid1D(z_max=12e-6, n_points=4096)
        z0, sigma = 5e-6, 0.8e-6
        psi = Wavefunction(g, np.exp(-((g.z - z0) ** 2) / (4 * sigma**2)))
        mean, std, _ = moments(psi)
        assert mean == pytest.approx(z0, rel=1e-9)
        assert std == pytest.approx(sigma, rel=1e-6)

    def test_moments_scale_invariant(self):
        g = Grid1D(z_max=12e-6, n_points=1024)
        psi = Wavefunction(g, np.exp(-((g.z - 5e-6) ** 2) / 4e-12))
        m1 = moments(psi)
        m2 = moments(psi.with_values(3.7 * psi.values))
        assert m1[0] == pytest.approx(m2[0], rel=1e-14)
        assert m1[1] == pytest.approx(m2[1], rel=1e-14)
