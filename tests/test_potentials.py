import numpy as np
import pytest

from qpot.core import Grid1D, PhysicalParams, default_grid
from qpot.errors import ConfigError, DomainError, GridError
from qpot.potentials import ComplexPotential, casimir_polder, total_potential


@pytest.fixture
def params():
    return PhysicalParams()


@pytest.fixture
def grid():
    return default_grid()


def nearest_index(grid, z):
    """Index of the grid point nearest z."""
    return int(np.argmin(np.abs(grid.z - z)))


def surface_part(grid, params):
    """The real part without the trap: the modified surface potential."""
    return total_potential(grid, params.replace(trap_omega=0.0)).real_part


def absorber_part(grid, params):
    """The absorbing ramp, as the magnitude of the imaginary part."""
    return -total_potential(grid, params).imag_part


def trap_part(grid, params):
    """The trap, as the real part with the trap less the one without."""
    with_trap = total_potential(grid, params).real_part
    return with_trap - surface_part(grid, params)


def test_casimir_polder_value(params):
    # -c4/z^4 at the absorber edge
    v = casimir_polder(0.15e-6, params)
    assert v == pytest.approx(-1.7975308641975309e-28, rel=1e-12)
    assert v == pytest.approx(-params.c4 / 0.15e-6**4, rel=1e-14)


def test_casimir_polder_quartic_scaling(params):
    assert casimir_polder(1e-6, params) / casimir_polder(2e-6, params) == (
        pytest.approx(16.0, rel=1e-12)
    )


def test_casimir_polder_domain(params):
    with pytest.raises(DomainError):
        casimir_polder(0.0, params)
    with pytest.raises(DomainError):
        casimir_polder(np.array([1e-6, -1e-6]), params)


def test_modified_cp_plateau(grid, params):
    field = surface_part(grid, params)
    edge = -params.c4 / params.delta**4
    below = grid.z < params.delta
    assert np.all(field[below] == edge)
    # continuous across the edge
    i = nearest_index(grid, params.delta)
    assert field[i] == pytest.approx(edge, rel=1e-6)
    # plain attraction further out
    far = nearest_index(grid, 2e-6)
    assert field[far] == pytest.approx(
        casimir_polder(grid.z[far], params), rel=1e-12
    )


@pytest.mark.parametrize("z0, delta, c4", [
    (2.3e-6, 0.15e-6, 9.1e-56), (3e-6, 0.2e-6, 5e-56),
    (1.5e-6, 0.1e-6, 1.3e-55), (5e-6, 0.37e-6, 9.1e-56),
])
def test_modified_cp_is_the_quartic_formula_bitwise(z0, delta, c4):
    # built on casimir_polder, the field is bitwise the one-line formula
    # with the plateau -c4/delta^4 below delta
    params = PhysicalParams(z0=z0, delta=delta, c4=c4)
    for grid in (default_grid(params), Grid1D(z_max=7e-6, n_points=333)):
        z = grid.z
        with np.errstate(divide="ignore"):
            formula = np.where(z >= delta, -c4 / np.where(z > 0, z, 1.0) ** 4,
                               -c4 / delta**4)
        assert np.array_equal(surface_part(grid, params), formula)


def test_modified_cp_edge_outside_grid(params):
    small = Grid1D(z_max=0.1e-6, n_points=64)
    # checked once, whatever is on
    for variant in (params, params.replace(trap_omega=0.0, absorber_strength=0.0)):
        with pytest.raises(GridError, match="delta lies outside the grid"):
            total_potential(small, variant)


def test_absorber_ramp(grid, params):
    field = absorber_part(grid, params)
    w = params.absorber_strength
    assert field[0] == pytest.approx(w, rel=1e-12)
    assert np.all(field[grid.z >= params.delta] == 0.0)
    mid = nearest_index(grid, params.delta / 2)
    expected = w * (1 - grid.z[mid] / params.delta)
    assert field[mid] == pytest.approx(expected, rel=1e-12)
    assert np.all(field >= 0)


def test_absorber_zero_strength(grid, params):
    p = params.replace(absorber_strength=0.0)
    assert np.all(absorber_part(grid, p) == 0.0)


def test_harmonic_minimum_and_curvature(grid, params):
    field = trap_part(grid, params)
    i0 = nearest_index(grid, params.z0)
    # the grid point nearest z0 sits within dz/2 of the minimum
    quarter = 0.5 * params.mass * params.trap_omega**2 * (grid.dz / 2) ** 2
    assert 0.0 <= field[i0] <= quarter * 1.01
    # half m omega^2 sigma^2 one sigma away; with the matched trap this is
    # hbar^2 / (8 m sigma^2)
    i1 = nearest_index(grid, params.z0 + params.sigma)
    expected = params.hbar**2 / (8 * params.mass * params.sigma**2)
    assert field[i1] == pytest.approx(expected, rel=1e-3)
    assert expected == pytest.approx(9.6538e-33, rel=1e-4)


def test_complex_potential_rejects_gain(grid):
    zeros = np.zeros(grid.n_points)
    with pytest.raises(ConfigError):
        ComplexPotential(grid, zeros, zeros + 1e-30)


def test_total_potential_composition(grid, params):
    # bitwise the one-line formulas: plateaued surface + trap - i * ramp
    pot = total_potential(grid, params)
    z, delta = grid.z, params.delta
    with np.errstate(divide="ignore"):
        surface = np.where(z >= delta, -params.c4 / np.where(z > 0, z, 1.0) ** 4,
                           -params.c4 / delta**4)
    trap = 0.5 * params.mass * params.trap_omega**2 * (z - params.z0) ** 2
    ramp = np.where(z < delta, params.absorber_strength * (delta - z) / delta, 0.0)
    assert np.array_equal(pot.real_part, surface + trap)
    assert np.array_equal(pot.imag_part, -ramp)
    assert np.all(pot.imag_part <= 0)


def test_a_zero_strength_leaves_its_term_out(grid, params):
    no_trap = total_potential(grid, params.replace(trap_omega=0.0))
    assert np.array_equal(no_trap.real_part, surface_part(grid, params))
    assert np.array_equal(no_trap.imag_part, total_potential(grid, params).imag_part)
    unitary = total_potential(grid, params.replace(absorber_strength=0.0))
    assert np.all(unitary.imag_part == 0.0)


def test_complex_values(grid, params):
    pot = total_potential(grid, params)
    cv = pot.complex_values()
    assert np.array_equal(cv.real, pot.real_part)
    assert np.array_equal(cv.imag, pot.imag_part)
