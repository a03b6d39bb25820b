import numpy as np
import pytest

from catlab import (
    SpinAxis,
    SpinSpace,
    coherent_state,
    jz_distribution,
    ridge_circular_spread,
    thermal_state,
    wigner,
)

from catlab.spin import NumericalInvariantError, SpectralDecomp, state_eigensystem

from conftest import random_density


def test_wigner_rejects_tiny_grid():
    state = state_eigensystem(np.eye(5) / 5)
    with pytest.raises(ValueError):
        wigner(state, phi_points=3)


def test_wigner_rejects_nan():
    p, v = state_eigensystem(np.eye(5) / 5)
    v = v.astype(complex)
    v[2, 2] = np.nan
    with pytest.raises(NumericalInvariantError, match="imaginary residue nan"):
        wigner(SpectralDecomp(p, v), phi_points=8)


def test_wigner_real_and_marginal_random_states():
    rng = np.random.default_rng(6)
    sp = SpinSpace(30)
    for _ in range(8):
        state = state_eigensystem(random_density(rng, sp.dim))
        grid = wigner(state, phi_points=64)  # 64 > N: discrete marginal is exact
        assert grid.values.dtype == float
        marginal = grid.phi_average()
        assert np.abs(marginal - jz_distribution(state).probs).max() < 1e-8


def test_wigner_diagonal_state_is_phi_independent():
    sp = SpinSpace(20)
    state = thermal_state(sp, 0.8, 1.0, 0.0)  # diagonal in the Dicke basis
    grid = wigner(state, phi_points=32)
    spread = grid.values.max(axis=1) - grid.values.min(axis=1)
    assert spread.max() < 1e-12


def test_wigner_coherent_state_peaks_at_its_phase_point():
    # the even-harmonic kernel is pi-periodic in phi, so the global maximum
    # is attained (up to ties at phi0 - pi) at the state's phase-space point
    sp = SpinSpace(40)
    theta0, phi0 = 1.1, 0.9
    psi = coherent_state(sp, SpinAxis(theta0, phi0))
    grid = wigner(state_eigensystem(np.outer(psi, psi.conj())), phi_points=128)
    i = int(np.argmin(np.abs(grid.z_values - np.cos(theta0))))
    k = int(np.argmin(np.abs(grid.phi_values - phi0)))
    neighborhood = grid.values[max(i - 1, 0):i + 2, max(k - 1, 0):k + 2]
    assert neighborhood.max() >= grid.values.max() * (1 - 1e-9)
    row_peak_phi = grid.phi_values[int(np.argmax(grid.values[i]))]
    dphi = grid.phi_values[1] - grid.phi_values[0]
    folded = abs((row_peak_phi - phi0 + np.pi / 2) % np.pi - np.pi / 2)
    assert folded <= dphi + 1e-12


def test_wigner_cat_ridges_spread_in_phase(cold_pi_cat, cold_zero_cat):
    # each branch of the cat individually smears along the equator: its
    # doubled-angle spread is an order of magnitude beyond a coherent spot
    sp = SpinSpace(200)
    psi = coherent_state(sp, SpinAxis(1.1, 0.3))
    coherent_grid = wigner(state_eigensystem(np.outer(psi, psi.conj())), phi_points=256)
    _, coherent_spread = ridge_circular_spread(coherent_grid)
    assert coherent_spread < 0.2
    for state in (cold_pi_cat, cold_zero_cat):
        grid = wigner(state, phi_points=256)
        lower, upper = ridge_circular_spread(grid)
        assert lower > 1.0 and lower > 6 * coherent_spread
        assert upper > 1.0 and upper > 6 * coherent_spread
