import tracemalloc

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


@pytest.mark.parametrize("n", [2, 10, 40])
def test_wigner_matches_its_definition_summed_term_by_term(n):
    # W(z_m, phi) = Re sum_{|k| <= min(m, N-m)} e^{i 2 k phi} <m+k| rho |m-k>, also
    # where P <= 2N makes several harmonics share a frequency bin (N = 2 has no P = N+1)
    rng = np.random.default_rng(n)
    for phi_points in [p for p in (4, n + 1, 2 * n + 1, 3 * n + 1) if p >= 4]:
        state = state_eigensystem(random_density(rng, n + 1))
        rho = (state.vectors * state.values) @ state.vectors.conj().T
        grid = wigner(state, phi_points=phi_points)
        want = np.zeros((n + 1, phi_points))
        for m in range(n + 1):
            for k in range(-min(m, n - m), min(m, n - m) + 1):
                want[m] += (np.exp(2j * k * grid.phi_values) * rho[m + k, m - k]).real
        assert np.abs(grid.values - want).max() <= 1e-12 * np.abs(want).max()


def test_wigner_holds_no_array_beyond_a_few_grids():
    # a coefficient table or a harmonics table would each add about two complex grids
    n, phi_points = 400, 401
    state = state_eigensystem(random_density(np.random.default_rng(0), n + 1))
    tracemalloc.start()
    try:
        wigner(state, phi_points=phi_points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 16 * (n + 1) * phi_points
