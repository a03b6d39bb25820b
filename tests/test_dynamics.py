import numpy as np
import pytest

from catlab import (
    NumericalInvariantError,
    SpinSpace,
    StateLabel,
    TwistTurnParams,
    build_hamiltonian,
    classical_energy,
    evolve,
    jz_distribution,
    prepare_and_evolve,
    t_pi,
    thermal_state,
)
from catlab import spin
from catlab.classical import MeanFieldParams, SeparatrixAbsentError
from catlab.dynamics import Propagator, initial_condition, propagator
from catlab.metrology import cat_split
from catlab.spin import SpinAxis, coherent_state, state_eigensystem, thermal_weights

from conftest import PURE_BETA, dense, random_density, skew, spin_matrices, tridiagonal


def test_hamiltonian_structure():
    sp = SpinSpace(20)
    params = TwistTurnParams(sp, u_int=0.1)
    h = tridiagonal(*build_hamiltonian(params))
    # tridiagonal in the Dicke basis
    off = np.triu(np.abs(h), 2)
    assert off.max() == 0
    # diagonal carries the interaction: (u/2) (n1 - n2)^2 = 2 u m^2
    assert np.abs(np.diag(h).real - 2 * params.u_int * sp.m_values**2).max() < 1e-12
    # hopping block: the free spectrum is the single-particle splitting 2t, t = 1
    free = tridiagonal(*build_hamiltonian(TwistTurnParams(sp, u_int=0.0)))
    w = np.linalg.eigvalsh(free)
    assert np.abs(w - 2 * sp.m_values).max() < 1e-9


def test_hamiltonian_bands_form_the_dense_h():
    # the bands, laid out densely, are bit for bit 2u Jz^2 - 2 Jx
    sp = SpinSpace(40)
    params = TwistTurnParams(sp, u_int=0.3)
    jx = spin_matrices(40).jx.real
    h = 2.0 * params.u_int * np.diag(sp.m_values**2) - 2.0 * jx
    assert np.array_equal(tridiagonal(*build_hamiltonian(params)), h)


def test_params_validation():
    sp = SpinSpace(4)
    with pytest.raises(ValueError):
        TwistTurnParams(sp, u_int=-0.1)
    with pytest.raises(ValueError):
        TwistTurnParams(sp, u_int=float("nan"))


def test_lambda_cl_derivation():
    params = TwistTurnParams(SpinSpace(200), u_int=0.1)
    assert params.lambda_cl == 0.1 * 200
    # halving is exact, so N = 2 reaches any coupling bit for bit
    assert TwistTurnParams(SpinSpace(2), u_int=1.5).lambda_cl == 3.0
    with pytest.raises(ValueError, match="lambda_cl = u N overflows"):
        TwistTurnParams(SpinSpace(200), u_int=1e307).lambda_cl


def test_t_pi_values():
    sp = SpinSpace(200)
    assert t_pi(sp, 0.1) == pytest.approx(np.log(1600) / 20, rel=1e-12)
    assert t_pi(SpinSpace(800), 0.1) == pytest.approx(np.log(6400) / 80, rel=1e-12)
    with pytest.raises(ValueError):
        t_pi(sp, 0.0)


def test_evolve_basics():
    rng = np.random.default_rng(4)
    sp = SpinSpace(16)
    params = TwistTurnParams(sp)
    h = build_hamiltonian(params)
    h_dense = tridiagonal(*h)
    rho = random_density(rng, sp.dim)
    state = state_eigensystem(rho)
    assert evolve(state, h, 0.0) is state

    rho_t = dense(evolve(state, h, 0.8))
    w0 = np.sort(np.linalg.eigvalsh(rho))
    wt = np.sort(np.linalg.eigvalsh(rho_t))
    assert np.abs(w0 - wt).max() < 1e-8
    # purity and energy conserved
    assert abs(np.trace(rho @ rho).real - np.trace(rho_t @ rho_t).real) < 1e-8
    h_norm = np.abs(np.linalg.eigvalsh(h_dense)).max()
    assert abs(np.trace(h_dense @ rho).real - np.trace(h_dense @ rho_t).real) < 1e-8 * h_norm


def test_evolve_dimension_mismatch():
    sp = SpinSpace(6)
    other = SpinSpace(8)
    h = build_hamiltonian(TwistTurnParams(sp))
    with pytest.raises(ValueError):
        evolve(state_eigensystem(np.eye(other.dim) / other.dim), h, 1.0)


@pytest.mark.parametrize("n", [2, 200, 800])
def test_zero_temperature_is_the_coherent_state(n):
    sp = SpinSpace(n)
    p = thermal_weights(sp, PURE_BETA)
    assert p[-1] == 1.0 and not p[:-1].any()
    state = next(prepare_and_evolve(StateLabel.PI, PURE_BETA, [1.0], TwistTurnParams(sp)))
    assert state.values.tolist() == [1.0] and state.vectors.shape == (sp.dim, 1)
    for z, phi in ((0.0, np.pi), (0.3, 0.2), (-0.9, -2.0), (1.0, 0.0)):
        weights, v = thermal_state(sp, PURE_BETA, z, phi)
        top = coherent_state(sp, SpinAxis(float(np.arccos(z)), phi))
        assert weights.tolist() == [1.0]
        assert np.abs(v[:, 0] - top).max() <= 1e-15


def test_propagator_checks_its_eigenvectors(monkeypatch):
    skew(monkeypatch, spin, "_stevd")
    with pytest.raises(NumericalInvariantError, match="not unitary"):
        Propagator(build_hamiltonian(TwistTurnParams(SpinSpace(10))))


def test_propagator_memo_is_read_only():
    params = TwistTurnParams(SpinSpace(10))
    prop = propagator(params)
    assert propagator(TwistTurnParams(SpinSpace(10))) is prop
    for block in prop._eigensystem:
        for arr in (block.values, *(panel.vectors for panel in block.panels)):
            with pytest.raises(ValueError):
                arr[0] = 0.0
    state = state_eigensystem(np.eye(11) / 11)
    evolved = evolve(state, build_hamiltonian(params), 0.3)
    assert np.abs(prop.evolve(state, 0.3).vectors - evolved.vectors).max() == 0


@pytest.mark.parametrize("n", [2, 10, 200, 800])
def test_propagator_panels_are_the_dense_blocks(n, monkeypatch):
    # H's panels, with the column sort undone, are tridiagonal_eigensystem's blocks bit for
    # bit; each is read-only, and evolution takes one real GEMM per panel each way
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n + 1, 3)) + 1j * rng.normal(size=(n + 1, 3))
    product, panels_turned = spin.real_matmul, []
    monkeypatch.setattr(
        spin, "real_matmul", lambda r, z, out: panels_turned.append(r.shape) or product(r, z, out)
    )
    for u in (0.0, 0.1, 1e3):
        params = TwistTurnParams(SpinSpace(n), u_int=u)
        dense_blocks = spin.tridiagonal_eigensystem(*build_hamiltonian(params))
        prop = Propagator(build_hamiltonian(params))
        for block, (w, v) in zip(prop._eigensystem, dense_blocks):
            rebuilt = np.zeros_like(v)
            for panel in block.panels:
                assert not (panel.vectors.flags.writeable or block.values.flags.writeable)
                rebuilt[panel.rows, panel.cols] = panel.vectors
            unsort = np.argsort(block.values, kind="stable")
            assert np.array_equal(block.values[unsort], w), u
            assert np.array_equal(rebuilt[:, unsort], v), u
        panels_turned.clear()
        evolved = prop.evolve(spin.SpectralDecomp(np.full(3, 1 / 3), x), 0.7).vectors
        assert len(panels_turned) == 2 * sum(len(b.panels) for b in prop._eigensystem)
        assert np.abs(evolved - spin.turn(dense_blocks, 0.7, x)).max() <= 1e-13, u


def test_prepare_and_evolve_yields_each_factor():
    params = TwistTurnParams(SpinSpace(20))
    factors = [0.0, 0.5, 1.0]
    states = list(prepare_and_evolve(StateLabel.PI, PURE_BETA, factors, params))
    # factor 0 yields the prepared state; each factor evolves it by factor * T_pi
    tpi = t_pi(params.space, params.u_int)
    for f, state in zip(factors, states):
        evolved = propagator(params).evolve(states[0], f * tpi)
        assert np.abs(state.vectors - evolved.vectors).max() == 0
    single = next(prepare_and_evolve(StateLabel.PI, PURE_BETA, [0.5], params))
    assert np.abs(states[1].vectors - single.vectors).max() == 0
    with pytest.raises(ValueError):
        prepare_and_evolve(StateLabel.PI, PURE_BETA, [1.0, -0.1], params)


def test_pi_state_parity_symmetry():
    params = TwistTurnParams(SpinSpace(60))
    state = next(prepare_and_evolve(StateLabel.PI, PURE_BETA, [1.0], params))
    p = jz_distribution(state).probs
    assert np.abs(p - p[::-1]).max() < 1e-6


def test_zero_state_starts_on_separatrix():
    from catlab.classical import PhasePoint

    params = TwistTurnParams(SpinSpace(60))
    state = next(prepare_and_evolve(StateLabel.ZERO, PURE_BETA, [0.0], params))
    z, phi = initial_condition(StateLabel.ZERO, params)
    assert phi == 0.0
    e = classical_energy(PhasePoint(z, phi), MeanFieldParams(params.lambda_cl))
    assert abs(e - 1.0) < 1e-9
    assert np.abs(state.vectors - thermal_state(params.space, PURE_BETA, z, phi).vectors).max() == 0


def count_peaks(p: np.ndarray, floor: float = 1e-6) -> int:
    """Strict interior local maxima above a probability floor."""
    peaks = 0
    for i in range(1, p.size - 1):
        if p[i] > floor and p[i] > p[i - 1] and p[i] > p[i + 1]:
            peaks += 1
    return peaks


def test_zero_time_factor_keeps_single_peak():
    params = TwistTurnParams(SpinSpace(60))
    state = next(prepare_and_evolve(StateLabel.PI, PURE_BETA, [0.0], params))
    assert count_peaks(jz_distribution(state).probs) == 1


def test_subcritical_coupling_propagates_error():
    params = TwistTurnParams(SpinSpace(40), u_int=0.02)  # lambda_cl = 0.8
    with pytest.raises(SeparatrixAbsentError):
        prepare_and_evolve(StateLabel.ZERO, PURE_BETA, [1.0], params)
    # the pi state needs no separatrix and still works
    state = next(prepare_and_evolve(StateLabel.PI, PURE_BETA, [0.5], params))
    assert state.vectors.shape[0] == 41


def test_evolved_cat_double_peak(cold_zero_cat):
    dist = jz_distribution(cold_zero_cat)
    split = cat_split(dist)
    assert not split.degenerate
    assert split.n_left > 0.1 and split.n_right > 0.1
    assert split.extensive_difference > 40
