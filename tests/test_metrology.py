import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize

from catlab import (
    JzDistribution,
    MetrologyReport,
    NumericalInvariantError,
    ReadoutSpec,
    SpinAxis,
    SpinSpace,
    StateLabel,
    TwistTurnParams,
    X_AXIS,
    Z_AXIS,
    cat_split,
    cfi_commutator,
    cfi_finite_difference,
    coherent_state,
    metrology_report,
    n_eff,
    prepare_and_evolve,
    protocol_distribution,
    qfi,
    qfi_axis_map,
    statistical_uncertainty,
    thermal_state,
)
from catlab.metrology import (
    _argmax_axis,
    _projections,
    _qfi_form,
    default_axis_grids,
    qfi_quadratic_form,
    trivial_readout,
)
from catlab.spin import jx_eigensystem, state_eigensystem

from conftest import PURE_BETA, dense_j, random_density, random_pure


def qfi_dense(state, g: np.ndarray) -> float:
    """The QFI kernel for a general Hermitian generator g, from the products g V."""
    p, v = state
    return float(_qfi_form(p, *_projections(v, (g @ v)[None]))[0, 0])


def point_mass(space: SpinSpace, m: int) -> JzDistribution:
    p = np.zeros(space.dim)
    p[int(m + space.j)] = 1.0
    return JzDistribution(space, p)


# ---------------------------------------------------------------------------
# distributions and the cat split

def test_protocol_distribution_trivial_readout_is_diagonal():
    rng = np.random.default_rng(0)
    rho = random_density(rng, 11)
    dist = protocol_distribution(state_eigensystem(rho), 0.0, Z_AXIS, trivial_readout())
    assert np.abs(dist.probs - np.real(np.diag(rho))).max() < 1e-12


def test_protocol_distribution_phase_cancellation():
    # a mixture of encoding-axis eigenstates commutes with the encoding,
    # so the outcome distribution cannot depend on psi
    sp = SpinSpace(14)
    enc = SpinAxis(1.0, 0.4)
    state = thermal_state(sp, 1.3, np.cos(1.0), 0.4)
    readout = ReadoutSpec()
    base = protocol_distribution(state, 0.0, enc, readout).probs
    for psi in (0.3, 1.1, -2.0):
        p = protocol_distribution(state, psi, enc, readout).probs
        assert np.abs(p - base).max() < 1e-10


def test_statistical_uncertainty_references():
    sp = SpinSpace(200)
    assert statistical_uncertainty(point_mass(sp, 100)) == 0.0
    half = np.zeros(sp.dim)
    half[int(-50 + sp.j)] = 0.5
    half[int(50 + sp.j)] = 0.5
    assert statistical_uncertainty(JzDistribution(sp, half)) == pytest.approx(50.0)


def test_cat_split_references():
    sp = SpinSpace(200)
    half = np.zeros(sp.dim)
    half[int(-50 + sp.j)] = 0.5
    half[int(50 + sp.j)] = 0.5
    split = cat_split(JzDistribution(sp, half))
    assert split.extensive_difference == pytest.approx(100.0)
    assert split.peak_width_left == pytest.approx(0.0)
    assert split.peak_width_right == pytest.approx(0.0)
    assert not split.degenerate

    point = cat_split(point_mass(sp, 3))
    assert point.degenerate and point.extensive_difference == 0.0


def test_cat_split_excludes_mean_bin():
    sp = SpinSpace(2)
    dist = JzDistribution(sp, np.array([0.25, 0.5, 0.25]))
    split = cat_split(dist)  # mean is exactly the m = 0 bin
    assert split.n_left == pytest.approx(0.25)
    assert split.n_right == pytest.approx(0.25)
    assert split.extensive_difference == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# quantum Fisher information

def test_qfi_pure_states_equal_four_variances():
    rng = np.random.default_rng(21)
    sp = SpinSpace(18)
    for _ in range(100):
        psi = random_pure(rng, sp.dim)
        state = state_eigensystem(np.outer(psi, psi.conj()))
        ax = SpinAxis(rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi))
        g = dense_j(18, ax)
        e1 = np.real(psi.conj() @ g @ psi)
        e2 = np.real(psi.conj() @ g @ g @ psi)
        target = 4.0 * (e2 - e1 * e1)
        assert qfi(state, ax) == pytest.approx(target, rel=1e-8, abs=1e-10)


def test_qfi_maximally_mixed_is_zero():
    sp = SpinSpace(12)
    state = state_eigensystem(np.eye(sp.dim) / sp.dim)
    assert qfi(state, Z_AXIS) == pytest.approx(0.0, abs=1e-12)


def test_qfi_unitary_invariance():
    rng = np.random.default_rng(33)
    sp = SpinSpace(10)
    rho = random_density(rng, sp.dim, rank=4)
    axis = SpinAxis(0.7, -0.9)
    g = dense_j(10, axis)
    base = qfi(state_eigensystem(rho), axis)
    for _ in range(5):
        h = rng.normal(size=(sp.dim, sp.dim)) + 1j * rng.normal(size=(sp.dim, sp.dim))
        u = expm(1j * (h + h.conj().T) / 2)
        rotated = qfi_dense(state_eigensystem(u @ rho @ u.conj().T), u @ g @ u.conj().T)
        assert rotated == pytest.approx(base, rel=1e-8)


def _decomposition_average(sqrt_rho, g, unitary, dim):
    """Mean pure-state 4*Var over one decomposition rho = sum q_k |psi_k><psi_k|."""
    vecs = sqrt_rho @ unitary[:dim, :]
    weights = np.sum(np.abs(vecs) ** 2, axis=0)
    total = 0.0
    for k in range(unitary.shape[1]):
        if weights[k] < 1e-14:
            continue
        psi = vecs[:, k] / np.sqrt(weights[k])
        e1 = np.real(psi.conj() @ g @ psi)
        e2 = np.real(psi.conj() @ g @ g @ psi)
        total += weights[k] * 4.0 * (e2 - e1 * e1)
    return total


def _hermitian_from(x, k):
    h = np.zeros((k, k), dtype=complex)
    idx = 0
    for a in range(k):
        h[a, a] = x[idx]
        idx += 1
    for a in range(k):
        for b in range(a + 1, k):
            h[a, b] = x[idx] + 1j * x[idx + 1]
            h[b, a] = x[idx] - 1j * x[idx + 1]
            idx += 2
    return h


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_qfi_convex_roof_brute_force(dim):
    """Independent oracle at tiny dimension: the spectral QFI lower-bounds
    every randomly sampled pure-state decomposition average and direct
    minimization over decompositions lands on it within 1%."""
    rng = np.random.default_rng(100 + dim)
    rho = random_density(rng, dim)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    g = (g + g.conj().T) / 2
    value = qfi_dense(state_eigensystem(rho), g)

    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
    k = 2 * dim

    # 10^4 random decompositions never dip below the spectral value
    lowest = np.inf
    for _ in range(10_000):
        z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        q, r = np.linalg.qr(z)
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        avg = _decomposition_average(sqrt_rho, g, u, dim)
        lowest = min(lowest, avg)
    assert lowest >= value - 1e-9 * max(1.0, value)

    # direct minimization over parametrized decompositions attains it
    def objective(x):
        return _decomposition_average(sqrt_rho, g, expm(1j * _hermitian_from(x, k)), dim)

    best = np.inf
    for _ in range(4):
        res = minimize(objective, rng.normal(scale=0.8, size=k * k),
                       method="L-BFGS-B", options={"maxiter": 200})
        best = min(best, res.fun)
    assert best >= value - 1e-9 * max(1.0, value)
    assert best <= value * 1.01


# ---------------------------------------------------------------------------
# classical Fisher information

def test_cfi_zero_for_commuting_state():
    sp = SpinSpace(16)
    state = thermal_state(sp, 1.0, 1.0, 0.0)  # diagonal in the J_z basis
    assert cfi_commutator(state, Z_AXIS, ReadoutSpec()) == pytest.approx(0.0, abs=1e-12)
    assert cfi_finite_difference(state, Z_AXIS, ReadoutSpec()) == pytest.approx(0.0, abs=1e-8)


def test_cfi_bounded_by_qfi_random_suite():
    rng = np.random.default_rng(55)
    sp = SpinSpace(14)
    readout = ReadoutSpec()
    for _ in range(25):
        state = state_eigensystem(random_density(rng, sp.dim, rank=rng.integers(1, sp.dim)))
        f_c = cfi_commutator(state, Z_AXIS, readout)
        f_q = qfi(state, Z_AXIS)
        assert f_c <= f_q * (1 + 1e-9) + 1e-12


def test_cfi_finite_difference_matches_commutator():
    params = TwistTurnParams(SpinSpace(60))
    state = next(prepare_and_evolve(StateLabel.ZERO, PURE_BETA, [1.4], params))
    readout = ReadoutSpec()
    exact = cfi_commutator(state, Z_AXIS, readout)
    fd = cfi_finite_difference(state, Z_AXIS, readout, delta=1e-4)
    assert fd == pytest.approx(exact, rel=1e-4)
    # Richardson consistency: quartering the residual when delta halves
    fd_half = cfi_finite_difference(state, Z_AXIS, readout, delta=5e-5)
    assert abs(fd_half - exact) <= abs(fd - exact) * 0.5 + 1e-10 * exact


def test_cfi_finite_difference_rejects_bad_delta():
    sp = SpinSpace(8)
    state = state_eigensystem(np.eye(sp.dim) / sp.dim)
    with pytest.raises(ValueError):
        cfi_finite_difference(state, Z_AXIS, ReadoutSpec(), delta=0.0)


# ---------------------------------------------------------------------------
# the assembled report

def test_report_pure_state_has_unit_quality(cold_zero_cat):
    report = metrology_report(cold_zero_cat)
    assert report.r_q == pytest.approx(1.0, abs=1e-6)
    assert 0 < report.r_c <= report.r_q
    assert report.f_c <= report.f_q


def test_report_degenerate_case():
    sp = SpinSpace(12)
    pole = coherent_state(sp, Z_AXIS)
    report = metrology_report(state_eigensystem(np.outer(pole, pole.conj())))
    assert report.degenerate
    assert report.delta_s == pytest.approx(0.0, abs=1e-9)


def fisher_report(f_q: float, f_c: float, delta_s: float = 10.0) -> MetrologyReport:
    r_q = 0.5 * np.sqrt(f_q) / delta_s
    r_c = 0.5 * np.sqrt(f_c) / delta_s
    return MetrologyReport(
        delta_s, f_q, 0.5 * np.sqrt(f_q), f_c, r_q, r_c, 1.0, r_q, r_c, f_q / 160,
    )


def test_report_fisher_chain_slack():
    # F_c above F_q by round-off puts r_c above r_q by round-off: both pass
    report = fisher_report(100.0, 100.0 * (1 + 1e-10))
    assert report.r_c > report.r_q
    with pytest.raises(NumericalInvariantError, match="exceeds"):
        fisher_report(100.0, 100.0 * (1 + 1e-5))
    with pytest.raises(NumericalInvariantError, match="Fisher chain"):
        fisher_report(400.0, 100.0, delta_s=9.0)  # r_q = 10/9 > 1


@pytest.mark.parametrize("nan_at", [0, 3])
def test_distribution_rejects_nan(nan_at):
    # NaN compares False with everything, so only a check that NaN fails catches it
    p = np.full(5, 0.2)
    p[nan_at] = np.nan
    with pytest.raises(NumericalInvariantError):
        JzDistribution(SpinSpace(4), p)


def test_readout_eigensystem_reused_and_read_only():
    sp = SpinSpace(10)
    readout = ReadoutSpec()
    jx_eigensystem.cache_clear()
    protocol_distribution(state_eigensystem(np.eye(sp.dim) / sp.dim), 0.0, Z_AXIS, readout)
    assert jx_eigensystem.cache_info().currsize == 1
    dec = jx_eigensystem(SpinSpace(10))
    assert jx_eigensystem.cache_info().hits == 1
    for arr in dec:
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_report_hot_state(hot_zero_cat):
    report = metrology_report(hot_zero_cat)
    assert report.r_c <= 0.10
    assert report.r_c < report.r_q < 0.5
    assert report.lam == pytest.approx(200 / 3, rel=0.15)


def test_purity_link_both_directions():
    rng = np.random.default_rng(77)
    sp = SpinSpace(12)
    for _ in range(10):
        psi = random_pure(rng, sp.dim)
        report = metrology_report(state_eigensystem(np.outer(psi, psi.conj())))
        if report.degenerate:
            continue
        assert report.r_q == pytest.approx(1.0, abs=1e-7)
    for _ in range(10):
        rho = random_density(rng, sp.dim, rank=int(rng.integers(2, 6)))
        report = metrology_report(state_eigensystem(rho))
        purity = float(np.trace(rho @ rho).real)
        assert purity < 0.999
        assert report.r_q < 0.999


def test_rq_monotone_under_heating():
    params = TwistTurnParams(SpinSpace(40))
    values = []
    for beta in (50.0, 5.0, 1.0, 0.5, 0.2, 0.1):
        state = next(prepare_and_evolve(StateLabel.ZERO, beta, [1.4], params))
        values.append(metrology_report(state).r_q)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# axis map

def test_axis_map_matches_direct_qfi():
    rng = np.random.default_rng(8)
    sp = SpinSpace(12)
    state = state_eigensystem(random_density(rng, sp.dim, rank=5))
    thetas = rng.uniform(0, np.pi, size=6)
    phis = rng.uniform(-np.pi, np.pi, size=6)
    amap = qfi_axis_map(state, thetas, phis)
    for i, th in enumerate(thetas):
        for k, ph in enumerate(phis):
            direct = qfi(state, SpinAxis(th, ph))
            assert amap.values[i, k] * 4 * sp.n_particles == pytest.approx(
                direct, rel=1e-8, abs=1e-10
            )


def test_axis_map_coherent_state_quarter():
    sp = SpinSpace(80)
    psi = coherent_state(sp, X_AXIS)
    value, axis = n_eff(state_eigensystem(np.outer(psi, psi.conj())))
    # transverse generators of a coherent state give F_q = 4 Var = N
    assert value == pytest.approx(0.25, rel=1e-6)
    dot = abs(np.dot(axis.unit_vector(), X_AXIS.unit_vector()))
    assert dot < 0.1  # maximizing axis is transverse to the spin direction


def test_axis_map_mixed_state_zero():
    sp = SpinSpace(16)
    amap = qfi_axis_map(state_eigensystem(np.eye(sp.dim) / sp.dim), np.linspace(0, np.pi, 8),
                        np.linspace(-np.pi, np.pi, 8))
    assert np.abs(amap.values).max() < 1e-12


def test_n_eff_is_the_exact_axis_maximum(cold_zero_cat, space200):
    state = cold_zero_cat
    scale = 4.0 * space200.n_particles
    value, axis = n_eff(state)
    top = np.linalg.eigvalsh(qfi_quadratic_form(state)).max() / scale
    assert value == pytest.approx(top, rel=1e-12)
    assert value == pytest.approx(26.7222, abs=1e-4)
    # the spectral QFI along the returned axis is that maximum, and no grid axis beats it
    assert qfi(state, axis) / scale == pytest.approx(value, rel=1e-9)
    assert qfi_axis_map(state, *default_axis_grids()).max_value <= value * (1 + 1e-12)


def test_axis_map_reports_one_of_two_mirror_maxima(cold_pi_cat, cold_zero_cat):
    # F_q is even in u and the default grid holds u and -u, so the maximum's two cells
    # differ by round-off; whichever of them is larger, the same axis is reported
    thetas, phis = default_axis_grids()
    for state in (cold_pi_cat, cold_zero_cat):
        amap = qfi_axis_map(state, thetas, phis)
        assert amap.argmax_axis.theta < np.pi / 2
        values = amap.values.copy()
        i, k = np.unravel_index(int(values.argmax()), values.shape)
        mirror = (thetas.size - 1 - i, (k + phis.size // 2) % phis.size)
        assert values[mirror] == pytest.approx(values[i, k], rel=1e-12)
        values[i, k], values[mirror] = values[mirror], values[i, k]
        axis, top = _argmax_axis(thetas, phis, values)
        assert top == amap.max_value
        assert axis.theta == pytest.approx(amap.argmax_axis.theta, abs=1e-12)
        assert axis.phi == pytest.approx(amap.argmax_axis.phi, abs=1e-12)
    # on the equator the representative has phi < 0
    thetas, phis = np.linspace(0, np.pi, 5), np.linspace(-np.pi, np.pi, 8, endpoint=False)
    for k in range(4, 8):
        values = np.zeros((5, 8))
        values[2, k] = 1.0
        axis, _ = _argmax_axis(thetas, phis, values)
        assert axis.theta == np.pi / 2 and axis.phi < 0
        assert axis.phi == pytest.approx(phis[k] - np.pi, abs=1e-12)


def test_axis_map_evolved_cat_equatorial(cold_pi_cat, cold_zero_cat):
    for state in (cold_pi_cat, cold_zero_cat):
        value, axis = n_eff(state)
        assert abs(axis.theta - np.pi / 2) < 0.25
        assert value > 10  # strongly macroscopic compared to the coherent 1/4
