"""The factored path against a dense oracle.

The oracle builds rho(t) = U rho0 U^dag as a dense matrix, with rho0 and U
from scipy.linalg.expm, diagonalizes it, and takes the QFI from the
full-pair spectral formula with no weight cutoff and the CFI from the
read-out-frame einsum.  The factored path carries (p, V) and never forms
rho; the two must agree to 1e-12 relative.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from catlab import (
    RunConfig,
    SignConvention,
    SpinAxis,
    SpinSpace,
    StateLabel,
    TwistTurnParams,
    Z_AXIS,
    cat_split,
    metrology_report,
    prepare_and_evolve,
    qfi,
    t_pi,
)
from catlab import harness
from catlab.dynamics import PURE_STATE_BETA, beta_scaled_of, initial_condition
from catlab.metrology import (
    JzDistribution,
    _projections,
    _qfi_form,
    metrology_reports,
    qfi_quadratic_form,
)
from catlab.spin import apply_j, thermal_weights, X_AXIS, Y_AXIS

from conftest import dense_j, spin_matrices

REL = 1e-12


def dense_evolved(label, beta, factor, params):
    sp = params.space
    z, phi = initial_condition(label, params)
    sigma = -1.0
    if params.sign_convention is SignConvention.LITERAL_EQ5:
        phi, sigma = phi + np.pi, 1.0
    j_axis = dense_j(sp.n_particles, SpinAxis(float(np.arccos(z)), phi))
    rho = expm(beta * (j_axis - sp.j * np.eye(sp.dim)))  # spectrum shifted to <= 0
    rho /= np.trace(rho).real
    mats = spin_matrices(sp.n_particles)
    h = 2.0 * params.u_int * mats.jz @ mats.jz + sigma * 2.0 * params.t_hop * mats.jx
    u = expm(-1j * h * factor * t_pi(sp, params.u_int))
    return u @ rho @ u.conj().T


def full_pair_form(rho, generators):
    """2 sum_{l,l'} (p_l - p_l')^2 / (p_l + p_l') Re(G_a,ll' conj G_b,ll'), every pair."""
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    num = (w[:, None] - w[None, :]) ** 2
    den = w[:, None] + w[None, :]
    weights = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    comps = [v.conj().T @ g @ v for g in generators]
    return np.array(
        [[2.0 * np.sum(weights * (a * b.conj()).real) for b in comps] for a in comps]
    )


def einsum_cfi(rho, generator, u_r):
    def frame_diag(mat):
        return np.einsum("im,ij,jm->m", u_r.conj(), mat, u_r, optimize=True).real

    p = frame_diag(rho)
    dp = frame_diag(1j * (generator @ rho - rho @ generator))
    mask = p > 1e-12
    return float(np.sum(dp[mask] ** 2 / p[mask]))


def assert_close(name, value, oracle):
    assert abs(value - oracle) <= REL * abs(oracle), f"{name}: {value!r} vs {oracle!r}"


def check_against_oracle(label, beta, factor, params):
    sp = params.space
    mats = spin_matrices(sp.n_particles)
    rho = dense_evolved(label, beta, factor, params)
    state = next(prepare_and_evolve(label, beta, [factor], params))
    report = metrology_report(state)
    dist = JzDistribution(sp, np.real(np.diag(rho)))
    u_r = expm(-1j * (np.pi / 2) * mats.jx)  # the default read-out
    form = full_pair_form(rho, [mats.jz, mats.jx, mats.jy])
    assert_close("Lambda", report.lam, cat_split(dist).extensive_difference)
    assert_close("Delta_s", report.delta_s, dist.std())
    assert_close("F_q", report.f_q, form[0, 0])
    assert_close("F_c", report.f_c, einsum_cfi(rho, mats.jz, u_r))
    scale = np.abs(form).max()
    assert np.abs(qfi_quadratic_form(state) - form).max() <= REL * scale


def _cases():
    rng = np.random.default_rng(6)
    cases = []
    for label in StateLabel:
        for convention in SignConvention:
            for _ in range(2):
                n = int(rng.choice([40, 100, 200]))
                beta = float(rng.choice([PURE_STATE_BETA, 10.0 ** rng.uniform(-2, 1)]))
                factor = float(rng.uniform(0.0, 2.0))
                cases.append((label, convention, n, beta, factor))
    return cases


@pytest.mark.parametrize("label,convention,n,beta,factor", _cases())
def test_factored_path_matches_dense_oracle(label, convention, n, beta, factor):
    params = TwistTurnParams(SpinSpace(n), sign_convention=convention)
    check_against_oracle(label, beta, factor, params)


def test_factored_path_matches_dense_oracle_n800():
    params = TwistTurnParams(SpinSpace(800))
    check_against_oracle(StateLabel.ZERO, PURE_STATE_BETA, 1.4, params)


def test_qfi_has_no_pair_cutoff_error():
    # default-grid pi state at beta_inv = 10^0.75: a 1e-12 eigenvalue-pair
    # cutoff moves F_q by 6e-12 relative here, which is not round-off
    config = RunConfig()
    beta_inv = [b for b in config.beta_inv_grid if abs(b - 5.6234) < 1e-3][0]
    beta = beta_scaled_of(beta_inv)
    factor = config.effective_time_factor("pi")
    params = TwistTurnParams(SpinSpace(config.n_particles))
    rho = dense_evolved(StateLabel.PI, beta, factor, params)
    state = next(prepare_and_evolve(StateLabel.PI, beta, [factor], params))
    oracle = full_pair_form(rho, [spin_matrices(config.n_particles).jz])[0, 0]
    value = qfi(state, Z_AXIS)
    assert abs(value - oracle) <= 1e-13 * oracle, f"{value!r} vs {oracle!r}"


@pytest.mark.parametrize("label", list(StateLabel))
@pytest.mark.parametrize("convention", list(SignConvention))
def test_shared_basis_reports_match_per_state_reports(label, convention):
    """Every temperature from the hottest state's evolved basis, against its own state."""
    rng = np.random.default_rng([6, len(label.value), len(convention.value)])
    beta_invs = sorted(float(b) for b in 10.0 ** rng.uniform(-2, 2, size=3)) + [0.0]
    factors = [float(f) for f in rng.uniform(0.0, 2.0, size=2)]
    config = RunConfig(n_particles=40, sign_convention=convention.value)
    params = harness._params_from_config(config)
    swept = list(harness._reports(config, label.value, beta_invs, factors))
    assert [factor for factor, _ in swept] == factors
    for factor, reports in swept:
        for beta_inv, report in zip(beta_invs, reports):
            [state] = prepare_and_evolve(label, beta_scaled_of(beta_inv), [factor], params)
            own = metrology_report(state)
            for name in ("f_q", "f_c", "lam", "r_q", "r_c"):
                assert_close(name, getattr(report, name), getattr(own, name))


def test_zero_padded_weights_match_the_full_pair_form():
    """A colder state's weights, padded with zeros on a hotter basis, give its dense F_ab."""
    params = TwistTurnParams(SpinSpace(40))
    hot, cold, factor = 0.3, 20.0, 1.2
    [(_, v)] = prepare_and_evolve(StateLabel.ZERO, hot, [factor], params)
    p = thermal_weights(params.space, cold)[-v.shape[1]:]
    assert np.count_nonzero(p) < v.shape[1]
    gv = np.stack([apply_j(params.space, axis, v) for axis in (Z_AXIS, X_AXIS, Y_AXIS)])
    form = _qfi_form(p, *_projections(v, gv))
    mats = spin_matrices(params.space.n_particles)
    oracle = full_pair_form(
        dense_evolved(StateLabel.ZERO, cold, factor, params), [mats.jz, mats.jx, mats.jy]
    )
    assert np.abs(form - oracle).max() <= REL * np.abs(oracle).max()


def test_cold_grid_reports_on_the_hottest_support(monkeypatch):
    """beta_inv 0.05 and 0.1 at N = 200: the basis is beta = 10's 75 columns, not 201."""
    seen = []

    def recording(v, weights):
        seen.append((v.shape, [np.count_nonzero(p) for p in weights]))
        return metrology_reports(v, weights)

    monkeypatch.setattr(harness, "metrology_reports", recording)
    config = RunConfig(beta_inv_grid=[0.05, 0.1])
    rows = harness._temp_sweep_point((config, "zero"))
    assert seen == [((201, 75), [38, 75])]
    assert [row[1] for row in rows] == [0.05, 0.1]
