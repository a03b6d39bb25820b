"""Property tests over random N, temperature, phase-space point and time."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from catlab import (
    SpinSpace,
    StateLabel,
    TwistTurnParams,
    build_hamiltonian,
    cat_split,
    jz_distribution,
    metrology_report,
    prepare_and_evolve,
    t_pi,
    thermal_state,
    wigner,
)
from catlab.dynamics import Propagator, initial_condition, propagator

# N >= 24 keeps lambda_cl = u N above 2, so the 0 state exists
n_particles = st.integers(12, 40).map(lambda k: 2 * k)
betas = st.floats(-2.0, np.log10(50.0)).map(lambda x: 10.0**x)
zs = st.floats(-1.0, 1.0)
phis = st.floats(-np.pi, np.pi)
factors = st.floats(0.0, 2.0)


def evolved_thermal_state(n, beta, z, phi, factor):
    params = TwistTurnParams(SpinSpace(n))
    state = thermal_state(params.space, beta, z, phi)
    return propagator(params).evolve(state, factor * t_pi(params.space, params.u_int))


@given(n_particles, betas, zs, phis, factors)
def test_fisher_chain(n, beta, z, phi, factor):
    report = metrology_report(evolved_thermal_state(n, beta, z, phi, factor))
    assert report.f_c <= report.f_q * (1 + 1e-6)
    if not report.degenerate:
        assert 0.0 <= report.r_c <= report.r_q + 1e-9
        assert report.r_q <= 1.0 + 1e-9


@given(n_particles, betas, st.sampled_from(list(StateLabel)), factors)
def test_counting_statistics_are_gauge_invariant(n, beta, label, factor):
    # Eq. 5's hopping sign, 2u Jz^2 + 2Jx from (z, phi + pi), is catlab's H gauged by
    # exp(i pi Jz)
    params = TwistTurnParams(SpinSpace(n))
    d, e = build_hamiltonian(params)
    z, phi = initial_condition(label, params)
    eq5 = Propagator((d, -e)).evolve(
        thermal_state(params.space, beta, z, phi + np.pi),
        factor * t_pi(params.space, params.u_int),
    )
    states = [next(prepare_and_evolve(label, beta, [factor], params)), eq5]
    reports = [metrology_report(state) for state in states]
    dists = [jz_distribution(state) for state in states]
    a, b = reports
    assert np.abs(dists[0].probs - dists[1].probs).max() < 1e-10
    split_a, split_b = (cat_split(d) for d in dists)
    assert abs(split_a.extensive_difference - split_b.extensive_difference) <= 1e-9 * n
    for name in ("delta_s", "f_q", "f_c", "lam", "n_eff_bound"):
        x, y = getattr(a, name), getattr(b, name)
        assert abs(x - y) <= 1e-9 * max(1.0, abs(x)), name


@given(n_particles, betas, zs, phis, factors)
def test_wigner_marginal_is_the_counting_distribution(n, beta, z, phi, factor):
    state = evolved_thermal_state(n, beta, z, phi, factor)
    grid = wigner(state, phi_points=n + 1)
    assert np.abs(grid.phi_average() - jz_distribution(state).probs).max() < 1e-10
