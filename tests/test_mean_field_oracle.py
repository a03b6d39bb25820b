"""The float RK4 kernel against a numpy oracle.

The oracle is the array kernel the mean-field integrator used before it
stepped Python floats: numpy ufuncs over every orbit of a step at once, and
numpy scalars for a retried step, where a stage that leaves |z| < 1 turns
the step NaN instead of raising.  catlab.classical steps every orbit, plain
steps and refined substeps alike, in one float loop that keeps its
arithmetic, so the two must agree bit for bit: the same points, times,
classes and energy drifts, and the same accept/reject decision on every step.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from catlab import (
    MeanFieldParams,
    NumericalInvariantError,
    PhasePoint,
    TrajectoryClass,
    classical,
    phase_portrait,
)
from catlab.classical import Trajectory


def _energy(z, phi, lam):
    return 0.5 * lam * z**2 - np.sqrt(np.maximum(1.0 - z**2, 0.0)) * np.cos(phi)


def _flow(z, phi, lam):
    root = np.sqrt(1.0 - z * z)
    return -root * np.sin(phi), lam * z + z * np.cos(phi) / root


def _rk4(z, phi, lam, dt):
    k1z, k1p = _flow(z, phi, lam)
    k2z, k2p = _flow(z + 0.5 * dt * k1z, phi + 0.5 * dt * k1p, lam)
    k3z, k3p = _flow(z + 0.5 * dt * k2z, phi + 0.5 * dt * k2p, lam)
    k4z, k4p = _flow(z + dt * k3z, phi + dt * k3p, lam)
    return (
        z + dt / 6.0 * (k1z + 2 * k2z + 2 * k3z + k4z),
        phi + dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p),
    )


@np.errstate(divide="ignore", invalid="ignore")
def oracle_integrate(starts, params, t_final, dt):
    """All orbits step as one array; a failing orbit retries as 2^k substeps, k <= 10."""
    lam = params.lambda_cl
    n_steps = max(1, int(round(t_final / dt)))
    times = np.cumsum(np.r_[0.0, np.full(n_steps, dt)])
    zs = np.empty((n_steps + 1, len(starts)))
    phis = np.empty_like(zs)
    energies = np.empty_like(zs)
    zs[0] = [p.z for p in starts]
    phis[0] = [p.phi for p in starts]
    energies[0] = [float(_energy(p.z, p.phi, lam)) for p in starts]
    step_budget = 5e-7 * dt / max(t_final, dt)
    for k in range(1, n_steps + 1):
        zs[k], phis[k] = _rk4(zs[k - 1], phis[k - 1], lam, dt)
        energies[k] = _energy(zs[k], phis[k], lam)
        ok = (np.abs(zs[k]) < 1.0) & (np.abs(energies[k] - energies[k - 1]) <= step_budget)
        for i in np.flatnonzero(~ok):
            for attempt in range(1, 11):
                z, phi = zs[k - 1, i], phis[k - 1, i]
                for _ in range(2**attempt):
                    z, phi = _rk4(z, phi, lam, dt / 2**attempt)
                e = _energy(z, phi, lam)
                if abs(z) < 1.0 and abs(e - energies[k - 1, i]) <= step_budget:
                    break
            else:
                raise NumericalInvariantError(
                    f"integration failed near |z| = 1 at t = {times[k - 1]:.6g} "
                    "after 2^10 refinements"
                )
            zs[k, i], phis[k, i], energies[k, i] = z, phi, e
    drifts = np.abs(energies - energies[0]).max(axis=0)
    # the first event decides, the sign tested first: z of the sign opposite to z0's is
    # free, a phase wound past 2 pi trapped; an orbit with neither is trapped unless z0 = 0
    never = n_steps + 1
    crossed = np.sign(zs) * np.sign(zs[0]) < 0
    wound = np.abs(phis - phis[0]) > 2 * np.pi
    first_cross = np.where(crossed.any(axis=0), crossed.argmax(axis=0), never)
    first_wound = np.where(wound.any(axis=0), wound.argmax(axis=0), never)
    trapped = (first_wound < first_cross) | ((first_cross == never) & (zs[0] != 0))
    return [
        Trajectory(
            times,
            np.column_stack([zs[:, i], phis[:, i]]),
            TrajectoryClass.SELF_TRAPPING if trapped[i] else TrajectoryClass.FREE_OSCILLATION,
            float(drifts[i]),
        )
        for i in range(len(starts))
    ]


def bits(*values):
    return np.ravel(values).astype(float).view(np.uint64).tolist()


def assert_same_trajectories(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.times.tobytes() == w.times.tobytes()
        assert g.points.tobytes() == w.points.tobytes()
        assert g.classification is w.classification
        assert bits(g.energy_drift) == bits(w.energy_drift)


# about one draw in ten starts close enough to a pole for a stage to leave |z| < 1
_near_pole = st.floats(1e-12, 1e-2).flatmap(lambda d: st.sampled_from([1.0 - d, d - 1.0]))


@given(
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True) | _near_pole,
    st.floats(-10.0, 10.0),
    st.floats(0.0, 1e4),
    st.floats(1e-6, 0.1),
)
def test_float_kernel_matches_numpy_bit_for_bit(z, phi, lam, dt):
    za, phia = np.array([z]), np.array([phi])
    # the step and its energy: one step of the orbit loop, with no energy budget
    e0 = float(_energy(za, phia, lam)[0])
    zs, phis, energies = [z], [phi], [e0]
    taken = classical._steps(zs, phis, energies, lam, dt, 1, math.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = _rk4(za, phia, lam, dt)
        e = _energy(*want, lam)
    if taken:
        assert bits(zs[1], phis[1], energies[1]) == bits(*want, e)
    else:  # numpy's step is NaN or inf or lands outside |z| < 1, so it is refused too
        assert not (abs(want[0][0]) < 1.0 and np.isfinite(e[0]))
        assert (zs, phis, energies) == ([z], [phi], [e0])


@pytest.mark.parametrize("lambda_cl", [2.5, 20.0, 200.0, 2000.0])
def test_portrait_matches_oracle(lambda_cl):
    mf = MeanFieldParams(lambda_cl)
    got = phase_portrait(mf).trajectories
    starts = [PhasePoint(float(t.points[0, 0]), float(t.points[0, 1])) for t in got]
    assert len(starts) == 7
    assert_same_trajectories(got, oracle_integrate(starts, mf, 12.0, 1e-3))


# the ladder's paths: starts within 1e-2 of a pole, which most plain steps there cannot take
@given(
    st.floats(1e-12, 1e-2),
    st.sampled_from([1.0, -1.0]),
    st.floats(-np.pi, np.pi),
    st.floats(2.0, 2000.0),
    st.integers(1, 20),
)
@example(1e-4, 1.0, 0.0, 20.0, 1000)
def test_pole_start_matches_oracle(distance, pole, phi, lambda_cl, n_steps):
    mf, start = MeanFieldParams(lambda_cl), PhasePoint(pole * (1.0 - distance), phi)
    t_final = n_steps * 1e-3
    try:
        want = oracle_integrate([start], mf, t_final, 1e-3)
    except NumericalInvariantError as failure:
        with pytest.raises(NumericalInvariantError, match=re.escape(str(failure))):
            classical.integrate_trajectory(start, mf, t_final)
    else:
        assert_same_trajectories([classical.integrate_trajectory(start, mf, t_final)], want)


def test_stage_crossing_the_pole_is_refined():
    mf, start, dt = MeanFieldParams(20.0), PhasePoint(0.999999, -np.pi / 2), 1e-3
    # the plain step's second stage lands past z = 1: numpy's step is NaN, the loop's refused
    with np.errstate(invalid="ignore"):
        assert np.isnan(_rk4(np.array([start.z]), np.array([start.phi]), mf.lambda_cl, dt)).all()
    assert classical._steps([start.z], [start.phi], [0.0], mf.lambda_cl, dt, 1, math.inf) == 0
    got = classical._integrate([start], mf, dt, dt)
    assert abs(got[0].points[-1, 0]) < 1.0
    assert_same_trajectories(got, oracle_integrate([start], mf, dt, dt))
