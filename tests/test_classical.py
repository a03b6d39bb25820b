import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from catlab import (
    MeanFieldParams,
    NumericalInvariantError,
    PhasePoint,
    SeparatrixAbsentError,
    Stability,
    TrajectoryClass,
    classical_energy,
    classify_batch,
    fixed_points,
    integrate_trajectory,
    phase_portrait,
    separatrix,
)
from catlab import classical

import test_mean_field_oracle as oracle


def closed_form_separatrix(lam: float, phi: float) -> float:
    """Independent oracle: H_cl(z, phi) = 1 reduces to a quadratic in
    s = sqrt(1 - z^2), valid whenever the discriminant admits a root.

    z^2 = (1 - s)(1 + s) with 1 - s = 2 (1 + cos phi) / (lam + cos phi + sqrt(disc))
    and 1 + cos phi = 2 cos^2(phi / 2), so near the saddle no nearby numbers cancel."""
    disc = np.cos(phi) ** 2 + lam * (lam - 2.0)
    if disc < 0:
        raise ValueError("no crossing at this azimuth")
    s = (-np.cos(phi) + np.sqrt(disc)) / lam
    if not 0.0 <= s <= 1.0:
        raise ValueError("no crossing at this azimuth")
    one_minus_s = 4.0 * np.cos(phi / 2) ** 2 / (lam + np.cos(phi) + np.sqrt(disc))
    return float(np.sqrt(one_minus_s * (1.0 + s)))


def oracle_eigenvalues(z: float, phi: float, lam: float) -> np.ndarray:
    """Independent oracle: the flow's Jacobian at (z, phi), diagonalized by LAPACK."""
    root = np.sqrt(1.0 - z * z)
    return np.linalg.eigvals(np.array([
        [z * np.sin(phi) / root, -root * np.cos(phi)],
        [lam + np.cos(phi) * (1.0 / root + z * z / root**3), -z * np.sin(phi) / root],
    ]))


# both sides of lambda_cl = 1 (the saddle appears) and 2 (the separatrix closes), up
# to just below where the self-trapped centers round onto the pole
COUPLINGS = [
    0.0, 0.5, 0.999999, 1.0, np.nextafter(1.0, 2.0), 1 + 1e-7, 1.5, 2.0, 2 + 1e-7, 3.7,
    10.0, 20.0, 1e3, 1e5, 1e7, 5e7,
]


def test_classical_energy_reference_points():
    mf = MeanFieldParams(10.0)
    assert classical_energy(PhasePoint(0.0, np.pi), mf) == pytest.approx(1.0)
    assert classical_energy(PhasePoint(0.0, 0.0), mf) == pytest.approx(-1.0)
    for phi in (0.0, 1.0, np.pi):
        assert classical_energy(PhasePoint(1.0, phi), mf) == pytest.approx(5.0)
        assert classical_energy(PhasePoint(-1.0, phi), mf) == pytest.approx(5.0)


def test_fixed_points_supercritical():
    mf = MeanFieldParams(10.0)
    pts = fixed_points(mf)
    assert len(pts) == 4
    by_loc = {(round(fp.point.z, 5), round(fp.point.phi, 5)): fp for fp in pts}
    saddle = by_loc[(0.0, round(np.pi, 5))]
    assert saddle.stability is Stability.SADDLE
    assert max(abs(ev.real) for ev in saddle.jacobian_eigenvalues) == pytest.approx(3.0, rel=1e-9)
    center = by_loc[(0.0, 0.0)]
    assert center.stability is Stability.CENTER
    assert all(abs(ev.real) < 1e-9 for ev in center.jacobian_eigenvalues)
    # self-trapped centers: independent root of lam z = z / sqrt(1 - z^2)
    z_oracle = brentq(lambda z: 10.0 * np.sqrt(1 - z * z) - 1.0, 0.5, 0.999999, xtol=1e-14)
    assert z_oracle == pytest.approx(np.sqrt(0.99), abs=1e-12)
    trapped = sorted(fp.point.z for fp in pts if abs(fp.point.z) > 0.5)
    assert trapped == pytest.approx([-z_oracle, z_oracle], abs=1e-9)
    for fp in pts:
        if abs(fp.point.z) > 0.5:
            assert fp.stability is Stability.CENTER


def test_fixed_points_subcritical():
    pts = fixed_points(MeanFieldParams(0.5))
    assert len(pts) == 2
    assert all(fp.stability is Stability.CENTER for fp in pts)


@pytest.mark.parametrize("lam", COUPLINGS)
def test_stability_matches_the_eigenvalue_oracle(lam):
    for fp in fixed_points(MeanFieldParams(lam)):
        eig = oracle_eigenvalues(fp.point.z, fp.point.phi, lam)
        # LAPACK leaves round-off on a center's real parts (1.8e-40 just above lambda_cl = 1)
        saddle = np.abs(eig.real).max() > 1e-9 * max(1.0, np.abs(eig).max())
        assert fp.stability is (Stability.SADDLE if saddle else Stability.CENTER)
        ours = sorted(fp.jacobian_eigenvalues, key=lambda ev: (ev.imag, ev.real))
        assert ours == pytest.approx(sorted(eig, key=lambda ev: (ev.imag, ev.real)), rel=1e-12)
        if fp.stability is Stability.CENTER:
            assert [ev.real for ev in fp.jacobian_eigenvalues] == [0.0, 0.0]


def test_fixed_points_call_no_eigensolver(monkeypatch):
    def no_eigensolver(*args):
        raise AssertionError("stability is in closed form")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigensolver)
    monkeypatch.setattr(np.linalg, "eig", no_eigensolver)
    kinds = [fp.stability for fp in fixed_points(MeanFieldParams(20.0))]
    assert kinds == [Stability.CENTER, Stability.SADDLE, Stability.CENTER, Stability.CENTER]


def test_separatrix_is_zero_exactly_at_the_saddle_azimuth():
    mf = MeanFieldParams(20.0)
    assert separatrix(np.pi, mf) == 0.0 and separatrix(-np.pi, mf) == 0.0
    # 3e-8 from pi, -cos(phi) is 4.4e-16 below 1, so the root is bisected, not read
    # as 0; H_cl rounds by ~1e-16 near 1, which resolves that root only to ~1e-9
    phi = np.pi - 3e-8
    assert separatrix(phi, mf) == pytest.approx(closed_form_separatrix(20.0, phi), abs=1e-9)


def test_separatrix_reference_values():
    mf = MeanFieldParams(10.0)
    assert separatrix(np.pi, mf) == pytest.approx(0.0, abs=1e-10)
    assert separatrix(0.0, mf) == pytest.approx(0.6, abs=1e-9)
    # lambda_cl = 20 (the default couplings): sqrt(1 - 0.9^2) exactly
    assert separatrix(0.0, MeanFieldParams(20.0)) == pytest.approx(np.sqrt(0.19), abs=1e-9)


def test_separatrix_matches_closed_form():
    # below lambda_cl = 2 both roots s lie in [0, 1]; the oracle's larger one must match
    rng = np.random.default_rng(12)
    for _ in range(300):
        lam = rng.uniform(1.01, 40.0)
        phi = rng.uniform(-np.pi, np.pi)
        try:
            expected = closed_form_separatrix(lam, phi)
        except ValueError:
            expected = None
        try:
            z_c = separatrix(phi, MeanFieldParams(lam))
        except SeparatrixAbsentError:
            z_c = None
        assert (z_c is None) == (expected is None), f"crossing exists? lam={lam}, phi={phi}"
        if expected is not None:
            assert z_c == pytest.approx(expected, abs=1e-9)


def test_separatrix_absent():
    with pytest.raises(SeparatrixAbsentError):
        separatrix(0.0, MeanFieldParams(0.9))
    # for 1 < lambda_cl < 2 the curve reaches only azimuths near pi
    with pytest.raises(SeparatrixAbsentError):
        separatrix(0.0, MeanFieldParams(1.5))
    z_near_saddle = separatrix(3.0, MeanFieldParams(1.5))
    assert 0 < z_near_saddle < 1


def test_portrait_keeps_the_azimuths_the_separatrix_reaches():
    mf = MeanFieldParams(1.5)
    portrait = phase_portrait(mf)
    assert portrait.separatrix_phi.size == 30
    for phi, z in zip(portrait.separatrix_phi, portrait.separatrix_z):
        assert np.cos(phi) < 0  # the azimuths near the saddle at pi
        assert z == separatrix(phi, mf)
    assert phase_portrait(MeanFieldParams(0.9)).separatrix_phi.size == 0


def test_separatrix_even_monotone_and_continuous():
    mf = MeanFieldParams(10.0)
    phis = np.linspace(0.0, np.pi, 41)
    zs = np.array([separatrix(p, mf) for p in phis])
    assert np.all(np.diff(zs) < 1e-12)  # monotonically decreasing to 0
    for p in (0.3, 1.2, 2.5):
        assert separatrix(-p, mf) == pytest.approx(separatrix(p, mf), abs=1e-10)
    # continuity at the saddle: z_c -> 0 as phi -> pi
    assert separatrix(np.pi - 1e-4, mf) < 1e-2


def test_trajectory_classification_examples():
    mf = MeanFieldParams(10.0)
    free = integrate_trajectory(PhasePoint(0.2, 0.0), mf, t_final=6.0)
    assert free.classification is TrajectoryClass.FREE_OSCILLATION
    trapped = integrate_trajectory(PhasePoint(0.8, 0.0), mf, t_final=6.0)
    assert trapped.classification is TrajectoryClass.SELF_TRAPPING
    assert free.energy_drift < 1e-6 and trapped.energy_drift < 1e-6
    # classify_batch's rule: a pi-phase trapped orbit and the self-trapped center never
    # wind or change the sign of z; a start on z = 0 (about (0, 0), or the saddle) is free
    starts = [PhasePoint(0.99, np.pi), PhasePoint(np.sqrt(0.99), np.pi),
              PhasePoint(0.0, 1.0), PhasePoint(0.0, np.pi)]
    got = [integrate_trajectory(p, mf, 12.0).classification for p in starts]
    assert got == [TrajectoryClass.SELF_TRAPPING] * 2 + [TrajectoryClass.FREE_OSCILLATION] * 2
    assert got == classify_batch(starts, mf)


@pytest.mark.parametrize("lam", [3.0, 200.0, 1e3])
def test_portrait_orbits_match_single_orbit_integration(lam):
    # the -z orbits are their twins mirrored, not integrated, and must still be the bits
    # integrating their own starts gives; bytes, as np.array_equal takes -0.0 for 0.0.
    # At lambda_cl = 200 and 1e3 the default starts need refined steps, each orbit its own
    mf = MeanFieldParams(lam)
    portrait = phase_portrait(mf)
    assert [np.sign(t.points[0, 0]) for t in portrait.trajectories] == [1, 1, 1, 1, -1, 1, -1]
    for traj in portrait.trajectories:
        # every start is (z, 0.0); a mirror by -x would start at phi = -0.0
        alone = integrate_trajectory(PhasePoint(float(traj.points[0, 0]), 0.0), mf, 12.0)
        assert alone.times.tobytes() == traj.times.tobytes()
        assert alone.points.tobytes() == traj.points.tobytes()
        assert alone.classification is traj.classification
        assert alone.energy_drift == traj.energy_drift


def test_trajectory_refines_steps_near_the_pole(monkeypatch):
    steps, substeps = classical._steps, []

    def counting_steps(zs, phis, energies, lam, dt, n_steps, budget):
        taken = steps(zs, phis, energies, lam, dt, n_steps, budget)
        if dt < 1e-3:
            substeps.append(taken)
        return taken

    monkeypatch.setattr(classical, "_steps", counting_steps)
    traj = integrate_trajectory(PhasePoint(0.9999, 0.0), MeanFieldParams(20.0), 1.0)
    assert sum(substeps) == 86
    assert traj.classification is TrajectoryClass.SELF_TRAPPING
    assert traj.energy_drift < 1e-6
    assert np.abs(traj.points[:, 0]).max() < 1.0


def test_default_portrait_steps_python_floats(monkeypatch):
    # float64 numpy scalars reaching the kernel make each step about 2x slower
    orbit, steps = classical._orbit, classical._steps
    float_args, ladder_calls = [], []

    def checking_orbit(zs, phis, energies, lam, dt, n_steps, step_budget):
        state = (zs[-1], phis[-1], energies[-1], lam, dt, step_budget)
        float_args.append(all(type(v) is float for v in state))
        return orbit(zs, phis, energies, lam, dt, n_steps, step_budget)

    def counting_steps(*args):
        if args[4] < 1e-3:
            ladder_calls.append(args)
        return steps(*args)

    monkeypatch.setattr(classical, "_orbit", checking_orbit)
    monkeypatch.setattr(classical, "_steps", counting_steps)
    portrait = phase_portrait(MeanFieldParams(20.0))
    # one kernel call per integrated orbit and block of steps: the two -z orbits are mirrored
    assert float_args == [True] * 5 * (12_000 // classical.ORBIT_BLOCK)
    assert ladder_calls == []  # every default step is a plain inline step
    assert all(len(t.points) == 12_001 for t in portrait.trajectories)


def test_integration_fails_at_the_earliest_failing_step():
    # at lambda_cl = 0 an orbit along phi = -pi/2 runs into the pole, where no
    # refinement can step it: from z = 0.99 at t = 0.14, from z = 0.999 at t = 0.04
    mf = MeanFieldParams(0.0)
    late, early = PhasePoint(0.99, -np.pi / 2), PhasePoint(0.999, -np.pi / 2)
    with pytest.raises(NumericalInvariantError, match=r"at t = 0\.14 "):
        classical._integrate([late], mf, 0.5, 0.01)
    with pytest.raises(NumericalInvariantError, match=r"at t = 0\.04 "):
        classical._integrate([late, early], mf, 0.5, 0.01)


def test_integration_failure_does_not_depend_on_start_order():
    # stepped after the early orbit, the late one stops before its own failure at t = 0.14
    mf = MeanFieldParams(0.0)
    late, early = PhasePoint(0.99, -np.pi / 2), PhasePoint(0.999, -np.pi / 2)
    with pytest.raises(NumericalInvariantError, match=r"at t = 0\.04 "):
        classical._integrate([early, late], mf, 0.5, 0.01)


def test_failing_run_steps_no_orbit_far_past_the_failure(monkeypatch):
    # an orbit ahead of the failing one stops within a block of the failing step
    orbit, lengths = classical._orbit, []

    def measuring_orbit(zs, *args):
        orbit(zs, *args)
        lengths.append(len(zs))

    monkeypatch.setattr(classical, "_orbit", measuring_orbit)
    mf, safe, early = MeanFieldParams(0.0), PhasePoint(0.0, 0.0), PhasePoint(0.999, -np.pi / 2)
    with pytest.raises(NumericalInvariantError, match=r"at t = 0\.04 "):
        classical._integrate([safe, early], mf, 100.0, 0.01)
    assert max(lengths) == classical.ORBIT_BLOCK + 1  # of 10,001 points


# about one draw in ten starts close enough to a pole for a stage to leave |z| < 1
_near_pole = st.floats(1e-12, 1e-2).flatmap(lambda d: st.sampled_from([1.0 - d, d - 1.0]))


@given(
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True) | _near_pole,
    st.floats(-10.0, 10.0),
    st.floats(0.0, 1e4),
    st.floats(1e-6, 0.1),
    st.floats(0.0, 1.0),
)
def test_inline_step_is_rk4_and_step_energy(z, phi, lam, dt, step_budget):
    # one step of the orbit loop against the numpy oracle's RK4 step and energy
    za, phia = np.array([z]), np.array([phi])
    e0 = float(oracle._energy(za, phia, lam)[0])
    zs, phis, energies = [z], [phi], [e0]
    taken = classical._steps(zs, phis, energies, lam, dt, 1, step_budget)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = oracle._rk4(za, phia, lam, dt)
        e = oracle._energy(*want, lam)
    # a stage that reached |z| >= 1 makes numpy's step NaN or inf, which fails both tests
    if abs(want[0][0]) < 1.0 and abs(e[0] - e0) <= step_budget:
        assert taken == 1
        assert np.array([*want, e]).tobytes() == np.array([zs[1], phis[1], energies[1]]).tobytes()
    else:
        assert taken == 0
        assert (zs, phis, energies) == ([z], [phi], [e0])


@given(
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True) | _near_pole,
    st.floats(-10.0, 10.0),
    st.floats(0.0, 1e4),
    st.floats(1e-6, 0.1),
    st.floats(0.0, 1.0) | st.just(np.inf),
    st.integers(3, 5),
)
def test_steps_carry_their_k1_terms_bit_for_bit(z, phi, lam, dt, step_budget, n_steps):
    # each step's k1 stage reuses sqrt(1 - z^2) and cos(phi) from the last step's energy;
    # every step of one call must be the bits of the oracle's RK4 step and energy, repeated
    za, phia = np.array([z]), np.array([phi])
    e = oracle._energy(za, phia, lam)
    want = [(za, phia, e)]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(n_steps):
            za, phia = oracle._rk4(za, phia, lam, dt)
            e_next = oracle._energy(za, phia, lam)
            if not (abs(za[0]) < 1.0 and abs(e_next[0] - e[0]) <= step_budget):
                break
            e = e_next
            want.append((za, phia, e))
    zs, phis, energies = [z], [phi], [float(want[0][2][0])]
    taken = classical._steps(zs, phis, energies, lam, dt, n_steps, step_budget)
    assert taken == len(want) - 1
    assert np.array([np.r_[w] for w in want]).tobytes() == np.array(
        [zs, phis, energies]).T.tobytes()


def test_trajectory_stationary_at_fixed_point():
    mf = MeanFieldParams(10.0)
    traj = integrate_trajectory(PhasePoint(0.0, 0.0), mf, t_final=2.0)
    assert np.abs(traj.points[:, 0]).max() < 1e-8
    assert np.abs(traj.points[:, 1]).max() < 1e-8


def test_trajectory_rejects_bad_dt():
    with pytest.raises(ValueError):
        integrate_trajectory(PhasePoint(0.1, 0.0), MeanFieldParams(10.0), 1.0, dt=0.0)


def test_classification_matches_energy_criterion():
    mf = MeanFieldParams(10.0)
    rng = np.random.default_rng(42)
    pts = []
    while len(pts) < 200:
        z = rng.uniform(-0.95, 0.95)
        phi = rng.uniform(-np.pi, np.pi)
        try:
            z_c = closed_form_separatrix(10.0, phi)
        except ValueError:
            z_c = None
        if z_c is not None and abs(abs(z) - z_c) < 1e-4:
            continue  # inside the excluded band around the separatrix
        pts.append(PhasePoint(z, phi))
    classes = classify_batch(pts, mf)
    for p, cls in zip(pts, classes):
        expected = (
            TrajectoryClass.SELF_TRAPPING
            if classical_energy(p, mf) > 1.0
            else TrajectoryClass.FREE_OSCILLATION
        )
        assert cls is expected, f"mismatch at z={p.z:.4f}, phi={p.phi:.4f}"


@pytest.mark.parametrize("lam", [2.5, 10.0, 200.0])
def test_classification_is_the_energy_criterion_across_the_cylinder(lam):
    # above lambda_cl = 2 an orbit with H_cl > 1 never reaches z = 0, and one with H_cl < 1
    # never reaches phi = pi, so it crosses z = 0; pi-phase trapped orbits never wind
    mf, rng = MeanFieldParams(lam), np.random.default_rng(3)
    pts = []
    while len(pts) < 200:
        p = PhasePoint(rng.uniform(-0.999, 0.999), rng.uniform(-np.pi, np.pi))
        near = abs(abs(p.z) - separatrix(p.phi, mf)) < 1e-3
        if near or abs(classical_energy(p, mf) - 1.0) < 1e-3:
            continue
        pts.append(p)
    for p, cls in zip(pts, classify_batch(pts, mf)):
        trapped = classical_energy(p, mf) > 1.0
        assert (cls is TrajectoryClass.SELF_TRAPPING) == trapped, f"z={p.z:.4f}, phi={p.phi:.4f}"


def test_pi_phase_trapped_orbits_centers_and_poles_are_trapped():
    mf = MeanFieldParams(10.0)
    z_st = np.sqrt(1.0 - 1.0 / 10.0**2)
    # (0.99, pi) librates in z in [0.990, 0.998] and through 0.85 rad of phi: no event
    starts = [PhasePoint(0.99, np.pi), PhasePoint(z_st, np.pi), PhasePoint(-z_st, np.pi)]
    starts += [PhasePoint(pole, phi) for pole in (1.0, -1.0) for phi in (0.0, 1.0, np.pi)]
    assert classify_batch(starts, mf) == [TrajectoryClass.SELF_TRAPPING] * len(starts)
    # a start on z = 0 never changes the sign of z either; the saddle stays put
    assert classify_batch([PhasePoint(0.0, np.pi)], mf) == [TrajectoryClass.FREE_OSCILLATION]


def mirror_steps(zs, phis, energies, lam, dt, n_steps, budget):
    """A stand-in loop whose every step flips the sign of z."""
    for _ in range(n_steps):
        zs.append(-zs[-1])
        phis.append(phis[-1])
        energies.append(energies[-1])
    return n_steps


@pytest.mark.parametrize("steps,expected", [
    (lambda *args: 0, TrajectoryClass.SELF_TRAPPING),  # no step: undecided off z = 0
    (mirror_steps, TrajectoryClass.FREE_OSCILLATION),
])
def test_classify_batch_steps_only_through_the_orbit_loop(monkeypatch, steps, expected):
    # a deeply trapped start and a small free oscillation: any other kernel classes one
    # of them otherwise
    monkeypatch.setattr(classical, "_steps", steps)
    starts = [PhasePoint(0.9, 0.0), PhasePoint(0.1, 0.0)]
    assert classify_batch(starts, MeanFieldParams(10.0)) == [expected, expected]


@pytest.mark.parametrize("z,phi", [(np.nan, 0.0), (0.1, np.nan), (0.1, np.inf), (1.5, 0.0)])
def test_phase_point_rejects_nan_and_non_finite_phases(z, phi):
    with pytest.raises(ValueError, match="finite phi"):
        PhasePoint(z, phi)
