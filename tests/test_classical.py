import numpy as np
import pytest
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


def closed_form_separatrix(lam: float, phi: float) -> float:
    """Independent oracle: H_cl(z, phi) = 1 reduces to a quadratic in
    s = sqrt(1 - z^2), valid whenever the discriminant admits a root."""
    disc = np.cos(phi) ** 2 + lam * (lam - 2.0)
    if disc < 0:
        raise ValueError("no crossing at this azimuth")
    s = (-np.cos(phi) + np.sqrt(disc)) / lam
    if not 0.0 <= s <= 1.0:
        raise ValueError("no crossing at this azimuth")
    return float(np.sqrt(1.0 - s * s))


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


def test_portrait_orbits_match_single_orbit_integration():
    # at lambda_cl = 200 the default starts need refined steps, each orbit its own
    mf = MeanFieldParams(200.0)
    portrait = phase_portrait(mf)
    assert len(portrait.trajectories) == 7
    for traj in portrait.trajectories:
        z0, phi0 = traj.points[0]
        alone = integrate_trajectory(PhasePoint(float(z0), float(phi0)), mf, 12.0)
        assert np.array_equal(alone.times, traj.times)
        assert np.array_equal(alone.points, traj.points)
        assert alone.classification is traj.classification
        assert alone.energy_drift == traj.energy_drift


def test_trajectory_refines_steps_near_the_pole(monkeypatch):
    rk4 = classical._rk4
    substeps = []

    def counting_rk4(z, phi, lam, dt, floor=None):
        substeps.append(dt)
        return rk4(z, phi, lam, dt, floor)

    monkeypatch.setattr(classical, "_rk4", counting_rk4)
    traj = integrate_trajectory(PhasePoint(0.9999, 0.0), MeanFieldParams(20.0), 1.0)
    assert sum(dt < 1e-3 for dt in substeps) == 86
    assert traj.classification is TrajectoryClass.SELF_TRAPPING
    assert traj.energy_drift < 1e-6
    assert np.abs(traj.points[:, 0]).max() < 1.0


def test_default_portrait_steps_python_floats(monkeypatch):
    # float64 numpy scalars reaching the kernel make each _rk4 call about 2x slower
    rk4 = classical._rk4
    float_args = []

    def checking_rk4(z, phi, lam, dt, floor=None):
        float_args.append(type(z) is float and type(phi) is float)
        return rk4(z, phi, lam, dt, floor)

    monkeypatch.setattr(classical, "_rk4", checking_rk4)
    phase_portrait(MeanFieldParams(20.0))
    assert len(float_args) == 7 * 12_000
    assert all(float_args)


def test_integration_fails_at_the_earliest_failing_step():
    # at lambda_cl = 0 an orbit along phi = -pi/2 runs into the pole, where no
    # refinement can step it: from z = 0.99 at t = 0.14, from z = 0.999 at t = 0.04
    mf = MeanFieldParams(0.0)
    late, early = PhasePoint(0.99, -np.pi / 2), PhasePoint(0.999, -np.pi / 2)
    with pytest.raises(NumericalInvariantError, match=r"at t = 0\.14 "):
        classical._integrate([late], mf, 0.5, 0.01)
    with pytest.raises(NumericalInvariantError, match=r"at t = 0\.04 "):
        classical._integrate([late, early], mf, 0.5, 0.01)


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
