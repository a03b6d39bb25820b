"""Mean-field (z, phi) dynamics of the two-mode junction.

The variational (spin coherent state) limit of the twist-and-turn Hamiltonian
gives the dimensionless energy

    H_cl(z, phi) = (lambda_cl / 2) z^2 - sqrt(1 - z^2) cos(phi),

with lambda_cl = u N / t, canonical flow

    dz/dtau   = -dH/dphi = -sqrt(1 - z^2) sin(phi)
    dphi/dtau = +dH/dz   = lambda_cl z + z cos(phi) / sqrt(1 - z^2).

For lambda_cl > 1 the fixed point (0, pi) turns into a saddle; the constant
energy curve through it, H_cl = 1, is the separatrix z_c(phi) dividing free
Josephson oscillations from self-trapped winding orbits.  For
1 < lambda_cl < 2 the separatrix reaches only the azimuths near phi = pi
(|cos phi| >= sqrt(lambda_cl (2 - lambda_cl))); beyond lambda_cl = 2 it
spans the whole cylinder.

Stability is always classified from the Jacobian of the flow, never from a
closed-form coupling threshold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


#: bisection stops once the bracket on z_c(phi) is narrower than this
SEPARATRIX_TOL = 1e-12
#: largest energy drift |H_cl(t) - H_cl(0)| a trajectory may accumulate
ENERGY_DRIFT_TOL = 1e-6


class SeparatrixAbsentError(ValueError):
    """No separatrix crossing exists for the requested coupling/azimuth."""


@dataclass(frozen=True)
class MeanFieldParams:
    """Dimensionless coupling of the mean-field junction."""

    lambda_cl: float

    def __post_init__(self):
        if not (np.isfinite(self.lambda_cl) and self.lambda_cl >= 0):
            raise ValueError(f"lambda_cl must be >= 0, got {self.lambda_cl}")


@dataclass(frozen=True)
class PhasePoint:
    z: float
    phi: float

    def __post_init__(self):
        if abs(self.z) > 1:
            raise ValueError(f"|z| must be <= 1, got {self.z}")


class Stability(enum.Enum):
    CENTER = "center"
    SADDLE = "saddle"


@dataclass(frozen=True)
class FixedPoint:
    point: PhasePoint
    stability: Stability
    jacobian_eigenvalues: tuple[complex, complex]


class TrajectoryClass(enum.Enum):
    FREE_OSCILLATION = "free_oscillation"
    SELF_TRAPPING = "self_trapping"


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    points: np.ndarray  # shape (n, 2) columns (z, phi); phi unwrapped
    classification: TrajectoryClass
    energy_drift: float


@dataclass(frozen=True)
class PhasePortrait:
    params: MeanFieldParams
    fixed_points: list[FixedPoint]
    separatrix_phi: np.ndarray
    separatrix_z: np.ndarray
    trajectories: list[Trajectory]


def classical_energy(p: PhasePoint, params: MeanFieldParams) -> float:
    """Dimensionless mean-field energy H_cl(z, phi)."""
    return float(
        0.5 * params.lambda_cl * p.z**2 - np.sqrt(max(1.0 - p.z**2, 0.0)) * np.cos(p.phi)
    )


def flow(z: float, phi: float, lam: float) -> tuple[float, float]:
    """Canonical flow (dz/dtau, dphi/dtau)."""
    root = np.sqrt(max(1.0 - z * z, 0.0))
    zdot = -root * np.sin(phi)
    if root == 0.0:
        raise FloatingPointError("flow singular at |z| = 1")
    phidot = lam * z + z * np.cos(phi) / root
    return zdot, phidot


def _jacobian(z: float, phi: float, lam: float) -> np.ndarray:
    """Analytic Jacobian of the flow, evaluated at (z, phi)."""
    root = np.sqrt(1.0 - z * z)
    dzdot_dz = z * np.sin(phi) / root
    dzdot_dphi = -root * np.cos(phi)
    dphidot_dz = lam + np.cos(phi) * (1.0 / root + z * z / root**3)
    dphidot_dphi = -z * np.sin(phi) / root
    return np.array([[dzdot_dz, dzdot_dphi], [dphidot_dz, dphidot_dphi]])


def _classify(z: float, phi: float, lam: float) -> FixedPoint:
    eig = np.linalg.eigvals(_jacobian(z, phi, lam))
    # a saddle has a real +/- pair; centers have purely imaginary pairs
    saddle = np.max(np.abs(eig.real)) > 1e-9 * max(1.0, np.max(np.abs(eig)))
    stability = Stability.SADDLE if saddle else Stability.CENTER
    return FixedPoint(PhasePoint(z, phi), stability, (complex(eig[0]), complex(eig[1])))


def fixed_points(params: MeanFieldParams) -> list[FixedPoint]:
    """Stationary points of the flow with Jacobian-based stability.

    Always contains (0, 0) and (0, pi).  Above lambda_cl = 1 the point at
    phi = pi becomes a saddle and two self-trapped centers appear at
    z = +/- sqrt(1 - 1/lambda_cl^2).
    """
    lam = params.lambda_cl
    pts = [_classify(0.0, 0.0, lam), _classify(0.0, np.pi, lam)]
    if lam > 1.0:
        z_st = np.sqrt(1.0 - 1.0 / lam**2)
        pts.append(_classify(+z_st, np.pi, lam))
        pts.append(_classify(-z_st, np.pi, lam))
    return pts


def separatrix(phi: float, params: MeanFieldParams) -> float:
    """Separatrix height z_c(phi) >= 0, the smallest root of H_cl(z, phi) = 1.

    Solved by bracketed bisection to SEPARATRIX_TOL.  Raises SeparatrixAbsentError when
    lambda_cl <= 1 (no saddle) or when the separatrix does not extend to the
    requested azimuth (possible for 1 < lambda_cl < 2).
    """
    lam = params.lambda_cl
    if lam <= 1.0:
        raise SeparatrixAbsentError(
            f"no separatrix: lambda_cl = {lam} <= 1 has no unstable fixed point"
        )
    cosphi = np.cos(phi)

    def excess(z: float) -> float:
        return 0.5 * lam * z * z - np.sqrt(max(1.0 - z * z, 0.0)) * cosphi - 1.0

    f0 = excess(0.0)
    if abs(f0) < 1e-15:
        return 0.0
    # f0 = -cos(phi) - 1 <= 0 always; scan for a sign change to bracket the
    # smallest root, then bisect.
    grid = np.linspace(0.0, 1.0, 4097)
    vals = np.array([excess(z) for z in grid])
    cross = np.nonzero((vals[:-1] < 0) & (vals[1:] >= 0))[0]
    if cross.size == 0:
        raise SeparatrixAbsentError(
            f"separatrix does not reach phi = {phi:.6g} at lambda_cl = {lam:.6g}"
        )
    lo, hi = grid[cross[0]], grid[cross[0] + 1]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < SEPARATRIX_TOL:
            break
    z_c = 0.5 * (lo + hi)
    return float(z_c)


def _rk4_step(z: float, phi: float, lam: float, dt: float) -> tuple[float, float]:
    k1 = flow(z, phi, lam)
    k2 = flow(z + 0.5 * dt * k1[0], phi + 0.5 * dt * k1[1], lam)
    k3 = flow(z + 0.5 * dt * k2[0], phi + 0.5 * dt * k2[1], lam)
    k4 = flow(z + dt * k3[0], phi + dt * k3[1], lam)
    z_new = z + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    phi_new = phi + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return z_new, phi_new


def integrate_trajectory(
    p0: PhasePoint,
    params: MeanFieldParams,
    t_final: float,
    dt: float = 1e-3,
) -> Trajectory:
    """Fixed-step RK4 integration with pole-refinement and energy guard.

    Near the poles |z| = 1 the flow is singular; a failing step is retried
    with a halved dt up to 2^10 refinements before giving up.  The total
    energy drift over the run must stay below ENERGY_DRIFT_TOL.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    lam = params.lambda_cl
    e0 = classical_energy(p0, params)
    n_steps = max(1, int(round(t_final / dt)))
    times = [0.0]
    zs = [p0.z]
    phis = [p0.phi]
    z, phi = p0.z, p0.phi
    e_prev = e0
    t = 0.0
    max_drift = 0.0
    sign0 = np.sign(z) if z != 0 else 0.0
    sign_changed = False
    # per-step energy budget; summed over the run it stays below 5e-7 < 1e-6
    step_budget = 5e-7 * dt / max(t_final, dt)
    for _ in range(n_steps):
        step = dt
        accepted = False
        for attempt in range(11):
            sub = 2**attempt
            z_try, phi_try = z, phi
            ok = True
            try:
                for _ in range(sub):
                    z_try, phi_try = _rk4_step(z_try, phi_try, lam, step / sub)
                    if abs(z_try) >= 1.0:
                        ok = False
                        break
            except FloatingPointError:
                ok = False
            if ok:
                e_try = classical_energy(PhasePoint(z_try, phi_try), params)
                if abs(e_try - e_prev) <= step_budget:
                    accepted = True
                    e_prev = e_try
                    break
        if not accepted:
            raise RuntimeError(
                f"integration failed near |z| = 1 at t = {t:.6g} after 2^10 refinements"
            )
        z, phi = z_try, phi_try
        t += step
        times.append(t)
        zs.append(z)
        phis.append(phi)
        if sign0 != 0 and np.sign(z) != sign0 and z != 0:
            sign_changed = True
        if sign0 == 0 and z != 0:
            sign0 = np.sign(z)
        max_drift = max(max_drift, abs(e_prev - e0))
    if max_drift > ENERGY_DRIFT_TOL:
        raise RuntimeError(f"energy drift {max_drift:.3e} exceeds {ENERGY_DRIFT_TOL}")
    phi_arr = np.array(phis)
    winding = np.abs(phi_arr - phi_arr[0]).max() > 2 * np.pi
    if not sign_changed and winding:
        cls = TrajectoryClass.SELF_TRAPPING
    else:
        cls = TrajectoryClass.FREE_OSCILLATION
    pts = np.column_stack([np.array(zs), phi_arr])
    return Trajectory(np.array(times), pts, cls, max_drift)


def classify_batch(
    points: list[PhasePoint],
    params: MeanFieldParams,
    t_max: float = 200.0,
    dt: float = 2e-3,
) -> list[TrajectoryClass]:
    """Classify many initial points at once with early exit per point.

    All points are stepped together with vectorized RK4; a point is frozen
    as FREE_OSCILLATION the moment its z changes sign and as SELF_TRAPPING
    the moment its phase has wound by more than 2 pi without a sign change.
    Orbits hugging the separatrix take a time ~ log(1/distance) to commit,
    which is why the default horizon is long; undecided points at t_max
    (stationary or critically slowed) fall back to FREE_OSCILLATION.
    """
    lam = params.lambda_cl
    z = np.array([p.z for p in points], dtype=float)
    phi = np.array([p.phi for p in points], dtype=float)
    phi0 = phi.copy()
    sign0 = np.sign(z)
    trapped = np.zeros(z.size, dtype=bool)
    free = np.zeros(z.size, dtype=bool)
    active = np.ones(z.size, dtype=bool)

    def vflow(zv, pv):
        root = np.sqrt(np.clip(1.0 - zv * zv, 1e-18, None))
        return -root * np.sin(pv), lam * zv + zv * np.cos(pv) / root

    n_steps = int(round(t_max / dt))
    for _ in range(n_steps):
        if not active.any():
            break
        za, pa = z[active], phi[active]
        k1z, k1p = vflow(za, pa)
        k2z, k2p = vflow(za + 0.5 * dt * k1z, pa + 0.5 * dt * k1p)
        k3z, k3p = vflow(za + 0.5 * dt * k2z, pa + 0.5 * dt * k2p)
        k4z, k4p = vflow(za + dt * k3z, pa + dt * k3p)
        z_new = za + dt / 6.0 * (k1z + 2 * k2z + 2 * k3z + k4z)
        p_new = pa + dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
        z[active] = np.clip(z_new, -1.0, 1.0)
        phi[active] = p_new
        flipped = active & (np.sign(z) != sign0) & (np.sign(z) != 0) & (sign0 != 0)
        wound = active & (np.abs(phi - phi0) > 2 * np.pi)
        free |= flipped
        trapped |= wound & ~flipped
        active &= ~(flipped | wound)
    return [
        TrajectoryClass.SELF_TRAPPING if trapped[i] else TrajectoryClass.FREE_OSCILLATION
        for i in range(z.size)
    ]


def phase_portrait(
    params: MeanFieldParams,
    n_separatrix: int = 181,
    starts: list[PhasePoint] | None = None,
    t_final: float = 12.0,
    dt: float = 1e-3,
) -> PhasePortrait:
    """Fixed points, sampled separatrix, and a bundle of integrated orbits."""
    fps = fixed_points(params)
    phis = np.linspace(-np.pi, np.pi, n_separatrix)
    try:
        zsep = np.array([separatrix(p, params) for p in phis])
    except SeparatrixAbsentError:
        phis = np.array([])
        zsep = np.array([])
    if starts is None:
        starts = []
        if params.lambda_cl > 2.0:
            z_c0 = separatrix(0.0, params)
            for frac in (0.3, 0.6, 0.9):
                starts.append(PhasePoint(frac * z_c0, 0.0))
            for z in (min(1.2 * z_c0, 0.98), min(1.5 * z_c0, 0.99)):
                starts.append(PhasePoint(z, 0.0))
                starts.append(PhasePoint(-z, 0.0))
    trajs = [integrate_trajectory(p, params, t_final, dt) for p in starts]
    return PhasePortrait(params, fps, phis, zsep, trajs)
