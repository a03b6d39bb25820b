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

from .spin import NumericalInvariantError

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


def _energy(z, phi, lam):
    """H_cl(z, phi) on scalars or arrays.

    Keep the operand order: `0.5 * lam * z * z` differs in the last bit, and
    the integrator's accept decisions at its energy budget follow that bit.
    """
    return 0.5 * lam * z**2 - np.sqrt(np.maximum(1.0 - z**2, 0.0)) * np.cos(phi)


def _flow(z, phi, lam, floor=None):
    """Canonical flow (dz/dtau, dphi/dtau) on scalars or arrays.

    Unless 1 - z^2 is floored, the rates turn non-finite at |z| >= 1.
    """
    gap = 1.0 - z * z
    root = np.sqrt(gap if floor is None else np.maximum(gap, floor))
    return -root * np.sin(phi), lam * z + z * np.cos(phi) / root


def _rk4(z, phi, lam, dt, floor=None):
    """One classical RK4 step of the flow."""
    k1z, k1p = _flow(z, phi, lam, floor)
    k2z, k2p = _flow(z + 0.5 * dt * k1z, phi + 0.5 * dt * k1p, lam, floor)
    k3z, k3p = _flow(z + 0.5 * dt * k2z, phi + 0.5 * dt * k2p, lam, floor)
    k4z, k4p = _flow(z + dt * k3z, phi + dt * k3p, lam, floor)
    return (
        z + dt / 6.0 * (k1z + 2 * k2z + 2 * k3z + k4z),
        phi + dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p),
    )


def classical_energy(p: PhasePoint, params: MeanFieldParams) -> float:
    """Dimensionless mean-field energy H_cl(z, phi)."""
    return float(_energy(p.z, p.phi, params.lambda_cl))


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
    z = +/- sqrt(1 - 1/lambda_cl^2); once they round onto the pole (lambda_cl
    above about 1e8) NumericalInvariantError is raised, as the flow is singular there.
    """
    lam = params.lambda_cl
    pts = [_classify(0.0, 0.0, lam), _classify(0.0, np.pi, lam)]
    if lam > 1.0:
        z_st = np.sqrt(1.0 - (1.0 / lam) ** 2)
        if z_st == 1.0:
            raise NumericalInvariantError(
                f"self-trapped centers round onto the pole |z| = 1, where the flow is "
                f"singular, at lambda_cl = {lam:.6g}"
            )
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
    if abs(_energy(0.0, phi, lam) - 1.0) < 1e-15:
        return 0.0
    # H_cl(0, phi) = -cos(phi) < 1 always; scan for the first upward crossing
    # of H_cl = 1 to bracket the smallest root, then bisect.
    grid = np.linspace(0.0, 1.0, 4097)
    above = _energy(grid, phi, lam) >= 1.0
    cross = np.nonzero(~above[:-1] & above[1:])[0]
    if cross.size == 0:
        raise SeparatrixAbsentError(
            f"separatrix does not reach phi = {phi:.6g} at lambda_cl = {lam:.6g}"
        )
    lo, hi = grid[cross[0]], grid[cross[0] + 1]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _energy(mid, phi, lam) < 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < SEPARATRIX_TOL:
            break
    z_c = 0.5 * (lo + hi)
    return float(z_c)


@np.errstate(divide="ignore", invalid="ignore")  # a step reaching |z| >= 1 turns non-finite
def _integrate(
    starts: list[PhasePoint], params: MeanFieldParams, t_final: float, dt: float
) -> list[Trajectory]:
    """Fixed-step RK4 integration of every start at once.

    All orbits take each step together.  An orbit whose step leaves |z| < 1
    (the flow is singular at the poles) or overspends its share of the energy
    budget retries that step on its own as 2^k substeps, k <= 10, before the
    run gives up.  Each orbit's energy drift must stay below ENERGY_DRIFT_TOL.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if not starts:
        return []
    lam = params.lambda_cl
    n_steps = max(1, int(round(t_final / dt)))
    times = np.cumsum(np.r_[0.0, np.full(n_steps, dt)])
    zs = np.empty((n_steps + 1, len(starts)))
    phis = np.empty_like(zs)
    energies = np.empty_like(zs)
    zs[0] = [p.z for p in starts]
    phis[0] = [p.phi for p in starts]
    energies[0] = [classical_energy(p, params) for p in starts]
    # per-step energy budget; summed over the run it stays below 5e-7 < 1e-6
    step_budget = 5e-7 * dt / max(t_final, dt)
    for k in range(1, n_steps + 1):
        zs[k], phis[k] = _rk4(zs[k - 1], phis[k - 1], lam, dt)
        energies[k] = _energy(zs[k], phis[k], lam)
        ok = (np.abs(zs[k]) < 1.0) & (np.abs(energies[k] - energies[k - 1]) <= step_budget)
        if ok.all():
            continue
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
    if drifts.max() > ENERGY_DRIFT_TOL:
        raise NumericalInvariantError(
            f"energy drift {drifts.max():.3e} exceeds {ENERGY_DRIFT_TOL}"
        )
    # trapped: the phase winds past 2 pi while z keeps the sign of its first nonzero value
    signs = np.sign(zs)
    first = signs[(signs != 0).argmax(axis=0), np.arange(len(starts))]
    sign_changed = ((signs != 0) & (signs != first)).any(axis=0)
    trapped = ~sign_changed & (np.abs(phis - phis[0]).max(axis=0) > 2 * np.pi)
    return [
        Trajectory(
            times.copy(),
            np.column_stack([zs[:, i], phis[:, i]]),
            TrajectoryClass.SELF_TRAPPING if trapped[i] else TrajectoryClass.FREE_OSCILLATION,
            float(drifts[i]),
        )
        for i in range(len(starts))
    ]


def integrate_trajectory(
    p0: PhasePoint,
    params: MeanFieldParams,
    t_final: float,
    dt: float = 1e-3,
) -> Trajectory:
    """Fixed-step RK4 integration of one orbit with pole-refinement and energy guard.

    Near the poles |z| = 1 the flow is singular; a failing step is retried
    with a halved dt up to 2^10 refinements before giving up.  The total
    energy drift over the run must stay below ENERGY_DRIFT_TOL.
    """
    [trajectory] = _integrate([p0], params, t_final, dt)
    return trajectory


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

    n_steps = int(round(t_max / dt))
    for _ in range(n_steps):
        if not active.any():
            break
        z_new, p_new = _rk4(z[active], phi[active], lam, dt, floor=1e-18)
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
    """Fixed points, the separatrix at the sampled azimuths it reaches, and orbits."""
    fps = fixed_points(params)
    phis = np.linspace(-np.pi, np.pi, n_separatrix)
    zsep = np.full(phis.shape, np.nan)
    for k, phi in enumerate(phis):
        try:
            zsep[k] = separatrix(phi, params)
        except SeparatrixAbsentError:
            pass  # for 1 < lambda_cl < 2 the curve reaches only the azimuths near pi
    reached = ~np.isnan(zsep)
    phis, zsep = phis[reached], zsep[reached]
    if starts is None:
        starts = []
        if params.lambda_cl > 2.0:
            z_c0 = separatrix(0.0, params)
            for frac in (0.3, 0.6, 0.9):
                starts.append(PhasePoint(frac * z_c0, 0.0))
            for z in (min(1.2 * z_c0, 0.98), min(1.5 * z_c0, 0.99)):
                starts.append(PhasePoint(z, 0.0))
                starts.append(PhasePoint(-z, 0.0))
    return PhasePortrait(params, fps, phis, zsep, _integrate(starts, params, t_final, dt))
