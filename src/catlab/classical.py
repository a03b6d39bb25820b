"""Mean-field (z, phi) dynamics of the two-mode junction.

The variational (spin coherent state) limit of the twist-and-turn Hamiltonian
gives the dimensionless energy

    H_cl(z, phi) = (lambda_cl / 2) z^2 - sqrt(1 - z^2) cos(phi),

with lambda_cl = u N (u in units of the hopping energy t = 1), canonical flow

    dz/dtau   = -dH/dphi = -sqrt(1 - z^2) sin(phi)
    dphi/dtau = +dH/dz   = lambda_cl z + z cos(phi) / sqrt(1 - z^2).

For lambda_cl > 1 the fixed point (0, pi) turns into a saddle; the constant
energy curve through it, H_cl = 1, is the separatrix z_c(phi) dividing free
Josephson oscillations from self-trapped winding orbits.  For
1 < lambda_cl < 2 the separatrix reaches only the azimuths near phi = pi
(|cos phi| >= sqrt(lambda_cl (2 - lambda_cl))); beyond lambda_cl = 2 it
spans the whole cylinder.

Stability is always classified from the Jacobian of the flow, never from a
closed-form coupling threshold, and like z_c(phi) = 0 at the saddle's azimuth
it is decided exactly, with no slack.

Every orbit is classed by its energy, with no step taken (`_energy_class`):
SELF_TRAPPING where H_cl > 1, else FREE_OSCILLATION.  This is exact at every
lambda_cl >= 0: the roots of zdot^2 in z^2 are y+/- = 2[(lambda_cl H_cl - 1)
+/- sqrt(lambda_cl^2 - 2 lambda_cl H_cl + 1)] / lambda_cl^2, and z reaches 0
exactly when y- <= 0, that is, when H_cl <= 1.

Every portrait orbit steps in one RK4 loop on Python floats (`_steps`); a
step it refuses is retried as 2^r substeps through the same loop (`_orbit`).

The flow is odd under (z, phi) -> (-z, -phi): sqrt(1 - z^2) and cos are
even, sin is odd, and rounding to nearest is sign-symmetric, so each RK4
step maps to its mirror image bit for bit, with the same energy, and the
accept tests, which read only |z| and energy changes, decide alike.  So the
portrait integrates its five starts (z, 0) with z > 0 and mirrors the two
(-z, 0) orbits from their twins; integrate_trajectory(PhasePoint(-z, 0.0))
still gives a mirrored orbit's bits.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .spin import TOLERANCES, NumericalInvariantError


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
        if not (abs(self.z) <= 1 and math.isfinite(self.phi)):  # NaN fails both
            raise ValueError(f"need |z| <= 1 and a finite phi, got ({self.z}, {self.phi})")


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
    """H_cl(z, phi) on scalars or arrays; `_steps` and `separatrix` write it out on floats.

    Keep the operand order in each: `0.5 * lam * z * z` differs in the last
    bit, and the integrator's accept decisions at its energy budget follow it.
    """
    return 0.5 * lam * z**2 - np.sqrt(np.maximum(1.0 - z**2, 0.0)) * np.cos(phi)


def classical_energy(p: PhasePoint, params: MeanFieldParams) -> float:
    """Dimensionless mean-field energy H_cl(z, phi)."""
    return float(_energy(p.z, p.phi, params.lambda_cl))


def _classify(z: float, phi: float, lam: float) -> FixedPoint:
    """Stability from the flow's Jacobian [[a, b], [c, -a]], traceless as the flow is Hamiltonian.

    Its eigenvalues are +/- sqrt(q), q = a^2 + b c: a real pair (a saddle) for q > 0.
    """
    root = math.sqrt(1.0 - z * z)
    a = z * math.sin(phi) / root  # dzdot/dz = -dphidot/dphi
    b = -root * math.cos(phi)  # dzdot/dphi
    c = lam + math.cos(phi) * (1.0 / root + z * z / root**3)  # dphidot/dz
    q = a * a + b * c
    stability = Stability.SADDLE if q > 0 else Stability.CENTER
    return FixedPoint(PhasePoint(z, phi), stability, (cmath.sqrt(q), -cmath.sqrt(q)))


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


#: separatrix's scan of z over [0, 1], with z^2 and sqrt(1 - z^2) formed as `_energy` forms them
_SCAN_Z = np.linspace(0.0, 1.0, 4097)
_SCAN_Z2 = _SCAN_Z**2
_SCAN_ROOT = np.sqrt(np.maximum(1.0 - _SCAN_Z2, 0.0))


def separatrix(phi: float, params: MeanFieldParams) -> float:
    """Separatrix height z_c(phi) >= 0, the smallest root of H_cl(z, phi) = 1.

    It is 0 where H_cl(0, phi) = -cos(phi) is 1 (cos(phi) = -1.0, as at phi = +/- pi);
    elsewhere it is solved by bracketed bisection to TOLERANCES["separatrix_bisection"].
    The scan and the bisection evaluate `_energy` operand for operand, the bisection on
    Python floats.  Raises SeparatrixAbsentError when lambda_cl <= 1 (no saddle) or when
    the separatrix does not extend to the requested azimuth (possible for 1 < lambda_cl < 2).
    """
    lam = params.lambda_cl
    if lam <= 1.0:
        raise SeparatrixAbsentError(
            f"no separatrix: lambda_cl = {lam} <= 1 has no unstable fixed point"
        )
    cos_phi = float(np.cos(phi))
    if cos_phi <= -1.0:  # H_cl(0, phi) = -cos(phi) reaches 1: the saddle's own azimuth
        return 0.0
    # from H_cl(0, phi) < 1, bracket the first upward crossing of H_cl = 1 and bisect
    above = 0.5 * lam * _SCAN_Z2 - _SCAN_ROOT * cos_phi >= 1.0
    k = int(above.argmax())
    if not above[k]:
        raise SeparatrixAbsentError(
            f"separatrix does not reach phi = {phi:.6g} at lambda_cl = {lam:.6g}"
        )
    lo, hi = float(_SCAN_Z[k - 1]), float(_SCAN_Z[k])
    half_lam, width = 0.5 * float(lam), TOLERANCES["separatrix_bisection"]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        z2 = mid**2  # pow, as numpy's scalar power is: it differs from mid * mid in the last bit
        if half_lam * z2 - math.sqrt(max(1.0 - z2, 0.0)) * cos_phi < 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < width:
            break
    return 0.5 * (lo + hi)


def _steps(zs, phis, energies, lam, dt, n_steps, budget):
    """Extend one orbit's z, phi and energy lists by up to n_steps plain RK4 steps.

    Steps Python floats from the lists' last entries.  A step is classical
    RK4 of the canonical flow and its energy is `_energy`, written out inline
    operand for operand, so both keep numpy's bits.  The energy's sqrt(1 - z^2)
    and cos(phi) are the next step's k1 terms, so they are carried, not redone.
    Stops at the first step it cannot take: a stage that raises (it reached
    |z| >= 1), a result outside |z| < 1, or an energy change beyond budget.
    Returns the steps taken.
    """
    sqrt, sin, cos = math.sqrt, math.sin, math.cos
    h2, h6, half_lam = 0.5 * dt, dt / 6.0, 0.5 * lam
    z, phi, e = zs[-1], phis[-1], energies[-1]
    start = len(zs)
    try:
        r, c = sqrt(1.0 - z * z), cos(phi)
        for _ in range(n_steps):
            k1z, k1p = -r * sin(phi), lam * z + z * c / r
            y, q = z + h2 * k1z, phi + h2 * k1p
            s = sqrt(1.0 - y * y)
            k2z, k2p = -s * sin(q), lam * y + y * cos(q) / s
            y, q = z + h2 * k2z, phi + h2 * k2p
            s = sqrt(1.0 - y * y)
            k3z, k3p = -s * sin(q), lam * y + y * cos(q) / s
            y, q = z + dt * k3z, phi + dt * k3p
            s = sqrt(1.0 - y * y)
            k4z, k4p = -s * sin(q), lam * y + y * cos(q) / s
            y = z + h6 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
            q = phi + h6 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            # for |y| < 1, 1 - y * y > 0 and _energy's clamp is a no-op; past it sqrt raises
            r, c = sqrt(1.0 - y * y), cos(q)
            en = half_lam * (y * y) - r * c
            if not (abs(y) < 1.0 and abs(en - e) <= budget):
                break
            z, phi, e = y, q, en
            zs.append(z)
            phis.append(phi)
            energies.append(e)
    except (ValueError, ZeroDivisionError):
        pass
    return len(zs) - start


def _orbit(zs, phis, energies, lam, dt, n_steps, step_budget):
    """Extend one orbit's z, phi and energy lists by up to n_steps RK4 steps.

    Every step, plain or refined, runs in `_steps`.  A step it refuses is
    retried as 2^r substeps of dt / 2^r, r = 1..10, through `_steps` with no
    per-substep budget; the first rung whose substeps all run and whose last
    energy is within step_budget of the step's start is taken.  If no rung
    is, the orbit stops there, short of n_steps.
    """
    while n_steps > 0:
        n_steps -= _steps(zs, phis, energies, lam, dt, n_steps, step_budget)
        if n_steps == 0:
            return
        e = energies[-1]
        for r in range(1, 11):
            ys, qs, ens = [zs[-1]], [phis[-1]], [e]
            taken = _steps(ys, qs, ens, lam, dt / 2**r, 2**r, math.inf)
            if taken == 2**r and abs(ens[-1] - e) <= step_budget:
                break
        else:
            return
        zs.append(ys[-1])
        phis.append(qs[-1])
        energies.append(ens[-1])
        n_steps -= 1


# steps per `_orbit` call; orbits take turns by blocks, so a run that fails
# steps no orbit more than one block past its earliest failing step
ORBIT_BLOCK = 100

#: the portrait's separatrix azimuths over [-pi, pi], its orbits' length and RK4 step
PORTRAIT_AZIMUTHS, PORTRAIT_T_FINAL, PORTRAIT_DT = 181, 12.0, 1e-3


def _energy_class(energy: float) -> TrajectoryClass:
    """The class of every orbit of this energy: self-trapped above the separatrix H_cl = 1."""
    return TrajectoryClass.SELF_TRAPPING if energy > 1.0 else TrajectoryClass.FREE_OSCILLATION


def _integrate(
    starts: list[PhasePoint], params: MeanFieldParams, t_final: float, dt: float
) -> list[Trajectory]:
    """Fixed-step RK4 integration of every start, each orbit in its own loop.

    The orbits take turns in blocks of ORBIT_BLOCK steps.  A step that leaves
    |z| < 1 (the flow is singular at the poles) or overspends its share of
    the energy budget is retried as 2^k substeps, k <= 10.  Once a step k
    fails every refinement, no orbit steps past k - 1, and the run gives up
    at the earliest failing step of all.  Each orbit's energy drift must stay
    below TOLERANCES["energy_drift"]; its class is its start's energy class.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if not starts:
        return []
    lam, dt = float(params.lambda_cl), float(dt)
    n_steps = max(1, int(round(t_final / dt)))
    times = np.cumsum(np.r_[0.0, np.full(n_steps, dt)])
    # per-step energy budget; summed over the run it stays below half the drift tolerance
    step_budget = 0.5 * TOLERANCES["energy_drift"] * dt / max(t_final, dt)
    orbits = [([float(p.z)], [float(p.phi)], [classical_energy(p, params)]) for p in starts]
    reach = n_steps  # the last step any orbit may take: one before the earliest failure
    for block_end in range(ORBIT_BLOCK, n_steps + ORBIT_BLOCK, ORBIT_BLOCK):
        for zs, phis, energies in orbits:
            stop = min(block_end, reach)
            _orbit(zs, phis, energies, lam, dt, stop - (len(zs) - 1), step_budget)
            if len(zs) <= stop:
                reach = len(zs) - 1  # step len(zs) failed
    if reach < n_steps:
        raise NumericalInvariantError(
            f"integration failed near |z| = 1 at t = {times[reach]:.6g} "
            "after 2^10 refinements"
        )
    trajectories = []
    for zs, phis, energies in orbits:
        trajectories.append(Trajectory(
            times.copy(),
            np.column_stack([zs, phis]),
            _energy_class(energies[0]),
            float(np.abs(np.subtract(energies, energies[0])).max()),
        ))
    drift = max(t.energy_drift for t in trajectories)
    if drift > TOLERANCES["energy_drift"]:
        raise NumericalInvariantError(
            f"energy drift {drift:.3e} exceeds {TOLERANCES['energy_drift']}"
        )
    return trajectories


def integrate_trajectory(
    p0: PhasePoint, params: MeanFieldParams, t_final: float, dt: float = PORTRAIT_DT
) -> Trajectory:
    """Fixed-step RK4 integration of one orbit with pole-refinement and energy guard.

    The one-start call of `_integrate`, by default at the portrait's step, so a
    portrait orbit from the same start is the same bits by construction.  Near
    the poles |z| = 1 the flow is singular; a failing step is retried as 2^k
    substeps, k <= 10, before giving up.  The total energy drift over the run
    must stay below TOLERANCES["energy_drift"].
    """
    [trajectory] = _integrate([p0], params, t_final, dt)
    return trajectory


def classify_batch(points: list[PhasePoint], params: MeanFieldParams) -> list[TrajectoryClass]:
    """Each start's class from its energy: SELF_TRAPPING where H_cl > 1, else FREE_OSCILLATION.

    No orbit is stepped.  The rule is exact at every lambda_cl >= 0 (see the
    module docstring), so pole starts, where the flow is singular, are classed
    too: H_cl = lambda_cl / 2 there, free up to lambda_cl = 2 and trapped above.
    """
    return [_energy_class(classical_energy(p, params)) for p in points]


def phase_portrait(params: MeanFieldParams) -> PhasePortrait:
    """Fixed points, the separatrix at the sampled azimuths it reaches, and orbits.

    Above lambda_cl = 2, seven orbits from phi = 0 run to PORTRAIT_T_FINAL by
    PORTRAIT_DT: from 0.3, 0.6 and 0.9 z_c(0), then +z and -z for z = 1.2 and
    1.5 z_c(0) (capped at 0.98 and 0.99).  Only the five starts z > 0 are
    integrated; each -z orbit is its twin's points mirrored, 0.0 - (z, phi),
    with the twin's times, class and energy drift.  That is exact (see the
    module docstring): a mirrored orbit fails where its twin does, and
    integrate_trajectory(PhasePoint(-z, 0.0)) gives its bits too.
    integrate_trajectory runs any other start.
    """
    fps = fixed_points(params)
    phis = np.linspace(-np.pi, np.pi, PORTRAIT_AZIMUTHS)
    zsep = np.full(phis.shape, np.nan)
    for k, phi in enumerate(phis):
        try:
            zsep[k] = separatrix(phi, params)
        except SeparatrixAbsentError:
            pass  # for 1 < lambda_cl < 2 the curve reaches only the azimuths near pi
    reached = ~np.isnan(zsep)
    phis, zsep = phis[reached], zsep[reached]
    starts = []
    if params.lambda_cl > 2.0:
        z_c0 = separatrix(0.0, params)
        starts = [PhasePoint(frac * z_c0, 0.0) for frac in (0.3, 0.6, 0.9)]
        starts += [PhasePoint(min(1.2 * z_c0, 0.98), 0.0), PhasePoint(min(1.5 * z_c0, 0.99), 0.0)]
    trajectories = _integrate(starts, params, PORTRAIT_T_FINAL, PORTRAIT_DT)
    # 0.0 - x keeps phi0 = 0.0 where -x would give -0.0
    trajectories[3:] = [
        orbit
        for twin in trajectories[3:]
        for orbit in (twin, replace(twin, times=twin.times.copy(), points=0.0 - twin.points))
    ]
    return PhasePortrait(params, fps, phis, zsep, trajectories)
