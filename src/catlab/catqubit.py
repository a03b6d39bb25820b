"""Cat state entangled with an auxiliary qubit: closed forms and a numeric fixture.

The entangled pure state

    (|a>|up> + |d>[ |up> cos(eta) + |down> sin(eta) ]) / sqrt(2)

models a cat whose branches |a> (alive) and |d> (dead) are mirror images on
the J_z lattice, <j_z|a> = <-j_z|d>, and orthogonal with respect to both the
identity and J_z.  Tracing out the qubit leaves

    rho = ( |a><a| + |d><d| + cos(eta) (|a><d| + |d><a|) ) / 2

with exactly two nonzero eigenvalues (1 +/- cos eta)/2 carried by the
symmetric and antisymmetric cats c_+- = (|a> +/- |d>)/sqrt(2).  With the
extensive difference Lambda = |<J_z>_d - <J_z>_a| and the doubled peak width
PW = 2 sqrt(Var_a(J_z)) the quantum Fisher information and indefiniteness
quality take closed forms,

    F_q = Lambda^2 cos^2(eta) + PW^2
    r_q^2 = (Lambda^2 cos^2(eta) + PW^2) / (Lambda^2 + PW^2),

so the indefiniteness condition Lambda r_q > PW holds below the critical
entanglement cos(eta_c) = 1 / alpha^2, alpha = Lambda / PW.

A three-time Leggett-Garg test on the same state (branch-resolving
measurements at 0, 2pi/3, 4pi/3 under a branch-labelling Hamiltonian)
evaluates to 1 - (3/2) cos(eta), negative exactly when the inequality is
violated, so the witness dies at cos(eta) = 2/3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin import TOLERANCES, SpectralDecomp, SpinSpace, state_factor


def _check_eta(eta: float) -> float:
    """Validate the entanglement angle, absorbing float round-off at the edges."""
    if not (-1e-9 <= eta <= np.pi / 2 + 1e-9):
        raise ValueError(f"eta must lie in [0, pi/2], got {eta}")
    return float(min(max(eta, 0.0), np.pi / 2))


@dataclass(frozen=True)
class CatQubitModel:
    """Closed-form parameters: extensive difference, peak width, entanglement angle."""

    lam: float
    peak_width: float
    eta: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.peak_width <= 0:
            raise ValueError(f"peak_width must be > 0, got {self.peak_width}")
        object.__setattr__(self, "eta", _check_eta(self.eta))

    @property
    def alpha(self) -> float:
        return self.lam / self.peak_width


@dataclass(frozen=True)
class SyntheticCat:
    """Mirror-symmetric alive/dead amplitude vectors with disjoint support."""

    space: SpinSpace
    alive: np.ndarray
    dead: np.ndarray

    def jz_moments(self) -> tuple[float, float]:
        """(<J_z>_alive, Var_alive(J_z)); the dead branch mirrors both."""
        m = self.space.m_values
        p = np.abs(self.alive) ** 2
        mean = float(np.dot(p, m))
        var = float(np.dot(p, (m - mean) ** 2))
        return mean, var

    def model(self, eta: float) -> CatQubitModel:
        mean, var = self.jz_moments()
        return CatQubitModel(lam=2.0 * abs(mean), peak_width=2.0 * np.sqrt(var), eta=eta)


def make_synthetic_cat(space: SpinSpace, center: float, width: float) -> SyntheticCat:
    """Discrete-Gaussian cat branches at -center (alive) and +center (dead).

    Amplitudes are truncated to strictly negative m for the alive branch so
    the mirror pair is orthogonal to machine precision; center - 3*width must
    stay positive to keep the truncation negligible.
    """
    if center <= 0 or width <= 0:
        raise ValueError("center and width must be positive")
    if center - 3.0 * width <= 0:
        raise ValueError(
            f"peaks overlap: center - 3*width = {center - 3.0 * width:.3g} must be > 0"
        )
    if center > space.j:
        raise ValueError(f"center {center} exceeds the lattice edge j = {space.j}")
    m = space.m_values
    alive = np.where(m < 0, np.exp(-((m + center) ** 2) / (4.0 * width**2)), 0.0)
    alive = alive.astype(complex)
    alive /= np.linalg.norm(alive)
    dead = alive[::-1].copy()
    overlap = abs(np.vdot(alive, dead))
    cross = abs(np.vdot(alive, m * dead))
    if max(overlap, cross) > TOLERANCES["branch_orthogonality"]:
        raise ValueError(
            f"branches not orthogonal: |<a|d>| = {overlap:.3e}, |<a|Jz|d>| = {cross:.3e}"
        )
    return SyntheticCat(space, alive, dead)


def reduced_density(cat: SyntheticCat, eta: float) -> SpectralDecomp:
    """Spin-sector state after tracing out the auxiliary qubit, as its checked eigensystem:
    weights (1 -/+ cos eta)/2 = sin^2(eta/2), cos^2(eta/2) on c_-+ = (|a> -/+ |d>)/sqrt2."""
    a, d = cat.alive, cat.dead
    p = np.array([np.sin(eta / 2) ** 2, np.cos(eta / 2) ** 2])
    return state_factor(p, np.column_stack([a - d, a + d]) / np.sqrt(2.0))


def analytic_qfi(model: CatQubitModel) -> float:
    """F_q = Lambda^2 cos^2(eta) + PW^2."""
    return model.lam**2 * np.cos(model.eta) ** 2 + model.peak_width**2


def analytic_rq(model: CatQubitModel) -> float:
    """r_q = sqrt((1 + alpha^2 cos^2 eta) / (1 + alpha^2)): no Lambda^2 or PW^2 to overflow."""
    a2 = model.alpha**2
    return float(np.sqrt((1.0 + a2 * np.cos(model.eta) ** 2) / (1.0 + a2)))


def reduced_extdiff(model: CatQubitModel) -> float:
    """Lambda r_q."""
    return model.lam * analytic_rq(model)


def eta_critical(alpha: float) -> float:
    """Entanglement angle where Lambda r_q crosses the peak width.

    cos(eta_c) = 1 / alpha^2; only defined in the separated-peak regime
    alpha >= 1.
    """
    if alpha < 1.0:
        raise ValueError(f"eta_critical needs alpha >= 1, got {alpha}")
    return float(np.arccos(1.0 / alpha**2))


def lg_violation(eta: float) -> float:
    """Three-time Leggett-Garg combination 1 + K12 + K23 + K13 = 1 - (3/2) cos(eta).

    Negative values witness an indefinite vital status; the witness loses
    power at cos(eta) = 2/3.
    """
    return 1.0 - 1.5 * np.cos(_check_eta(eta))
