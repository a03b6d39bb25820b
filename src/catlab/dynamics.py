"""Twist-and-turn dynamics: Hamiltonian, exact evolution, cat-creation schedule.

The two-mode Hamiltonian with hopping energy t and interaction energy u is

    H = (u/2) (n_1 - n_2)^2 - t (a1^dag a2 + a2^dag a1)

which in collective-spin form (n_1 - n_2 = 2 J_z, mode exchange = 2 J_x) reads

    H = 2 u J_z^2 - 2 J_x.

The hopping energy sets the time unit, t = 1, so u is in units of t and one
coupling, lambda_cl = u N, fixes the mean-field portrait and the 0 state's
start.  This sign puts the unstable mean-field fixed point at (z = 0, phi = pi),
as in the paper's Figure 1.  The paper's Eq. 5 writes the hopping with the
other sign, 2 u J_z^2 + 2 J_x, which is this H conjugated by exp(i pi J_z)
(J_x -> -J_x, J_y -> -J_y): a state started at (z, phi + pi) under it is the
gauge image of this H's state started at (z, phi).  Every counting statistic
and Fisher information agrees, and the axis map turns by pi in phi.

Starting a coherent (or partially condensed thermal) state on the separatrix
and evolving for the schedule time

    T_pi = ln(8N) / (N u)        (pi state; 1.4 T_pi for the 0 state)

splits it into the two macroscopically distinct branches of a cat.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import classical
from .spin import (
    ParityEigensystem,
    SpectralDecomp,
    SpinSpace,
    panelled,
    thermal_state,
    tridiagonal_eigensystem,
    turn,
)

#: beta_scaled of zero temperature.  e^{-beta} is exactly 0.0 past spin.EXP_UNDERFLOW, so
#: every weight below the top eigenstate underflows at every N: the state is the
#: spin coherent state itself, one column.
PURE_STATE_BETA = 1000.0


def beta_scaled_of(beta_inv: float) -> float:
    """beta_scaled for a temperature beta_inv in units of eps_tau (0 means pure)."""
    return PURE_STATE_BETA if beta_inv == 0 else 1.0 / beta_inv


class StateLabel(enum.Enum):
    """Canonical initial states, named by their phase-space azimuth."""

    PI = "pi"
    ZERO = "zero"


@dataclass(frozen=True)
class TwistTurnParams:
    """Couplings of the twist-and-turn Hamiltonian on a given spin space, in units of t."""

    space: SpinSpace
    u_int: float = 0.1

    def __post_init__(self):
        if not (np.isfinite(self.u_int) and self.u_int >= 0):
            raise ValueError(f"u_int must be >= 0, got {self.u_int}")

    @property
    def lambda_cl(self) -> float:
        """Mean-field coupling u N controlling the classical phase portrait."""
        lam = self.u_int * self.space.n_particles
        if not math.isfinite(lam):
            raise ValueError(f"u_int {self.u_int!r}: lambda_cl = u N overflows")
        return lam


Bands = tuple[np.ndarray, np.ndarray]


def build_hamiltonian(params: TwistTurnParams) -> Bands:
    """Twist-and-turn H as its real Dicke bands: (2u m^2, -2 <m+1| J_x |m>)."""
    space, j = params.space, params.space.j
    # a finite Gershgorin bound keeps every entry and eigenvalue of H finite
    if not math.isfinite(2.0 * params.u_int * j * j + 2.0 * math.sqrt(j * j + j)):
        raise ValueError(f"u_int {params.u_int!r}: H overflows")
    # 2 <m+1| J_x |m> is J_+'s band
    return 2.0 * params.u_int * space.m_values**2, -space.j_band


def t_pi(space: SpinSpace, u_int: float) -> float:
    """Cat-creation time ln(8N) / (N u) in units of hbar / t (natural log)."""
    if not (np.isfinite(u_int) and u_int > 0):
        raise ValueError(f"t_pi requires u_int > 0, got {u_int}")
    n = space.n_particles
    return float(np.log(8 * n) / (n * u_int))


class Propagator:
    """Unitary evolution under a fixed real tridiagonal Hamiltonian via one eigendecomposition.

    H's bands must be mirror-symmetric (H commutes with |m> -> |-m>, as every
    build_hamiltonian result does), so H's real eigensystem is its two parity
    blocks (w, U), each solved from its bands by LAPACK's tridiagonal solver
    (spin._stevd, with no dense matrix), checked once and reused for every duration.
    Each block is kept as its dense panels (spin.panelled), which hold only the
    nonzero windows of its columns: a third of the block at N = 800.  A state
    (p, V) evolves to (p, exp(-i H tau) V) by spin.turn: only its r support
    columns move, folded into the two sectors, at O(r) times the panels' size
    per duration.  Instances are immutable and safe to share across workers.
    """

    def __init__(self, hamiltonian: Bands):
        even, odd = tridiagonal_eigensystem(*hamiltonian)
        even = panelled(even)  # a dense block goes once its panels are made
        self._eigensystem = ParityEigensystem(even, panelled(odd))
        #: max|w|: the phases w tau are finite while tau times this is
        self.max_frequency = float(max(np.abs(w).max() for w, _ in self._eigensystem))

    def evolve(self, state: SpectralDecomp, duration: float) -> SpectralDecomp:
        dim = sum(w.size for w, _ in self._eigensystem)
        if state.vectors.shape[0] != dim:
            raise ValueError(f"dimension mismatch: state {state.vectors.shape[0]}, H {dim}")
        if not (duration >= 0 and np.isfinite(duration * self.max_frequency)):
            raise ValueError(f"duration must be >= 0 with finite phases w tau, got {duration}")
        if duration == 0:
            return state
        return SpectralDecomp(state.values, turn(self._eigensystem, duration, state.vectors))


@lru_cache(maxsize=1)
def propagator(params: TwistTurnParams) -> Propagator:
    """Propagator of params' Hamiltonian, kept for the next call: a sweep has one H."""
    return Propagator(build_hamiltonian(params))


def evolve(state: SpectralDecomp, hamiltonian: Bands, duration: float) -> SpectralDecomp:
    """Evolve a state by exp(-iH tau) for a mirror-symmetric tridiagonal H, given as its bands."""
    return Propagator(hamiltonian).evolve(state, duration)


def initial_condition(state_label: StateLabel, params: TwistTurnParams) -> tuple[float, float]:
    """Phase-space start (z, phi) of the canonical states.

    The pi state sits on the unstable fixed point (z = 0, phi = pi).  The 0
    state sits on the separatrix crossing at phi = 0, whose height z_c(0) is
    taken from the mean-field portrait for the same couplings.
    """
    if state_label is StateLabel.PI:
        return 0.0, np.pi
    return classical.separatrix(0.0, classical.MeanFieldParams(params.lambda_cl)), 0.0


def prepare_and_evolve(
    state_label: StateLabel,
    beta_scaled: float,
    time_factors: Iterable[float],
    params: TwistTurnParams,
) -> Iterator[SpectralDecomp]:
    """Prepare a pi/0 thermal state and evolve it for each time_factor * T_pi.

    H's eigensystem, the run's one LAPACK eigensystem, and then the state are
    built here, once, so bad input raises at the call.  The evolved states are
    then yielded one at a time, in the order of time_factors.  Each carries the
    weights of the prepared state and its evolved eigenvectors, so no evolved
    state is diagonalized.
    """
    factors = list(time_factors)
    tpi = t_pi(params.space, params.u_int)
    z, phi = initial_condition(state_label, params)
    # H's eigensystem first, while nothing else is held: its solver's workspace is freed
    # before a hot state's columns are allocated, and the peak is lower
    prop = propagator(params)
    state = thermal_state(params.space, beta_scaled, z, phi)
    for f in factors:
        if not (f >= 0 and np.isfinite(f * tpi * prop.max_frequency)):
            raise ValueError(f"time factor {f}: needs f >= 0 and finite phases w f T_pi ({tpi:.6g})")
    return (prop.evolve(state, f * tpi) for f in factors)
