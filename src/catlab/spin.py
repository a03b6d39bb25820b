"""Collective-spin Hilbert space for N bosons in two modes.

N particles in two modes map onto a single spin j = N/2 via the Schwinger
representation: the population difference is n_1 - n_2 = 2 J_z and mode
exchange (a1^dag a2 + a2^dag a1) = 2 J_x.  The state space is the Dicke
ladder |m>, m = -j ... +j, stored in ascending m order.  J_z is diagonal and
J_+ has one band (SpinSpace.j_band): J is kept as these bands, never dense.

Conventions fixed in this module:
  * hbar = 1; the hopping energy defines the time unit and the
    condensation energy scale eps_tau defines the temperature unit.
  * J(theta, phi) = J_z cos(theta) + J_x sin(theta) cos(phi)
                  + J_y sin(theta) sin(phi)   (unit-vector decomposition)
                  = D J(theta, 0) D^dag,  D = diag(e^{-i phi m}), J(theta, 0) real.
  * Rotations are U(alpha, theta, phi) = exp(-i alpha J(theta, phi)).
  * Thermal states use a positive exponent,
        rho(beta, z, phi) = exp(beta * J(acos z, phi)) / Z,
    so beta -> inf selects the top eigenvector: the spin coherent state
    pointing along (acos z, phi).  The sign is recorded in run manifests.

All matrix functions (exponentials, thermal weights) go through an exact
eigendecomposition of a real tridiagonal matrix rather than series
truncation; at dim ~ 10^3 this is cheap and leaves no convergence knob.

A state is its eigensystem (p, V) on its support, rho = V diag(p) V^dag:
weights that underflow to exactly 0 add nothing to any read-out, so only
the columns with p > 0 are kept and nothing is truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-9
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10


class NumericalInvariantError(RuntimeError):
    """A matrix failed one of the exactness checks (hermiticity, trace, ...)."""


class SpectralDecomp(NamedTuple):
    """Eigensystem of a Hermitian matrix, or of a state on its support."""

    values: np.ndarray
    vectors: np.ndarray


def spectral_decomp(a: np.ndarray) -> SpectralDecomp:
    """Eigendecomposition of a Hermitian matrix (validated)."""
    assert_hermitian(a)
    w, v = np.linalg.eigh(a)
    return SpectralDecomp(w, v)


@dataclass(frozen=True)
class SpinSpace:
    """The (N+1)-dimensional Dicke space of N two-mode bosons.

    Basis states |m>, m = -j ... +j ascending, are eigenstates of J_z.
    N must be even so j = N/2 is an integer and z = cos(theta) maps onto
    the lattice m/j without half-integer offsets.
    """

    n_particles: int

    def __post_init__(self):
        n = self.n_particles
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise ValueError(f"n_particles must be an integer, got {n!r}")
        if n < 2 or n % 2 != 0:
            raise ValueError(f"n_particles must be even and >= 2, got {n}")

    @property
    def j(self) -> float:
        return self.n_particles / 2

    @property
    def dim(self) -> int:
        return self.n_particles + 1

    @cached_property
    def m_values(self) -> np.ndarray:
        """J_z eigenvalues, ascending: -j, -j+1, ..., +j."""
        return np.arange(-self.j, self.j + 1)

    @cached_property
    def j_band(self) -> np.ndarray:
        """<m+1| J_+ |m> = sqrt(j(j+1) - m(m+1)) for m = -j ... j-1."""
        m = self.m_values[:-1]
        return np.sqrt(self.j * (self.j + 1) - m * (m + 1))


@lru_cache(maxsize=16)
def space_for_dim(dim: int) -> SpinSpace:
    """The process-wide SpinSpace of dimension N+1, so its bands are built once."""
    if dim < 3 or dim % 2 == 0:
        raise ValueError(f"dimension {dim} is not an N+1 with even N >= 2")
    return SpinSpace(dim - 1)


def canonicalize_angles(theta: float, phi: float) -> tuple[float, float]:
    """Fold (theta, phi) into theta in [0, pi], phi in [-pi, pi)."""
    if not (np.isfinite(theta) and np.isfinite(phi)):
        raise ValueError("axis angles must be finite")
    theta = float(np.mod(theta, 2 * np.pi))
    if theta > np.pi:
        theta = 2 * np.pi - theta
        phi = phi + np.pi
    phi = float(np.mod(phi + np.pi, 2 * np.pi) - np.pi)
    return theta, phi


@dataclass(frozen=True)
class SpinAxis:
    """A direction on the Bloch sphere, theta in [0, pi], phi in [-pi, pi)."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        th, ph = canonicalize_angles(self.theta, self.phi)
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "phi", ph)

    def unit_vector(self) -> np.ndarray:
        """Cartesian components ordered (z, x, y) to match the J triple."""
        return np.array(
            [
                np.cos(self.theta),
                np.sin(self.theta) * np.cos(self.phi),
                np.sin(self.theta) * np.sin(self.phi),
            ]
        )


X_AXIS = SpinAxis(np.pi / 2, 0.0)
Y_AXIS = SpinAxis(np.pi / 2, np.pi / 2)
Z_AXIS = SpinAxis(0.0, 0.0)


def apply_j(space: SpinSpace, axis: SpinAxis, x: np.ndarray) -> np.ndarray:
    """J(axis) x = cos(theta) m x + sin(theta)/2 (e^{-i phi} J_+ + e^{i phi} J_-) x at O(N r)."""
    half = 0.5 * np.sin(axis.theta) * space.j_band[:, None]
    out = np.asarray(np.cos(axis.theta) * space.m_values[:, None] * x, dtype=complex)
    out[1:] += np.exp(-1j * axis.phi) * (half * x[:-1])
    out[:-1] += np.exp(1j * axis.phi) * (half * x[1:])
    return out


def tridiagonal_eigensystem(diagonal: np.ndarray, off_diagonal: np.ndarray) -> SpectralDecomp:
    """Eigensystem of the real symmetric tridiagonal matrix with these bands, read-only."""
    a = np.diag(diagonal) + np.diag(off_diagonal, -1) + np.diag(off_diagonal, 1)
    dec = SpectralDecomp(*np.linalg.eigh(a))
    for arr in dec:
        arr.flags.writeable = False
    return dec


@lru_cache(maxsize=2)
def axis_eigensystem(space: SpinSpace, theta: float) -> SpectralDecomp:
    """Real eigensystem of J(theta, 0), with orthonormal eigenvectors.

    Every azimuth shares it, since J(theta, phi) = D J(theta, 0) D^dag with
    D = diag(e^{-i phi m}); a sweep uses two polar angles, its state's and
    its read-out's.
    """
    dec = tridiagonal_eigensystem(
        np.cos(theta) * space.m_values, 0.5 * np.sin(theta) * space.j_band
    )
    assert_unitary(dec.vectors)
    return dec


def _gauge(space: SpinSpace, phi: float) -> np.ndarray:
    """Diagonal of D = diag(e^{-i phi m})."""
    return np.exp(-1j * phi * space.m_values)


def rotation(space: SpinSpace, alpha: float, axis: SpinAxis, x: np.ndarray) -> np.ndarray:
    """U x on a column block x, U = exp(-i alpha J(axis)) = D R e^{-i alpha w} R^T D^dag."""
    if not np.isfinite(alpha):
        raise ValueError("rotation angle must be finite")
    w, r = axis_eigensystem(space, axis.theta)
    d = _gauge(space, axis.phi)[:, None]
    return d * (r @ (np.exp(-1j * alpha * w)[:, None] * (r.T @ (d.conj() * x))))


def coherent_state(space: SpinSpace, axis: SpinAxis) -> np.ndarray:
    """Spin coherent state pointing along the axis (top eigenvector of J(axis))."""
    vec = _gauge(space, axis.phi) * axis_eigensystem(space, axis.theta).vectors[:, -1]
    # fix the overall phase so results do not depend on LAPACK sign choices
    k = int(np.argmax(np.abs(vec)))
    vec *= np.exp(-1j * np.angle(vec[k]))
    return vec


def thermal_state(space: SpinSpace, beta_scaled: float, z: float, phi: float) -> SpectralDecomp:
    """Thermal state exp(beta * J(acos z, phi)) / Z of the condensation Hamiltonian.

    beta_scaled is beta * eps_tau, the only temperature parameter exposed.
    The positive exponent means beta -> inf concentrates the state onto the
    spin coherent state at phase-space point (z, phi).  Returned as its
    checked eigensystem on the J(axis) eigenbasis D R (see axis_eigensystem).
    """
    if not np.isfinite(beta_scaled) or beta_scaled < 0:
        raise ValueError(f"beta_scaled must be >= 0, got {beta_scaled}")
    if abs(z) > 1:
        raise ValueError(f"imbalance z must lie in [-1, 1], got {z}")
    axis = SpinAxis(float(np.arccos(z)), phi)
    w, v = axis_eigensystem(space, axis.theta)
    p = np.exp(beta_scaled * (w - w.max()))
    p, v = state_factor(p / p.sum(), v, orthonormal=True)  # checked in axis_eigensystem
    return SpectralDecomp(p, _gauge(space, axis.phi)[:, None] * v)


def assert_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    scale = np.abs(a).max()
    if scale == 0:
        return
    dev = np.abs(a - a.conj().T).max()
    if dev > tol * scale:
        raise NumericalInvariantError(f"matrix not Hermitian: max|A - A^dag| = {dev:.3e}")


def assert_unitary(u: np.ndarray, tol: float = UNITARITY_TOL) -> None:
    """Check U^dag U = I, i.e. orthonormal columns (U may be N x r)."""
    dev = np.abs(u.conj().T @ u - np.eye(u.shape[1])).max()
    if dev > tol:
        raise NumericalInvariantError(f"matrix not unitary: max|U^dag U - I| = {dev:.3e}")


def state_factor(p: np.ndarray, vectors: np.ndarray, orthonormal: bool = False) -> SpectralDecomp:
    """The one state check: weights p on columns V, kept where p > 0.

    p >= 0 summing to 1 on orthonormal columns is a density matrix; a
    unitary keeps all three, so evolved states are not checked again.
    orthonormal=True skips the column check, for columns checked where built.
    """
    if p.min() < 0:
        raise NumericalInvariantError(f"negative state weight {p.min():.3e}")
    if abs(p.sum() - 1.0) > TRACE_TOL:
        raise NumericalInvariantError(f"trace deviates from 1 by {abs(p.sum() - 1.0):.3e}")
    keep = p > 0
    v = vectors[:, keep]
    if not orthonormal:
        assert_unitary(v)
    return SpectralDecomp(p[keep], v)


def state_eigensystem(rho: np.ndarray) -> SpectralDecomp:
    """Checked eigensystem of a dense density matrix: where a matrix from outside enters.

    rho must be Hermitian with no eigenvalue below the round-off floor;
    round-off negatives are clamped to 0 before state_factor.
    """
    w, v = spectral_decomp(rho)
    if w.min() < EIGENVALUE_FLOOR:
        raise NumericalInvariantError(f"negative eigenvalue {w.min():.3e} below round-off floor")
    return state_factor(np.clip(w, 0.0, None), v)


def assert_density_matrix(rho: np.ndarray) -> None:
    """Check rho where nothing needs its spectrum (see state_eigensystem)."""
    state_eigensystem(rho)
