"""Spin Wigner-type quasi-probability on the (z, phi) cylinder.

For a state on the Dicke lattice the distribution is built from the
anti-diagonals of the density matrix,

    W(z_m, phi) = sum_n exp(i 2 n phi) <m+n| rho |m-n>,

summing over every integer n that keeps both indices inside the ladder.
Hermiticity of rho makes W real, and because only the n = 0 term survives
a full phi average, the marginal identity

    (1 / 2 pi) int dphi W(z_m, phi) = <m| rho |m> = P(j_z = m)

holds exactly.  On a uniform phi grid of P points the discrete average
reproduces it exactly whenever P > N (no aliasing of the exp(i 2 n phi)
harmonics, |2n| <= N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin import TOLERANCES, NumericalInvariantError, SpectralDecomp


@dataclass(frozen=True)
class WignerGrid:
    """W(z_m, phi) on the lattice z_m = 2m/N times a uniform phi grid."""

    z_values: np.ndarray
    phi_values: np.ndarray
    values: np.ndarray  # real, shape (N+1, phi_points)

    def phi_average(self) -> np.ndarray:
        """Discrete marginal over phi; equals P(j_z) when phi_points > N."""
        return self.values.mean(axis=1)


def wigner(state: SpectralDecomp, phi_points: int = 256) -> WignerGrid:
    """Evaluate the quasi-probability of a state (p, V) on the (z, phi) cylinder."""
    if phi_points < 4:
        raise ValueError(f"phi_points must be >= 4, got {phi_points}")
    # the anti-diagonals span all of rho: the one read-out that forms it
    rho = (state.vectors * state.values) @ state.vectors.conj().T
    dim = rho.shape[0]
    n_particles = dim - 1
    j = n_particles / 2
    phis = -np.pi + 2.0 * np.pi * np.arange(phi_points) / phi_points
    # coefficient table c[m, n]: the anti-diagonal element <m+n| rho |m-n>, at flat
    # index (m+n) dim + (m-n) of rho, and 0 where either index leaves the ladder
    n_max = dim - 1
    offsets = np.arange(-n_max, n_max + 1)
    idx = np.arange(dim)[:, None]
    coeffs = rho.take(idx * (dim + 1) + offsets * (dim - 1), mode="clip")
    coeffs[np.abs(offsets) > np.minimum(idx, n_max - idx)] = 0
    harmonics = np.exp(1j * 2.0 * np.outer(offsets, phis))
    w = coeffs @ harmonics
    residue = np.abs(w.imag).max()
    if not residue <= TOLERANCES["wigner_imag_residue"]:  # NaN fails it
        raise NumericalInvariantError(f"Wigner values have imaginary residue {residue:.3e}")
    z_values = (np.arange(dim) - j) / j
    return WignerGrid(z_values, phis, w.real)


def ridge_circular_spread(grid: WignerGrid) -> tuple[float, float]:
    """Phase spread of |W| on each z half-plane, from the doubled angle.

    The lattice-symmetric kernel carries only even harmonics, so W is
    exactly pi-periodic in phi and the first circular moment vanishes for
    every state.  The meaningful localization statistic is therefore the
    circular standard deviation of the doubled angle, halved back:
    sqrt(-2 ln |<exp(i 2 phi)>|) / 2.  A coherent state scores ~ 0.1 rad;
    branches smeared along the equator score an order of magnitude more.
    """
    spreads = []
    for mask in (grid.z_values < 0, grid.z_values > 0):
        weight = np.abs(grid.values[mask]).sum(axis=0)
        total = weight.sum()
        if total == 0:
            spreads.append(np.inf)
            continue
        c = float(np.dot(weight, np.cos(2.0 * grid.phi_values)) / total)
        s = float(np.dot(weight, np.sin(2.0 * grid.phi_values)) / total)
        r = np.hypot(c, s)
        spreads.append(float(np.sqrt(-2.0 * np.log(r)) / 2.0) if r > 0 else np.inf)
    return spreads[0], spreads[1]
