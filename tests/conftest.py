from functools import lru_cache
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from catlab import SpinSpace, StateLabel, TwistTurnParams, prepare_and_evolve
from catlab.dynamics import PURE_STATE_BETA as PURE_BETA

# the same examples on every run, and no per-example deadline: a numerical
# example's run time depends on the machine, not on the code under test
settings.register_profile("catlab", derandomize=True, deadline=None)
settings.load_profile("catlab")


@pytest.fixture(scope="session")
def space200():
    return SpinSpace(200)


@pytest.fixture(scope="session")
def params200(space200):
    return TwistTurnParams(space=space200, u_int=0.1)


@pytest.fixture(scope="session")
def cold_zero_cat(params200):
    """Pure 0 state evolved 1.4 T_pi: the reference cat at N = 200."""
    return next(prepare_and_evolve(StateLabel.ZERO, PURE_BETA, [1.4], params200))


@pytest.fixture(scope="session")
def cold_pi_cat(params200):
    """Pure pi state evolved 1.0 T_pi."""
    return next(prepare_and_evolve(StateLabel.PI, PURE_BETA, [1.0], params200))


@pytest.fixture(scope="session")
def hot_zero_cat(params200):
    """0 state at temperature 10 eps_tau evolved 1.1 T_pi."""
    return next(prepare_and_evolve(StateLabel.ZERO, 0.1, [1.1], params200))


def skew(monkeypatch, owner, name: str) -> None:
    """Make owner.name, which returns an eigensystem (w, v), skew v off orthonormal by 1e-6."""
    solver = getattr(owner, name)

    def skewed(*args):
        w, v = solver(*args)
        v = v.copy()
        v[:, -1] += 1e-6 * v[:, -2]
        return w, v

    monkeypatch.setattr(owner, name, skewed)


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    """Ginibre-induced random mixed state, optionally rank-limited."""
    k = rank if rank is not None else dim
    a = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def dense(state) -> np.ndarray:
    """rho = V diag(p) V^dag of a state given as its eigensystem (p, V)."""
    p, v = state
    return (v * p) @ v.conj().T


class SpinMatrices(NamedTuple):
    jz: np.ndarray
    jplus: np.ndarray
    jx: np.ndarray
    jy: np.ndarray


@lru_cache(maxsize=4)
def spin_matrices(n: int) -> SpinMatrices:
    """Textbook dense J_z, J_+, J_x, J_y of spin j = n/2, ascending Dicke basis.

    Built entry by entry from <m+1| J_+ |m> = sqrt(j(j+1) - m(m+1)) and
    <m-1| J_- |m> = sqrt(j(j+1) - m(m-1)), independently of SpinSpace.j_band.
    """
    j = n / 2
    jz = np.zeros((n + 1, n + 1), dtype=complex)
    jplus = np.zeros_like(jz)
    jminus = np.zeros_like(jz)
    for k in range(n + 1):
        m = k - j
        jz[k, k] = m
        if k < n:
            jplus[k + 1, k] = np.sqrt(j * (j + 1) - m * (m + 1))
        if k > 0:
            jminus[k - 1, k] = np.sqrt(j * (j + 1) - m * (m - 1))
    mats = SpinMatrices(jz, jplus, (jplus + jminus) / 2, (jplus - jminus) / 2j)
    for a in mats:
        a.flags.writeable = False
    return mats


def dense_j(n: int, axis) -> np.ndarray:
    """J(theta, phi) = n . (J_z, J_x, J_y) from the textbook matrices."""
    nz, nx, ny = axis.unit_vector()
    mats = spin_matrices(n)
    return nz * mats.jz + nx * mats.jx + ny * mats.jy


def tridiagonal(diagonal: np.ndarray, off_diagonal: np.ndarray) -> np.ndarray:
    """The dense symmetric matrix with these two bands."""
    return np.diag(diagonal) + np.diag(off_diagonal, -1) + np.diag(off_diagonal, 1)
