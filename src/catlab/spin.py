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
                  = D J(theta, 0) D^dag,  D = D(phi) = diag(e^{-i phi m}), J(theta, 0) real.
  * Rotations are U(alpha, theta, phi) = exp(-i alpha J(theta, phi)), and
    rotation is the one routine that applies one, by its ZXZ Euler angles
        U = D(phi + lam) e^{-i beta J_x} D(lam - phi),
        lam = atan2(s cos theta, c),  beta = 2 atan2(s sin theta, hypot(c, s cos theta))
    with s, c = sin, cos(alpha/2): an SU(2) identity, so it holds for every j.
    So every rotation is at most one turn about J_x, from its one real
    eigensystem (jx_eigensystem), between two gauges.  On the equator
    lam = 0 and beta = alpha solve it exactly and are used as they are; at a
    pole beta = 0 and the turn is skipped; alpha = 0 returns the input.
  * Thermal states use a positive exponent,
        rho(beta, z, phi) = exp(beta * J(acos z, phi)) / Z,
    so beta -> inf selects the top eigenvector: the spin coherent state
    pointing along (acos z, phi).  Past beta = EXP_UNDERFLOW every lower
    weight e^{-beta k} is exactly 0.0, and thermal_state returns that
    coherent state as one column.  The sign is recorded in run manifests.

All matrix functions (exponentials, thermal weights) go through an exact
eigendecomposition rather than series truncation, which leaves no
convergence knob.  The only eigensystems are J_x's and H's: both matrices
are real, tridiagonal and commute with the parity |m> -> |-m>, so each
splits into two half-size blocks, kept as they are: no (N+1)^2 eigenvector
matrix is built (tridiagonal_eigensystem).  J_x's blocks are in closed
form (jx_eigensystem: integer eigenvalues, eigenvectors from a recurrence),
so H is the only matrix diagonalized, each block by LAPACK's tridiagonal
divide and conquer (_stevd), with no dense matrix.  Each block's
eigenvectors are checked orthonormal where they are made: from their
residuals and the spectrum's gaps where those prove it, at O(N^2), else by
their Gram in column panels (assert_eigenvectors, assert_unitary).  H's are
then kept as dense panels, one per row window
outside which its columns are exactly zero (panelled); J_x's dense blocks
are one panel each.  turn is the one routine that reads them: it folds the
columns x into the two parity sectors and applies exp(-i t A) as two real
GEMMs per panel (real_matmul), for the read-out's J_x and the evolution's H
alike.

A state is its eigensystem (p, V) on its support, rho = V diag(p) V^dag:
weights that underflow to exactly 0 add nothing to any read-out, so only
the columns with p > 0 are kept and nothing is truncated.
"""

from __future__ import annotations

import ctypes
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

#: float64's underflow exponent: e^{-x} is exactly 0.0 from x = 745.14 on, and not at 745.13
EXP_UNDERFLOW = 745.14

#: every numerical slack in catlab, by name; each run's manifest records the table.
#: Exact decisions take none: a saddle is q > 0 in its +/- sqrt(q), z_c = 0 is cos(phi) = -1.
TOLERANCES = {
    "hermiticity": 1e-10,  # max|A - A^dag|, relative to max|A|
    "unitarity": 1e-9,  # max|U^dag U - I|
    "trace": 1e-10,  # |sum p - 1| of a state
    "eigenvalue_floor": -1e-10,  # lowest eigenvalue a density matrix may round to
    "probability_floor": -1e-12,  # lowest read-out probability before clamping
    "probability_sum": 1e-9,  # |sum p - 1| of a read-out distribution
    "fisher_weight_cutoff": 1e-12,  # CFI bins with p_r below it are skipped (0/0)
    "fisher_ratio": 1e-9,  # slack on 0 <= r_c and r_q <= 1
    "fisher_chain_rel": 1e-6,  # F_c <= F_q (1 + rel) + abs
    "fisher_chain_abs": 1e-12,
    "wigner_imag_residue": 1e-9,  # max|Im W|
    "energy_drift": 1e-6,  # max|H_cl(t) - H_cl(0)| of a mean-field orbit
    "separatrix_bisection": 1e-12,  # width of the final bracket on z_c(phi)
    "cat_split_at_mean": 1e-9,  # |m - <m>| of a bin in neither half, rel. to max(1, |<m>|)
    "branch_orthogonality": 1e-10,  # |<a|d>| and |<a|J_z|d>| of a synthetic cat's branches
    "eta_range": 1e-9,  # round-off an entanglement angle may lie outside [0, pi/2]
}


class NumericalInvariantError(RuntimeError):
    """A matrix failed one of the exactness checks (hermiticity, trace, ...)."""


class Panel(NamedTuple):
    """Columns cols of an eigenvector block that are zero outside rows: U[rows, cols]."""

    rows: slice
    cols: slice
    vectors: np.ndarray


class SpectralDecomp(NamedTuple):
    """Eigensystem of a Hermitian matrix, or of a state on its support."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def panels(self) -> tuple[Panel, ...]:
        """Dense eigenvectors as the one panel: every row, every column."""
        rows, cols = self.vectors.shape
        return (Panel(slice(0, rows), slice(0, cols), self.vectors),)


class PanelledDecomp(NamedTuple):
    """Eigensystem whose eigenvectors are kept as dense panels (panelled)."""

    values: np.ndarray
    panels: tuple[Panel, ...]


def spectral_decomp(a: np.ndarray) -> SpectralDecomp:
    """Eigendecomposition of a Hermitian matrix, checked Hermitian to TOLERANCES first."""
    dev = np.abs(a - a.conj().T).max()
    if dev > TOLERANCES["hermiticity"] * np.abs(a).max():
        raise NumericalInvariantError(f"matrix not Hermitian: max|A - A^dag| = {dev:.3e}")
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


def _dense_tridiagonal(diagonal: np.ndarray, off_diagonal: np.ndarray) -> np.ndarray:
    return np.diag(diagonal) + np.diag(off_diagonal, -1) + np.diag(off_diagonal, 1)


class ParityEigensystem(NamedTuple):
    """Eigensystem of a mirror-symmetric real tridiagonal matrix of size N + 1, as its
    parity blocks: with c = N/2, even on (|m> + |-m>)/sqrt2 for m < 0 and on |0>
    (c + 1 rows), odd on (|m> - |-m>)/sqrt2 (c rows); turn folds columns into them."""

    even: SpectralDecomp
    odd: SpectralDecomp


def _eigh(diagonal: np.ndarray, off_diagonal: np.ndarray) -> SpectralDecomp:
    """A block's eigensystem from the dense matrix: _stevd's fallback and the tests' oracle."""
    return SpectralDecomp(*np.linalg.eigh(_dense_tridiagonal(diagonal, off_diagonal)))


#: names of LAPACK's dstevd with 64-bit integers, the only width accepted
_STEVD_SYMBOLS = ("scipy_dstevd_64_", "dstevd_64_")

#: names of OpenBLAS's thread-count setter: numpy's own 64-bit builds, then the plain ones
_SET_THREADS_SYMBOLS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                        "scipy_openblas_set_num_threads", "openblas_set_num_threads")


@lru_cache(maxsize=1)
def _linalg_library() -> ctypes.CDLL:
    """numpy.linalg's extension, opened once: its own dependencies resolve the BLAS and
    LAPACK routines it links, so nothing is loaded."""
    return ctypes.CDLL(np.linalg._umath_linalg.__file__)


def _linked_routine(names: tuple[str, ...]):
    """The first of names that numpy.linalg's libraries export, or None."""
    lib = _linalg_library()
    return next((f for f in (getattr(lib, name, None) for name in names) if f is not None), None)


@lru_cache(maxsize=1)
def _lapack_stevd() -> Callable[..., None] | None:
    """dstevd from the LAPACK that numpy.linalg already links, or None where it exports none
    of _STEVD_SYMBOLS."""
    routine = _linked_routine(_STEVD_SYMBOLS)
    if routine is not None:
        # JOBZ, then ten pointers, then the hidden length of JOBZ that gfortran appends
        routine.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * 10 + [ctypes.c_size_t]
        routine.restype = None
    return routine


def _pin_blas_threads() -> bool:
    """Set OpenBLAS to one thread in this process and so in every process it forks; False
    where numpy.linalg links none of _SET_THREADS_SYMBOLS, and the environment's count holds."""
    setter = _linked_routine(_SET_THREADS_SYMBOLS)
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)
    return setter is not None


#: whether BLAS runs one thread per process, pinned at import before any product: a
#: threaded product can round differently (the bits then follow the thread count), and
#: on the small products of a sweep its wake-ups cost more than the second thread gains
BLAS_PINNED = _pin_blas_threads()


def _stevd(diagonal: np.ndarray, off_diagonal: np.ndarray) -> SpectralDecomp:
    """A block's eigensystem by LAPACK's tridiagonal divide and conquer, dstevd (Gu and
    Eisenstat, SIAM J. Matrix Anal. Appl. 16, 172 (1995)), with no dense matrix.

    On a tridiagonal matrix eigh's dsyevd reduces by identity reflectors and runs the
    same dstedc, so the bits are eigh's; so is the layout, the eigenvectors as C-ordered
    columns.  Where no 64-bit dstevd resolves, the dense eigh runs.
    """
    routine = _lapack_stevd()
    if routine is None:
        return _eigh(diagonal, off_diagonal)
    n = diagonal.size
    if diagonal.shape != (n,) or off_diagonal.shape != (n - 1,):
        raise ValueError(f"dstevd needs bands of n, n - 1 entries: {n}, {off_diagonal.size}")
    values = np.array(diagonal, dtype=float)  # overwritten by the eigenvalues, ascending
    off = np.append(np.asarray(off_diagonal, dtype=float), 0.0)  # destroyed; a spare at n = 1
    z = np.empty((n, n))  # LAPACK's column-major Z: row k of z is eigenvector k
    work, iwork = np.empty(1 + 4 * n + n * n), np.empty(3 + 5 * n, dtype=np.int64)
    ints = np.array([n, work.size, iwork.size, 0], dtype=np.int64)  # N = LDZ, LWORK, LIWORK, INFO
    at = [ints.ctypes.data + k * ints.itemsize for k in range(ints.size)]
    routine(b"V", at[0], values.ctypes.data, off.ctypes.data, z.ctypes.data, at[0],
            work.ctypes.data, at[1], iwork.ctypes.data, at[2], at[3], 1)
    if ints[3]:
        raise np.linalg.LinAlgError(f"LAPACK dstevd failed with INFO = {ints[3]}")
    del work, iwork
    return SpectralDecomp(values, np.ascontiguousarray(z.T))


def tridiagonal_eigensystem(
    diagonal: np.ndarray,
    off_diagonal: np.ndarray,
    solve: Callable[[np.ndarray, np.ndarray], SpectralDecomp] | None = None,
) -> ParityEigensystem:
    """Eigensystem of a mirror-symmetric real tridiagonal matrix of odd size, read-only.

    Such a matrix (J_x, H) commutes with the parity |m> -> |-m>, so with c = N/2
    it splits into an even block (bands d[:c+1] and e[:c-1], sqrt2 e[c-1]) and an
    odd block (bands d[:c], e[:c-1]); solve(d, e) gives each block's eigensystem
    alone (LAPACK's tridiagonal solver _stevd by default), which is checked
    orthonormal and kept as it comes.
    """
    solve = solve or _stevd
    n = diagonal.size
    if not (
        n >= 3
        and n % 2 == 1
        and off_diagonal.size == n - 1
        and np.array_equal(diagonal, diagonal[::-1])
        and np.array_equal(off_diagonal, off_diagonal[::-1])
    ):
        raise ValueError("tridiagonal_eigensystem needs mirror-symmetric bands of odd size >= 3")
    c = n // 2
    even_off = np.append(off_diagonal[: c - 1], np.sqrt(2.0) * off_diagonal[c - 1])
    bands = ((diagonal[: c + 1], even_off), (diagonal[:c], off_diagonal[: c - 1]))
    blocks = ParityEigensystem(*(solve(d, e) for d, e in bands))
    for (d, e), block in zip(bands, blocks):
        # orthonormal blocks give orthonormal eigenvectors: every eigensystem is checked here
        assert_eigenvectors(d, e, block)
        block.values.flags.writeable = block.vectors.flags.writeable = False
    return blocks


def panelled(block: SpectralDecomp) -> PanelledDecomp:
    """A block's eigenvectors as dense read-only panels, one per distinct row window.

    A column's window runs from its first nonzero row to its last + 1.  The deflation
    in LAPACK's divide and conquer leaves most of H's eigenvectors exactly zero
    outside a window: on the sweeps' couplings a third to a half of each block lies
    in 11-16 windows.  The columns are sorted by window, first row ascending and the
    widest first, with the eigenvalues permuted alike, so the first panel starts at
    row 0 (every row of an orthonormal block has a nonzero).
    """
    w, u = block
    nonzero = u != 0
    first = nonzero.argmax(axis=0)
    stop = u.shape[0] - nonzero[::-1].argmax(axis=0)
    del nonzero  # n^2 bytes, freed before the panels are copied
    order = np.lexsort((-stop, first))
    first, stop = first[order], stop[order]
    edges = np.flatnonzero((np.diff(first) != 0) | (np.diff(stop) != 0)) + 1
    bounds = [0, *edges.tolist(), u.shape[1]]
    panels = []
    for lo, hi in zip(bounds, bounds[1:]):
        rows = slice(int(first[lo]), int(stop[lo]))
        vectors = np.take(u[rows], order[lo:hi], axis=1)
        vectors.flags.writeable = False
        panels.append(Panel(rows, slice(lo, hi), vectors))
    values = w[order]
    values.flags.writeable = False
    return PanelledDecomp(values, tuple(panels))


#: a recurrence column is scaled down by this power of two, exactly, whenever an entry
#: passes it; one step grows it by at most sqrt(2j) + 1, so no square or sum overflows
_RESCALE = 2.0**200


def _jx_block(diagonal: np.ndarray, band: np.ndarray) -> SpectralDecomp:
    """Eigensystem of a parity block of J_x (zero diagonal, band b, n rows) in closed form.

    Its eigenvalues are mu = 1 - n, 3 - n, ..., n - 1: -j, -j + 2, ..., j for the
    even block and the integers between for the odd one.  Each eigenvector is a
    Krawtchouk function (Koornwinder, SIAM J. Math. Anal. 13, 1011 (1982)), the
    column x of the recurrence that A x = mu x reads as,

        x_0 = 1,   x_{k+1} = (mu x_k - b_{k-1} x_{k-1}) / b_k,

    then normalized.  Run inward from the |m| = j edge, the wanted solution is the
    dominant one, so the recurrence is stable (Gautschi, SIAM Rev. 9, 24 (1967));
    a column is scaled down whenever it passes _RESCALE.
    """
    values = np.arange(1.0 - diagonal.size, diagonal.size, 2.0)
    x = np.empty((diagonal.size, diagonal.size))
    x[0] = 1.0
    for k, b in enumerate(band):
        row = np.multiply(values, x[k], out=x[k + 1])
        if k:
            row -= band[k - 1] * x[k - 1]
        row /= b
        if max(row.max(), -row.min()) > _RESCALE:
            x[: k + 2, np.abs(row) > _RESCALE] /= _RESCALE
    x /= np.sqrt(np.einsum("ij,ij->j", x, x))
    # subnormal entries, which a large N leaves, are below any tolerance and slow every GEMM
    for row in x:
        row[np.abs(row) < np.finfo(float).tiny] = 0.0
    return SpectralDecomp(values, x)


@lru_cache(maxsize=1)
def jx_eigensystem(space: SpinSpace) -> ParityEigensystem:
    """Real eigensystem R of J_x as its parity blocks, in closed form (_jx_block, no LAPACK
    call) and checked where it is made: the basis of every rotation.

    A rotation about any axis is one turn about J_x between the gauges of its
    ZXZ Euler angles (rotation), so one eigensystem serves every axis; a run has
    one N.
    """
    return tridiagonal_eigensystem(np.zeros(space.dim), 0.5 * space.j_band, _jx_block)


def real_matmul(r: np.ndarray, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = r @ z for a real matrix r and complex columns z, as one real GEMM on the
    (re, im) views of z and of the complex array out.

    numpy's own r @ z casts all of r to complex on every product.
    """
    np.matmul(r, np.ascontiguousarray(z, dtype=complex).view(np.float64), out=out.view(np.float64))
    return out


def _gauge(space: SpinSpace, phi: float) -> np.ndarray:
    """Diagonal of D(phi) = diag(e^{-i phi m})."""
    return np.exp(-1j * phi * space.m_values)


def turn(eigensystem: ParityEigensystem, t: float, x: np.ndarray) -> np.ndarray:
    """exp(-i t A) x for A's parity eigensystem: two real GEMMs per panel.

    With c = N/2, rows k < c and N - k of x fold into the even sector as
    (x_k + x_{N-k})/sqrt2, with row c, and into the odd sector as (x_k - x_{N-k})/sqrt2.
    Each sector turns as U (e^{-i t w} * U^T x_s), panel by panel (a block's .panels;
    a dense block, as J_x's are, is one panel): a panel's coefficients read only
    its rows, and the turned sector is the sum of every panel's rows.  Then the
    result unfolds.  Two (N+1)-row buffers are all it allocates: the folded columns,
    which then take the turned sectors, and the sectors, which then take the
    result; the sector not in use holds a panel's product before it is added.
    """
    c, s = eigensystem.odd.values.size, np.sqrt(0.5)
    odd = slice(c + 1, None)
    folded = np.empty(x.shape, dtype=complex)
    np.add(x[:c], x[:c:-1], out=folded[:c])
    folded[c] = x[c]
    np.subtract(x[:c], x[:c:-1], out=folded[odd])
    folded[:c] *= s
    folded[odd] *= s
    sectors = np.empty_like(folded)
    # the even sector's products go to the odd sector's rows, not yet used, and the
    # odd sector's to the even sector's, used up: each has room for any panel but a
    # full-height one, and that one comes first
    for rows, spare, block in zip((slice(0, c + 1), odd), (odd, slice(0, c + 1)), eigensystem):
        y, coefficients = folded[rows], sectors[rows]
        for p in block.panels:
            real_matmul(p.vectors.T, y[p.rows], coefficients[p.cols])
        coefficients *= np.exp(-1j * t * block.values)[:, None]
        first, *rest = block.panels  # the first starts at row 0
        y[first.rows.stop :] = 0.0
        real_matmul(first.vectors, coefficients[first.cols], y[first.rows])
        for p in rest:
            product = sectors[spare][: p.vectors.shape[0]]
            y[p.rows] += real_matmul(p.vectors, coefficients[p.cols], product)
    np.add(folded[:c], folded[odd], out=sectors[:c])
    sectors[c] = folded[c]
    np.subtract(folded[:c], folded[odd], out=sectors[:c:-1])
    sectors[:c] *= s
    sectors[odd] *= s
    return sectors


def rotation(space: SpinSpace, alpha: float, axis: SpinAxis, x: np.ndarray) -> np.ndarray:
    """U x on columns x, U = exp(-i alpha J(axis)) = D(phi + lam) e^{-i beta J_x} D(lam - phi).

    lam and beta are U's ZXZ Euler angles (module docstring): one turn on one gauged
    copy of x, gauged in place after.  On the equator lam = 0 and beta = alpha, the
    same operations as D(phi) e^{-i alpha J_x} D(phi)^dag; at a pole beta = 0 and
    the turn is skipped; alpha = 0 returns x itself.
    """
    if not np.isfinite(alpha):
        raise ValueError("rotation angle must be finite")
    if x.shape[0] != space.dim:
        raise ValueError(f"rotation needs {space.dim} rows, got {x.shape[0]}")
    if alpha == 0:
        return x
    if axis.theta == np.pi / 2:
        lam, beta = 0.0, alpha
    else:
        s, c = np.sin(alpha / 2), np.cos(alpha / 2)
        # pi - theta is exact for theta >= pi/2, so sin theta is 0.0 at both poles
        z, xy = s * np.cos(axis.theta), s * np.sin(min(axis.theta, np.pi - axis.theta))
        lam, beta = np.arctan2(z, c), 2 * np.arctan2(xy, np.hypot(c, z))
    y = _gauge(space, axis.phi - lam).conj()[:, None] * x  # the one copy
    if beta:
        y = turn(jx_eigensystem(space), beta, y)
    y *= _gauge(space, axis.phi + lam)[:, None]
    return y


def coherent_state(space: SpinSpace, axis: SpinAxis) -> np.ndarray:
    """Spin coherent state D(phi) e^{-i theta J_y} |m = j> pointing along the axis."""
    top = np.zeros((space.dim, 1))
    top[-1] = 1.0
    return _gauge(space, axis.phi) * rotation(space, axis.theta, Y_AXIS, top)[:, 0]


def thermal_weights(space: SpinSpace, beta_scaled: float) -> np.ndarray:
    """Weights e^{beta (m - j)} / Z of exp(beta J) on its Dicke ladder, growing with m:
    the support is the top count_nonzero states, and holds every colder state's."""
    if not np.isfinite(beta_scaled) or beta_scaled < 0:
        raise ValueError(f"beta_scaled must be >= 0, got {beta_scaled}")
    p = np.exp(beta_scaled * (space.m_values - space.j))
    return p / p.sum()


def thermal_state(space: SpinSpace, beta_scaled: float, z: float, phi: float) -> SpectralDecomp:
    """Thermal state exp(beta * J(acos z, phi)) / Z of the condensation Hamiltonian.

    beta_scaled is beta * eps_tau, the only temperature parameter exposed.
    The positive exponent means beta -> inf concentrates the state onto the
    spin coherent state at phase-space point (z, phi).  Returned as its
    checked eigensystem: thermal_weights on the Dicke states, tilted by
    theta = acos z and gauged by D(phi), so the pole z = 1 stays exact.
    """
    if abs(z) > 1:
        raise ValueError(f"imbalance z must lie in [-1, 1], got {z}")
    axis = SpinAxis(float(np.arccos(z)), phi)
    p = thermal_weights(space, beta_scaled)
    r = np.count_nonzero(p)  # the support is the top r Dicke states
    # tilted Dicke columns are orthonormal as R is, checked in tridiagonal_eigensystem
    p, dicke = state_factor(p[-r:], np.eye(space.dim, r, r - space.dim), orthonormal=True)
    return SpectralDecomp(
        p, _gauge(space, axis.phi)[:, None] * rotation(space, axis.theta, Y_AXIS, dicke)
    )


#: rows of U^dag U per panel of the orthonormality check; on a 5001-row block 256 take
#: about the one-shot Gram's time (128 take 15% longer) and hold 5% of its memory
CHECK_PANEL = 256


def assert_unitary(u: np.ndarray) -> float:
    """Check U^dag U = I, i.e. orthonormal columns (U may be N x r); max|U^dag U - I|.

    U^dag U is Hermitian, so its upper triangle holds every |entry|: it is formed
    in row panels U[:, s:s+w]^dag U[:, s:] of CHECK_PANEL rows, each the one
    temporary (the diagonal and |.| go in place), and no r x r array is held.
    """
    dev = 0.0
    for s in range(0, u.shape[1], CHECK_PANEL):
        gram = u[:, s : s + CHECK_PANEL].conj().T @ u[:, s:]
        gram.flat[:: gram.shape[1] + 1] -= 1.0
        dev = np.maximum(dev, np.abs(gram, out=gram).real.max())
        del gram  # freed before the next panel is formed
    if not dev <= TOLERANCES["unitarity"]:  # NaN fails too
        raise NumericalInvariantError(f"matrix not unitary: max|U^dag U - I| = {dev:.3e}")
    return float(dev)


def assert_eigenvectors(
    diagonal: np.ndarray, off_diagonal: np.ndarray, block: SpectralDecomp
) -> float:
    """Check the eigenvectors U of a real symmetric tridiagonal matrix A orthonormal, at
    O(n^2) where A's residuals prove it; a bound on max|U^T U - I|.

    With A u_i = w_i u_i + r_i, symmetry gives (w_i - w_j) u_j^T u_i = r_j^T u_i - u_j^T r_i,
    so no overlap exceeds 2 max||r|| max||u|| / g for the smallest gap g of w; with
    max| ||u_i||^2 - 1 | that bounds the deviation.  J_x's gaps are 2, and H's blocks' are
    at least 11 at u = 0.1 and N = 800 to 4000, where the bound is 1e-13 to 6e-11.  The
    squares are summed in row panels of CHECK_PANEL / 4 rows, two at a time.  Where the
    bound does not pass TOLERANCES["unitarity"] (a duplicated, tilted or unnormalized
    column, a degenerate w, or a residual past float range), assert_unitary decides.
    """
    w, u = block
    n, height = w.size, CHECK_PANEL // 4
    norms, residuals = np.zeros(n), np.zeros(n)  # each column's squares, over the panels
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN leaves it to the Gram
        for a in range(0, n, height):
            b = min(a + height, n)
            r = np.subtract(diagonal[a:b, None], w)
            r *= u[a:b]
            spare = np.multiply(u[a:b], u[a:b])
            norms += spare.sum(axis=0)
            lo, hi = max(a, 1), min(b, n - 1)  # rows with a band entry left, and right
            r[lo - a :] += np.multiply(off_diagonal[lo - 1 : b - 1, None], u[lo - 1 : b - 1],
                                       out=spare[: b - lo])
            r[: hi - a] += np.multiply(off_diagonal[a:hi, None], u[a + 1 : hi + 1],
                                       out=spare[: hi - a])
            r *= r
            residuals += r.sum(axis=0)
            del r, spare  # freed before the next panel is formed
        dev = np.abs(norms - 1.0).max()
        overlap = 2.0 * np.sqrt(residuals.max() * norms.max())
    gap = np.diff(np.sort(w)).min() if n > 1 else np.inf
    tol = TOLERANCES["unitarity"]
    if gap > 0 and dev <= tol and overlap <= tol * gap:
        return float(max(dev, overlap / gap))
    return assert_unitary(u)


def state_factor(p: np.ndarray, vectors: np.ndarray, orthonormal: bool = False) -> SpectralDecomp:
    """The one state check: weights p on columns V, kept where p > 0.

    p >= 0 summing to 1 on orthonormal columns is a density matrix; a
    unitary keeps all three, so evolved states are not checked again.
    orthonormal=True skips the column check, for columns checked where built.
    """
    if not p.min() >= 0:  # NaN fails both checks
        raise NumericalInvariantError(f"negative state weight {p.min():.3e}")
    if not abs(p.sum() - 1.0) <= TOLERANCES["trace"]:
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
    if w.min() < TOLERANCES["eigenvalue_floor"]:
        raise NumericalInvariantError(f"negative eigenvalue {w.min():.3e} below round-off floor")
    return state_factor(np.clip(w, 0.0, None), v)


def assert_density_matrix(rho: np.ndarray) -> None:
    """Check rho where nothing needs its spectrum (see state_eigensystem)."""
    state_eigensystem(rho)
