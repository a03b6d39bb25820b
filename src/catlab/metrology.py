"""Counting statistics, extensive difference, and Fisher-information metrology.

The four-step interferometric protocol is: prepare rho, encode a phase
(rho_psi = U^dag rho U with U = exp(-i psi J_Omega)), rotate for read-out
(U_r), and measure J_z.  Everything observable here derives from the
resulting distribution p(r) = <r| rho_psi |r> with |r> = U_r |m>.  A state
is passed as its eigensystem (p, V) on its support (spin.SpectralDecomp),
so p(r) = sum_k p_k |<r|v_k>|^2 and rho itself is never formed.  Generators
J(axis) and rotations act on the r columns too (spin.apply_j, spin.rotation).

From the distribution of J_z itself we get the statistical uncertainty
Delta_s and, after splitting at the mean, the extensive difference Lambda
between the two halves of a double-peaked cat distribution.

Sensitivity to the encoded phase is quantified by the classical Fisher
information for the chosen read-out and by the quantum Fisher information

    F_q = 2 sum_{l,l'} (p_l - p_l')^2 / (p_l + p_l') |<l| G |l'>|^2,

which for a pure state reduces to 4 Var(G) and in general equals the
convex-roof of 4 Var over all pure-state decompositions.  A pair of zero
weights adds 0 and a pair with p_l' = 0 adds 2 p_l |G_ll'|^2, so F_q closes
on any orthonormal set F that holds the support (Liu, Yuan, Lu & Wang,
J. Phys. A 53, 023001 (2020)), with P_F the projector onto F:

    F_q = 2 sum_{l,l' in F} (p_l - p_l')^2 / (p_l + p_l') |G_ll'|^2
          + 4 sum_{l in F} p_l || (1 - P_F) G |l> ||^2,

a pair of zero weights counting 0.  Both terms need no weight cutoff.  Each
read-out is a basis phase on F and a weight phase on p, so states on one
basis share the first (metrology_reports).  The quality of
indefiniteness r_q = (sqrt(F_q)/2) / Delta_s in [0, 1] measures the fraction
of the observed uncertainty that no amount of classical knowledge could
remove; r_c is its experimentally accessible lower bound from the CFI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin import (
    SpectralDecomp,
    SpinAxis,
    SpinSpace,
    NumericalInvariantError,
    TOLERANCES,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    apply_j,
    rotation,
)


@dataclass(frozen=True)
class ReadoutSpec:
    """Read-out rotation applied before the J_z measurement.

    The default, a pi/2 rotation about x, turns the number-difference
    measurement into an effective measurement of J_y.
    """

    axis: SpinAxis = X_AXIS
    angle: float = np.pi / 2


@dataclass(frozen=True)
class JzDistribution:
    """Probabilities over the J_z lattice m = -j ... +j."""

    space: SpinSpace
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (self.space.dim,):
            raise ValueError(f"expected {self.space.dim} probabilities, got {p.shape}")
        if not p.min() >= TOLERANCES["probability_floor"]:  # NaN fails both checks
            raise NumericalInvariantError(f"probability {p.min():.3e} below round-off floor")
        p = np.clip(p, 0.0, None)
        if not abs(p.sum() - 1.0) <= TOLERANCES["probability_sum"]:
            raise NumericalInvariantError(f"probabilities sum to {p.sum():.12f}, not 1")
        object.__setattr__(self, "probs", p)

    @property
    def m_values(self) -> np.ndarray:
        return self.space.m_values

    def mean(self) -> float:
        return float(np.dot(self.probs, self.m_values))

    def std(self) -> float:
        mu = self.mean()
        var = float(np.dot(self.probs, (self.m_values - mu) ** 2))
        return float(np.sqrt(max(var, 0.0)))


def _squared(amplitudes: np.ndarray) -> np.ndarray:
    """|a_rk|^2 for amplitudes a = <r|v_k>: the read-out distribution is |a|^2 @ p."""
    return amplitudes.real**2 + amplitudes.imag**2


def protocol_distribution(
    state: SpectralDecomp,
    psi: float,
    encoding_axis: SpinAxis,
    readout: ReadoutSpec,
) -> JzDistribution:
    """Outcome distribution of the full protocol at encoded phase psi."""
    p, v = state
    space = SpinSpace(v.shape[0] - 1)
    v = rotation(space, -psi, encoding_axis, v)  # rho -> U^dag rho U
    v_r = rotation(space, -readout.angle, readout.axis, v)  # U_r^dag V
    return JzDistribution(space, _squared(v_r) @ p)


def jz_distribution(state: SpectralDecomp) -> JzDistribution:
    """Diagonal of rho in the Dicke basis: counting statistics of J_z."""
    p, v = state
    return JzDistribution(SpinSpace(v.shape[0] - 1), _squared(v) @ p)


def statistical_uncertainty(dist: JzDistribution) -> float:
    """Delta_s, the standard deviation of the counting distribution."""
    return dist.std()


@dataclass(frozen=True)
class CatSplit:
    """Dead/alive decomposition of a counting distribution at its mean.

    The bin sitting exactly at the mean (when the mean lands on a lattice
    value) belongs to neither side.  Lambda is reported as the non-negative
    separation |<J_z>_R - <J_z>_L|; a side with zero weight makes the split
    degenerate and Lambda is 0.
    """

    mean: float
    n_left: float
    n_right: float
    extensive_difference: float
    peak_width_left: float
    peak_width_right: float
    degenerate: bool


def cat_split(dist: JzDistribution) -> CatSplit:
    m = dist.m_values
    p = dist.probs
    mu = dist.mean()
    left = m < mu
    right = m > mu
    # exclude a bin exactly at the mean from both sides (strict step function)
    at_mean = np.abs(m - mu) <= TOLERANCES["cat_split_at_mean"] * max(1.0, abs(mu))
    left &= ~at_mean
    right &= ~at_mean
    n_l = float(p[left].sum())
    n_r = float(p[right].sum())
    if n_l <= 0.0 or n_r <= 0.0:
        return CatSplit(mu, n_l, n_r, 0.0, 0.0, 0.0, True)
    p_l = np.where(left, p, 0.0) / n_l
    p_r = np.where(right, p, 0.0) / n_r
    mean_l = float(np.dot(p_l, m))
    mean_r = float(np.dot(p_r, m))
    width_l = float(np.sqrt(max(np.dot(p_l, (m - mean_l) ** 2), 0.0)))
    width_r = float(np.sqrt(max(np.dot(p_r, (m - mean_r) ** 2), 0.0)))
    return CatSplit(mu, n_l, n_r, abs(mean_r - mean_l), width_l, width_r, False)


def qfi(state: SpectralDecomp, axis: SpinAxis) -> float:
    """Quantum Fisher information for encoding by J(axis); 4 Var(J(axis)) for pure states."""
    p, v = state
    gv = apply_j(SpinSpace(v.shape[0] - 1), axis, v)[None]
    return float(_qfi_form(p, *_projections(v, gv))[0, 0])


def _projections(v: np.ndarray, gv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Basis phase of F_ab from gv[a] = G_a V: G_a,ll' and, per column l, the
    Gram Re <o_al|o_bl> of o_al = (1 - P_V) G_a |l>."""
    inside = v.conj().T @ gv
    outside = (v @ inside).astype(complex, copy=False)
    np.subtract(gv, outside, out=outside)
    parts = outside.view(np.float64).reshape(*outside.shape, 2)  # (re, im) of each entry
    return inside, np.einsum("ailc,bilc->abl", parts, parts)


def _qfi_form(p: np.ndarray, inside: np.ndarray, local: np.ndarray) -> np.ndarray:
    """The weight phase of F_ab: the module docstring's identity for weights p on _projections."""
    den = p[:, None] + p[None, :]
    pair = np.divide((p[:, None] - p[None, :]) ** 2, den, out=np.zeros_like(den), where=den > 0)
    coherent = np.einsum("lm,alm,blm->ab", pair, inside, inside.conj())
    return 2.0 * coherent.real + 4.0 * (local @ p)


def cfi_commutator(state: SpectralDecomp, axis: SpinAxis, readout: ReadoutSpec) -> float:
    """Classical Fisher information at psi = 0 from the exact derivative.

    d p_r / d psi = <r| i [G, rho] |r> = -2 Im sum_k p_k b_rk conj(a_rk) with
    G = J(axis), a = U_r^dag V and b = U_r^dag G V, so no finite phase step
    is needed; bins with p_r below TOLERANCES["fisher_weight_cutoff"] are skipped,
    which removes 0/0 terms without touching anything at the 1e-6 acceptance level.
    """
    p, v = state
    bins, slope = _cfi_terms(v, apply_j(SpinSpace(v.shape[0] - 1), axis, v), readout)
    return _cfi(bins @ p, slope @ p)


def _cfi_terms(v: np.ndarray, gv: np.ndarray, readout: ReadoutSpec) -> tuple[np.ndarray, ...]:
    """The CFI's basis phase from V and gv = G V: |a_rk|^2 and -2 Im(b_rk conj(a_rk))."""
    space = SpinSpace(v.shape[0] - 1)
    both = rotation(space, -readout.angle, readout.axis, np.hstack([v, gv]))
    a, b = np.split(both, 2, axis=1)
    return _squared(a), -2.0 * (b * a.conj()).imag


def _cfi(probs: np.ndarray, dp: np.ndarray) -> float:
    """The CFI of a read-out: sum_r (dp_r)^2 / p_r over bins above the weight cutoff."""
    mask = probs > TOLERANCES["fisher_weight_cutoff"]
    return float(np.sum(dp[mask] ** 2 / probs[mask]))


def cfi_finite_difference(
    state: SpectralDecomp,
    encoding_axis: SpinAxis,
    readout: ReadoutSpec,
    delta: float = 1e-4,
) -> float:
    """CFI estimated the way an experiment would: central differences at +/- delta.

    Matches cfi_commutator to O(delta^2); the default delta = 1e-4 rad keeps
    the quadratic error at the 1e-8 level.
    """
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be > 0, got {delta}")
    p_plus = protocol_distribution(state, +delta, encoding_axis, readout).probs
    p_minus = protocol_distribution(state, -delta, encoding_axis, readout).probs
    p_zero = protocol_distribution(state, 0.0, encoding_axis, readout).probs
    return _cfi(p_zero, (p_plus - p_minus) / (2.0 * delta))


@dataclass(frozen=True)
class MetrologyReport:
    """All indefiniteness measures of one prepared state, for one read-out.

    delta_s: statistical uncertainty of the generator's counting distribution.
    delta_q: convex uncertainty sqrt(F_q)/2, the decomposition-optimized floor.
    r_q, r_c: quality of indefiniteness and its measured lower bound.
    lam: extensive difference of the split distribution.
    n_eff_bound: F_q / (4N), the macroscopicity bound from this generator.
    degenerate: True when delta_s = 0 and the ratios are undefined.
    """

    delta_s: float
    f_q: float
    delta_q: float
    f_c: float
    r_q: float
    r_c: float
    lam: float
    reduced_lambda_q: float
    reduced_lambda_c: float
    n_eff_bound: float
    degenerate: bool = False

    def __post_init__(self):
        if self.degenerate:
            return
        # r_c <= r_q is F_c <= F_q (r_c / r_q = sqrt(F_c / F_q)), checked
        # once, in F, where its round-off slack is stated
        tol = TOLERANCES
        if not (-tol["fisher_ratio"] <= self.r_c and self.r_q <= 1.0 + tol["fisher_ratio"]):
            raise NumericalInvariantError(
                f"Fisher chain violated: r_c = {self.r_c}, r_q = {self.r_q}"
            )
        if self.f_c > self.f_q * (1.0 + tol["fisher_chain_rel"]) + tol["fisher_chain_abs"]:
            raise NumericalInvariantError(f"F_c = {self.f_c} exceeds F_q = {self.f_q}")


def metrology_report(state: SpectralDecomp) -> MetrologyReport:
    """Assemble the J_z indefiniteness report; the read-out, ReadoutSpec(), measures J_y."""
    return metrology_reports(state.vectors, [state.values])[0]


def metrology_reports(v: np.ndarray, weights: list) -> list:
    """metrology_report of each state V diag(p) V^dag, p in weights, on orthonormal columns V.

    The basis phase runs once; each p, a state's weights, then costs O(N^2) sums.
    """
    space = SpinSpace(v.shape[0] - 1)
    jz_v = apply_j(space, Z_AXIS, v)
    bins, slope = _cfi_terms(v, jz_v, ReadoutSpec())
    dicke = _squared(v)
    inside, local = _projections(v, jz_v[None])
    reports = []
    for p in weights:
        dist = JzDistribution(space, dicke @ p)
        delta_s, lam = statistical_uncertainty(dist), cat_split(dist).extensive_difference
        f_q, f_c = float(_qfi_form(p, inside, local)[0, 0]), _cfi(bins @ p, slope @ p)
        delta_q = 0.5 * np.sqrt(f_q)
        r_q, r_c = (delta_q / delta_s, 0.5 * np.sqrt(f_c) / delta_s) if delta_s else (np.nan,) * 2
        reports.append(MetrologyReport(
            delta_s, f_q, delta_q, f_c, r_q, r_c, lam, lam * r_q, lam * r_c,
            f_q / (4.0 * space.n_particles), degenerate=delta_s == 0.0,
        ))
    return reports


@dataclass(frozen=True)
class AxisMap:
    """F_q(rho, J(theta, phi)) / (4N) sampled on an axis grid."""

    theta_values: np.ndarray
    phi_values: np.ndarray
    values: np.ndarray  # shape (n_theta, n_phi)
    argmax_axis: SpinAxis
    max_value: float


def qfi_quadratic_form(state: SpectralDecomp) -> np.ndarray:
    """3x3 real symmetric M with F_q(rho, J(u)) = u^T M u, u = (z, x, y) axis.

    Because the QFI is quadratic in the generator and J(theta, phi) is a
    fixed linear combination of (J_z, J_x, J_y), the QFI kernel over the
    three pairs determines the whole axis map exactly.
    """
    p, v = state
    space = SpinSpace(v.shape[0] - 1)
    gv = np.stack([apply_j(space, axis, v) for axis in (Z_AXIS, X_AXIS, Y_AXIS)])
    return _qfi_form(p, *_projections(v, gv))


def qfi_axis_map(
    state: SpectralDecomp,
    thetas: np.ndarray,
    phis: np.ndarray,
) -> AxisMap:
    """Evaluate F_q / (4N) over the axis grid from one quadratic form."""
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    if thetas.size == 0 or phis.size == 0:
        raise ValueError("axis grids must be non-empty")
    space = SpinSpace(state.vectors.shape[0] - 1)
    m_form = qfi_quadratic_form(state)
    th, ph = np.meshgrid(thetas, phis, indexing="ij")
    u = np.stack([np.cos(th), np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph)])
    f = np.einsum("aij,ab,bij->ij", u, m_form, u, optimize=True)
    values = f / (4.0 * space.n_particles)
    return AxisMap(thetas, phis, values, *_argmax_axis(thetas, phis, values))


def _argmax_axis(thetas, phis, values: np.ndarray) -> tuple[SpinAxis, float]:
    """The grid maximum's axis, taken with theta < pi/2 (phi < 0 on the equator), and its
    value: F_q is even in u, so the cells of u and -u tie but for round-off."""
    i, k = np.unravel_index(int(values.argmax()), values.shape)
    axis = SpinAxis(thetas[i], phis[k])
    if axis.theta > np.pi / 2 or (axis.theta == np.pi / 2 and axis.phi >= 0):
        axis = SpinAxis(np.pi - axis.theta, axis.phi + np.pi)
    return axis, float(values[i, k])


#: the CLI's axis-map grid, polar angles by azimuths: its cells are below 3 degrees
AXIS_THETA_POINTS, AXIS_PHI_POINTS = 64, 128


def default_axis_grids() -> tuple[np.ndarray, np.ndarray]:
    """The CLI's axis-map grid: thetas over [0, pi], phis over [-pi, pi)."""
    return (np.linspace(0.0, np.pi, AXIS_THETA_POINTS),
            np.linspace(-np.pi, np.pi, AXIS_PHI_POINTS, endpoint=False))


def n_eff(state: SpectralDecomp) -> tuple[float, SpinAxis]:
    """Macroscopicity max_axis F_q / (4N) with the maximizing axis.

    F_q(J(u)) = u^T M u over unit vectors u, so the exact maximum is the top
    eigenvalue of the quadratic form M and the axis is its eigenvector.
    """
    space = SpinSpace(state.vectors.shape[0] - 1)
    w, v = np.linalg.eigh(qfi_quadratic_form(state))
    nz, nx, ny = v[:, -1]
    axis = SpinAxis(float(np.arccos(np.clip(nz, -1.0, 1.0))), float(np.arctan2(ny, nx)))
    return float(w[-1] / (4.0 * space.n_particles)), axis
