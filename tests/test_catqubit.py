import numpy as np
import pytest

from catlab import (
    Z_AXIS,
    CatQubitModel,
    SpinSpace,
    analytic_qfi,
    analytic_rq,
    eta_critical,
    lg_violation,
    make_synthetic_cat,
    qfi,
    reduced_density,
    reduced_extdiff,
)
from catlab.spin import state_eigensystem

from conftest import dense

ETAS = [0.0, np.pi / 6, np.pi / 4, np.pi / 3, 5 * np.pi / 12, np.pi / 2]


@pytest.fixture(scope="module")
def space():
    return SpinSpace(200)


@pytest.fixture(scope="module")
def cat(space):
    return make_synthetic_cat(space, center=33.0, width=5.0)


def test_fixture_moments(cat):
    model = cat.model(eta=0.0)
    assert model.lam == pytest.approx(66.0, rel=1e-6)
    assert model.peak_width == pytest.approx(10.0, rel=0.02)
    assert model.alpha == pytest.approx(6.6, rel=0.02)


def test_fixture_symmetries(cat, space):
    m = space.m_values
    assert np.abs(cat.dead - cat.alive[::-1]).max() < 1e-15
    assert abs(np.vdot(cat.alive, cat.dead)) < 1e-10
    assert abs(np.vdot(cat.alive, m * cat.dead)) < 1e-10


def test_fixture_rejects_overlapping_peaks(space):
    with pytest.raises(ValueError):
        make_synthetic_cat(space, center=5.0, width=5.0)


def test_triangle_identity(cat, space):
    # PW^2 + Lambda^2 = 4 <c+-| J_z^2 |c+->
    m = space.m_values
    model = cat.model(eta=0.0)
    for sign in (+1, -1):
        c = (cat.alive + sign * cat.dead) / np.sqrt(2)
        second = float(np.real(np.vdot(c, m**2 * c)))
        assert model.peak_width**2 + model.lam**2 == pytest.approx(4 * second, abs=1e-8)


def test_cross_term_identity(cat, space):
    m = space.m_values
    model = cat.model(eta=0.0)
    c_plus = (cat.alive + cat.dead) / np.sqrt(2)
    c_minus = (cat.alive - cat.dead) / np.sqrt(2)
    cross = abs(np.vdot(c_plus, m * c_minus)) ** 2
    assert model.lam**2 == pytest.approx(4 * cross, abs=1e-8)


def test_reduced_density_eigenvalues(cat):
    for eta in ETAS:
        rho = dense(reduced_density(cat, eta))
        w = np.sort(np.linalg.eigvalsh(rho))[::-1]
        expected = sorted([(1 + np.cos(eta)) / 2, (1 - np.cos(eta)) / 2], reverse=True)
        assert w[0] == pytest.approx(expected[0], abs=1e-9)
        assert w[1] == pytest.approx(expected[1], abs=1e-9)
        assert np.abs(w[2:]).max() < 1e-9


def test_reduced_density_limits(cat):
    symmetric = (cat.alive + cat.dead) / np.sqrt(2)
    rho0 = dense(reduced_density(cat, 0.0))
    assert np.abs(rho0 - np.outer(symmetric, symmetric.conj())).max() < 1e-12
    rho_max = dense(reduced_density(cat, np.pi / 2))
    incoherent = 0.5 * (
        np.outer(cat.alive, cat.alive.conj()) + np.outer(cat.dead, cat.dead.conj())
    )
    assert np.abs(rho_max - incoherent).max() < 1e-12


@pytest.mark.parametrize("eta", [0.0, 0.4, np.pi / 2])
def test_reduced_density_matches_the_dense_path(cat, eta):
    # the closed form is the dense rho's checked eigensystem; eta = 0 drops the zero weight
    a, d = cat.alive, cat.dead
    rho = 0.5 * (
        np.outer(a, a.conj())
        + np.outer(d, d.conj())
        + np.cos(eta) * (np.outer(a, d.conj()) + np.outer(d, a.conj()))
    )
    p, v = reduced_density(cat, eta)
    p_dense, _ = state_eigensystem(rho)
    assert v.shape == (a.size, p.size) and p.size == (1 if eta == 0 else 2)
    assert np.abs(p - p_dense[-p.size:]).max() <= 1e-12
    assert np.abs(p_dense[: -p.size]).max() <= 1e-12
    assert np.abs(dense((p, v)) - rho).max() <= 1e-15


def test_analytic_limits():
    model = CatQubitModel(lam=66.0, peak_width=10.0, eta=0.0)
    assert analytic_qfi(model) == pytest.approx(66.0**2 + 100.0)
    assert analytic_rq(model) == pytest.approx(1.0)
    decohered = CatQubitModel(lam=66.0, peak_width=10.0, eta=np.pi / 2)
    assert analytic_qfi(decohered) == pytest.approx(100.0)
    assert analytic_rq(decohered) == pytest.approx(1 / np.sqrt(1 + 6.6**2))


def test_analytic_qfi_matches_spectral_oracle(cat, space):
    for eta in ETAS:
        spectral = qfi(reduced_density(cat, eta), Z_AXIS)
        closed = analytic_qfi(cat.model(eta))
        assert spectral == pytest.approx(closed, rel=1e-6)


def test_eta_critical_values(cat):
    assert np.cos(eta_critical(2.0)) == pytest.approx(0.25)
    assert eta_critical(1.0) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        eta_critical(0.9)
    model = cat.model(eta_critical(cat.model(0.0).alpha))
    assert reduced_extdiff(model) == pytest.approx(model.peak_width, rel=1e-6)


def test_indefiniteness_threshold_single_crossing(cat):
    alpha = cat.model(0.0).alpha
    eta_c = eta_critical(alpha)
    etas = np.linspace(0.0, np.pi / 2, 1000)
    margins = np.array(
        [reduced_extdiff(cat.model(e)) - cat.model(e).peak_width for e in etas]
    )
    signs = np.sign(margins[margins != 0])
    flips = np.nonzero(np.diff(signs))[0]
    assert flips.size == 1
    crossing = etas[flips[0]]
    assert crossing == pytest.approx(eta_c, abs=etas[1] - etas[0])


def test_lg_violation_values():
    assert lg_violation(0.0) == pytest.approx(-0.5)
    assert lg_violation(np.arccos(2 / 3)) == pytest.approx(0.0, abs=1e-12)
    assert lg_violation(np.arccos(1 / 3)) == pytest.approx(0.5)
    etas = np.linspace(0, np.pi / 2, 50)
    vals = [lg_violation(e) for e in etas]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        lg_violation(2.0)
