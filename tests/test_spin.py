import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from catlab import (
    NumericalInvariantError,
    SpinAxis,
    SpinSpace,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    SignConvention,
    TwistTurnParams,
    apply_j,
    build_hamiltonian,
    coherent_state,
    jx_eigensystem,
    rotation,
    thermal_state,
)
from catlab import dynamics, spin
from catlab.metrology import _projections, _qfi_form
from catlab.spin import (
    assert_density_matrix,
    canonicalize_angles,
    real_matmul,
    spectral_decomp,
    state_eigensystem,
    state_factor,
)

from conftest import dense, dense_j, random_density, skew, spin_matrices, tridiagonal


def test_make_space_dimensions():
    sp = SpinSpace(200)
    assert sp.dim == 201
    assert sp.j == 100
    small = SpinSpace(2)
    assert small.dim == 3
    assert small.j == 1


@pytest.mark.parametrize("bad", [3, 0, -2, 1])
def test_make_space_rejects_bad_n(bad):
    with pytest.raises(ValueError):
        SpinSpace(bad)


def test_cartesian_ops_spin_one():
    sp = SpinSpace(2)
    mats = spin_matrices(2)
    jz = apply_j(sp, Z_AXIS, np.eye(sp.dim))
    assert np.allclose(np.diag(jz), [-1, 0, 1])
    # <0| J+ |-1> = sqrt(2) sits one row below the diagonal in ascending order
    assert abs(sp.j_band[0] - np.sqrt(2)) < 1e-12
    assert abs(mats.jplus[1, 0] - np.sqrt(2)) < 1e-12


def j_matrices(sp):
    """(J_z, J_x, J_y) from the band product, one column of I at a time."""
    return [apply_j(sp, axis, np.eye(sp.dim)) for axis in (Z_AXIS, X_AXIS, Y_AXIS)]


@pytest.mark.parametrize("n", [2, 6, 20, 200])
def test_su2_algebra(n):
    sp = SpinSpace(n)
    jz, jx, jy = j_matrices(sp)
    for a, b, c in [(jx, jy, jz), (jy, jz, jx), (jz, jx, jy)]:
        comm = a @ b - b @ a - 1j * c
        assert np.abs(comm).max() < 1e-9
    casimir = jx @ jx + jy @ jy + jz @ jz
    assert np.abs(casimir - sp.j * (sp.j + 1) * np.eye(sp.dim)).max() < 1e-8


def test_apply_j_special_directions():
    sp = SpinSpace(8)
    mats = spin_matrices(8)
    eye = np.eye(sp.dim)
    assert np.abs(apply_j(sp, SpinAxis(0.0, 0.7), eye) - mats.jz).max() < 1e-12
    assert np.abs(apply_j(sp, X_AXIS, eye) - mats.jx).max() < 1e-12
    assert np.abs(apply_j(sp, Y_AXIS, eye) - mats.jy).max() < 1e-12


def test_axis_spectrum_is_jz_ladder():
    sp = SpinSpace(20)
    rng = np.random.default_rng(3)
    for _ in range(10):
        ax = SpinAxis(rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi))
        w = np.linalg.eigvalsh(apply_j(sp, ax, np.eye(sp.dim)))
        assert np.abs(w - sp.m_values).max() < 1e-8
    values = np.concatenate([w for w, _ in jx_eigensystem(sp)])
    assert np.abs(np.sort(values) - sp.m_values).max() < 1e-8


def test_canonicalize_angles_ranges_and_direction():
    rng = np.random.default_rng(11)
    for _ in range(200):
        th_raw = rng.uniform(-8, 8)
        ph_raw = rng.uniform(-8, 8)
        th, ph = canonicalize_angles(th_raw, ph_raw)
        assert 0 <= th <= np.pi
        assert -np.pi <= ph < np.pi
        raw_vec = np.array(
            [
                np.cos(th_raw),
                np.sin(th_raw) * np.cos(ph_raw),
                np.sin(th_raw) * np.sin(ph_raw),
            ]
        )
        assert np.abs(SpinAxis(th_raw, ph_raw).unit_vector() - raw_vec).max() < 1e-12


def random_axes(seed: int, count: int = 4):
    rng = np.random.default_rng(seed)
    return [SpinAxis(rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi)) for _ in range(count)]


@pytest.mark.parametrize("n", [2, 10, 200])
def test_apply_j_matches_textbook_operator(n):
    sp = SpinSpace(n)
    for axis in random_axes(n):
        assert np.abs(apply_j(sp, axis, np.eye(sp.dim)) - dense_j(n, axis)).max() < 1e-12


@pytest.mark.parametrize("n", [2, 10, 200])
def test_rotation_matches_expm(n):
    sp = SpinSpace(n)
    rng = np.random.default_rng(n + 1)
    poles = [SpinAxis(0.0, rng.uniform(-np.pi, np.pi)), SpinAxis(np.pi, rng.uniform(-np.pi, np.pi))]
    for axis in random_axes(n + 1) + poles:
        alpha = rng.uniform(-2 * np.pi, 2 * np.pi)
        oracle = expm(-1j * alpha * dense_j(n, axis))
        assert np.abs(rotation(sp, alpha, axis, np.eye(sp.dim)) - oracle).max() < 1e-10
    # a turn about Z is the gauge D(alpha) = diag(e^{-i alpha m}), three turns about J_x's frame
    alpha = rng.uniform(-2 * np.pi, 2 * np.pi)
    gauge = np.diag(np.exp(-1j * alpha * sp.m_values))
    assert np.abs(rotation(sp, alpha, Z_AXIS, np.eye(sp.dim)) - gauge).max() < 1e-12


@pytest.mark.parametrize("n", [2, 10, 200])
def test_axis_operator_is_gauged_real_tridiagonal(n):
    # J(theta, phi) = D J(theta, 0) D^dag with D = diag(e^{-i phi m})
    sp = SpinSpace(n)
    for axis in random_axes(n + 2):
        d = np.exp(-1j * axis.phi * sp.m_values)
        real = dense_j(n, SpinAxis(axis.theta, 0.0))
        assert np.abs(real.imag).max() == 0
        gauged = d[:, None] * real * d.conj()[None, :]
        assert np.abs(gauged - dense_j(n, axis)).max() < 1e-12


def parity_bands(n: int) -> dict:
    """The mirror-symmetric bands diagonalized in a run: H in both conventions, and J_x."""
    bands = {
        c.value: build_hamiltonian(TwistTurnParams(SpinSpace(n), sign_convention=c))
        for c in SignConvention
    }
    bands["jx"] = (np.zeros(n + 1), 0.5 * SpinSpace(n).j_band)
    return bands


def unfolded(blocks: spin.ParityEigensystem) -> tuple[np.ndarray, np.ndarray]:
    """The dense eigensystem (w, V) of the parity blocks: V's columns are the blocks'
    eigenvectors unfolded onto |m> +- |-m>, even block first."""
    (w_even, u_even), (w_odd, u_odd) = blocks
    c = w_odd.size
    v = np.zeros((2 * c + 1, 2 * c + 1))
    v[:c, : c + 1] = np.sqrt(0.5) * u_even[:c]
    v[c, : c + 1] = u_even[c]
    v[:c:-1, : c + 1] = v[:c, : c + 1]
    v[:c, c + 1 :] = np.sqrt(0.5) * u_odd
    v[:c:-1, c + 1 :] = -v[:c, c + 1 :]
    return np.concatenate([w_even, w_odd]), v


@pytest.mark.parametrize("n", [2, 10, 200, 800])
def test_parity_split_eigensystem_matches_dense(n):
    for name, (d, e) in parity_bands(n).items():
        t = tridiagonal(d, e)
        blocks = spin.tridiagonal_eigensystem(d, e)
        # the blocks as eigh gives them: sizes c + 1 and c, read-only
        assert [u.shape for _, u in blocks] == [(n // 2 + 1,) * 2, (n // 2,) * 2], name
        assert not any(arr.flags.writeable for block in blocks for arr in block), name
        w, v = unfolded(blocks)
        norm = np.abs(np.linalg.eigvalsh(t)).max()
        assert np.abs(v.T @ v - np.eye(n + 1)).max() <= 1e-13, name
        assert np.abs(t @ v - v * w).max() <= 1e-13 * norm, name
        assert np.abs(np.sort(w) - np.linalg.eigvalsh(t)).max() <= 1e-13 * norm, name


@pytest.fixture(params=["dstevd", "fallback"])
def solver_path(request, monkeypatch):
    """The LAPACK path, where this numpy's LAPACK exports dstevd, and the dense eigh that
    runs where no symbol resolves."""
    if request.param == "fallback":
        monkeypatch.setattr(spin, "_STEVD_SYMBOLS", ("no_such_dstevd_",))
    elif spin._lapack_stevd() is None:
        pytest.skip("this numpy's LAPACK exports no 64-bit dstevd")
    spin._lapack_stevd.cache_clear()
    yield request.param
    spin._lapack_stevd.cache_clear()


@pytest.mark.parametrize("n", [2, 10, 200, 800])
def test_hamiltonian_blocks_are_eigh_bit_for_bit(n, solver_path):
    assert (spin._lapack_stevd() is None) == (solver_path == "fallback")
    for convention in SignConvention:
        for u in (0.0, 0.1, 1e3):
            params = TwistTurnParams(SpinSpace(n), u_int=u, sign_convention=convention)
            d, e = build_hamiltonian(params)
            blocks = spin.tridiagonal_eigensystem(d, e)
            oracle = spin.tridiagonal_eigensystem(d, e, spin._eigh)
            for (w, v), (w_ref, v_ref) in zip(blocks, oracle):
                assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref), (convention, u)
                assert v.flags.c_contiguous and not (v.flags.writeable or w.flags.writeable)


def test_resolving_dstevd_maps_no_new_shared_object():
    # the symbol comes from the LAPACK numpy.linalg already links, through its extension
    if not Path("/proc/self/maps").exists():
        pytest.skip("no /proc/self/maps to compare")
    code = (
        "from pathlib import Path\n"
        "from catlab import spin\n"
        "def mapped():\n"
        "    return {line.split()[-1] for line in Path('/proc/self/maps').read_text().splitlines()"
        " if '.so' in line}\n"
        "before = mapped()\n"
        "spin._lapack_stevd()\n"
        "print(sorted(mapped() - before))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("n", [2, 4, 10, 200, 800])
def test_jx_eigensystem_in_closed_form_matches_eigh(n):
    # the even block holds mu = -j, -j + 2, ..., j and the odd block the others, exactly
    sp = SpinSpace(n)
    blocks = jx_eigensystem(sp)
    assert blocks.even.values.tolist() == sp.m_values[::2].tolist()
    assert blocks.odd.values.tolist() == sp.m_values[1::2].tolist()
    oracle = spin.tridiagonal_eigensystem(np.zeros(sp.dim), 0.5 * sp.j_band)
    for (w, u), (w_ref, u_ref) in zip(blocks, oracle):
        for t in (0.4, np.pi / 2):
            turned = (u * np.exp(-1j * t * w)) @ u.T
            assert np.abs(turned - (u_ref * np.exp(-1j * t * w_ref)) @ u_ref.T).max() <= 1e-13


def test_jx_recurrence_rescales_its_columns():
    # from the edge the top and bottom columns grow by about 2^1000 at N = 2000, past
    # what a square can hold: the recurrence scales them down, with no RuntimeWarning
    sp = SpinSpace(2000)
    jx_eigensystem.cache_clear()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            blocks = jx_eigensystem(sp)
    finally:
        jx_eigensystem.cache_clear()
    for w, u in blocks:
        assert np.abs(u.T @ u - np.eye(w.size)).max() <= 1e-12


def test_jx_blocks_hold_no_subnormal_entries():
    # at N = 4000 the edge entries of the top and bottom columns fall below the smallest
    # normal float, and a subnormal operand slows every GEMM; they are flushed to 0
    blocks = jx_eigensystem(SpinSpace(4000))
    for w, u in blocks:
        assert not np.any((u != 0) & (np.abs(u) < np.finfo(float).tiny))
        assert np.abs(u.T @ u - np.eye(w.size)).max() <= 1e-12
    jx_eigensystem.cache_clear()


def test_jx_eigensystem_calls_no_lapack(monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("J_x was diagonalized")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    jx_eigensystem.cache_clear()
    try:
        blocks = jx_eigensystem(SpinSpace(40))
    finally:
        jx_eigensystem.cache_clear()
    assert [u.shape for _, u in blocks] == [(21, 21), (20, 20)]


@pytest.mark.parametrize(
    "d, e",
    [
        (np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0])),  # diagonal not mirrored
        (np.zeros(3), np.array([1.0, 2.0])),  # off-diagonal not mirrored
        (np.zeros(4), np.ones(3)),  # even size
        (np.zeros(3), np.ones(3)),  # bands of mismatched length
        (np.zeros(1), np.zeros(0)),  # no parity blocks to split
    ],
)
def test_tridiagonal_eigensystem_rejects_bands_without_parity(d, e):
    with pytest.raises(ValueError, match="mirror-symmetric"):
        spin.tridiagonal_eigensystem(d, e)


def test_coherent_state_at_pole_is_top_dicke_vector():
    top = np.zeros(11)
    top[-1] = 1.0
    assert np.array_equal(coherent_state(SpinSpace(10), Z_AXIS), top)


def test_real_matmul_matches_complex_matmul():
    rng = np.random.default_rng(12)
    z = rng.normal(size=(7, 10)) + 1j * rng.normal(size=(7, 10))
    # a C-ordered r and a transposed view, as U and U^T are passed
    for r in (rng.normal(size=(9, 7)), rng.normal(size=(7, 9)).T):
        for cols in (z, z[:, ::3], z[::-1, 1:4], np.asfortranarray(z)):
            # out is a row slice of a larger buffer, as turn passes a sector's rows
            buffer = np.zeros((11, cols.shape[1]), dtype=complex)
            out = buffer[1:10]
            assert real_matmul(r, cols, out) is out
            assert np.abs(out - r @ cols).max() <= 1e-14
            assert not buffer[[0, 10]].any()


def test_rotation_is_two_real_gemms_on_any_axis(monkeypatch):
    # each turn is four half-size real GEMMs, two per parity sector: one turn on the
    # equator, three (tilt, turn, tilt back) on any other axis; none reads an (N+1)^2 matrix
    sp = SpinSpace(10)
    x = np.ones((sp.dim, 3), dtype=complex)
    shapes = []
    product = spin.real_matmul
    monkeypatch.setattr(
        spin, "real_matmul", lambda r, z, out: shapes.append(r.shape) or product(r, z, out)
    )
    for axis, turns in ((X_AXIS, 1), (Y_AXIS, 1), (SpinAxis(1.1, 0.4), 3), (Z_AXIS, 3)):
        shapes.clear()
        rotation(sp, 0.3, axis, x)
        assert shapes == [(6, 6), (6, 6), (5, 5), (5, 5)] * turns, axis


@pytest.mark.parametrize("n", [2, 10, 200])
def test_turn_matches_expm(n):
    # exp(-i t A) for H in both sign conventions and for J_x, on 1, 2 and 7 columns;
    # phases t w up to 200 rad, since expm and the eigensystem each lose about eps |t w|
    rng = np.random.default_rng(n + 7)
    for name, (d, e) in parity_bands(n).items():
        blocks = spin.tridiagonal_eigensystem(d, e)
        a = tridiagonal(d, e)
        t = rng.uniform(-200.0, 200.0) / np.abs(np.linalg.eigvalsh(a)).max()
        oracle = expm(-1j * t * a)
        for cols in (1, 2, 7):
            x = rng.normal(size=(n + 1, cols)) + 1j * rng.normal(size=(n + 1, cols))
            assert np.abs(spin.turn(blocks, t, x) - oracle @ x).max() <= 1e-12, (name, cols)


@pytest.mark.parametrize("axis", [X_AXIS, Y_AXIS, Z_AXIS, SpinAxis(1.1, 0.4)])
def test_rotation_by_zero_is_its_input(axis):
    sp = SpinSpace(10)
    x = np.ones((sp.dim, 3), dtype=complex)
    assert rotation(sp, 0.0, axis, x) is x
    # a wrong row count is refused at every angle, also where it would broadcast
    for rows in (1, sp.dim - 2, sp.dim + 2):
        for alpha in (0.0, 0.3):
            with pytest.raises(ValueError, match="rows"):
                rotation(sp, alpha, axis, np.ones((rows, 3), dtype=complex))


def test_rotation_memory_below_one_dense_complex_matrix():
    # a complex copy of R, as numpy's own R @ Z makes, is 801^2 * 16 B = 10.3 MB
    sp = SpinSpace(800)
    x = np.ones((sp.dim, 30), dtype=complex)
    axis = SpinAxis(1.1, 0.4)
    rotation(sp, 0.3, axis, x)  # R once per N, outside the budget
    tracemalloc.start()
    try:
        rotation(sp, 0.3, axis, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < sp.dim**2 * 16


@pytest.mark.parametrize("axis", [X_AXIS, Y_AXIS, Z_AXIS, SpinAxis(1.0, 0.3)])
def test_rotation_holds_one_gauged_copy(axis):
    # a turn holds two column blocks beyond its input, the folded columns and the
    # sectors; a rotation adds one gauged copy on every axis, its tilts included
    sp = SpinSpace(800)
    x = np.ones((sp.dim, 2 * sp.dim), dtype=complex)  # [V, J_z V] of a full-rank state
    eigensystem = jx_eigensystem(sp)
    calls = {2: lambda: spin.turn(eigensystem, 0.4, x), 3: lambda: rotation(sp, 0.4, axis, x)}
    for blocks, run in calls.items():
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # ufunc buffers add about 0.01 of a block
        assert peak < (blocks + 0.05) * x.nbytes, blocks


def test_apply_j_memory_is_linear_in_n():
    # one dense complex J at N = 10^4 would take 1.6 GB
    sp = SpinSpace(10_000)
    x = np.ones((sp.dim, 2), dtype=complex)
    tracemalloc.start()
    try:
        apply_j(sp, SpinAxis(0.7, 0.3), x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_rotation_identities():
    sp = SpinSpace(6)
    eye = np.eye(sp.dim)
    assert np.abs(rotation(sp, 0.0, X_AXIS, eye) - eye).max() < 1e-12
    # integer spin: a full turn about any axis is the identity
    ax = SpinAxis(1.1, -2.0)
    assert np.abs(rotation(sp, 2 * np.pi, ax, eye) - eye).max() < 1e-8


def test_readout_rotation_maps_jz_to_jy():
    sp = SpinSpace(10)
    mats = spin_matrices(10)
    u = rotation(sp, np.pi / 2, X_AXIS, np.eye(sp.dim))
    conjugated = u.conj().T @ mats.jz @ u
    assert np.abs(conjugated - mats.jy).max() < 1e-9


def test_thermal_state_infinite_temperature():
    sp = SpinSpace(10)
    rho = dense(thermal_state(sp, 0.0, 0.3, 1.0))
    assert np.abs(rho - np.eye(sp.dim) / sp.dim).max() < 1e-12


def test_thermal_state_zero_temperature_proxy():
    sp = SpinSpace(40)
    ax = SpinAxis(np.arccos(0.3), -1.2)
    rho = dense(thermal_state(sp, 50.0, 0.3, -1.2))
    # independent oracle: projector onto the top eigenvector of the axis op
    w, v = np.linalg.eigh(dense_j(40, ax))
    top = v[:, -1]
    fidelity = np.real(top.conj() @ rho @ top)
    assert fidelity > 0.999


def test_exp_underflow_is_float64s_underflow_exponent():
    # e^{-x} is exactly 0.0 from EXP_UNDERFLOW on, and still a subnormal 0.01 below it
    assert np.exp(-spin.EXP_UNDERFLOW) == 0.0
    assert np.exp(-(spin.EXP_UNDERFLOW - 0.01)) > 0
    # so the pure-state beta leaves one column: every lower weight underflows
    assert dynamics.PURE_STATE_BETA > spin.EXP_UNDERFLOW
    assert thermal_state(SpinSpace(40), dynamics.PURE_STATE_BETA, 0.3, -1.2).values.size == 1


def test_thermal_state_rejects_bad_inputs():
    sp = SpinSpace(4)
    with pytest.raises(ValueError):
        thermal_state(sp, 1.0, 1.5, 0.0)
    with pytest.raises(ValueError):
        thermal_state(sp, -0.5, 0.0, 0.0)


def test_thermal_state_commutes_with_axis_op():
    sp = SpinSpace(16)
    rho = dense(thermal_state(sp, 0.7, -0.4, 2.0))
    a = dense_j(16, SpinAxis(np.arccos(-0.4), 2.0))
    comm = rho @ a - a @ rho
    assert np.abs(comm).max() < 1e-9


def test_thermal_state_rotation_covariance():
    # rho(beta, z, phi) equals the z-polar thermal state conjugated by the
    # rotation that carries the z axis onto (acos z, phi)
    sp = SpinSpace(14)
    rng = np.random.default_rng(5)
    for _ in range(6):
        z = rng.uniform(-0.95, 0.95)
        phi = rng.uniform(-np.pi, np.pi)
        beta = rng.uniform(0.1, 3.0)
        theta = np.arccos(z)
        r = rotation(sp, theta, SpinAxis(np.pi / 2, phi + np.pi / 2), np.eye(sp.dim))
        rho_pole = dense(thermal_state(sp, beta, 1.0, 0.0))
        rho_direct = dense(thermal_state(sp, beta, z, phi))
        assert np.abs(r @ rho_pole @ r.conj().T - rho_direct).max() < 1e-8


def test_expectation_and_variance():
    sp = SpinSpace(100)
    jz = spin_matrices(100).jz

    def expectation(rho, a):
        return np.trace(a @ rho).real

    def variance(rho, a):
        return expectation(rho, a @ a) - expectation(rho, a) ** 2

    rho_mixed = np.eye(sp.dim) / sp.dim
    assert abs(expectation(rho_mixed, jz)) < 1e-12

    pole = coherent_state(sp, Z_AXIS)
    rho_pole = np.outer(pole, pole.conj())
    assert abs(expectation(rho_pole, jz) - sp.j) < 1e-8
    assert variance(rho_pole, jz) < 1e-8

    # transverse coherent state has the standard projection noise j/2
    side = coherent_state(sp, X_AXIS)
    rho_side = np.outer(side, side.conj())
    assert abs(variance(rho_side, jz) - sp.j / 2) < 1e-8


def test_state_constructors_pass_density_checks():
    rng = np.random.default_rng(9)
    sp = SpinSpace(12)
    for _ in range(5):
        z = rng.uniform(-1, 1)
        phi = rng.uniform(-np.pi, np.pi)
        beta = rng.uniform(0, 5)
        assert_density_matrix(dense(thermal_state(sp, beta, z, phi)))
    assert_density_matrix(random_density(rng, sp.dim))


BAD_STATES = {
    "non_hermitian": [[0.5, 0.1], [0.0, 0.5]],
    "trace_two": [[1.0, 0.0], [0.0, 1.0]],
    "negative_eigenvalue": [[1.0 + 1e-6, 0.0], [0.0, -1e-6]],
}


@pytest.mark.parametrize("name", sorted(BAD_STATES))
def test_density_checks_reject_bad_states(name):
    rho = np.array(BAD_STATES[name], dtype=complex)
    with pytest.raises(NumericalInvariantError):
        assert_density_matrix(rho)
    with pytest.raises(NumericalInvariantError):
        state_eigensystem(rho)
    with pytest.raises(NumericalInvariantError):
        p, v = state_eigensystem(rho)
        _qfi_form(p, *_projections(v, (np.diag([0.5, -0.5]) @ v)[None]))


def orthonormal(rng: np.random.Generator, rows: int, cols: int, complex_: bool) -> np.ndarray:
    a = rng.normal(size=(rows, cols))
    if complex_:
        a = a + 1j * rng.normal(size=(rows, cols))
    return np.linalg.qr(a)[0]


def one_shot_deviation(u: np.ndarray) -> float:
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[1])).max())


@pytest.mark.parametrize("complex_", [False, True])
def test_panelled_check_finds_every_defect(complex_):
    # three panels of U^dag U; each defect alone, 1e-8 against the 1e-9 tolerance
    w = spin.CHECK_PANEL
    n = 2 * w + 37
    u = orthonormal(np.random.default_rng(3), n, n, complex_)
    assert spin.assert_unitary(u) <= 1e-13
    # column j gains e * column i: an overlap e, or for i = j a squared norm 1 + 2e
    defects = {
        "overlap across panels": (w + 7, 3, 1e-8),
        "overlap in the last panel's corner": (n - 1, n - 2, 1e-8),
        "column norm": (w + 11, w + 11, 0.5e-8),
    }
    for name, (j, i, e) in defects.items():
        v = u.copy()
        v[:, j] += e * v[:, i]
        assert one_shot_deviation(v) >= 0.9e-8, name
        with pytest.raises(NumericalInvariantError, match="not unitary"):
            spin.assert_unitary(v)
    with pytest.raises(NumericalInvariantError, match="not unitary"):
        spin.assert_unitary(np.where(np.eye(n) > 0, np.nan, u))


@pytest.mark.parametrize("complex_", [False, True])
def test_panelled_check_reports_the_one_shot_deviation(complex_):
    # on near-orthonormal columns, square and tall, fewer and more than one panel
    rng = np.random.default_rng(4)
    w = spin.CHECK_PANEL
    for rows, cols in ((w // 2, w // 2), (3 * w, 2 * w + 1), (2 * w + 5, w - 3), (50, 1)):
        u = orthonormal(rng, rows, cols, complex_)
        for noise in (0.0, 1e-11, 1e-10):
            v = u + noise * rng.normal(size=u.shape)
            assert abs(spin.assert_unitary(v) - one_shot_deviation(v)) <= 1e-14, (rows, cols)


def test_jx_eigensystem_holds_no_gram_beyond_one_check_panel():
    # with H's propagator held, J_x's blocks and one check panel are all it allocates:
    # an (N/2 + 1)^2 Gram, 1.3 MB at N = 800, does not fit in the slack
    params = TwistTurnParams(SpinSpace(800))
    dynamics.propagator(params)
    jx_eigensystem.cache_clear()
    tracemalloc.start()
    try:
        blocks = jx_eigensystem(params.space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        jx_eigensystem.cache_clear()
    held = sum(arr.nbytes for block in blocks for arr in block)
    panel = 8 * spin.CHECK_PANEL * blocks.even.vectors.shape[0]
    assert peak <= held + panel + 2**16


BAD_FACTORS = {
    "negative_weight": ([1.1, -0.1], np.eye(2)),
    "trace_two": ([1.0, 1.0], np.eye(2)),
    "not_orthonormal": ([0.5, 0.5], [[1.0, 1e-6], [0.0, 1.0]]),
    "nan_weight": ([np.nan, 1.0], np.eye(2)),
}


@pytest.mark.parametrize("name", sorted(BAD_FACTORS))
def test_state_factor_rejects_bad_factors(name):
    p, v = BAD_FACTORS[name]
    with pytest.raises(NumericalInvariantError):
        state_factor(np.array(p), np.array(v, dtype=complex))


def test_thermal_state_checks_its_factor(monkeypatch):
    # the J_x parity blocks are checked where they are made, before any state uses them
    skew(monkeypatch, spin, "_jx_block")
    jx_eigensystem.cache_clear()
    try:
        with pytest.raises(NumericalInvariantError, match="not unitary"):
            thermal_state(SpinSpace(10), 1.0, 0.3, 0.2)
        # a rotation has no state check behind it: the eigensystem's own check is the one
        with pytest.raises(NumericalInvariantError, match="not unitary"):
            rotation(SpinSpace(10), 0.4, X_AXIS, np.eye(11))
    finally:
        jx_eigensystem.cache_clear()


@pytest.mark.parametrize("n", [200, 800])
def test_thermal_state_keeps_its_support(n):
    # weights that underflow to exactly 0 are dropped, and only those
    sp = SpinSpace(n)
    for beta, rank in ((50.0, 15), (10.0, 75), (0.1, n + 1)):
        p, v = thermal_state(sp, beta, 0.0, np.pi)
        assert p.size == rank and v.shape == (sp.dim, rank)
        assert p.min() > 0 and abs(p.sum() - 1.0) < 1e-12


def test_spectral_decomp_reconstruction():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    a = (a + a.conj().T) / 2
    dec = spectral_decomp(a)
    recon = (dec.vectors * dec.values) @ dec.vectors.conj().T
    assert np.abs(recon - a).max() < 1e-8 * np.abs(a).max()
    gram = dec.vectors.conj().T @ dec.vectors
    assert np.abs(gram - np.eye(9)).max() < 1e-9
