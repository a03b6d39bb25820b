"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Reference scale is N = 200 (dimension 201) except
where a criterion states otherwise.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from catlab import (
    MeanFieldParams,
    PhasePoint,
    ReadoutSpec,
    RunConfig,
    SpinSpace,
    StateLabel,
    TrajectoryClass,
    TwistTurnParams,
    Z_AXIS,
    cat_split,
    cfi_commutator,
    cfi_finite_difference,
    classical_energy,
    classify_batch,
    jz_distribution,
    make_synthetic_cat,
    metrology_report,
    lg_violation,
    prepare_and_evolve,
    qfi,
    qfi_axis_map,
    reduced_density,
    separatrix,
    thermal_state,
    wigner,
)
from catlab.catqubit import analytic_qfi
from catlab.harness import run_command
from catlab.metrology import default_axis_grids
from catlab.spin import state_eigensystem

from conftest import PURE_BETA, dense, random_density, random_pure, spin_matrices

N_REF = 200


def report(number: int, title: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " | " + "; ".join(failures)
    print(f"ACCEPTANCE {number:2d} [{status}] {title}{detail}", flush=True)
    assert not failures, f"criterion {number}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def crossover_sweep(params200):
    """r_q, r_c, Lambda, F_q(J_z) for both states over the 13-point log grid."""
    grid = [float(v) for v in np.logspace(-1, 2, 13)]
    out = {}
    for label, factor in ((StateLabel.PI, 1.0), (StateLabel.ZERO, 1.4)):
        rows = []
        for beta_inv in grid:
            state = next(prepare_and_evolve(label, 1.0 / beta_inv, [factor], params200))
            rep = metrology_report(state)
            rows.append(rep)
        out[label] = rows
    return grid, out


def test_criterion_01_cat_creation(cold_zero_cat):
    dist = jz_distribution(cold_zero_cat)
    split = cat_split(dist)
    failures = []
    if not 65 * 0.9 <= split.extensive_difference <= 65 * 1.1:
        failures.append(f"Lambda = {split.extensive_difference:.2f} outside 65 +- 10%")
    for side, width in (("left", split.peak_width_left), ("right", split.peak_width_right)):
        if not 5.0 <= width <= 15.0:
            failures.append(f"{side} peak width {width:.2f} outside 10 +- 50%")
    report(1, f"cat creation: Lambda = {split.extensive_difference:.2f}, "
              f"widths = ({split.peak_width_left:.2f}, {split.peak_width_right:.2f})",
           failures)


def test_criterion_02_hot_double_peak(hot_zero_cat):
    rep = metrology_report(hot_zero_cat)
    failures = []
    if not abs(rep.lam - N_REF / 3) <= 0.15 * (N_REF / 3):
        failures.append(f"Lambda = {rep.lam:.2f} outside N/3 +- 15%")
    if not rep.r_c <= 0.10:
        failures.append(f"r_c = {rep.r_c:.4f} > 0.10")
    report(2, f"hot double peak: Lambda = {rep.lam:.2f}, r_c = {rep.r_c:.4f}", failures)


def test_criterion_03_quality_bound(cold_zero_cat):
    rep = metrology_report(cold_zero_cat)
    failures = []
    if not abs(rep.r_c - 0.75) <= 0.05:
        failures.append(f"r_c = {rep.r_c:.4f} outside 0.75 +- 0.05")
    if not abs(rep.r_q - 1.0) <= 1e-6:
        failures.append(f"r_q = {rep.r_q!r} outside 1 +- 1e-6")
    if not rep.reduced_lambda_c >= 45.0:
        failures.append(f"Lambda r_c = {rep.reduced_lambda_c:.2f} < 45")
    report(3, f"quality bound: r_c = {rep.r_c:.4f}, r_q - 1 = {rep.r_q - 1:.2e}, "
              f"Lambda r_c = {rep.reduced_lambda_c:.2f}", failures)


def test_criterion_04_crossover(crossover_sweep):
    grid, sweeps = crossover_sweep
    failures = []
    for label, rows in sweeps.items():
        rq = np.array([r.r_q for r in rows])
        lam = np.array([r.lam for r in rows])
        name = label.value
        if not rq[0] > 0.99:
            failures.append(f"{name}: r_q({grid[0]}) = {rq[0]:.4f} not > 0.99")
        if not rq[-1] < 0.10:
            failures.append(f"{name}: r_q({grid[-1]}) = {rq[-1]:.4f} not < 0.10")
        if not np.all(np.diff(rq) <= 1e-9):
            failures.append(f"{name}: r_q not monotone non-increasing")
        # the fall must be concentrated in [1, 10]: that decade drops the most
        i1, i10 = grid.index(1.0), grid.index(10.0)
        drops = (rq[0] - rq[i1], rq[i1] - rq[i10], rq[i10] - rq[-1])
        if not (drops[1] >= drops[0] and drops[1] >= drops[2]):
            failures.append(f"{name}: fall not concentrated in [1,10], decade drops = "
                            f"({drops[0]:.3f}, {drops[1]:.3f}, {drops[2]:.3f})")
        cold = lam[0]
        off_band = [
            (b, v) for b, v in zip(grid, lam) if not 0.8 * cold <= v <= 1.2 * cold
        ]
        if off_band:
            worst = max(off_band, key=lambda bv: abs(bv[1] - cold))
            failures.append(
                f"{name}: Lambda leaves the +-20% band of cold value {cold:.1f} at "
                f"{len(off_band)} grid points (worst: beta_inv = {worst[0]:.3g}, "
                f"Lambda = {worst[1]:.1f})"
            )
    report(4, "crossover r_q fall, monotonicity, Lambda constancy", failures)


def test_criterion_05_n_scaling():
    # the scaling study holds the phase-space geometry fixed: u N = 20 t, the
    # reference coupling, so T_pi grows logarithmically while Lambda tracks N
    ns = np.array([200, 400, 600, 800])
    lams = []
    for n in ns:
        space = SpinSpace(int(n))
        params = TwistTurnParams(space, u_int=20.0 / n)
        state = next(prepare_and_evolve(StateLabel.ZERO, PURE_BETA, [1.4], params))
        lams.append(cat_split(jz_distribution(state)).extensive_difference)
    lams = np.array(lams)
    slope = float((ns * lams).sum() / (ns * ns).sum())
    c = 1.0 / slope
    failures = []
    if not 2.8 <= c <= 3.4:
        failures.append(f"fit c = {c:.3f} outside 3.1 +- 0.3")
    report(5, f"N-scaling: Lambda = {np.array2string(lams, precision=1)}, c = {c:.3f}",
           failures)


def test_n_scaling_holds_at_n4000():
    # criterion 5's law, Lambda ~ N / 3.1 at u N = 20 t (Gordon & Savage, Phys. Rev. A 59,
    # 4623 (1999)), five times past its fitted range: the cold 0 cat stays pure (r_q = 1)
    # and its measurable indefiniteness r_c stays near its N = 800 value
    reports = {}
    for n in (800, 4000):
        params = TwistTurnParams(SpinSpace(n), u_int=20.0 / n)
        state = next(prepare_and_evolve(StateLabel.ZERO, PURE_BETA, [1.4], params))
        reports[n] = metrology_report(state)
    big = reports[4000]
    assert 2.8 <= 4000 / big.lam <= 3.4
    assert big.r_q == pytest.approx(1.0, abs=1e-9)
    assert abs(big.r_c - reports[800].r_c) <= 0.1


def test_criterion_06_fisher_chain():
    rng = np.random.default_rng(2024)
    readout = ReadoutSpec()
    failures = []
    checked = 0
    pure_checked = 0

    def check_state(state, space, pure):
        nonlocal checked, pure_checked
        f_q = qfi(state, Z_AXIS)
        f_c = cfi_commutator(state, Z_AXIS, readout)
        if f_c > f_q * (1 + 1e-9) + 1e-12:
            failures.append(f"F_c = {f_c:.6g} exceeds F_q = {f_q:.6g}")
        fd = cfi_finite_difference(state, Z_AXIS, readout, delta=1e-4)
        tol = 1e-4 * f_c + 1e-9 * max(f_q, 1.0)
        if abs(fd - f_c) > tol:
            failures.append(f"finite-difference CFI off: {fd:.8g} vs {f_c:.8g}")
        if pure:
            pure_checked += 1
            rho, jz = dense(state), spin_matrices(space.n_particles).jz
            target = 4.0 * (np.trace(jz @ jz @ rho) - np.trace(jz @ rho) ** 2).real
            if abs(f_q - target) > 1e-6 * max(target, 1e-12):
                failures.append(f"pure F_q = {f_q:.8g} vs 4 Var = {target:.8g}")
        checked += 1

    sp30 = SpinSpace(30)
    for _ in range(40):
        psi = random_pure(rng, sp30.dim)
        check_state(state_eigensystem(np.outer(psi, psi.conj())), sp30, pure=True)
    for _ in range(40):
        beta = rng.uniform(0.05, 4.0)
        z = rng.uniform(-0.9, 0.9)
        phi = rng.uniform(-np.pi, np.pi)
        check_state(thermal_state(sp30, beta, z, phi), sp30, pure=False)
    sp60 = SpinSpace(60)
    params = TwistTurnParams(sp60)
    for _ in range(20):
        beta = rng.choice([PURE_BETA, rng.uniform(0.1, 2.0)])
        factor = rng.uniform(0.0, 2.0)
        label = StateLabel.PI if rng.random() < 0.5 else StateLabel.ZERO
        state = next(prepare_and_evolve(label, float(beta), [float(factor)], params))
        check_state(state, sp60, pure=beta == PURE_BETA)

    assert checked >= 100 and pure_checked >= 40
    report(6, f"Fisher chain on {checked} states ({pure_checked} pure)", failures)


def test_criterion_07_axis_map(cold_pi_cat, cold_zero_cat, crossover_sweep):
    thetas, phis = default_axis_grids()
    cell = thetas[1] - thetas[0]
    failures = []
    for name, state in (("pi", cold_pi_cat), ("zero", cold_zero_cat)):
        amap = qfi_axis_map(state, thetas, phis)
        off = abs(amap.argmax_axis.theta - np.pi / 2)
        if off > cell + 1e-12:
            failures.append(
                f"{name} cat: argmax theta = {amap.argmax_axis.theta:.4f} is "
                f"{off / cell:.1f} cells from pi/2 (allowed 1)"
            )
    grid, sweeps = crossover_sweep
    i1, i10 = grid.index(1.0), grid.index(10.0)
    for label, rows in sweeps.items():
        neff_jz = [r.n_eff_bound for r in rows[i1:i10 + 1]]
        if not all(a >= b - 1e-9 for a, b in zip(neff_jz, neff_jz[1:])):
            failures.append(f"{label.value}: F_q(J_z)/4N not decaying through [1,10]")
    report(7, "axis map argmax and N_eff(J_z) crossover decay", failures)


def test_criterion_08_separatrix():
    failures = []
    mf10 = MeanFieldParams(10.0)
    z0 = separatrix(0.0, mf10)
    if abs(z0 - 0.6) > 1e-9:
        failures.append(f"z_c(0) = {z0!r} not 0.6 +- 1e-9")
    zpi = separatrix(np.pi, mf10)
    if abs(zpi) > 1e-10:
        failures.append(f"z_c(pi) = {zpi!r} not 0")

    rng = np.random.default_rng(8)
    pts = []
    while len(pts) < 200:
        z = rng.uniform(-0.95, 0.95)
        phi = rng.uniform(-np.pi, np.pi)
        z_c = separatrix(phi, mf10)
        if abs(abs(z) - z_c) < 1e-4:
            continue
        pts.append(PhasePoint(z, phi))
    classes = classify_batch(pts, mf10)
    wrong = 0
    for p, cls in zip(pts, classes):
        expected = (
            TrajectoryClass.SELF_TRAPPING
            if classical_energy(p, mf10) > 1.0
            else TrajectoryClass.FREE_OSCILLATION
        )
        if cls is not expected:
            wrong += 1
    if wrong:
        failures.append(f"{wrong}/200 classifications disagree with the energy criterion")
    report(8, f"separatrix: z_c(0) = {z0:.12f}, classification 200 points", failures)


def test_criterion_09_cat_qubit_closed_forms():
    space = SpinSpace(N_REF)
    cat = make_synthetic_cat(space, center=33.0, width=5.0)
    m = space.m_values
    failures = []
    model0 = cat.model(0.0)
    c_plus = (cat.alive + cat.dead) / np.sqrt(2)
    second = float(np.real(np.vdot(c_plus, m**2 * c_plus)))
    if abs(model0.peak_width**2 + model0.lam**2 - 4 * second) > 1e-8:
        failures.append("triangle identity beyond 1e-8")
    for eta in (0.0, np.pi / 6, np.pi / 4, np.pi / 3, 5 * np.pi / 12, np.pi / 2):
        state = reduced_density(cat, eta)
        spectral = qfi(state, Z_AXIS)
        closed = analytic_qfi(cat.model(eta))
        if abs(spectral - closed) > 1e-6 * closed:
            failures.append(f"QFI mismatch at eta = {eta:.3f}: "
                            f"{spectral:.8g} vs {closed:.8g}")
        w = np.sort(np.linalg.eigvalsh(dense(state)))[::-1]
        expect = np.array([(1 + np.cos(eta)) / 2, (1 - np.cos(eta)) / 2])
        if abs(w[0] - expect.max()) > 1e-9 or abs(w[1] - expect.min()) > 1e-9:
            failures.append(f"reduced eigenvalues off at eta = {eta:.3f}")
    report(9, "cat-qubit closed forms vs spectral QFI", failures)


def test_criterion_10_leggett_garg():
    failures = []
    if lg_violation(0.0) != -0.5:
        failures.append(f"lg(0) = {lg_violation(0.0)!r} != -0.5")
    eta_star = np.arccos(2.0 / 3.0)
    if abs(lg_violation(eta_star)) > 1e-12:
        failures.append(f"lg at cos eta = 2/3 is {lg_violation(eta_star):.3e}")
    if not (lg_violation(eta_star - 1e-6) < 0 < lg_violation(eta_star + 1e-6)):
        failures.append("no sign change across cos eta = 2/3")
    report(10, "Leggett-Garg values", failures)


def test_criterion_11_wigner():
    rng = np.random.default_rng(31)
    space = SpinSpace(30)
    failures = []
    for _ in range(6):
        rho = random_density(rng, space.dim)
        grid = wigner(state_eigensystem(rho), phi_points=64)
        marg_err = np.abs(grid.phi_average() - np.real(np.diag(rho))).max()
        if marg_err > 1e-8:
            failures.append(f"marginal error {marg_err:.2e} > 1e-8")
        # independent realness check: rebuild W directly from the definition
        direct = np.zeros((space.dim, 8), dtype=complex)
        phis = grid.phi_values[::8]
        for idx in range(space.dim):
            reach = min(idx, space.dim - 1 - idx)
            for n in range(-reach, reach + 1):
                direct[idx] += np.exp(1j * 2 * n * phis) * rho[idx + n, idx - n]
        if np.abs(direct.imag).max() > 1e-9:
            failures.append("imaginary residue beyond 1e-9")
        if np.abs(direct.real - grid.values[:, ::8]).max() > 1e-10:
            failures.append("implementation disagrees with the direct sum")
    report(11, "Wigner marginal identity and realness", failures)


def test_criterion_12_determinism(tmp_path, monkeypatch):
    base = dict(
        n_particles=40,
        time_factors=[0.0, 0.7, 1.4],
        beta_inv_grid=[0.5, 5.0],
        workers=1,
    )
    cfg = RunConfig(**base, out_dir=str(tmp_path / "run"))
    digests = []
    for workers_env in ("1", "3"):
        monkeypatch.setenv("CATLAB_WORKERS", workers_env)
        run_command("all-figures", cfg)
        tree = {}
        for p in sorted(Path(cfg.out_dir).rglob("*")):
            if p.is_file():
                rel = p.relative_to(cfg.out_dir).as_posix()
                tree[rel] = hashlib.sha256(p.read_bytes()).hexdigest()
        digests.append(tree)
    failures = []
    if set(digests[0]) != set(digests[1]):
        failures.append("output trees differ in file lists")
    else:
        for rel in digests[0]:
            if digests[0][rel] != digests[1][rel]:
                failures.append(f"byte mismatch in {rel}")
    report(12, f"determinism across worker counts ({len(digests[0])} files)", failures)
