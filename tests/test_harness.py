import functools
import importlib
import importlib.util
import inspect
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from catlab import RunConfig, catqubit, classical, dynamics, metrology, spin, wigner
from catlab.harness import BLOCK_ROWS, Grid, parallel_map, run_command, write_csv

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_cold_time_sweep_peaks_near_1p4(tmp_path):
    cfg = RunConfig(
        n_particles=200,
        state_label="zero",
        beta_inv_over_eps=0.0,
        time_factors=[round(0.8 + 0.1 * k, 10) for k in range(11)],  # 0.8 .. 1.8
        out_dir=str(tmp_path),
    )
    run_command("time-sweep", cfg)
    header, rows = read_csv(tmp_path / "lambda_r_vs_time.csv")
    factors = np.array([float(r[header.index("time_factor")]) for r in rows])
    lams = np.array([float(r[header.index("lambda")]) for r in rows])
    peak = factors[lams.argmax()]
    assert 1.3 <= peak <= 1.5


def test_hot_time_sweep_peaks_near_1p1(tmp_path):
    cfg = RunConfig(
        n_particles=200,
        state_label="zero",
        beta_inv_over_eps=10.0,
        time_factors=[round(0.7 + 0.1 * k, 10) for k in range(9)],  # 0.7 .. 1.5
        out_dir=str(tmp_path),
    )
    run_command("time-sweep", cfg)
    header, rows = read_csv(tmp_path / "lambda_r_vs_time.csv")
    factors = np.array([float(r[header.index("time_factor")]) for r in rows])
    lams = np.array([float(r[header.index("lambda")]) for r in rows])
    peak = factors[lams.argmax()]
    assert 1.0 <= peak <= 1.2


def test_distribution_pi_state_symmetric_double_peak(tmp_path):
    cfg = RunConfig(
        n_particles=200, state_label="pi", beta_inv_over_eps=0.0, out_dir=str(tmp_path)
    )
    run_command("distribution", cfg)
    header, rows = read_csv(tmp_path / "jz_distribution.csv")
    p = np.array([float(r[1]) for r in rows])
    assert np.abs(p - p[::-1]).max() < 1e-6  # parity symmetric
    peaks = [
        i for i in range(1, p.size - 1)
        if p[i] > 1e-4 and p[i] > p[i - 1] and p[i] > p[i + 1]
    ]
    assert len(peaks) >= 2
    assert max(peaks) - min(peaks) > 30  # macroscopically separated


def test_temperature_sweep_rq_decays(tmp_path):
    cfg = RunConfig(
        n_particles=60,
        beta_inv_grid=[0.2, 2.0, 20.0],
        out_dir=str(tmp_path),
    )
    run_command("temp-sweep", cfg)
    header, rows = read_csv(tmp_path / "crossover.csv")
    assert header[:3] == ["state", "beta_inv", "lambda"]
    for state in ("pi", "zero"):
        rq = [float(r[header.index("r_q")]) for r in rows if r[0] == state]
        assert rq[0] > rq[1] > rq[2]
    # both states present at every grid point
    assert len(rows) == 6


def test_optimize_time_factor_records_choice(tmp_path):
    cfg = RunConfig(
        n_particles=60,
        beta_inv_grid=[5.0],
        time_factors=[1.0, 1.2, 1.4],
        optimize_time_factor=True,
        out_dir=str(tmp_path),
    )
    run_command("temp-sweep", cfg)
    header, rows = read_csv(tmp_path / "crossover.csv")
    chosen = {r[0]: float(r[header.index("time_factor")]) for r in rows}
    assert set(chosen) == {"pi", "zero"}
    assert all(v in (1.0, 1.2, 1.4) for v in chosen.values())
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "maximizing search" in " ".join(manifest["notes"])


def test_qfi_map_csv_shape_and_manifest(tmp_path):
    cfg = RunConfig(n_particles=40, out_dir=str(tmp_path))
    run_command("qfi-map", cfg)
    header, rows = read_csv(tmp_path / "neff_map.csv")
    assert header == ["theta", "phi", "value"]
    # the CLI's one grid, theta outermost
    thetas, phis = metrology.default_axis_grids()
    assert len(rows) == len(thetas) * len(phis) == 64 * 128
    assert [float(r[0]) for r in rows[::len(phis)]] == thetas.tolist()
    assert [float(r[1]) for r in rows[:len(phis)]] == phis.tolist()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    # lambda_cl = u N = 4: the crossing solves 2 z^2 - sqrt(1 - z^2) = 1
    assert manifest["derived"]["lambda_cl"] == pytest.approx(4.0)
    assert manifest["derived"]["z_c0"] == pytest.approx(np.sqrt(3) / 2, abs=1e-9)
    assert manifest["time_factor_zero"] == 1.4


def test_manifest_records_the_whole_tolerance_table(tmp_path):
    run_command("catqubit", RunConfig(out_dir=str(tmp_path)))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["tolerances"] == spin.TOLERANCES
    checked_inline_before = {
        "wigner_imag_residue", "probability_sum", "fisher_ratio", "fisher_chain_rel",
        "fisher_chain_abs", "cat_split_at_mean", "branch_orthogonality",
    }
    assert checked_inline_before <= set(manifest["tolerances"])


def _verdict(check):
    """What a check decides: its result, or the type of the ValueError it raises."""
    try:
        return check()
    except ValueError as err:
        return type(err)


# checks that decide rather than reject, each on an input its default slack decides
DECIDING_CHECKS = {
    # p = 1/2 in both bins is above the cutoff; under a cutoff of 1 every bin is skipped
    "fisher_weight_cutoff": lambda: metrology._cfi(np.array([0.5, 0.5]), np.array([1.0, -1.0])),
    # a bracket 1 wide ends the bisection after its first halving
    "separatrix_bisection": lambda: classical.separatrix(0.0, classical.MeanFieldParams(20.0)),
    # the bin at m = 0, 1e-12 below the mean, is in neither half
    "cat_split_at_mean": lambda: metrology.cat_split(metrology.JzDistribution(
        spin.SpinSpace(2), np.array([0.25 - 5e-13, 0.5, 0.25 + 5e-13])
    )).n_left,
    # branches on m < 0 and m > 0 are exactly orthogonal
    "branch_orthogonality": lambda: _verdict(
        lambda: type(catqubit.make_synthetic_cat(spin.SpinSpace(40), 8.0, 2.0))
    ),
    # an angle 1e-12 below 0 is round-off at the edge, read as eta = 0
    "eta_range": lambda: _verdict(lambda: catqubit.lg_violation(-1e-12)),
}

# checks that reject, each on an exact input outside the state path below
REJECTING_CHECKS = {
    "hermiticity": lambda: spin.spectral_decomp(np.eye(2)),
    "unitarity": lambda: spin.assert_unitary(np.eye(2)),
    "trace": lambda: spin.state_factor(np.array([1.0, 0.0]), np.eye(2)),
    "eigenvalue_floor": lambda: spin.state_eigensystem(np.diag([1.0, 0.0])),
    "probability_floor": lambda: metrology.JzDistribution(
        spin.SpinSpace(2), np.array([0.25, 0.5, 0.25])
    ),
    "energy_drift": lambda: classical.integrate_trajectory(
        classical.PhasePoint(0.2, 0.0), classical.MeanFieldParams(10.0), 0.1
    ),
}

# one value per key that flips the check reading it
TOLERANCE_FLIPS = [
    ("hermiticity", -1.0),
    ("unitarity", -1.0),
    ("trace", -1.0),
    ("eigenvalue_floor", 1.0),
    ("probability_floor", 1.0),
    ("probability_sum", -1.0),
    ("fisher_weight_cutoff", 1.0),
    ("fisher_ratio", -2.0),
    ("fisher_chain_rel", -2.0),
    ("fisher_chain_abs", -1e300),
    ("wigner_imag_residue", -1.0),
    ("energy_drift", -1.0),
    ("separatrix_bisection", 1.0),
    ("cat_split_at_mean", -1.0),
    ("branch_orthogonality", -1.0),
    ("eta_range", -1.0),
]


@pytest.mark.parametrize("key,value", TOLERANCE_FLIPS)
def test_checks_read_the_tolerance_table(monkeypatch, key, value):
    # a slack no input can meet flips the check that reads it: a state check
    # fails, and a deciding check decides the other way; so no key goes unread
    assert {k for k, _ in TOLERANCE_FLIPS} == set(spin.TOLERANCES)
    if key in DECIDING_CHECKS:
        decide = DECIDING_CHECKS[key]
        default = decide()
        monkeypatch.setitem(spin.TOLERANCES, key, value)
        assert decide() != default
    elif key in REJECTING_CHECKS:
        check = REJECTING_CHECKS[key]
        check()
        monkeypatch.setitem(spin.TOLERANCES, key, value)
        with pytest.raises(spin.NumericalInvariantError):
            check()
    else:
        state = next(dynamics.prepare_and_evolve(
            dynamics.StateLabel.PI, 1.0, [0.5], dynamics.TwistTurnParams(spin.SpinSpace(20))
        ))
        monkeypatch.setitem(spin.TOLERANCES, key, value)
        with pytest.raises(spin.NumericalInvariantError):
            if key == "wigner_imag_residue":
                wigner(state, 32)
            else:
                metrology.metrology_report(state)


@pytest.fixture
def build_counts(monkeypatch):
    """Counts of thermal-state preparations and Hamiltonian diagonalizations."""
    counts = {"thermal_state": 0, "propagator": 0}
    thermal_state, init = dynamics.thermal_state, dynamics.Propagator.__init__

    def counted_thermal_state(*args):
        counts["thermal_state"] += 1
        return thermal_state(*args)

    def counted_init(self, hamiltonian):
        counts["propagator"] += 1
        init(self, hamiltonian)

    monkeypatch.setattr(dynamics, "thermal_state", counted_thermal_state)
    monkeypatch.setattr(dynamics.Propagator, "__init__", counted_init)
    monkeypatch.delenv("CATLAB_WORKERS", raising=False)
    dynamics.propagator.cache_clear()
    return counts


def test_serial_time_sweep_prepares_once(tmp_path, build_counts):
    cfg = RunConfig(n_particles=40, time_factors=[0.0, 0.7, 1.4, 2.0], out_dir=str(tmp_path),
                    workers=1)
    run_command("time-sweep", cfg)
    assert build_counts == {"thermal_state": 1, "propagator": 1}
    assert len(read_csv(tmp_path / "lambda_r_vs_time.csv")[1]) == 4


def test_serial_all_figures_evolves_the_configured_state_once(tmp_path, build_counts):
    # one state per sweep chunk, one per temp-sweep label, and one that distribution,
    # qfi-map and wigner share
    run_command("all-figures", RunConfig(n_particles=40, out_dir=str(tmp_path), workers=1))
    assert build_counts == {"thermal_state": 4, "propagator": 1}


def counted_solver(monkeypatch) -> list[int]:
    """Record the size of every block the tridiagonal solver diagonalizes."""
    dims = []
    solve = spin._stevd

    def counted(diagonal, off_diagonal):
        dims.append(diagonal.size)
        return solve(diagonal, off_diagonal)

    monkeypatch.setattr(spin, "_stevd", counted)
    return dims


def test_time_sweep_diagonalizes_each_state_once(tmp_path, monkeypatch):
    """No evolved state is diagonalized: the solver's calls are the sweep's two preparations."""
    checked = []
    state_eigensystem = spin.state_eigensystem
    dims = counted_solver(monkeypatch)

    def counted(rho):
        checked.append(rho.shape)
        return state_eigensystem(rho)

    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("a state was diagonalized only to be checked")

    monkeypatch.setattr(spin, "state_eigensystem", counted)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    monkeypatch.delenv("CATLAB_WORKERS", raising=False)
    dynamics.propagator.cache_clear()
    spin.jx_eigensystem.cache_clear()
    cfg = RunConfig(n_particles=40, time_factors=[0.0, 0.7, 1.4], out_dir=str(tmp_path))
    run_command("time-sweep", cfg)
    assert checked == []
    # the Hamiltonian's even and odd parity blocks: J_x's, which tilt the thermal state
    # and turn the read-out, are in closed form
    assert dims == [21, 20]


def test_temp_sweep_diagonalizes_two_matrices(tmp_path, monkeypatch):
    """H, and J_x, which both states and the read-out share: H's two half-size blocks are
    the only solver calls, and J_x's closed-form blocks are built once."""
    dims = counted_solver(monkeypatch)
    monkeypatch.delenv("CATLAB_WORKERS", raising=False)
    dynamics.propagator.cache_clear()
    spin.jx_eigensystem.cache_clear()
    run_command("temp-sweep", RunConfig(out_dir=str(tmp_path)))
    assert dims == [101, 100]
    info = spin.jx_eigensystem.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    shared = spin.jx_eigensystem(spin.SpinSpace(200))
    assert spin.jx_eigensystem.cache_info().hits == info.hits + 1
    assert not any(arr.flags.writeable for block in shared for arr in block)


def test_a_sweep_on_the_lapack_path_never_calls_eigh(tmp_path, monkeypatch):
    # H's blocks go to dstevd whole: no dense matrix is built for eigh
    if spin._lapack_stevd() is None:
        pytest.skip("this numpy's LAPACK exports no 64-bit dstevd")

    def no_eigh(*args, **kwargs):
        raise AssertionError("a dense matrix was diagonalized")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    monkeypatch.delenv("CATLAB_WORKERS", raising=False)
    dynamics.propagator.cache_clear()
    spin.jx_eigensystem.cache_clear()
    for command in ("time-sweep", "temp-sweep"):
        cfg = RunConfig(n_particles=40, beta_inv_grid=[0.5, 5.0], out_dir=str(tmp_path / command))
        run_command(command, cfg)
    assert len(read_csv(tmp_path / "temp-sweep" / "crossover.csv")[1]) == 4


def test_optimized_temp_sweep_prepares_once_per_state(tmp_path, build_counts):
    cfg = RunConfig(
        n_particles=40,
        beta_inv_grid=[0.5, 5.0],
        time_factors=[1.0, 1.2, 1.4],
        optimize_time_factor=True,
        out_dir=str(tmp_path),
        workers=1,
    )
    run_command("temp-sweep", cfg)
    # every temperature of a state is weights on its hottest state's evolved basis
    assert build_counts == {"thermal_state": 2, "propagator": 1}


def test_tracer_targets_resolve():
    """Every name the benchmark's tracer wraps still exists with its signature."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, targets in tracer.TARGETS.items():
        module = importlib.import_module(module_name)
        for path, _, _ in targets:
            functools.reduce(getattr, path.split("."), module)
    # the pool-size hook reads parallel_map's positional arguments
    assert list(inspect.signature(parallel_map).parameters) == ["func", "items", "n_workers"]


# ----------------------------------------------------------------------------
# the CSV writer

def per_row_csv(header: list[str], rows: list[tuple]) -> bytes:
    """The oracle: every cell by format(float(v), ".17g"), the lines joined once."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else format(float(v), ".17g") for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
           1.7976931348623157e308, 0.1, 1 / 3, 1e16, 1e17, 123456789012345678.0]


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(-0.0)
@example(math.nan)
@example(-math.inf)
@example(5e-324)
@example(2.2250738585072009e-308)
def test_percent_format_is_format_17g(x):
    assert "%.17g" % x == format(x, ".17g")


def random_doubles(rng: np.random.Generator, shape) -> np.ndarray:
    """Doubles over every exponent and sign, with the special values mixed in."""
    bits = rng.integers(0, 2**64, size=shape, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    flat = values.reshape(-1)
    flat[rng.integers(0, flat.size, size=len(SPECIAL))] = SPECIAL
    return values


def test_writer_gives_the_per_row_bytes_for_a_grid(tmp_path):
    rng = np.random.default_rng(7)
    xs, ys, values = random_doubles(rng, 37), random_doubles(rng, 53), random_doubles(rng, (37, 53))
    write_csv(tmp_path / "grid.csv", ["x", "y", "v"], Grid(xs, ys, values))
    rows = [(x, y, values[i, k]) for i, x in enumerate(xs) for k, y in enumerate(ys)]
    assert (tmp_path / "grid.csv").read_bytes() == per_row_csv(["x", "y", "v"], rows)
    # an empty axis writes the header alone
    write_csv(tmp_path / "empty.csv", ["x", "y", "v"], Grid(xs, ys[:0], values[:, :0]))
    assert (tmp_path / "empty.csv").read_bytes() == b"x,y,v\n"


def test_writer_gives_the_per_row_bytes_for_a_table(tmp_path):
    rng = np.random.default_rng(11)
    n = 2 * BLOCK_ROWS + 17  # three blocks, the last one short
    floats, ints = random_doubles(rng, (n, 2)), rng.integers(-(2**62), 2**62, size=n)
    words = ["separatrix", "trajectory_3", "stable", "pi", "zero", "", "a b"]
    rows = [
        (words[i % len(words)], i, int(ints[i]), ints[i], floats[i, 0], float(floats[i, 1]),
         bool(i % 2), f"class_{i}")
        for i in range(n)
    ]
    header = ["id", "step", "int", "int64", "f64", "float", "flag", "class"]
    write_csv(tmp_path / "table.csv", header, rows)
    assert (tmp_path / "table.csv").read_bytes() == per_row_csv(header, rows)
    write_csv(tmp_path / "empty.csv", header, [])
    assert (tmp_path / "empty.csv").read_bytes() == per_row_csv(header, [])


def test_writer_streams_a_grid_one_row_at_a_time(tmp_path):
    # rows as wide as a Wigner grid's at N = 1600
    rng = np.random.default_rng(3)
    n_rows = 401
    xs, ys = np.linspace(-1.0, 1.0, n_rows), np.linspace(-np.pi, np.pi, 1601, endpoint=False)
    values = rng.normal(size=(n_rows, ys.size))
    path = tmp_path / "grid.csv"
    tracemalloc.start()
    try:
        write_csv(path, ["z", "phi", "w"], Grid(xs, ys, values))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    path.unlink()
    # a few rows' text at a time, a fortieth of the file's
    assert peak < 10 * size / n_rows
