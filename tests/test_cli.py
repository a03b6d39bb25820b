import ctypes
import dataclasses
import errno
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from catlab import dynamics, harness, spin
from catlab.cli import build_parser, config_from_args, main
from catlab.config import ConfigError, RunConfig
from catlab.dynamics import beta_scaled_of
from catlab.harness import memory_estimate, run_command
from catlab.spin import SpinSpace, thermal_weights

SMALL = dict(
    n_particles=40,
    time_factors=[0.0, 0.7, 1.4],
    beta_inv_grid=[0.5, 5.0],
)


def small_config(tmp_path: Path, **overrides) -> RunConfig:
    merged = {**SMALL, "out_dir": str(tmp_path / "out"), **overrides}
    return RunConfig(**merged)


def test_config_round_trip_bit_exact():
    cfg = RunConfig(u_int=0.1234567890123456, beta_inv_grid=[0.1, 1 / 3, 100.0])
    again = RunConfig.from_json(cfg.to_json())
    assert again == cfg
    assert again.to_json() == cfg.to_json()


@pytest.mark.parametrize(
    "field,value,fragment",
    [
        ("n_particles", 41, "even"),
        ("n_particles", 0, "even"),
        ("u_int", -1.0, "u_int"),
        ("u_int", 0.0, "u_int"),
        ("state_label", "cat", "state_label"),
        ("beta_inv_over_eps", -2.0, "beta_inv_over_eps"),
        ("workers", 0, "workers"),
        ("cat_alpha", 0.0, "cat_alpha"),
        ("time_factors", [], "time_factors"),
        ("beta_inv_grid", [0.0], "beta_inv_grid"),
    ],
)
def test_config_validation_messages(field, value, fragment):
    data = RunConfig().to_dict()
    data[field] = value
    with pytest.raises(ConfigError, match=fragment):
        RunConfig.from_dict(data)


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--beta-inv", "nan"),
        ("--u", "inf"),
        ("--time-factor", "inf"),
        ("--betas", "nan"),
        ("--factors", "inf"),
    ],
)
def test_cli_rejects_non_finite_values(tmp_path, capsys, flag, value):
    assert main(["distribution", flag, value, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,field",
    [
        (["distribution", "--n", "20", "--beta-inv", "1e-320"], "beta_inv_over_eps"),
        (["temp-sweep", "--n", "20", "--betas", "1", "1e-320"], "beta_inv_grid"),
    ],
)
def test_cli_rejects_subnormal_temperatures(tmp_path, capsys, argv, field):
    # 1 / 1e-320 overflows to inf, so no beta_scaled exists for it
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}")
    assert "Traceback" not in err


def test_cli_import_leaves_scipy_out():
    # importing scipy.linalg alone costs more than all of catlab.cli
    code = "import sys, catlab.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def blas_env(timeout: str | None) -> dict:
    """This process's environment with OPENBLAS_THREAD_TIMEOUT unset, or preset to timeout."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    return env if timeout is None else {**env, "OPENBLAS_THREAD_TIMEOUT": timeout}


def test_idle_blas_threads_sleep_after_import():
    # at OpenBLAS's default timeout an idle helper thread spins for 2^28 cycles after a
    # burst of calls, about 0.12 s of CPU in this sleep; a single-core machine starts no helper
    code = (
        "import resource, time, catlab, numpy as np\n"
        "a = np.random.default_rng(0).normal(size=(400, 400))\n"
        "products = [a @ a for _ in range(3)]\n"
        "def cpu():\n"
        "    usage = resource.getrusage(resource.RUSAGE_SELF)\n"
        "    return usage.ru_utime + usage.ru_stime\n"
        "start = cpu(); time.sleep(0.3); print(cpu() - start)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=blas_env(None),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) < 0.03


@pytest.mark.parametrize("preset,expected", [(None, "4"), ("28", "28")])
def test_import_sets_the_thread_timeout_unless_preset(preset, expected):
    code = "import os, catlab; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"
    result = subprocess.run([sys.executable, "-c", code], env=blas_env(preset),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == expected


def assert_same_bytes(tmp_path: Path, n: str, envs: dict) -> None:
    """all-figures --n n at 1 and 2 workers in each environment gives byte-identical CSVs."""
    trees = []
    for workers, (name, env) in itertools.product(["1", "2"], envs.items()):
        out = tmp_path / f"w{workers}-{name}"
        argv = ["all-figures", "--n", n, "--workers", workers, "--out", str(out)]
        result = subprocess.run([sys.executable, "-m", "catlab.cli", *argv],
                                env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*.csv")})
    assert len(trees[0]) == len(harness.COMMANDS)
    assert all(tree == trees[0] for tree in trees)


def test_thread_timeout_moves_no_byte(tmp_path):
    assert_same_bytes(tmp_path, "40", {timeout: blas_env(timeout) for timeout in (None, "28")})


def test_blas_thread_count_moves_no_byte(tmp_path):
    # at N = 40 OpenBLAS threads no product; at N = 200 a second thread moved crossover.csv
    unset = {k: v for k, v in blas_env(None).items() if k != "OPENBLAS_NUM_THREADS"}
    envs = {"unset": unset, **{t: {**unset, "OPENBLAS_NUM_THREADS": t} for t in ("1", "2")}}
    assert_same_bytes(tmp_path, "200", envs)


@pytest.mark.skipif(not spin.BLAS_PINNED,
                    reason="numpy links no OpenBLAS thread setter: the environment's count holds")
@pytest.mark.parametrize("first", ["catlab", "numpy"])
def test_blas_runs_one_thread_in_the_parent_and_every_worker(first):
    getters = tuple(name.replace("_set_", "_get_") for name in spin._SET_THREADS_SYMBOLS)
    code = (
        f"import ctypes, {first}, catlab\n"
        "from catlab import spin\n"
        "from catlab.harness import parallel_map\n"
        "def threads(_=None):\n"
        f"    getter = spin._linked_routine({getters!r})\n"
        "    getter.restype = ctypes.c_int\n"
        "    return getter()\n"
        "print(threads(), *parallel_map(threads, [0, 1], 2))\n"
    )
    env = {**blas_env(None), "OPENBLAS_NUM_THREADS": "2"}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1", "1", "1"]


@pytest.mark.parametrize("command", ["time-sweep", "temp-sweep"])
def test_a_pooled_sweep_builds_each_eigensystem_once_in_the_parent(tmp_path, monkeypatch, command):
    # the workers inherit H's and J_x's eigensystems: rebuilt in each worker, they cost the
    # cold N = 4000 time sweep more CPU than the pool saved
    monkeypatch.delenv("CATLAB_WORKERS", raising=False)
    log = tmp_path / "calls.txt"

    def logged(name, func):
        def wrapper(*args, **kwargs):
            with open(log, "a", encoding="ascii") as out:
                out.write(f"{name} {os.getpid()}\n")
            return func(*args, **kwargs)
        return wrapper

    for module in (spin, dynamics):
        build = logged("build", module.tridiagonal_eigensystem)
        monkeypatch.setattr(module, "tridiagonal_eigensystem", build)
    monkeypatch.setattr(dynamics, "thermal_state", logged("prepare", dynamics.thermal_state))
    spin.jx_eigensystem.cache_clear()
    dynamics.propagator.cache_clear()
    run_command(command, small_config(tmp_path, workers=2))
    calls = [line.split() for line in log.read_text(encoding="ascii").splitlines()]
    parent = str(os.getpid())
    assert [pid for name, pid in calls if name == "build"] == [parent, parent]
    workers = [pid for name, pid in calls if name == "prepare"]
    assert len(set(workers)) == 2 and parent not in workers


def test_a_run_never_imports_scipy_or_the_pool(tmp_path):
    # scipy.linalg alone adds about 29 MiB, which would lift all-figures' peak RSS
    runs = [
        ["all-figures", "--workers", "1", "--out", str(tmp_path / "figures")],
        ["time-sweep", "--n", "800", "--state", "zero", "--beta-inv", "0", "--factors",
         "0.6", "0.8", "1.0", "1.2", "1.4", "1.6", "--workers", "1", "--out", str(tmp_path / "ts")],
    ]
    code = (
        f"import sys; from catlab.cli import main; assert [main(a) for a in {runs!r}] == [0, 0]; "
        "print(sorted({'scipy', 'concurrent.futures'} & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "[]"


def test_cold_sweep_holds_the_parity_blocks_not_dense_eigenvectors(tmp_path, monkeypatch):
    # the seed-0 timesweep-n800 benchmark command, in-process and cold: J_x's and H's
    # eigenvectors are kept as their parity blocks, 2.6 MB each, not as two dense 5.1 MB
    # matrices, which held the traced peak at 13.8 MiB
    monkeypatch.delenv("CATLAB_WORKERS", raising=False)
    spin.jx_eigensystem.cache_clear()
    dynamics.propagator.cache_clear()
    argv = ["time-sweep", "--n", "800", "--state", "zero", "--beta-inv", "0", "--factors",
            "0.6", "0.8", "1.0", "1.2", "1.4", "1.6", "--workers", "1", "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_cli_import_leaves_the_process_pool_out():
    # serial runs never start a pool, so they should not pay for importing one
    code = (
        "import sys, catlab.cli; "
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["distribution", "wigner", "time-sweep"])
def test_cli_missing_state_is_a_config_error(tmp_path, capsys, command):
    # the 0 state sits on the separatrix, which needs lambda_cl = u N > 1
    argv = [command, "--n", "20", "--u", "0.001", "--state", "zero", "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["all-figures", "--u", "1e308"],  # lambda_cl = u N overflows
        ["classical", "--u", "1e308"],
        # lambda_cl = 0.02: the 0 state that temp-sweep prepares has no separatrix start
        ["all-figures", "--u", "0.001", "--state", "pi"],
        ["temp-sweep", "--u", "0.001", "--state", "pi"],
        ["qfi-map", "--u", "0.001", "--state", "zero"],
        # time-sweep refuses the factor; distribution, first in COMMANDS, is not written either
        ["all-figures", "--factors", "1e308"],
    ],
    ids=["all-figures-overflow", "classical-overflow", "all-figures-no-separatrix",
         "temp-sweep-no-separatrix", "qfi-map-no-separatrix", "all-figures-time-overflow"],
)
def test_refused_runs_leave_nothing_behind(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--n", "20", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["classical", "catqubit"])
def test_stateless_commands_need_no_separatrix(tmp_path, command):
    # they prepare no state, so --state zero asks nothing of lambda_cl = 0.02
    out = tmp_path / "out"
    assert main([command, "--n", "20", "--u", "0.001", "--state", "zero", "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "bad",
    [
        {"u_int": "abc"},
        {"time_factors": 1.0},
        {"workers": "2"},
        {"n_particles": 40.5},
        {"optimize_time_factor": "yes"},
    ],
    ids=lambda bad: next(iter(bad)),
)
def test_cli_rejects_wrong_typed_config(tmp_path, capsys, bad):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(bad))
    assert main(["catqubit", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["out_is_a_file", "out_under_a_file", "config_is_a_directory"])
def test_cli_unusable_paths_are_config_errors(tmp_path, capsys, case):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    a_dir = tmp_path / "a_dir"
    a_dir.mkdir()
    bad, argv = {
        "out_is_a_file": (a_file, ["--out", str(a_file)]),
        "out_under_a_file": (a_file / "out", ["--out", str(a_file / "out")]),
        "config_is_a_directory": (a_dir, ["--config", str(a_dir), "--out", str(tmp_path / "o")]),
    }[case]
    assert main(["catqubit", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(bad) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["jz_distribution.csv", "manifest.json"])
def test_cli_output_file_that_is_a_directory_is_a_config_error(tmp_path, capsys, name):
    (tmp_path / name).mkdir()
    assert main(["distribution", "--n", "20", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(tmp_path / name) in err
    assert "Traceback" not in err


def refused_path(tmp_path: Path, case: str) -> tuple[Path, int]:
    """A path the system refuses even to root, and the errno it refuses it with."""
    loop = tmp_path / "loop"
    loop.symlink_to(loop)
    return {
        "long_name": (tmp_path / ("a" * 300) / "x", errno.ENAMETOOLONG),
        "symlink_loop": (loop / "x", errno.ELOOP),
    }[case]


@pytest.mark.parametrize("case", ["long_name", "symlink_loop"])
@pytest.mark.parametrize("flag", ["--out", "--config"])
def test_cli_refused_paths_are_config_errors(tmp_path, capsys, flag, case):
    bad, code = refused_path(tmp_path, case)
    assert main(["catqubit", "--out", str(tmp_path / "out"), flag, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(bad) in err and os.strerror(code) in err
    assert "Traceback" not in err


def test_refused_out_exits_2_from_the_process(tmp_path):
    # an exception main() did not catch would end the process with status 1
    bad, _ = refused_path(tmp_path, "long_name")
    result = subprocess.run(
        [sys.executable, "-m", "catlab.cli", "catqubit", "--out", str(bad)],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert result.stderr.startswith("config error:") and "Traceback" not in result.stderr


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ["classical"],
        ["distribution", "--state", "pi"],
        ["time-sweep", "--state", "pi"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_rejects_a_coupling_whose_t_pi_overflows(tmp_path, capsys, argv):
    # ln(8N) / (N u) is inf at u = 1e-320: T_pi overflows, and the manifest would hold Infinity
    assert main([*argv, "--u", "1e-320", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: u_int")
    assert "Traceback" not in err and "RuntimeWarning" not in err


def _no_constant(name):
    raise AssertionError(f"manifest holds {name}, which strict JSON rejects")


def test_default_run_manifests_are_strict_json(tmp_path, monkeypatch):
    monkeypatch.delenv("CATLAB_WORKERS", raising=False)
    assert main(["all-figures", "--out", str(tmp_path)]) == 0
    manifests = sorted(tmp_path.rglob("manifest.json"))
    assert len(manifests) == len(harness.COMMANDS) + 1
    for path in manifests:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_no_constant)


@pytest.mark.parametrize(
    "lambda_cl, cause",
    [
        ("1e7", "integration failed near |z| = 1"),  # RK4 at the portrait's step
        ("1e300", "self-trapped centers round onto the pole"),  # 1 / lambda^2 underflows
    ],
)
def test_cli_unintegrable_coupling_is_a_numerical_failure(tmp_path, capsys, lambda_cl, cause):
    # halving is exact, so N = 2 and u = lambda_cl / 2 give lambda_cl = u N bit for bit
    u = str(float(lambda_cl) / 2)
    assert main(["classical", "--n", "2", "--u", u, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical invariant failure: " + cause)
    assert "Traceback" not in err


_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_NUMBER = st.integers() | _FLOAT
_JSON_KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "float": _FLOAT,
    "str": st.text(),
    "list of numbers": st.lists(_NUMBER, max_size=3),
    "list of non-numbers": st.lists(st.none() | st.booleans() | st.text(), min_size=1, max_size=3),
    "object": st.dictionaries(st.text(), _NUMBER, max_size=2),
}
# the JSON kinds each field annotation admits
_ADMITS = {
    "int": {"int"},
    "int | None": {"int", "null"},
    "float": {"int", "float"},
    "float | None": {"int", "float", "null"},
    "str": {"str"},
    "bool": {"bool"},
    "list[float]": {"list of numbers"},
}


@given(st.data())
def test_config_rejects_any_wrong_typed_field(data):
    for field in dataclasses.fields(RunConfig):
        kind = data.draw(st.sampled_from(sorted(set(_JSON_KINDS) - _ADMITS[field.type])))
        config = RunConfig().to_dict()
        config[field.name] = data.draw(_JSON_KINDS[kind])
        with pytest.raises(ConfigError):
            RunConfig.from_dict(config)


def test_float_fields_take_json_ints_as_floats(tmp_path, capsys):
    # a JSON int is exact at any size: past float range (10**400) it is refused before the
    # run starts, and inside it (10**308) it runs as its float, so no int product such as
    # N u can leave float range
    float_fields = [f for f in dataclasses.fields(RunConfig) if "float" in f.type]
    assert {f.name for f in float_fields} >= {"u_int", "time_factors", "beta_inv_grid"}
    outs = (tmp_path / f"out{k}" for k in itertools.count())

    def run(field, entry):
        cfg_path, out = tmp_path / "cfg.json", next(outs)
        value = [1.0, entry] if field.type.startswith("list") else entry
        cfg_path.write_text(json.dumps({field.name: value}))
        code = main(["all-figures", "--n", "20", "--config", str(cfg_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err, field.name
        return code, err, out

    for f in float_fields:
        code, err, out = run(f, 10**400)
        assert code == 2 and err.startswith(f"config error: {f.name} must be finite"), f.name
        assert not out.exists(), f.name
        assert run(f, 10**308)[:2] == run(f, 1e308)[:2], f.name


def test_wigner_phi_grid_sized_from_n(tmp_path):
    # the default 256 points would alias the e^{i 2 n phi} harmonics at N = 300
    assert main(["wigner", "--n", "300", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "wigner.csv").read_text().strip().splitlines()[1:]
    assert len({row.split(",")[1] for row in rows}) == 301
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["derived"]["wigner_phi_count"] == 301


def test_cli_optimize_time_through_zero_factor(tmp_path):
    # at time factor 0 the read-out is optimal and F_c equals F_q up to round-off
    code = main(["temp-sweep", "--n", "40", "--betas", "1", "--factors", "0", "1.4",
                 "--optimize-time", "--out", str(tmp_path)])
    assert code == 0


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown"):
        RunConfig.from_dict({"n_particle": 200})


def test_every_config_field_is_the_dest_of_a_flag():
    # a field without a flag could only be set in a config file
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    for command in [*harness.COMMANDS, "all-figures"]:
        assert fields <= set(vars(build_parser().parse_args([command]))), command


@pytest.mark.parametrize(
    "field,value",
    [
        ("readout_angle", 0.0),
        ("readout_theta", 1.0),
        ("readout_phi", 0.5),
        ("wigner_phi_points", 512),
        ("cat_width", 5.0),
        ("eta_grid", [0.0, 0.5]),
        ("t_hop", 1.5),
        ("lambda_cl", 3.0),
        ("sign_convention", "literal_eq5"),
        ("grid_theta", 64),
        ("grid_phi", 128),
    ],
)
def test_config_naming_a_removed_field_exits_2(tmp_path, capsys, field, value):
    # the read-out, the Wigner and axis-map grids and the cat-qubit model are fixed by
    # their modules, the hopping energy t = 1 is the unit, so lambda_cl = u N, and the
    # hopping sign is the one of H = 2u Jz^2 - 2Jx
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({field: value}))
    argv = ["catqubit", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown config fields") and field in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(small_config(tmp_path).to_json())
    assert main(["distribution", "--config", str(cfg_path)]) == 0
    assert main(["distribution", "--config", str(cfg_path), "--n", "41"]) == 2
    assert main(["distribution", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_flag_overrides(tmp_path):
    out = tmp_path / "flagrun"
    code = main(
        ["distribution", "--n", "20", "--state", "pi", "--beta-inv", "2.0",
         "--time-factor", "0.5", "--out", str(out)]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n_particles"] == 20
    assert manifest["config"]["state_label"] == "pi"
    assert manifest["config"]["beta_inv_over_eps"] == 2.0
    rows = (out / "jz_distribution.csv").read_text().strip().splitlines()
    assert rows[0] == "m,p"
    assert len(rows) == 22  # header + 21 lattice values


@pytest.mark.parametrize(
    "argv,field,value",
    [
        (["--n", "20"], "n_particles", 20),
        (["--u", "0.25"], "u_int", 0.25),
        (["--state", "pi"], "state_label", "pi"),
        (["--beta-inv", "2.0"], "beta_inv_over_eps", 2.0),
        (["--time-factor", "0.5"], "time_factor", 0.5),
        (["--out", "elsewhere"], "out_dir", "elsewhere"),
        (["--workers", "3"], "workers", 3),
        (["--factors", "0.5", "1.5"], "time_factors", [0.5, 1.5]),
        (["--betas", "1", "10"], "beta_inv_grid", [1.0, 10.0]),
        (["--alpha", "2.0"], "cat_alpha", 2.0),
        (["--optimize-time"], "optimize_time_factor", True),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_every_flag_lands_in_its_field(argv, field, value):
    # a flag without its dest would be parsed and then silently dropped
    assert getattr(RunConfig(), field) != value
    config = config_from_args(build_parser().parse_args(["catqubit", *argv]))
    assert config == RunConfig(**{field: value})


def test_no_flags_give_the_defaults():
    assert config_from_args(build_parser().parse_args(["catqubit"])) == RunConfig()


def _unreachable(config, state):
    raise AssertionError("a refused run reached its command")


@pytest.mark.parametrize(
    "argv,config",
    [
        (["distribution", "--n", "2000000"], {}),
        (["wigner", "--n", "8000"], {}),  # its (N+1)^2 grid: a distribution at 8000 fits
        (["qfi-map", "--n", "2000000"], {}),
        (["all-figures", "--n", "2000000"], {}),
        (["distribution", "--n", "1000000000000"], {}),
    ],
    ids=["distribution", "wigner", "qfi-map", "all-figures", "distribution-n1e12"],
)
def test_cli_refuses_runs_past_available_memory(tmp_path, capsys, monkeypatch, argv, config):
    # the reader is stubbed and every command fails if reached, so nothing is allocated
    monkeypatch.setattr(harness, "_mem_available", lambda: 3 * 10**9)
    monkeypatch.setattr(harness, "COMMANDS", dict.fromkeys(harness.COMMANDS, _unreachable))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    argv = argv + ["--config", str(cfg_path), "--out", str(tmp_path / "out")]
    need = memory_estimate(argv[0], config_from_args(build_parser().parse_args(argv)))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"needs an estimated {need:.3g} bytes" in err and "3e+09 bytes of MemAvailable" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n", [10**200, 10**400, 2**53 + 2], ids=["1e200", "1e400", "2^53+2"])
@pytest.mark.parametrize("command", ["classical", "catqubit", "distribution"])
def test_cli_rejects_n_past_exact_floats(tmp_path, capsys, monkeypatch, command, n):
    # past 2^53 the lattice m = -N/2 .. N/2 is not exact in float64, and N u or the
    # memory estimate's byte count can overflow a float
    monkeypatch.setattr(harness, "_mem_available", lambda: 3 * 10**9)
    monkeypatch.setattr(harness, "COMMANDS", dict.fromkeys(harness.COMMANDS, _unreachable))
    assert main([command, "--n", str(n), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: n_particles")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_largest_n_is_refused_by_the_memory_check(tmp_path, capsys, monkeypatch):
    assert RunConfig(n_particles=2**53).n_particles == 2**53
    monkeypatch.setattr(harness, "_mem_available", lambda: 3 * 10**9)
    monkeypatch.setattr(harness, "COMMANDS", dict.fromkeys(harness.COMMANDS, _unreachable))
    assert main(["distribution", "--n", str(2**53), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: distribution at N = 9007199254740992 needs an estimated")
    assert "Traceback" not in err


def test_memory_check_passes_small_runs_and_skips_without_a_reading(tmp_path, monkeypatch):
    # catqubit and classical hold no spin state, so no reading refuses them
    monkeypatch.setattr(harness, "_mem_available", lambda: 1)
    assert main(["catqubit", "--n", "2000000", "--out", str(tmp_path / "cq")]) == 0
    monkeypatch.setattr(harness, "_mem_available", lambda: None)
    assert main(["distribution", "--n", "20", "--out", str(tmp_path / "d")]) == 0


def test_memory_estimate_scales_with_rank_and_workers(monkeypatch):
    monkeypatch.delenv("CATLAB_WORKERS", raising=False)
    n = 1600
    serial = dict(n_particles=n, workers=1)
    cold = memory_estimate("time-sweep", RunConfig(**serial))
    hot = memory_estimate("time-sweep", RunConfig(**serial, beta_inv_over_eps=100.0))
    # the process floor and 2 real (N+1)^2 matrices; the cold state is one column, the hot
    # one all N + 1
    assert cold == harness.PROCESS_BYTES + 8 * (n + 1) * (2 * (n + 1) + 26 * 1)
    assert hot == harness.PROCESS_BYTES + 8 * (n + 1) * (2 * (n + 1) + 26 * (n + 1))
    assert memory_estimate("time-sweep", RunConfig(n_particles=n, workers=2)) == 2 * cold
    # the axis map adds its 64 x 128 grid to the state's bytes
    grid_bytes = 8 * harness.GRID_ARRAYS * 64 * 128
    assert memory_estimate("qfi-map", RunConfig(n_particles=n)) == cold + grid_bytes
    # a default serial run stays far below any machine's memory
    assert memory_estimate("all-figures", RunConfig(workers=1)) < 100 * 2**20


def state_rank(command: str, config: RunConfig) -> int:
    """The rank a single-process estimate charges, solved from its bytes."""
    dim = config.n_particles + 1
    state_bytes = memory_estimate(command, config) - harness.PROCESS_BYTES
    return (state_bytes // (8 * dim) - harness.REAL_MATRICES * dim) // (2 * harness.COMPLEX_BLOCKS)


def test_memory_estimate_bounds_the_rank_without_an_array(monkeypatch):
    monkeypatch.delenv("CATLAB_WORKERS", raising=False)
    # the bound holds the support that thermal_state keeps
    for n in (1600, 20000):
        for beta_inv in (0.0, 0.5, 1.0, 2.0, 10.0, 100.0):
            config = RunConfig(n_particles=n, beta_inv_over_eps=beta_inv)
            support = np.count_nonzero(thermal_weights(SpinSpace(n), beta_scaled_of(beta_inv)))
            assert support <= state_rank("distribution", config) <= n + 1
    # at any N it allocates nothing of size N, and its Python ints do not wrap
    n = 10**12
    tracemalloc.start()
    try:
        need = memory_estimate("distribution", RunConfig(n_particles=n, beta_inv_over_eps=100.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert need == harness.PROCESS_BYTES + 8 * (n + 1) * (2 * (n + 1) + 26 * 74515)


def test_memory_estimate_counts_the_processes_the_pool_starts(tmp_path, monkeypatch):
    monkeypatch.delenv("CATLAB_WORKERS", raising=False)
    # a temperature sweep's pool has one item per state, a time sweep's one per factor
    small = dict(n_particles=40, time_factors=[1.0, 1.4])
    cores = len(os.sched_getaffinity(0))
    for command in ("temp-sweep", "time-sweep"):
        one = memory_estimate(command, RunConfig(**small, workers=1))
        assert memory_estimate(command, RunConfig(**small, workers=8)) == 2 * one
        # the default is one worker per usable core
        assert memory_estimate(command, RunConfig(**small)) == min(cores, 2) * one
    # a reading that two processes fit in lets --workers 8 through
    argv = ["temp-sweep", "--n", "40", "--betas", "1", "--workers", "8", "--out", str(tmp_path)]
    need = memory_estimate("temp-sweep", config_from_args(build_parser().parse_args(argv)))
    one = memory_estimate("temp-sweep", RunConfig(n_particles=40, beta_inv_grid=[1.0], workers=1))
    assert need == 2 * one
    monkeypatch.setattr(harness, "_mem_available", lambda: need)
    assert main(argv) == 0
    monkeypatch.setattr(harness, "_mem_available", lambda: need - 1)
    assert main(argv) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["distribution", "--n", "20", "--time-factor", "1e308"],
        ["wigner", "--n", "20", "--time-factor", "1e308"],
        ["qfi-map", "--n", "20", "--time-factor", "1e308"],
        ["temp-sweep", "--n", "20", "--time-factor", "1e308"],
        ["time-sweep", "--n", "20", "--factors", "1e308"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_rejects_an_evolution_time_that_overflows(tmp_path, capsys, argv):
    # T_pi is about 2.54 at N = 20, so 1e308 T_pi is inf
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: time factor 1e+308")
    assert "Traceback" not in err and "RuntimeWarning" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv,name",
    [
        (["--u", "1e305"], "u_int"),
        # H is finite and f T_pi is 3.7e4, but the phases w f T_pi reach 7.4e308
        (["--state", "pi", "--u", "1e300", "--time-factor", "1e306"], "time factor 1e+306"),
        (["--u", "1e307"], "u_int"),
    ],
    ids=["u", "phase", "lambda_cl"],
)
def test_cli_rejects_a_hamiltonian_or_phase_that_overflows(tmp_path, capsys, argv, name):
    # H's entries, or the phases w tau of its eigenvalues, would be inf
    assert main(["distribution", *argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and name in err
    assert "Traceback" not in err and "RuntimeWarning" not in err


@pytest.mark.parametrize("alpha", ["1e154"], ids=["alpha"])
def test_catqubit_overflow_is_a_config_error(tmp_path, capsys, alpha):
    # Lambda^2 = (alpha PW)^2 overflows
    assert main(["catqubit", "--alpha", alpha, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cat_alpha") and "Lambda^2" in err and "overflows" in err
    assert "Traceback" not in err


def test_mem_available_reads_meminfo_or_gives_none(monkeypatch):
    available = harness._mem_available()
    assert available is None or available > 0

    def unreadable(*args, **kwargs):
        raise PermissionError("no /proc here")

    monkeypatch.setattr(harness, "open", unreadable, raising=False)
    assert harness._mem_available() is None


def test_manifest_lists_outputs_with_checksums(tmp_path):
    import hashlib

    cfg = small_config(tmp_path)
    outputs = run_command("time-sweep", cfg)
    out = Path(cfg.out_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    csvs = [p for p in outputs if p.suffix == ".csv"]
    assert csvs
    for p in csvs:
        rel = p.relative_to(out).as_posix()
        digest = hashlib.sha256(p.read_bytes()).hexdigest()
        assert manifest["outputs"][rel] == digest
    assert manifest["derived"]["t_pi"] > 0
    assert manifest["derived"]["lambda_cl"] == cfg.u_int * cfg.n_particles


@pytest.mark.parametrize("command", ["distribution", "all-figures"])
def test_manifest_derives_the_coupling_the_run_used(tmp_path, command):
    # one coupling per run: the manifest's lambda_cl is u N, and its z_c(0) is the 0 state's start
    argv = [command, "--n", "40", "--u", "0.125", "--factors", "1.4", "--betas", "1",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    params = dynamics.TwistTurnParams(SpinSpace(40), u_int=0.125)
    z0, _ = dynamics.initial_condition(dynamics.StateLabel.ZERO, params)
    manifests = sorted(tmp_path.rglob("manifest.json"))
    assert len(manifests) == (len(harness.COMMANDS) + 1 if command == "all-figures" else 1)
    for path in manifests:
        derived = json.loads(path.read_text(encoding="utf-8"))["derived"]
        assert derived["lambda_cl"] == 0.125 * 40
        assert derived["z_c0"].hex() == z0.hex()


@pytest.mark.parametrize(
    "flag", ["--t-hop", "--lambda-cl", "--sign-convention", "--grid-theta", "--grid-phi"]
)
def test_removed_coupling_flags_exit_2(tmp_path, capsys, flag):
    # one coupling u N, one hopping sign and one axis-map grid: none is an option
    with pytest.raises(SystemExit) as exit_info:
        main(["classical", flag, "1.0", "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_classical_command_with_explicit_coupling(tmp_path):
    # lambda_cl = u N = 10
    cfg = small_config(tmp_path, n_particles=20, u_int=0.5)
    run_command("classical", cfg)
    rows = (Path(cfg.out_dir) / "portrait.csv").read_text().strip().splitlines()
    sep_at_zero = [
        r for r in rows if r.startswith("separatrix,") and r.split(",")[3] == "0"
    ]
    assert sep_at_zero
    z = float(sep_at_zero[0].split(",")[2])
    assert abs(z - 0.6) < 1e-9


def test_workers_do_not_change_bytes(tmp_path):
    cfg1 = small_config(tmp_path / "w1", workers=1)
    cfg2 = small_config(tmp_path / "w2", workers=2)
    run_command("time-sweep", cfg1)
    run_command("time-sweep", cfg2)
    a = (Path(cfg1.out_dir) / "lambda_r_vs_time.csv").read_bytes()
    b = (Path(cfg2.out_dir) / "lambda_r_vs_time.csv").read_bytes()
    assert a == b


def test_workers_env_override(tmp_path, monkeypatch):
    cfg = small_config(tmp_path)
    monkeypatch.setenv("CATLAB_WORKERS", "2")
    run_command("time-sweep", cfg)
    manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
    # the env override steers execution but never leaks into the config echo
    assert manifest["config"]["workers"] is None
    monkeypatch.setenv("CATLAB_WORKERS", "zero")
    with pytest.raises(ConfigError):
        run_command("time-sweep", cfg)


def test_default_workers_without_an_affinity_mask(tmp_path, monkeypatch):
    # os.sched_getaffinity exists only on Linux; elsewhere the default is every core
    monkeypatch.delenv("CATLAB_WORKERS", raising=False)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert harness.resolve_workers(RunConfig()) == (os.cpu_count() or 1)
    assert main(["distribution", "--n", "20", "--out", str(tmp_path)]) == 0


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    from catlab import cli
    from catlab.spin import NumericalInvariantError

    def boom(command, config):
        raise NumericalInvariantError("synthetic failure")

    monkeypatch.setattr(cli, "run_command", boom)
    assert cli.main(["distribution", "--n", "20", "--out", str(tmp_path)]) == 3


def test_numerical_failure_leaves_nothing_behind(tmp_path, capsys, monkeypatch):
    # classical fails once every spin command's table is computed, before any is written
    def boom(params):
        raise spin.NumericalInvariantError("synthetic failure")

    monkeypatch.setattr(harness, "phase_portrait", boom)
    out = tmp_path / "out"
    assert main(["all-figures", "--n", "20", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("numerical invariant failure: synthetic failure")
    assert not out.exists()


def test_lapack_failure_exit_code(tmp_path, monkeypatch, capsys):
    from catlab import cli

    def failed_stevd(*args):
        # dstevd's INFO, its eleventh argument: > 0 means the divide and conquer failed
        ctypes.c_int64.from_address(args[10]).value = 7

    monkeypatch.setattr(spin, "_lapack_stevd", lambda: failed_stevd)
    dynamics.propagator.cache_clear()
    assert cli.main(["distribution", "--n", "20", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical invariant failure:")
    assert "dstevd failed with INFO = 7" in err
    assert "Traceback" not in err


def test_installed_entry_point_runs(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "catlab.cli", "catqubit", "--alpha", "2.0",
         "--out", str(tmp_path / "ep")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    lines = (tmp_path / "ep" / "catqubit.csv").read_text().strip().splitlines()
    assert lines[0] == "eta,f_q,r_q,lambda_rq,lg_violation"
