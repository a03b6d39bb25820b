"""Batch computations behind the CLI: sweeps, CSV output, run manifests.

Each command returns (file name, header, table), the table being rows or a
Grid of values over two axes; run_command streams it to a CSV file, a block
of rows or one grid row at a time, next to a manifest.json recording the
config echo, the conventions and the whole spin.TOLERANCES table, derived
quantities (T_pi, lambda_cl, z_c(0)), and a sha256 checksum for each output
file. Floats are serialized with 17 significant digits so repeated runs are
byte-identical regardless of worker count: sweep points are distributed to
a process pool but assembled in deterministic key order before writing.
A run whose estimated memory exceeds MemAvailable is refused before it
allocates.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, spin
from .classical import (
    MeanFieldParams,
    SeparatrixAbsentError,
    phase_portrait,
    separatrix,
)
from .catqubit import (
    ETA_GRID,
    PEAK_WIDTH,
    CatQubitModel,
    analytic_qfi,
    analytic_rq,
    lg_violation,
    reduced_extdiff,
)
from .config import ConfigError, RunConfig
from .dynamics import (
    SignConvention,
    StateLabel,
    TwistTurnParams,
    beta_scaled_of,
    prepare_and_evolve,
    t_pi,
)
from .metrology import default_axis_grids, jz_distribution, metrology_reports, qfi_axis_map
from .spin import SpinSpace, thermal_weights
from .wigner import alias_free_phi_points, wigner

#: a run's peak, fitted to every command's peak RSS at N = 1600 and 3200, cold and hot, and
#: rounded up: real (N+1)^2 float64 matrices (H's phase holds about 0.8 of one with dstevd,
#: one dense parity block and the other's solver output and workspace, and about 1.5 with
#: the dense eigh fallback; then H's panels hold a fifth of one and J_x's blocks half), complex (N+1) x r blocks for a state of rank r (the hot qfi-map needs about 11),
#: and float64 arrays per qfi-map or Wigner grid cell; every spin command peaks at 26-86%
#: of it, and the cold dense-eigh fallback at 78-85%
REAL_MATRICES, COMPLEX_BLOCKS, GRID_ARRAYS = 2, 13, 8

#: what each process holds before any state (the interpreter and numpy), fitted the same
#: way: peaks exceed the rest of the estimate by at most 15.3 MiB (cold N = 1600), and
#: catqubit, which holds no state, peaks at 33.4 MiB
PROCESS_BYTES = 40 * 2**20

#: rows per formatted block of an ordinary table
BLOCK_ROWS = 4096


class Grid(NamedTuple):
    """values[i, k] at (xs[i], ys[k]): one x, y, value line per cell, x outermost."""

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray


def _row_blocks(rows: list[tuple]):
    """Blocks of rows; a column is text where the block's first row holds a string."""
    for start in range(0, len(rows), BLOCK_ROWS):
        block = rows[start:start + BLOCK_ROWS]
        line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in block[0]) + "\n"
        yield (line * len(block)) % tuple(v for row in block for v in row)


def _grid_blocks(xs: np.ndarray, ys: np.ndarray, values: np.ndarray):
    """One block per x: each axis value formatted once, each row's cells by one format."""
    # x.join(["", "y_0,%.17g\n", "y_1,%.17g\n", ...]) is the format of row x
    cells = ["", *("%.17g," % y + "%.17g\n" for y in ys.tolist())]
    for x, row in zip(xs.tolist(), values):
        yield ("%.17g," % x).join(cells) % tuple(row.tolist())


def write_csv(path: Path, header: list[str], table: list[tuple] | Grid) -> None:
    """Stream rows, or a grid a row at a time, with floats at 17 significant digits.

    '%.17g' % v is format(float(v), '.17g'), which round-trips every double;
    no text holds more than one block.
    """
    blocks = _grid_blocks(*table) if isinstance(table, Grid) else _row_blocks(table)
    with open(path, "w", encoding="utf-8") as out:
        out.write(",".join(header) + "\n")
        out.writelines(blocks)


def resolve_workers(config: RunConfig) -> int:
    env = os.environ.get("CATLAB_WORKERS")
    if env is not None:
        try:
            n = int(env)
        except ValueError as exc:
            raise ConfigError(f"CATLAB_WORKERS must be an integer, got {env!r}") from exc
        if n < 1:
            raise ConfigError(f"CATLAB_WORKERS must be >= 1, got {n}")
        return n
    return config.workers


def parallel_map(func, items: list, n_workers: int) -> list:
    """Order-preserving map over a process pool (serial when n_workers == 1)."""
    if n_workers <= 1 or len(items) <= 1:
        return [func(item) for item in items]
    # imported here: the pool machinery costs serial runs ~25 ms of startup
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(n_workers, len(items))) as pool:
        return list(pool.map(func, items))


def _params_from_config(config: RunConfig) -> TwistTurnParams:
    return TwistTurnParams(
        space=SpinSpace(config.n_particles),
        t_hop=config.t_hop,
        u_int=config.u_int,
        sign_convention=SignConvention(config.sign_convention),
    )


def _evolved_state(config: RunConfig) -> spin.SpectralDecomp:
    """The configured state at its configured time: distribution, qfi-map and wigner."""
    return next(prepare_and_evolve(
        StateLabel(config.state_label), beta_scaled_of(config.beta_inv_over_eps),
        [config.effective_time_factor()], _params_from_config(config),
    ))


def _lambda_cl(config: RunConfig) -> float:
    """The classical-portrait coupling: the configured override, else u N / t."""
    if config.lambda_cl is not None:
        return config.lambda_cl
    return _params_from_config(config).lambda_cl


def derived_quantities(config: RunConfig) -> dict:
    lam_cl = _lambda_cl(config)
    try:
        z_c0 = separatrix(0.0, MeanFieldParams(lam_cl))
    except SeparatrixAbsentError:
        z_c0 = None
    return {
        "t_pi": t_pi(SpinSpace(config.n_particles), config.u_int),
        "lambda_cl": lam_cl,
        "z_c0": z_c0,
        "wigner_phi_count": alias_free_phi_points(config.n_particles),
    }


# ----------------------------------------------------------------------------
# sweep workers (top level so they pickle cleanly into the process pool)

def _reports(config: RunConfig, state_label: str, beta_invs: list[float], factors: list[float]):
    """(factor, one metrology report per temperature) per time factor.

    The label's thermal states share one tilted Dicke basis: the hottest
    state's is evolved, and each temperature is its thermal weights on it.
    The read-out is metrology's default: a pi/2 turn about x, so F_c is J_y's.
    """
    params = _params_from_config(config)
    betas = [beta_scaled_of(b) for b in beta_invs]
    weights = [thermal_weights(params.space, beta) for beta in betas]
    states = prepare_and_evolve(StateLabel(state_label), min(betas), factors, params)
    for factor, (_, v) in zip(factors, states):
        yield factor, metrology_reports(v, [p[-v.shape[1]:] for p in weights])


def _time_sweep_point(args: tuple) -> list[tuple]:
    """One row per time factor of a chunk."""
    config, factors = args
    return [
        (factor, r.lam, r.delta_s, r.r_c, r.r_q, r.reduced_lambda_c, r.reduced_lambda_q)
        for factor, [r] in _reports(
            config, config.state_label, [config.beta_inv_over_eps], factors
        )
    ]


def _temp_sweep_point(args: tuple) -> list[tuple]:
    """One state's row per temperature, at the time factor of largest Lambda (the first)."""
    config, state_label = args
    beta_invs = sorted(config.beta_inv_grid)
    scheduled = [config.effective_time_factor(state_label)]
    factors = config.time_factors if config.optimize_time_factor else scheduled
    swept = [reports for _, reports in _reports(config, state_label, beta_invs, factors)]
    best = [max(zip(factors, column), key=lambda fr: fr[1].lam) for column in zip(*swept)]
    return [(state_label, beta_inv, r.lam, r.r_q, r.r_c, r.reduced_lambda_q, r.reduced_lambda_c,
             r.f_q, r.f_c, r.n_eff_bound, factor) for beta_inv, (factor, r) in zip(beta_invs, best)]


# ----------------------------------------------------------------------------
# commands

def cmd_distribution(config: RunConfig) -> tuple:
    dist = jz_distribution(_evolved_state(config))
    return "jz_distribution.csv", ["m", "p"], list(zip(dist.m_values, dist.probs))


def cmd_time_sweep(config: RunConfig) -> tuple:
    factors = sorted(config.time_factors)
    n_workers = min(resolve_workers(config), len(factors))
    # one chunk of factors per worker, so each prepares its state once
    items = [(config, factors[k::n_workers]) for k in range(n_workers)]
    chunks = parallel_map(_time_sweep_point, items, n_workers)
    rows = sorted((row for chunk in chunks for row in chunk), key=lambda r: r[0])
    header = ["time_factor", "lambda", "delta_s", "r_c", "r_q", "lambda_r_c", "lambda_r_q"]
    return "lambda_r_vs_time.csv", header, rows


def cmd_temp_sweep(config: RunConfig) -> tuple:
    # one item per state: its temperatures share one evolved basis
    items = [(config, state) for state in ("pi", "zero")]
    chunks = parallel_map(_temp_sweep_point, items, resolve_workers(config))
    rows = sorted((row for chunk in chunks for row in chunk), key=lambda r: (r[0], r[1]))
    header = [
        "state", "beta_inv", "lambda", "r_q", "r_c", "lambda_r_q", "lambda_r_c",
        "f_q", "f_c", "n_eff_bound", "time_factor",
    ]
    return "crossover.csv", header, rows


def cmd_qfi_map(config: RunConfig) -> tuple:
    thetas, phis = default_axis_grids(config.grid_theta, config.grid_phi)
    amap = qfi_axis_map(_evolved_state(config), thetas, phis)
    return "neff_map.csv", ["theta", "phi", "value"], Grid(thetas, phis, amap.values)


def cmd_wigner(config: RunConfig) -> tuple:
    grid = wigner(_evolved_state(config), alias_free_phi_points(config.n_particles))
    return "wigner.csv", ["z", "phi", "w"], Grid(grid.z_values, grid.phi_values, grid.values)


def cmd_classical(config: RunConfig) -> tuple:
    portrait = phase_portrait(MeanFieldParams(_lambda_cl(config)))
    rows: list[tuple] = []
    for i, fp in enumerate(portrait.fixed_points):
        rows.append((f"fixed_point_{i}", 0, fp.point.z, fp.point.phi, fp.stability.value))
    for k, (ph, z) in enumerate(zip(portrait.separatrix_phi, portrait.separatrix_z)):
        rows.append(("separatrix", k, z, ph, "separatrix"))
        rows.append(("separatrix_mirror", k, -z, ph, "separatrix"))
    for i, traj in enumerate(portrait.trajectories):
        stride = max(1, len(traj.times) // 400)
        for k in range(0, len(traj.times), stride):
            rows.append(
                (f"trajectory_{i}", k, traj.points[k, 0], traj.points[k, 1],
                 traj.classification.value)
            )
    return "portrait.csv", ["trajectory_id", "step", "z", "phi", "class"], rows


def cmd_catqubit(config: RunConfig) -> tuple:
    lam = config.cat_alpha * PEAK_WIDTH
    rows = []
    for eta in ETA_GRID:
        model = CatQubitModel(lam=lam, peak_width=PEAK_WIDTH, eta=eta)
        rows.append(
            (eta, analytic_qfi(model), analytic_rq(model), reduced_extdiff(model),
             lg_violation(eta))
        )
    return "catqubit.csv", ["eta", "f_q", "r_q", "lambda_rq", "lg_violation"], rows


COMMANDS = {
    "distribution": cmd_distribution,
    "time-sweep": cmd_time_sweep,
    "temp-sweep": cmd_temp_sweep,
    "qfi-map": cmd_qfi_map,
    "wigner": cmd_wigner,
    "classical": cmd_classical,
    "catqubit": cmd_catqubit,
}


def _sha256(path: Path) -> str:
    """The file's sha256, read in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as data:
        for block in iter(lambda: data.read(2**20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(config: RunConfig, command: str, out_dir: Path, outputs: list[Path]) -> Path:
    """Emit manifest.json into out_dir; output files are keyed by relative path."""
    notes = []
    if command in ("temp-sweep", "all-figures"):
        notes.append(
            "crossover reference figure quotes N=100; this run uses "
            f"N={config.n_particles} (configurable)"
        )
        notes.append(
            "evolution times: fixed per-state schedule"
            if not config.optimize_time_factor
            else "evolution times: per-temperature extensive-difference maximizing search"
        )
    manifest = {
        "tool": "catlab",
        "version": __version__,
        "command": command,
        "config": config.to_dict(),
        "sign_convention": config.sign_convention,
        "thermal_exponent_sign": "+1 (beta -> inf selects the top eigenstate)",
        "tolerances": spin.TOLERANCES,
        "derived": derived_quantities(config),
        "time_factor_pi": config.effective_time_factor("pi"),
        "time_factor_zero": config.effective_time_factor("zero"),
        "notes": notes,
        "outputs": {
            p.relative_to(out_dir).as_posix(): _sha256(p) for p in sorted(outputs)
        },
    }
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as out:
        out.write(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return path


def memory_estimate(command: str, config: RunConfig) -> int:
    """Bytes a command holds at its peak, from N, the state's rank, its grid and its processes."""
    if command in ("classical", "catqubit"):
        return 0  # no spin state
    dim, beta_inv, grid = config.n_particles + 1, config.beta_inv_over_eps, config.beta_inv_grid
    temps = {"temp-sweep": grid, "all-figures": [*grid, beta_inv]}.get(command, [beta_inv])
    # the hottest support holds every colder one; e^{-beta k} is 0.0 past spin.EXP_UNDERFLOW
    limit = spin.EXP_UNDERFLOW / min(map(beta_scaled_of, temps))
    rank = dim if limit >= dim else int(limit) + 1
    phi_points = alias_free_phi_points(config.n_particles)
    cells = {"qfi-map": config.grid_theta * config.grid_phi, "wigner": dim * phi_points}
    grid_bytes = {name: 8 * GRID_ARRAYS * n for name, n in cells.items()}
    grid_bytes["all-figures"] = max(grid_bytes.values())
    # a process per pool item at most: a time sweep's chunks of factors, a temp sweep's 2 states
    items = {"time-sweep": len(config.time_factors), "temp-sweep": 2}
    items["all-figures"] = max(items.values())
    processes = min(resolve_workers(config), items.get(command, 1))
    state_bytes = 8 * dim * (REAL_MATRICES * dim + 2 * COMPLEX_BLOCKS * rank)
    return processes * (PROCESS_BYTES + state_bytes) + grid_bytes.get(command, 0)


def _mem_available() -> int | None:
    """MemAvailable in bytes, or None where /proc/meminfo cannot be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as meminfo:
            fields = dict(line.split(":", 1) for line in meminfo)
        return int(fields["MemAvailable"].split()[0]) * 1024
    except (OSError, KeyError, ValueError):
        return None


def _write_command(command: str, config: RunConfig, out_dir: Path) -> list[Path]:
    """Run one command into out_dir: its CSV, then its manifest."""
    out_dir.mkdir(parents=True, exist_ok=True)
    name, header, table = COMMANDS[command](config)
    path = out_dir / name
    write_csv(path, header, table)
    return [path, write_manifest(config, command, out_dir, [path])]


def run_command(command: str, config: RunConfig) -> list[Path]:
    """Execute one command (or all-figures) and write its manifest.

    A run estimated to need more than MemAvailable is refused before it allocates.
    """
    if command != "all-figures" and command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    need, available = memory_estimate(command, config), _mem_available()
    if available is not None and need > available:
        raise ConfigError(
            f"{command} at N = {config.n_particles} needs an estimated {need:.3g} bytes, "
            f"more than the {available:.3g} bytes of MemAvailable"
        )
    out_root = Path(config.out_dir)
    if command != "all-figures":
        return _write_command(command, config, out_root)
    outputs = [
        path
        for name in COMMANDS
        for path in _write_command(name, config, out_root / name.replace("-", "_"))
    ]
    return outputs + [write_manifest(config, "all-figures", out_root, outputs)]
