"""Batch computations behind the CLI: sweeps, CSV output, run manifests.

Every command produces one or more CSV files plus a manifest.json recording
the config echo, the conventions and tolerances in force, derived quantities
(T_pi, lambda_cl, z_c(0)), and a sha256 checksum for each output file.
Floats are serialized with 17 significant digits so repeated runs are
byte-identical regardless of worker count: sweep points are distributed to
a process pool but assembled in deterministic key order before writing.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, classical, metrology, spin
from .classical import (
    MeanFieldParams,
    SeparatrixAbsentError,
    phase_portrait,
    separatrix,
)
from .catqubit import CatQubitModel, analytic_qfi, analytic_rq, lg_violation, reduced_extdiff
from .config import ConfigError, RunConfig
from .dynamics import (
    SignConvention,
    StateLabel,
    TwistTurnParams,
    beta_scaled_of,
    prepare_and_evolve,
    t_pi,
)
from .metrology import (
    ReadoutSpec,
    jz_distribution,
    metrology_report,
    qfi_axis_map,
)
from .spin import SpinAxis, space_for_dim
from .wigner import wigner

TOLERANCES = {
    "hermiticity": spin.HERMITICITY_TOL,
    "unitarity": spin.UNITARITY_TOL,
    "trace": spin.TRACE_TOL,
    "eigenvalue_floor": spin.EIGENVALUE_FLOOR,
    "fisher_weight_cutoff": metrology.WEIGHT_CUTOFF,
    "probability_floor": metrology.PROB_FLOOR,
    "energy_drift": classical.ENERGY_DRIFT_TOL,
    "separatrix_bisection": classical.SEPARATRIX_TOL,
}


def fmt(x: float) -> str:
    """Serialize a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    with ProcessPoolExecutor(max_workers=min(n_workers, len(items))) as pool:
        return list(pool.map(func, items))


def _params_from_config(config: RunConfig) -> TwistTurnParams:
    return TwistTurnParams(
        space=space_for_dim(config.n_particles + 1),
        t_hop=config.t_hop,
        u_int=config.u_int,
        sign_convention=SignConvention(config.sign_convention),
    )


def _readout_from_config(config: RunConfig) -> ReadoutSpec:
    return ReadoutSpec(
        axis=SpinAxis(config.readout_theta, config.readout_phi),
        angle=config.readout_angle,
    )


def _evolved_states(config: RunConfig, state_label: str, factors: list[float], beta_inv: float):
    return prepare_and_evolve(
        StateLabel(state_label), beta_scaled_of(beta_inv), factors, _params_from_config(config)
    )


def _evolved_state(config: RunConfig) -> spin.SpectralDecomp:
    """The configured state at its configured time: distribution, qfi-map and wigner."""
    factor = config.effective_time_factor()
    [evolved] = _evolved_states(config, config.state_label, [factor], config.beta_inv_over_eps)
    return evolved.state


def _wigner_phi_points(config: RunConfig) -> int:
    """At least N + 1 phi points, so no e^{i 2 n phi} harmonic aliases."""
    return max(config.wigner_phi_points, config.n_particles + 1)


def derived_quantities(config: RunConfig) -> dict:
    params = _params_from_config(config)
    lam_cl = config.lambda_cl if config.lambda_cl is not None else params.lambda_cl
    try:
        z_c0 = separatrix(0.0, MeanFieldParams(lam_cl))
    except SeparatrixAbsentError:
        z_c0 = None
    return {
        "t_pi": t_pi(params.space, config.u_int),
        "lambda_cl": lam_cl,
        "z_c0": z_c0,
        "wigner_phi_points": _wigner_phi_points(config),
    }


# ----------------------------------------------------------------------------
# sweep workers (top level so they pickle cleanly into the process pool)

def _time_sweep_point(args: tuple) -> list[tuple]:
    """One row per time factor of a chunk, all evolved from one prepared state."""
    config_dict, factors = args
    config = RunConfig.from_dict(config_dict)
    readout = _readout_from_config(config)
    rows = []
    states = _evolved_states(config, config.state_label, factors, config.beta_inv_over_eps)
    for factor, evolved in zip(factors, states):
        report = metrology_report(evolved.state, readout=readout)
        rows.append((
            factor,
            report.lam,
            report.delta_s,
            report.r_c,
            report.r_q,
            report.reduced_lambda_c,
            report.reduced_lambda_q,
        ))
    return rows


def _temp_sweep_point(args: tuple) -> tuple:
    config_dict, state_label, beta_inv = args
    config = RunConfig.from_dict(config_dict)
    factors = (
        config.time_factors
        if config.optimize_time_factor
        else [config.effective_time_factor(state_label)]
    )
    readout = _readout_from_config(config)
    best = None
    for factor, evolved in zip(factors, _evolved_states(config, state_label, factors, beta_inv)):
        report = metrology_report(evolved.state, readout=readout)
        if best is None or report.lam > best[1].lam:
            best = (factor, report)
    factor, report = best
    return (
        state_label,
        beta_inv,
        report.lam,
        report.r_q,
        report.r_c,
        report.reduced_lambda_q,
        report.reduced_lambda_c,
        report.f_q,
        report.f_c,
        report.n_eff_bound,
        factor,
    )


# ----------------------------------------------------------------------------
# commands

def cmd_distribution(config: RunConfig, out_dir: Path) -> list[Path]:
    dist = jz_distribution(_evolved_state(config))
    rows = [(m, p) for m, p in zip(dist.m_values, dist.probs)]
    path = out_dir / "jz_distribution.csv"
    write_csv(path, ["m", "p"], rows)
    return [path]


def cmd_time_sweep(config: RunConfig, out_dir: Path) -> list[Path]:
    factors = sorted(config.time_factors)
    n_workers = min(resolve_workers(config), len(factors))
    # one chunk of factors per worker, so each prepares its state once
    items = [(config.to_dict(), factors[k::n_workers]) for k in range(n_workers)]
    chunks = parallel_map(_time_sweep_point, items, n_workers)
    rows = sorted((row for chunk in chunks for row in chunk), key=lambda r: r[0])
    path = out_dir / "lambda_r_vs_time.csv"
    write_csv(
        path,
        ["time_factor", "lambda", "delta_s", "r_c", "r_q", "lambda_r_c", "lambda_r_q"],
        rows,
    )
    return [path]


def cmd_temp_sweep(config: RunConfig, out_dir: Path) -> list[Path]:
    items = [
        (config.to_dict(), state, beta_inv)
        for state in ("pi", "zero")
        for beta_inv in sorted(config.beta_inv_grid)
    ]
    rows = parallel_map(_temp_sweep_point, items, resolve_workers(config))
    rows.sort(key=lambda r: (r[0], r[1]))
    path = out_dir / "crossover.csv"
    write_csv(
        path,
        [
            "state", "beta_inv", "lambda", "r_q", "r_c", "lambda_r_q", "lambda_r_c",
            "f_q", "f_c", "n_eff_bound", "time_factor",
        ],
        rows,
    )
    return [path]


def cmd_qfi_map(config: RunConfig, out_dir: Path) -> list[Path]:
    state = _evolved_state(config)
    thetas = np.linspace(0.0, np.pi, config.grid_theta)
    phis = np.linspace(-np.pi, np.pi, config.grid_phi, endpoint=False)
    amap = qfi_axis_map(state, thetas, phis)
    rows = [
        (th, ph, amap.values[i, k])
        for i, th in enumerate(thetas)
        for k, ph in enumerate(phis)
    ]
    path = out_dir / "neff_map.csv"
    write_csv(path, ["theta", "phi", "value"], rows)
    return [path]


def cmd_wigner(config: RunConfig, out_dir: Path) -> list[Path]:
    grid = wigner(_evolved_state(config), _wigner_phi_points(config))
    rows = [
        (z, ph, grid.values[i, k])
        for i, z in enumerate(grid.z_values)
        for k, ph in enumerate(grid.phi_values)
    ]
    path = out_dir / "wigner.csv"
    write_csv(path, ["z", "phi", "w"], rows)
    return [path]


def cmd_classical(config: RunConfig, out_dir: Path) -> list[Path]:
    lam = (
        config.lambda_cl
        if config.lambda_cl is not None
        else _params_from_config(config).lambda_cl
    )
    portrait = phase_portrait(MeanFieldParams(lam))
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
    path = out_dir / "portrait.csv"
    write_csv(path, ["trajectory_id", "step", "z", "phi", "class"], rows)
    return [path]


def cmd_catqubit(config: RunConfig, out_dir: Path) -> list[Path]:
    peak_width = 2.0 * config.cat_width
    lam = config.cat_alpha * peak_width
    rows = []
    for eta in sorted(config.eta_grid):
        model = CatQubitModel(lam=lam, peak_width=peak_width, eta=eta)
        rows.append(
            (eta, analytic_qfi(model), analytic_rq(model), reduced_extdiff(model),
             lg_violation(eta))
        )
    path = out_dir / "catqubit.csv"
    write_csv(path, ["eta", "f_q", "r_q", "lambda_rq", "lg_violation"], rows)
    return [path]


COMMANDS = {
    "distribution": cmd_distribution,
    "time-sweep": cmd_time_sweep,
    "temp-sweep": cmd_temp_sweep,
    "qfi-map": cmd_qfi_map,
    "wigner": cmd_wigner,
    "classical": cmd_classical,
    "catqubit": cmd_catqubit,
}


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
        "tolerances": TOLERANCES,
        "derived": derived_quantities(config),
        "time_factor_pi": config.effective_time_factor("pi"),
        "time_factor_zero": config.effective_time_factor("zero"),
        "notes": notes,
        "outputs": {
            p.relative_to(out_dir).as_posix(): sha256_of(p) for p in sorted(outputs)
        },
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _make_out_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror}") from None


def run_command(command: str, config: RunConfig) -> list[Path]:
    """Execute one command (or all-figures) and write its manifest."""
    out_root = Path(config.out_dir)
    if command == "all-figures":
        all_outputs: list[Path] = []
        for name in COMMANDS:
            sub = out_root / name.replace("-", "_")
            _make_out_dir(sub)
            outputs = COMMANDS[name](config, sub)
            all_outputs.extend(outputs)
            all_outputs.append(write_manifest(config, name, sub, outputs))
        top = write_manifest(config, "all-figures", out_root, all_outputs)
        return all_outputs + [top]
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    _make_out_dir(out_root)
    outputs = COMMANDS[command](config, out_root)
    manifest = write_manifest(config, command, out_root, outputs)
    return outputs + [manifest]
