"""Benchmark workloads: seeded catlab command lines and the outputs they must give.

Each workload maps a seed to an :class:`Inputs`.  Seed 0 gives the reference
grids, whose CSVs are stored under ``reference/``.  Any other seed draws the
sweep grids from a ``random.Random(seed)`` stream, stratified: temperatures
log-uniformly from [0.1, 100] and time factors uniformly from [0.5, 1.7].
The program only ever sees the generated command line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BETA_RANGE = (0.1, 100.0)
FACTOR_RANGE = (0.5, 1.7)

# seed-0 grids; the figures workload uses the RunConfig defaults instead
CROSSOVER_BETAS = [0.1, 1.0, 10.0, 100.0]
TIMESWEEP_FACTORS = [0.6, 0.8, 1.0, 1.2, 1.4, 1.6]
DEFAULT_TEMPS = 13  # len(RunConfig().beta_inv_grid)
DEFAULT_FACTORS = 21  # len(RunConfig().time_factors)

TIME_SWEEP_CSV = "lambda_r_vs_time.csv"
CROSSOVER_CSV = "crossover.csv"


@dataclass(frozen=True)
class Inputs:
    """One seeded invocation: its catlab arguments and what it must produce."""

    argv: list[str]
    points: int  # prepare_and_evolve calls, i.e. evolved and reported states
    seeded_rows: dict[str, int]  # CSV (relative path) whose values depend on the seed -> rows


def _stratified(rng: random.Random, k: int) -> list[float]:
    """k draws from [0, 1), one uniform draw in each of k equal strata, ascending.

    Every seed then spans the whole range, so seeds differ in where the points
    fall, not in how much of the cold (low-rank) or hot (full-rank) end they
    cover, and the work per invocation stays comparable across seeds.
    """
    return [(i + rng.random()) / k for i in range(k)]


def _draw_betas(rng: random.Random, k: int) -> list[float]:
    lo, hi = BETA_RANGE
    return [float(f"{lo * (hi / lo) ** u:.6g}") for u in _stratified(rng, k)]


def _draw_factors(rng: random.Random, k: int) -> list[float]:
    lo, hi = FACTOR_RANGE
    return [float(f"{lo + (hi - lo) * u:.6g}") for u in _stratified(rng, k)]


def _fmt(values: list[float]) -> list[str]:
    return [repr(v) for v in values]


def _figures(seed: int) -> Inputs:
    argv = ["all-figures", "--workers", "1"]
    temps, factors = DEFAULT_TEMPS, DEFAULT_FACTORS
    if seed:
        rng = random.Random(seed)
        argv += ["--betas", *_fmt(_draw_betas(rng, temps))]
        argv += ["--factors", *_fmt(_draw_factors(rng, factors))]
    # distribution, qfi-map and wigner evolve one state each
    return Inputs(
        argv,
        points=3 + factors + 2 * temps,
        seeded_rows={
            f"time_sweep/{TIME_SWEEP_CSV}": factors,
            f"temp_sweep/{CROSSOVER_CSV}": 2 * temps,
        },
    )


def _crossover(seed: int) -> Inputs:
    betas = _draw_betas(random.Random(seed), len(CROSSOVER_BETAS)) if seed else CROSSOVER_BETAS
    argv = ["temp-sweep", "--n", "800", "--betas", *_fmt(betas), "--workers", "1"]
    return Inputs(argv, points=2 * len(betas), seeded_rows={CROSSOVER_CSV: 2 * len(betas)})


def _timesweep_n800(seed: int) -> Inputs:
    factors = (
        _draw_factors(random.Random(seed), len(TIMESWEEP_FACTORS)) if seed else TIMESWEEP_FACTORS
    )
    argv = [
        "time-sweep", "--n", "800", "--state", "zero", "--beta-inv", "0",
        "--factors", *_fmt(factors), "--workers", "1",
    ]
    return Inputs(argv, points=len(factors), seeded_rows={TIME_SWEEP_CSV: len(factors)})


def _timesweep_w2(seed: int) -> Inputs:
    argv = ["time-sweep", "--workers", "2"]
    if seed:
        argv += ["--factors", *_fmt(_draw_factors(random.Random(seed), DEFAULT_FACTORS))]
    return Inputs(argv, points=DEFAULT_FACTORS, seeded_rows={TIME_SWEEP_CSV: DEFAULT_FACTORS})


WORKLOADS = {
    "figures-n200": _figures,
    "crossover-n800": _crossover,
    "timesweep-n800": _timesweep_n800,
    "timesweep-n200-w2": _timesweep_w2,
}
