"""Command-line front end.

    catlab <command> [--config run.json] [flag overrides...]

Commands: distribution | time-sweep | temp-sweep | qfi-map | wigner |
classical | catqubit | all-figures.  Each run writes figure-ready CSV files
plus a manifest.json with config echo and per-file checksums.

Exit codes: 0 success, 2 configuration error (including any --config or
--out path the system refuses, a requested state that does not exist for
the couplings, and a run estimated to need more memory than MemAvailable),
3 numerical-invariant or LAPACK failure (numpy.linalg.LinAlgError).  The
CATLAB_WORKERS environment variable overrides the configured worker count.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from numpy.linalg import LinAlgError

from .config import RunConfig
from .harness import COMMANDS, run_command
from .spin import NumericalInvariantError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def build_parser() -> argparse.ArgumentParser:
    """The CLI; each override flag stores into the RunConfig field named by its dest."""
    parser = argparse.ArgumentParser(
        prog="catlab",
        description="Two-mode interferometer cat-state simulator and metrology sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(COMMANDS) + ["all-figures"]:
        p = sub.add_parser(name, help=f"run the {name} computation")
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--n", dest="n_particles", type=int, help="particle number N (even)")
        p.add_argument("--u", dest="u_int", type=float, help="interaction energy u")
        p.add_argument("--t-hop", type=float, help="hopping energy t")
        p.add_argument("--state", dest="state_label", choices=["pi", "zero"])
        p.add_argument(
            "--beta-inv", dest="beta_inv_over_eps", type=float,
            help="initial temperature in units of eps_tau (0 = pure state)",
        )
        p.add_argument("--time-factor", type=float, help="multiple of T_pi")
        p.add_argument("--grid-theta", type=int)
        p.add_argument("--grid-phi", type=int)
        p.add_argument("--out", dest="out_dir", type=str, help="output directory")
        p.add_argument("--workers", type=int)
        p.add_argument("--factors", dest="time_factors", type=float, nargs="+",
                       help="time-sweep factors (multiples of T_pi)")
        p.add_argument("--betas", dest="beta_inv_grid", type=float, nargs="+",
                       help="temperature-sweep grid (beta_inv values)")
        p.add_argument("--alpha", dest="cat_alpha", type=float,
                       help="cat-qubit ratio Lambda / PW")
        p.add_argument("--lambda-cl", type=float,
                       help="classical-portrait coupling override")
        p.add_argument("--sign-convention", choices=["figure_one", "literal_eq5"])
        p.add_argument("--optimize-time", dest="optimize_time_factor", action="store_const",
                       const=True,
                       help="pick the extensive-difference maximizing time per sweep point")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The --config file (or the defaults), with every flag given on top."""
    if args.config is not None:
        data = RunConfig.from_json(Path(args.config).read_text(encoding="utf-8")).to_dict()
    else:
        data = RunConfig().to_dict()
    data.update((k, v) for k, v in vars(args).items() if k in data and v is not None)
    return RunConfig.from_dict(data)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        outputs = run_command(args.command, config)
    except (NumericalInvariantError, LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"numerical invariant failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:  # ConfigError, a state not admitted, a refused path
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for path in outputs:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
