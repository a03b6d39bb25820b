"""Run configuration: one JSON document drives every batch command.

The configuration round-trips through JSON bit-exactly (floats are written
with repr-level precision), so a saved config plus the tool version pins a
run completely.  Command-line flags override individual fields, and each
field is the target of one.  Energies are in units of the hopping energy
t = 1, so u_int and n_particles fix the mean-field coupling lambda_cl = u N.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .catqubit import PEAK_WIDTH


class ConfigError(ValueError):
    """A configuration field is out of range or inconsistent."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: the values each field annotation admits; bool is an int subclass, so it is excluded
_TYPE_CHECKS = {
    "int": _is_int,
    "int | None": lambda v: v is None or _is_int(v),
    "float": _is_number,
    "float | None": lambda v: v is None or _is_number(v),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "list[float]": lambda v: isinstance(v, list) and all(map(_is_number, v)),
}


def _finite_floats(name: str, value: float | list[float]) -> float | list[float]:
    """A float field's number or list of numbers as finite floats.

    A JSON int is exact at any size: past float range it has no float, and inside it
    Python's int arithmetic (N u) can still leave float range, so every entry is a float.
    """
    entries = value if isinstance(value, list) else [value]
    try:
        floats = [float(v) for v in entries]
    except OverflowError as exc:
        raise ConfigError(f"{name} must be finite, got an int past float range") from exc
    if not all(map(math.isfinite, floats)):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return floats if isinstance(value, list) else floats[0]


def _default_time_factors() -> list[float]:
    return [round(0.1 * k, 10) for k in range(0, 21)]


def _default_beta_inv_grid() -> list[float]:
    # 13-point log grid over [0.1, 100]; includes 1 and 10 exactly
    return [float(f"{10 ** (-1 + 3 * k / 12):.12g}") for k in range(13)]


@dataclass
class RunConfig:
    """Parameter bundle for the batch front-end."""

    n_particles: int = 200
    u_int: float = 0.1
    state_label: str = "zero"  # "pi" or "zero"
    beta_inv_over_eps: float = 0.0  # 0 means the spin coherent state (dynamics.PURE_STATE_BETA)
    time_factor: float | None = None  # None -> 1.0 for pi, 1.4 for zero
    out_dir: str = "catlab_out"
    workers: int | None = None  # None -> one per usable core (harness.resolve_workers)
    time_factors: list[float] = field(default_factory=_default_time_factors)
    beta_inv_grid: list[float] = field(default_factory=_default_beta_inv_grid)
    optimize_time_factor: bool = False
    cat_alpha: float = 6.6

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        # a wrong type, NaN/inf or an int would slip past or crash the range checks below
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _TYPE_CHECKS[f.type](value):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
            if "float" in f.type and value is not None:
                setattr(self, f.name, _finite_floats(f.name, value))
        if not 2 <= self.n_particles <= 2**53 or self.n_particles % 2:  # 2^53: every m exact
            raise ConfigError(
                f"n_particles must be an even integer in [2, 2**53], got {self.n_particles!r}"
            )
        if not self.u_int > 0:
            raise ConfigError(f"u_int must be > 0, got {self.u_int!r}")
        if self.state_label not in ("pi", "zero"):
            raise ConfigError(f"state_label must be 'pi' or 'zero', got {self.state_label!r}")
        if self.beta_inv_over_eps < 0:
            raise ConfigError(f"beta_inv_over_eps must be >= 0, got {self.beta_inv_over_eps!r}")
        # beta_scaled = 1 / beta_inv overflows to inf for subnormal temperatures
        temps = {
            "beta_inv_over_eps": [self.beta_inv_over_eps],
            "beta_inv_grid": self.beta_inv_grid,
        }
        for name, values in temps.items():
            if any(b > 0 and math.isinf(1 / b) for b in values):
                raise ConfigError(f"{name} entries > 0 need a finite reciprocal, got {values!r}")
        # T_pi = ln(8N) / (N u) overflows to inf for subnormal couplings
        if math.isinf(math.log(8 * self.n_particles) / (self.n_particles * self.u_int)):
            raise ConfigError(
                f"u_int must give a finite T_pi = ln(8N) / (N u), got {self.u_int!r} "
                f"at N = {self.n_particles}"
            )
        if self.time_factor is not None and self.time_factor < 0:
            raise ConfigError(f"time_factor must be >= 0, got {self.time_factor!r}")
        if self.workers is not None and self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers!r}")
        if not self.time_factors or any(f < 0 for f in self.time_factors):
            raise ConfigError("time_factors must be a non-empty list of factors >= 0")
        if not self.beta_inv_grid or any(b <= 0 for b in self.beta_inv_grid):
            raise ConfigError("beta_inv_grid must be a non-empty list of positive temperatures")
        if not self.cat_alpha > 0:
            raise ConfigError(f"cat_alpha must be > 0, got {self.cat_alpha!r}")
        # Lambda = alpha PW as cmd_catqubit forms it: F_q <= Lambda^2 + PW^2, alpha^2 < Lambda^2
        lam = self.cat_alpha * PEAK_WIDTH
        if math.isinf(lam * lam):
            raise ConfigError(
                f"cat_alpha {self.cat_alpha!r}: Lambda^2 = (cat_alpha PW)^2 overflows "
                f"at PW = {PEAK_WIDTH}"
            )

    def effective_time_factor(self, state_label: str | None = None) -> float:
        label = state_label if state_label is not None else self.state_label
        if self.time_factor is not None:
            return self.time_factor
        return 1.0 if label == "pi" else 1.4

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config JSON must be an object")
        return cls.from_dict(data)

