"""Outside-in layer tracer for catlab.

The tracer wraps the entry points of each catlab layer from the benchmark's
side, records one span per call (name, start, end, parent, pid), and turns
the spans into per-layer counts and self times.  Nothing inside ``src/`` is
changed; :meth:`Tracer.restore` puts every original object back.

Three properties of the program shape how the wrapping is done:

* ``from .spin import thermal_state`` binds by value, so a wrapper is
  installed under every name in every ``catlab`` module that holds the
  original object, not only in the defining module.
* ``catlab.wigner`` as an attribute is the function re-exported by the
  package, so modules are looked up in ``sys.modules``.
* Pool workers are forked and leave through ``os._exit``: a span closed in
  any process other than the tracer's own is appended to a per-pid file as
  soon as it closes.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

MARK = "_perfbench_span"


def _dim(args, result):
    return {"dim": int(args[0].shape[-1])}


def _steps(args, result):
    return {"steps": len(result.times) - 1}


def _phi_points(args, result):
    return {"phi_points": int(result.phi_values.size)}


def _bytes(args, result):
    return {"bytes": Path(args[0]).stat().st_size}


def _pool_size(args, result):
    n_workers, items = args[2], args[1]
    return {"workers": 1 if n_workers <= 1 or len(items) <= 1 else min(n_workers, len(items))}


# module -> [(attribute path, span name, attribute hook)]
TARGETS = {
    "catlab.spin": [
        ("thermal_state", "spin.thermal_state", None),
        ("rotation", "spin.rotation", None),
        ("assert_density_matrix", "spin.assert_density_matrix", None),
        ("spectral_decomp", "spin.spectral_decomp", None),
        ("state_eigensystem", "spin.state_eigensystem", None),
    ],
    "catlab.dynamics": [
        ("prepare_and_evolve", "dynamics.prepare_and_evolve", None),
        ("evolve", "dynamics.evolve", None),
        ("Propagator.__init__", "dynamics.Propagator", None),
    ],
    "catlab.metrology": [
        ("metrology_report", "metrology.metrology_report", None),
        ("qfi", "metrology.qfi", None),
        ("cfi_commutator", "metrology.cfi_commutator", None),
        ("qfi_axis_map", "metrology.qfi_axis_map", None),
    ],
    "numpy.linalg": [
        ("eigh", "linalg.eigh", _dim),
        ("eigvalsh", "linalg.eigvalsh", None),
    ],
    "catlab.classical": [
        ("phase_portrait", "classical.phase_portrait", None),
        ("separatrix", "classical.separatrix", None),
        ("integrate_trajectory", "classical.integrate_trajectory", _steps),
    ],
    "catlab.wigner": [
        ("wigner", "wigner.wigner", _phi_points),
    ],
    "catlab.catqubit": [
        (name, f"catqubit.{name}", None)
        for name in (
            "make_synthetic_cat", "reduced_density", "analytic_qfi", "analytic_rq",
            "reduced_extdiff", "eta_critical", "lg_violation",
        )
    ],
    "catlab.harness": [
        ("parallel_map", "harness.parallel_map", _pool_size),
        # the per-item functions the pool runs; their spans are the workers' busy time
        ("_time_sweep_point", "harness.pool.item", None),
        ("_temp_sweep_point", "harness.pool.item", None),
        ("write_csv", "harness.write_csv", _bytes),
        ("write_manifest", "harness.write_manifest", None),
    ],
}


def _catlab_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "catlab" or name.startswith("catlab."))]


def _owners() -> list:
    """Every namespace a wrapper can be installed in: modules and their classes."""
    owners = [sys.modules["numpy.linalg"]]
    for module in _catlab_modules():
        owners.append(module)
        owners += [v for v in vars(module).values()
                   if isinstance(v, type) and v.__module__ == module.__name__]
    return owners


def leftover_wrappers() -> list[str]:
    """Names in catlab (and numpy.linalg) still bound to a tracer wrapper."""
    return sorted(
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner in _owners()
        for name, value in list(vars(owner).items())
        if hasattr(value, MARK)
    )


class Tracer:
    """Span recorder for one process tree; install, run, restore, dump."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._count = 0
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> dict:
        self._count += 1
        pid = os.getpid()
        span = {
            "id": f"{pid}.{self._count}",
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "pid": pid,
            "start": time.perf_counter(),
        }
        self._stack.append(span)
        return span

    def _close(self, span: dict, end: float, attrs: dict | None = None) -> None:
        span["end"] = end
        self._stack.pop()
        if attrs:
            span["attrs"] = attrs
        if span["pid"] == self._pid:
            self.spans.append(span)
            return
        # a forked worker: write the span now, it leaves through os._exit
        with open(self.spill_dir / f"spans-{span['pid']}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(span) + "\n")

    def _wrap(self, fn, name: str, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(span, time.perf_counter())
                raise
            end = time.perf_counter()
            tracer._close(span, end, hook(args, result) if hook else None)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target under every name that binds it."""
        owners = _owners()
        for module_name, targets in TARGETS.items():
            module = sys.modules[module_name]
            for path, name, hook in targets:
                *outer, leaf = path.split(".")
                home = functools.reduce(getattr, outer, module)
                original = getattr(home, leaf)
                wrapper = self._wrap(original, name, hook)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._patches.append((owner, attr, value))
                            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def all_spans(self) -> list[dict]:
        """Spans of this process plus those the workers spilled."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            spans += [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        return spans


def union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = [(max(c["start"], lo), min(c["end"], hi)) for c in children[s["id"]]]
        out[s["id"]] = (hi - lo) - union_length([iv for iv in covered if iv[1] > iv[0]])
    return out


# name -> unit, better; the per-layer metrics a traced run reports
PER_LAYER = {}
for _name in ("spin.thermal_state", "spin.rotation", "spin.assert_density_matrix",
              "spin.spectral_decomp", "dynamics.prepare_and_evolve", "dynamics.evolve",
              "metrology.metrology_report", "linalg.eigh", "linalg.eigvalsh",
              "classical.separatrix", "classical.integrate_trajectory", "wigner.wigner"):
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
    PER_LAYER[f"{_name}.self_s"] = ("s", "lower")
for _name in ("metrology.qfi", "metrology.cfi_commutator", "metrology.qfi_axis_map",
              "classical.phase_portrait", "catqubit", "harness.write_csv",
              "harness.write_manifest"):
    PER_LAYER[f"{_name}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "dynamics.Propagator.builds": ("count", "lower"),
    "dynamics.Propagator.build_s": ("s", "lower"),
    "dynamics.evolve.reuse_ratio": ("ratio", "higher"),
    "linalg.eigh.max_dim": ("count", "lower"),
    "classical.integrate_trajectory.steps": ("count", "lower"),
    "wigner.wigner.phi_points": ("count", "lower"),
    "harness.parallel_map.wall_s": ("s", "lower"),
    "harness.pool.worker_busy_s": ("s", "lower"),
    "harness.pool.efficiency": ("ratio", "higher"),
    "harness.write_csv.bytes": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (all but trace.overhead_s)."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def calls(name):
        return len(by_name[name])

    def self_s(prefix):  # a bare layer name ("catqubit") sums all of its functions
        return sum(own[s["id"]] for n, group in by_name.items()
                   if n == prefix or n.startswith(prefix + ".") for s in group)

    def total_s(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def attr(name, key, reduce):
        return reduce([s.get("attrs", {}).get(key, 0) for s in by_name[name]] or [0])

    out = {}
    for metric in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls(layer)
        elif kind == "self_s":
            out[metric] = self_s(layer)
    builds, evolves = calls("dynamics.Propagator"), calls("dynamics.evolve")
    maps = by_name["harness.parallel_map"]
    capacity = sum(s["attrs"]["workers"] * (s["end"] - s["start"]) for s in maps)
    busy = total_s("harness.pool.item")
    out.update({
        "dynamics.Propagator.builds": builds,
        "dynamics.Propagator.build_s": total_s("dynamics.Propagator"),
        "dynamics.evolve.reuse_ratio": 1.0 - builds / evolves if evolves else 0.0,
        "linalg.eigh.max_dim": attr("linalg.eigh", "dim", max),
        "classical.integrate_trajectory.steps":
            attr("classical.integrate_trajectory", "steps", sum),
        "wigner.wigner.phi_points": attr("wigner.wigner", "phi_points", max),
        "harness.parallel_map.wall_s": total_s("harness.parallel_map"),
        "harness.pool.worker_busy_s": busy,
        "harness.pool.efficiency": busy / capacity if capacity else 0.0,
        "harness.write_csv.bytes": attr("harness.write_csv", "bytes", sum),
    })
    return out
