"""Same behaviour as the stored benchmark references.

The default all-figures run and the seed-0 timesweep-n800 command must
reproduce the CSVs under perfbench/reference/ to check.REL_TOL of each
column's largest value.  The benchmark's workloads and checker are loaded
by path, without writing bytecode next to them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from catlab.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # where dataclasses look it up
    spec.loader.exec_module(module)
    return module


# crossover-n800 is left out: its stored reference differs from every run since the QFI
# pair cutoff was removed (row 6, r_q, 1.8e-12 of the column maximum)
@pytest.mark.parametrize("workload", ["figures-n200", "timesweep-n800"])
def test_outputs_match_the_reference(tmp_path, monkeypatch, workload):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delenv("CATLAB_WORKERS", raising=False)
    check, workloads = load("check", monkeypatch), load("workloads", monkeypatch)
    inputs = workloads.WORKLOADS[workload](0)
    assert main([*inputs.argv, "--out", str(tmp_path)]) == 0
    reference = PERFBENCH / "reference" / workload
    assert check.check_outputs(tmp_path, reference, inputs.seeded_rows, 0) == []
