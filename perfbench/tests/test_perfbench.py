"""Tests of the benchmark itself: output check, span arithmetic, tracer hygiene.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE = BENCH / "reference" / "figures-n200" / "temp_sweep" / "crossover.csv.gz"


def _scaled(text: str, column: str, factor_of_max: float, every_row: bool) -> str:
    """Move one column's values by factor_of_max times the column's largest magnitude."""
    header, rows = check.parse_csv(text)
    k = header.index(column)
    values = [float(r[k]) for r in rows]
    top = max(range(len(values)), key=lambda i: abs(values[i]))
    shift = factor_of_max * abs(values[top])
    for i, row in enumerate(rows):
        if every_row or i == top:
            row[k] = format(values[i] + shift, ".17g")
    return "\n".join(",".join(r) for r in [header, *rows]) + "\n"


def test_output_check_flags_1e10_and_accepts_2e15():
    ref = check.read_reference(REFERENCE)
    assert check.compare_csv(ref, ref) == []
    assert check.compare_csv(ref, _scaled(ref, "f_q", 2e-15, every_row=True)) == []
    problems = check.compare_csv(ref, _scaled(ref, "f_q", 1e-10, every_row=False))
    assert len(problems) == 1 and problems[0].startswith("column f_q")


def test_output_check_flags_string_and_row_changes():
    ref = check.read_reference(REFERENCE)
    assert check.compare_csv(ref, ref.replace("pi,", "zero,", 1))
    assert check.compare_csv(ref, ref.rsplit("\n", 2)[0] + "\n")


def test_invariants_catch_a_broken_fisher_chain():
    header = "state,beta_inv,r_q,r_c,f_q,f_c\n"
    good = header + "pi,1,0.9,0.5,10,3\nzero,2,1.0000000000000007,0.2,12,1\n"
    assert check.check_invariants(good, 2) == []
    assert check.check_invariants(good, 3)  # row count
    assert check.check_invariants(header + "pi,1,0.5,0.9,10,3\n", 1)  # r_c > r_q
    assert check.check_invariants(header + "pi,1,0.9,0.5,10,11\n", 1)  # F_c > F_q
    assert check.check_invariants(header + "pi,1,nan,0.5,10,3\n", 1)  # non-finite


def test_manifest_check_catches_a_changed_file(tmp_path):
    csv_path = tmp_path / "a.csv"
    csv_path.write_text("x\n1\n", encoding="utf-8")
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    (tmp_path / "manifest.json").write_text(json.dumps({"outputs": {"a.csv": digest}}))
    assert check.check_manifests(tmp_path) == []
    csv_path.write_text("x\n2\n", encoding="utf-8")
    assert check.check_manifests(tmp_path) == ["manifest.json: sha256 of a.csv differs"]
    (tmp_path / "b.csv").write_text("x\n", encoding="utf-8")
    assert "b.csv is in no manifest" in check.check_manifests(tmp_path)


def _span(sid, parent, name, start, end, **attrs):
    span = {"id": sid, "parent": parent, "name": name, "pid": 1, "start": start, "end": end}
    if attrs:
        span["attrs"] = attrs
    return span


def test_self_time_on_nested_spans():
    spans = [
        _span("root", None, "harness.parallel_map", 0.0, 10.0, workers=2),
        _span("a", "root", "harness.pool.item", 1.0, 4.0),  # overlaps b: two workers
        _span("b", "root", "harness.pool.item", 3.0, 6.0),
        _span("a1", "a", "linalg.eigh", 2.0, 3.0, dim=7),
        _span("late", "root", "linalg.eigh", 9.0, 12.0, dim=5),  # clipped at the parent's end
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx({"root": 10 - 5 - 1, "a": 2.0, "b": 3.0, "a1": 1.0, "late": 3.0})
    m = tracer.layer_metrics(spans)
    assert m["linalg.eigh.calls"] == 2
    assert m["linalg.eigh.self_s"] == pytest.approx(4.0)
    assert m["linalg.eigh.max_dim"] == 7
    assert m["harness.parallel_map.wall_s"] == pytest.approx(10.0)
    assert m["harness.pool.worker_busy_s"] == pytest.approx(6.0)
    assert m["harness.pool.efficiency"] == pytest.approx(6.0 / 20.0)
    assert set(m) | {"trace.overhead_s"} == set(tracer.PER_LAYER)


def test_wrappers_removed_after_traced_run(tmp_path):
    import numpy
    import catlab.cli
    import catlab.dynamics
    import catlab.harness
    import catlab.spin

    originals = {
        "eigh": numpy.linalg.eigh,
        "thermal_state": catlab.spin.thermal_state,
        "parallel_map": catlab.harness.parallel_map,
        "init": catlab.dynamics.Propagator.__init__,
        "wigner": sys.modules["catlab.wigner"].wigner,
    }
    t = tracer.Tracer(tmp_path)
    t.install()
    try:
        assert catlab.dynamics.thermal_state is not originals["thermal_state"]
        assert catlab.dynamics.thermal_state is catlab.spin.thermal_state
        assert catlab.wigner is sys.modules["catlab.wigner"].wigner  # the re-export too
        code = catlab.cli.main(["time-sweep", "--n", "20", "--factors", "0.5", "1.0", "1.5",
                                "--workers", "2", "--out", str(tmp_path / "out")])
    finally:
        t.restore()
    assert code == 0
    assert tracer.leftover_wrappers() == []
    assert numpy.linalg.eigh is originals["eigh"]
    assert catlab.dynamics.thermal_state is originals["thermal_state"]
    assert catlab.harness.parallel_map is originals["parallel_map"]
    assert catlab.dynamics.Propagator.__init__ is originals["init"]
    assert catlab.wigner is originals["wigner"]

    spans = t.all_spans()
    pool = [s for s in spans if s["name"] == "harness.parallel_map"]
    items = [s for s in spans if s["name"] == "harness.pool.item"]
    assert len(pool) == 1 and len(items) == 3
    # the items ran in forked workers and were flushed there, one file per worker
    assert all(s["parent"] == pool[0]["id"] and s["pid"] != pool[0]["pid"] for s in items)
    assert list(tmp_path.glob("spans-*.jsonl"))


def test_seeds_are_deterministic_and_seed_zero_is_the_reference_grid():
    for build in WORKLOADS.values():
        assert build(7) == build(7)
        assert build(7).argv != build(0).argv
    assert WORKLOADS["crossover-n800"](0).argv[4:8] == ["0.1", "1.0", "10.0", "100.0"]
    assert WORKLOADS["figures-n200"](0).points == 50


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.PER_LAYER


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "figures-n200", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
