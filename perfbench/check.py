"""Output check for one catlab invocation.

Seed-independent CSVs are compared with the stored seed-0 reference, column by
column, within ``REL_TOL`` of the largest magnitude in the reference column.
That passes the ~2e-15 drift that BLAS threading causes and catches real
changes.  CSVs whose values depend on the seed are checked against the
physics invariants instead (and against the reference too at seed 0).  Every
``manifest.json`` must list each output with its true sha256.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import math
from pathlib import Path

REL_TOL = 1e-12
# the program's own Fisher-chain slack (MetrologyReport): a pure state gives
# r_q = 1 up to round-off
R_SLACK = 1e-9
F_SLACK = 1e-6


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _floats(column: list[str]) -> list[float] | None:
    try:
        return [float(v) for v in column]
    except ValueError:
        return None


def compare_csv(ref_text: str, out_text: str, rel_tol: float = REL_TOL) -> list[str]:
    """Problems found comparing an output CSV with its reference (empty when equal)."""
    ref_header, ref_rows = parse_csv(ref_text)
    header, rows = parse_csv(out_text)
    if header != ref_header:
        return [f"header {header} != reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for k, name in enumerate(header):
        ref_col = [r[k] for r in ref_rows]
        out_col = [r[k] for r in rows]
        ref_vals = _floats(ref_col)
        if ref_vals is None:
            bad = [i for i, (a, b) in enumerate(zip(out_col, ref_col)) if a != b]
            if bad:
                problems.append(f"column {name}: row {bad[0]} is {out_col[bad[0]]!r}, "
                                f"reference {ref_col[bad[0]]!r}")
            continue
        out_vals = _floats(out_col)
        if out_vals is None:
            problems.append(f"column {name}: non-numeric values")
            continue
        scale = max((abs(v) for v in ref_vals if math.isfinite(v)), default=0.0)
        worst, where = 0.0, None
        for i, (a, b) in enumerate(zip(out_vals, ref_vals)):
            if a == b or (math.isnan(a) and math.isnan(b)):
                continue
            dev = abs(a - b) / scale if scale > 0 and math.isfinite(a - b) else math.inf
            if dev > worst:
                worst, where = dev, i
        if worst > rel_tol:
            problems.append(f"column {name}: row {where} is {out_col[where]}, reference "
                            f"{ref_col[where]} ({worst:.2e} of the column's largest value)")
    return problems


def check_invariants(text: str, rows_expected: int) -> list[str]:
    """Row count, finiteness and the Fisher chain 0 <= r_c <= r_q <= 1, F_c <= F_q."""
    header, rows = parse_csv(text)
    problems = []
    if len(rows) != rows_expected:
        problems.append(f"{len(rows)} rows, expected {rows_expected}")
    for i, row in enumerate(rows):
        vals = {k: float(v) for k, v in zip(header, row) if _floats([v]) is not None}
        bad = sorted(k for k, v in vals.items() if not math.isfinite(v))
        if bad:
            problems.append(f"row {i}: non-finite {bad}")
            continue
        r_c, r_q = vals.get("r_c"), vals.get("r_q")
        if r_c is not None and r_q is not None and not (
            -R_SLACK <= r_c <= r_q <= 1.0 + R_SLACK
        ):
            problems.append(f"row {i}: r_c = {r_c!r}, r_q = {r_q!r} break 0 <= r_c <= r_q <= 1")
        f_c, f_q = vals.get("f_c"), vals.get("f_q")
        if f_c is not None and f_q is not None and f_c > f_q * (1.0 + F_SLACK):
            problems.append(f"row {i}: F_c = {f_c!r} exceeds F_q = {f_q!r}")
    return problems


def check_manifests(out_dir: Path) -> list[str]:
    """Every manifest entry exists with the recorded sha256; every CSV is listed."""
    problems = []
    listed = set()
    manifests = sorted(out_dir.rglob("manifest.json"))
    if not manifests:
        return ["no manifest.json written"]
    for manifest in manifests:
        outputs = json.loads(manifest.read_text(encoding="utf-8"))["outputs"]
        for rel, digest in outputs.items():
            path = manifest.parent / rel
            listed.add(path.resolve())
            if not path.is_file():
                problems.append(f"{manifest.relative_to(out_dir)} lists missing {rel}")
            elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
                problems.append(f"{manifest.relative_to(out_dir)}: sha256 of {rel} differs")
    for path in sorted(out_dir.rglob("*.csv")):
        if path.resolve() not in listed:
            problems.append(f"{path.relative_to(out_dir)} is in no manifest")
    return problems


def read_reference(path: Path) -> str:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return fh.read()


def check_outputs(
    out_dir: Path, ref_dir: Path, seeded_rows: dict[str, int], seed: int
) -> list[str]:
    """All problems with one invocation's output tree (empty when it is correct)."""
    problems = check_manifests(out_dir)
    produced = {p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*.csv")}
    expected = {p.relative_to(ref_dir).as_posix().removesuffix(".gz")
                for p in ref_dir.rglob("*.csv.gz")}
    if produced != expected:
        problems.append(f"CSV set {sorted(produced)} != reference {sorted(expected)}")
    for rel in sorted(produced & expected):
        text = (out_dir / rel).read_text(encoding="utf-8")
        found = []
        if rel in seeded_rows:
            found += check_invariants(text, seeded_rows[rel])
        if seed == 0 or rel not in seeded_rows:
            found += compare_csv(read_reference(ref_dir / f"{rel}.gz"), text)
        problems += [f"{rel}: {p}" for p in found]
    return problems
