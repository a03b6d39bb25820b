"""Regenerate the stored seed-0 reference CSVs.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the root of a checkout.  Each workload runs once at seed 0 and every
CSV it writes is stored gzipped under ``perfbench/reference/<workload>/``.
Only do this when a change to the program's outputs is intended.
"""

from __future__ import annotations

import gzip
import shutil
import sys
from pathlib import Path

from check import check_manifests
from run import HERE, child_env, invoke
from workloads import WORKLOADS


def main(names: list[str]) -> int:
    root = Path.cwd()
    work = root / ".bench_work" / "reference"
    for name in names or sorted(WORKLOADS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        out = work / "out"
        cmd = [sys.executable, "-m", "catlab.cli", *WORKLOADS[name](0).argv, "--out", str(out)]
        sample = invoke(cmd, child_env(root / "src"), work / "log.txt", timeout=600)
        problems = check_manifests(out) if sample["exit_code"] == 0 else ["catlab failed"]
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            return 1
        ref = HERE / "reference" / name
        shutil.rmtree(ref, ignore_errors=True)
        for csv_path in sorted(out.rglob("*.csv")):
            target = ref / f"{csv_path.relative_to(out).as_posix()}.gz"
            target.parent.mkdir(parents=True, exist_ok=True)
            # mtime=0 and no file name keep the stored bytes reproducible
            with open(target, "wb") as raw, gzip.GzipFile("", "wb", 9, raw, mtime=0) as gz:
                gz.write(csv_path.read_bytes())
        print(f"{name}: {sample['wall_s']:.1f} s, reference written to {ref}")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
