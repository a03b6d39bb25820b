"""catlab benchmark: one workload, measured end to end or traced layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs ``src/catlab`` from source.  Each
invocation is a fresh ``python -m catlab.cli`` process, in a closed loop with
one client: the next invocation starts when the previous one has exited and
its outputs have been checked, for as long as fewer than S seconds have
passed.  The benchmark sets no threading variable: BLAS and the worker pool
run with whatever the environment gives them, and the run records it.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` one more invocation follows the loop under ``traced_cli.py``,
and the last line carries the per-layer metrics of that traced invocation;
``trace.overhead_s`` is its wall time minus the untraced median.

Every run writes a full record, environment included, to
``.bench_work/results/``.  The exit code is 0 only when every invocation
exited 0 and passed the output check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from check import check_outputs
from tracer import PER_LAYER, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
# set-up probes before each invocation and after the last, so that the
# setup_s samples are spread over the whole run like the invocations are
PROBES_PER_GAP = 3
RUN_DEADLINE_S = 170.0  # a run must end within 180 s

# name -> (unit, better); fail_frac is printed, and carried by attempted/failed
END_TO_END = {
    "wall_s": ("s", "lower"),
    "points_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


def child_env(src: Path) -> dict:
    """The caller's environment with the checkout's sources first on the path."""
    paths = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def invoke(cmd: list[str], env: dict, log: Path, timeout: float) -> dict:
    """Run cmd in its own session; wall time, CPU and peak RSS of its process tree.

    ``wait4`` charges the child with the CPU of every descendant it reaped
    (pool workers, BLAS threads) and reports the largest peak RSS among them.
    """
    start = time.perf_counter()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(cmd, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                start_new_session=True)
    timer = threading.Timer(max(timeout, 1.0), _kill_session, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_session(proc.pid)  # nothing the invocation started may outlive it
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": proc.returncode,
    }


def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


class Session:
    """The invocations of one benchmark run and their checked outcomes."""

    def __init__(self, workload: str, seed: int, src: Path, work: Path, deadline: float):
        self.inputs = WORKLOADS[workload](seed)
        self.seed = seed
        self.ref_dir = HERE / "reference" / workload
        self.env = child_env(src)
        self.work = work
        self.deadline = deadline
        self.samples: list[dict] = []
        self.setup: list[float] = []
        self.environment: dict = {}

    def probe(self) -> None:
        """setup_s samples from fresh processes; the first also reports the environment."""
        for _ in range(PROBES_PER_GAP):
            want_env = not self.environment
            cmd = [sys.executable, str(HERE / "probe.py"), *(["--env"] if want_env else []),
                   *self.inputs.argv]
            done = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=max(self.deadline - time.perf_counter(), 1.0))
            if done.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
            record = json.loads(done.stdout.strip().splitlines()[-1])
            self.setup.append(record["setup_s"])
            self.environment = record.get("env", self.environment)

    def run(self, traced: bool = False) -> None:
        k = len(self.samples)
        out = self.work / f"out{k}"
        argv = [*self.inputs.argv, "--out", str(out)]
        if traced:
            spans = self.work / f"spans{k}"
            spans.mkdir()
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "catlab.cli", *argv]
        sample = invoke(cmd, self.env, self.work / f"log{k}.txt",
                        self.deadline - time.perf_counter())
        sample["traced"] = traced
        if sample["exit_code"] != 0:
            log = (self.work / f"log{k}.txt").read_text(errors="replace")
            sample["problems"] = [f"exit code {sample['exit_code']}: {log.strip()[-300:]}"]
        else:
            sample["problems"] = check_outputs(out, self.ref_dir, self.inputs.seeded_rows,
                                               self.seed)
        if traced and sample["exit_code"] == 0:
            spans_data = json.loads((spans / "spans.json").read_text(encoding="utf-8"))
            sample["layers"] = layer_metrics(spans_data)
        shutil.rmtree(out, ignore_errors=True)
        self.samples.append(sample)

    def loop(self, seconds: float) -> None:
        """Closed loop over `seconds`: start an invocation only if it should end in time.

        The first invocation always runs.  After it, the median time of one
        probe-and-invoke cycle so far predicts the next, so a run measures
        close to `seconds` and never much more.
        """
        end = min(time.perf_counter() + seconds, self.deadline)
        cycles: list[float] = []
        while not cycles or time.perf_counter() + statistics.median(cycles) <= end:
            start = time.perf_counter()
            self.probe()
            self.run()
            cycles.append(time.perf_counter() - start)
        self.probe()


def end_to_end(samples: list[dict], points: int, setup: list[float]) -> dict[str, float]:
    walls = [s["wall_s"] for s in samples]
    return {
        "wall_s": statistics.median(walls),
        "points_per_s": statistics.median(points / w for w in walls),
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "setup_s": statistics.median(setup),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + RUN_DEADLINE_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "catlab" / "cli.py").is_file():
        print(f"perfbench: no catlab sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        session = Session(args.workload, args.seed, src, work, deadline)
        session.loop(args.seconds)
        if args.trace:
            session.run(traced=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = session.samples
    untraced = [s for s in samples if not s["traced"]]
    failed = sum(1 for s in samples if s["problems"])
    e2e = end_to_end(untraced, session.inputs.points, session.setup)
    if args.trace:
        traced = samples[-1]
        layers = dict(traced.get("layers") or {m: 0 for m in PER_LAYER})
        layers["trace.overhead_s"] = traced["wall_s"] - e2e["wall_s"]
        metrics = {m: {"value": layers[m], "unit": PER_LAYER[m][0]} for m in PER_LAYER}
    else:
        metrics = {m: {"value": e2e[m], "unit": unit} for m, (unit, _) in END_TO_END.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "argv": session.inputs.argv, "points": session.inputs.points,
        "environment": session.environment, "setup_s_samples": session.setup,
        "samples": samples,
        "end_to_end": e2e, "fail_frac": failed / len(samples),
    }
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print("env " + json.dumps(session.environment, sort_keys=True))
    for s in samples:
        for problem in s["problems"][:5]:
            print(f"FAILED {problem}")
    print(f"# {args.workload} seed {args.seed}: {len(untraced)} untraced invocation(s), "
          "medians below")
    for m, (unit, _) in END_TO_END.items():
        print(f"{m} {e2e[m]:.6g} {unit}")
    print(f"fail_frac {failed / len(samples):.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
