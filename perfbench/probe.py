"""Set-up probe: time to import catlab.cli and build the RunConfig in a fresh process.

    python3 perfbench/probe.py [--env] <catlab arguments...>

Prints one JSON object with ``setup_s``; with ``--env`` it also describes the
numerical environment the run would use.  The probe changes no threading
setting: it reports what the process inherited.
"""

import time

_START = time.perf_counter()

import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CATLAB_WORKERS")
OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads() -> tuple[int | None, str]:
    """OpenBLAS thread count as the loaded library reports it, else from the env."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn(), f"library:{symbol}"
    for var in THREAD_VARS[:3]:
        if os.environ.get(var):
            return int(os.environ[var]), f"env:{var}"
    return None, "unknown"


def environment(config) -> dict:
    import numpy
    from catlab.harness import resolve_workers

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads, source = blas_threads()
    return {
        "n": config.n_particles,
        "workers": resolve_workers(config),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "blas_threads_source": source,
        "usable_cores": len(os.sched_getaffinity(0)),
        "threading_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv: list[str]) -> None:
    want_env = bool(argv) and argv[0] == "--env"
    if want_env:
        argv = argv[1:]
    from catlab.cli import build_parser, config_from_args

    config = config_from_args(build_parser().parse_args(argv))
    record = {"setup_s": time.perf_counter() - _START}
    if want_env:
        record["env"] = environment(config)
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
