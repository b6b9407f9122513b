"""Benchmark of uncertrack: one workload per invocation.

    python3 perfbench/run.py --workload train-sparse --seed 1 --seconds 44 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` spends half the seconds on the workload with layer wrappers
installed, restores them, spends the other half on it untraced, and prints
the per-layer metrics plus the tracing overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it hold
the environment and the full report.  The exit code is 1 when an output
check fails and 2 when the program cannot be found.
"""

from __future__ import annotations

import os

# BLAS must see these before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def openblas_threads(numpy) -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, if it can be asked."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": openblas_threads(numpy),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(ROOT),
    }


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    if not (SRC / "uncertrack" / "__init__.py").is_file():
        _log(f"perfbench: no program at {SRC / 'uncertrack'}; run from a source checkout")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, run_workload

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # a stopped run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = environment()
    print(json.dumps({"env": env}))
    wl = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        metrics, tally, details = run_workload(wl, args.seed, args.seconds,
                                               bool(args.trace), Path(tmp), _log)
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(json.dumps({"report": {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "failed_frac": failed_frac,
        "failed_checks": tally.checks, **details}}))
    for name, (value, unit) in metrics.items():
        _log(f"  {name:<36} {value:14.6g} {unit}")
    correct = not tally.checks and tally.attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
