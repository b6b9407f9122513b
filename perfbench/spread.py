"""Run a workload once per seed and summarise the end-to-end metrics.

    python3 perfbench/spread.py --workload train-dense --seeds 1-10 [--out FILE]

For each metric prints the median and the spread, the distance between the
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the bound ``BENCHMARK.json`` fixes.  ``--out`` records the values,
their summary and the environment under the workload's name in a JSON file
(``perfbench/baseline.json`` holds the seed commit's).  Runs are sequential,
one process at a time, so they do not contend for the cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict, float]:
    """One untraced run: its environment, its result line and its wall time."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["env"], json.loads(lines[-1]), wall


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", type=Path, help="JSON file to record the results in")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    walls = []
    for seed in parse_seeds(args.seeds):
        env, result, wall = run_once(args.workload, seed, bench["run_seconds"])
        walls.append(wall)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {wall:.1f} s wall", file=sys.stderr, flush=True)

    summary = {name: summarise(v) for name, v in values.items()}
    for name, s in summary.items():
        bound = bounds.get(name)
        flag = "" if bound is None else f"bound {bound}  {'ok' if s['spread'] <= bound / 3 else 'WIDE'}"
        print(f"{name:<36} median {s['median']:12.6g}  spread {s['spread']:.4f}  {flag}")
    print(f"wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    if args.out:
        record = json.loads(args.out.read_text()) if args.out.exists() else {}
        record[args.workload] = {"env": env, "run_seconds": bench["run_seconds"],
                                 "seeds": args.seeds,
                                 "summary": summary, "values": values, "wall_s": walls}
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
