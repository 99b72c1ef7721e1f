"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 bench/spread.py --workload design --seeds 401-410 --seconds 20
    python3 bench/spread.py --workload all --seeds 401-410 --seconds 20 --out spread.json

Runs ``bench/run.py --trace 0`` once per seed, one run at a time, and
prints for each metric the median, the quartiles (``statistics.quantiles``
with n=4) and the quartile distance over the median, next to the
metric's bound in BENCHMARK.json.  ``--out`` writes the same summary as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = wall
    probe = " | ".join(line.strip() for line in proc.stdout.splitlines()
                       if line.endswith("probes over 1.3x the fastest"))
    values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                      if k in BOUNDS and k != "ser_max_rel_err")
    print(f"  {workload} seed {seed}: {values} wall={wall:.1f}s | {probe}", flush=True)
    return result


def summarise(workload: str, results: list[dict]) -> dict:
    out = {"runs": len(results),
           "attempted": [r["attempted"] for r in results],
           "failed": [r["failed"] for r in results],
           "all_correct": all(r["correct"] for r in results),
           "wall_s_max": max(r["wall_s"] for r in results)}
    for name in BOUNDS:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median,
                     "bound": BOUNDS[name]}
        print(f"{workload:13s} {name:16s} median={median:<12.6g} "
              f"iqr/median={(q3 - q1) / median:6.3f}  bound={BOUNDS[name]}", flush=True)
    print(f"{workload:13s} attempted={out['attempted']} failed={out['failed']} "
          f"correct={out['all_correct']} slowest run={out['wall_s_max']:.1f}s", flush=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="401-410", help="inclusive range, e.g. 401-410")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    names = [w["name"] for w in SPEC["workloads"]] if args.workload == "all" else [args.workload]
    summary = {}
    for workload in names:
        summary[workload] = summarise(
            workload, [run(workload, seed, args.seconds) for seed in seeds(args.seeds)])
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
