"""Repeat benchmark runs over ten seeds and summarize them.

    python3 bench/collect.py [--out bench/baseline/BENCH_<label>.json]

Runs ``bench/run.py`` once per seed (seeds 1..10) on every workload in
BENCHMARK.json with its ``run_seconds``, then one traced run per
workload. For every end-to-end metric it prints the median and the
quartile spread (q3 - q1) / median next to the metric's bound, using
``statistics.quantiles(values, n=4)``, and flags a spread over a third
of the bound. With ``--out`` it writes every value, the summaries, the
traced per-layer metrics and the environment record as JSON. Run from
the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in SEEDS:
            result, env = run_once(workload, seed, seconds, 0)
            results.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ), flush=True)
        entry = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results),
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            summary = summarize([r["metrics"][name]["value"] for r in results])
            summary["unit"] = results[0]["metrics"][name]["unit"]
            summary["bound"] = bound
            entry["end_to_end"][name] = summary
            flag = "" if summary["spread"] <= bound / 3 else "  <-- over bound/3"
            print(f"  {name:16s} median {summary['median']:10.4f} {summary['unit']:4s} "
                  f"spread {summary['spread']:.4f} (bound {bound}){flag}", flush=True)
        traced, env = run_once(workload, SEEDS[0], seconds, 1)
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        doc["workloads"][workload] = entry
        doc["env"] = env
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
