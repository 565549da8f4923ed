"""Run the benchmark over seeds 1 to 10 and summarize the spread.

    python3 bench/spread.py [--workloads catalog-sweep,point-query] [--out summary.json]

It runs ``run.py --trace 0`` once per seed and workload, for BENCHMARK.json's
``run_seconds``, over every workload BENCHMARK.json names unless
``--workloads`` picks some. For each workload and end-to-end metric it
prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a
share of the median, next to the metric's bound from BENCHMARK.json; a
spread above a third of the bound is marked.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads")
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    summary = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload in workloads:
        values = {}
        failed = attempted = 0
        for seed in SEEDS:
            out = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        rows = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "samples": len(vals), "values": vals}
            bound = bounds[name]
            mark = " !" if spread > bound / 3 else ""
            print(f"  {workload:16} {name:28} median {median:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f} bound {bound}{mark}")
        summary["workloads"][workload] = {"failed": failed, "attempted": attempted,
                                          "metrics": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")


if __name__ == "__main__":
    main()
