"""Benchmark of the ``stirling`` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client and one thread: it drives
``stirling.cli.run`` with the workload's seeded argv lists, one call after
another. Each run of the workload is a fresh child interpreter
(``child.py``), one child at a time, so caches start cold and the child's
own ``ru_maxrss`` is that run's peak memory. Outputs stream into a sink in
the child that counts and hashes bytes and keeps only the lines the checks
need; every call is checked here, after its child has ended, outside the
timed region. Each call's time is its fastest repetition in the run.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` first runs the
ops of every workload once, each in a traced child, plus one probe child,
and reports the per-layer metrics; for ``trace.overhead_s`` it then
alternates untraced and traced runs of the chosen workload for
``--seconds``. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics for a reader.
"""

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from math import factorial
from pathlib import Path

from reference import bell_numbers
from workloads import CATALOG_IDS, ORACLE_MAX, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"

MIN_RUNS = 3
CHILD_TIMEOUT_S = 60
MIB = 1 << 20
# What oracle-check --max ORACLE_MAX enumerates, computed from the inputs
# (the oracle memoizes each census, so every n is enumerated once per child).
ENUMERATED_PERMUTATIONS = sum(factorial(n) for n in range(1, ORACLE_MAX + 1))
ENUMERATED_PARTITIONS = sum(bell_numbers(ORACLE_MAX)[1:])


def spawn(spec):
    """Run one child with ``spec``; return its report, or None if it failed.

    ``setup_s`` is the time from spawning the child to its ``import
    stirling.cli`` returning; both ends read CLOCK_MONOTONIC, which is
    shared by every process on the machine.
    """
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(CHILD)], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(json.dumps(spec).encode(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    if proc.returncode != 0:
        return None
    report = json.loads(out)
    report["setup_s"] = report["imported"] - start
    return report


class Tally:
    """Attempted and failed calls, and why the first few failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, ops, report):
        """Check every call of one child's run; return its results, with
        None for each call the child did not finish."""
        results = list(report["results"]) if report else []
        results += [None] * (len(ops) - len(results))
        for op, result in zip(ops, results):
            self.attempted += 1
            reason = op.failure(result)
            if reason is not None:
                self.failed += 1
                if len(self.reasons) < 10:
                    self.reasons.append(f"{op.name} {' '.join(op.argv)}: {reason}")
        return results

    @property
    def fail_share(self):
        return self.failed / self.attempted if self.attempted else 0.0


def run_ops(ops, tally, trace=False):
    report = spawn({"ops": [{"argv": op.argv, "keep": op.keep} for op in ops], "trace": trace})
    return report, tally.add(ops, report)


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(ops_by_workload, traced, probe, traced_wall_s, wall_s):
    spans = {}
    for name, results in traced.items():
        for op, result in zip(ops_by_workload[name], results):
            for span, (inclusive, own, calls, figure) in (result or {}).get("spans", {}).items():
                # identities.eqK_s are the single-identity calls; the sweeps
                # of the all-identity calls are kept apart
                if op.name in ("verify-all", "verify-fault") and span.startswith("identities."):
                    span = "identities." + op.name.split("-")[1]
                total = spans.setdefault(span, [0.0, 0.0, 0, 0])
                for i, value in enumerate((inclusive, own, calls, figure)):
                    total[i] += value

    def get(span, field=0):
        return spans.get(span, [0.0, 0.0, 0, 0])[field]

    convert = ("engine.first_from_second", "engine.second_from_first")
    serialize = ("engine.to_csv", "engine.to_json")
    metrics = {
        "cli.self_s": (get("cli.run", 1), "s"),
        "cli.calls": (get("cli.run", 2), "count"),
        "engine.value_s": (get("engine.value"), "s"),
        "engine.value_calls": (get("engine.value", 2), "count"),
        "engine.convert_s": (sum(get(s) for s in convert), "s"),
        "engine.convert_calls": (sum(get(s, 2) for s in convert), "count"),
        "engine.triangle_s": (get("engine.triangle"), "s"),
        "engine.serialize_s": (sum(get(s) for s in serialize), "s"),
        "engine.serialize_mib": (sum(get(s, 3) for s in serialize) / MIB, "MiB"),
        "engine.read_ns": (probe.get("engine.read_ns", 0.0), "ns"),
        "engine.rows_per_s": (probe.get("engine.rows_per_s", 0.0), "1/s"),
    }
    for identity in CATALOG_IDS:
        metrics[f"identities.{identity}_s"] = (get(f"identities.{identity}"), "s")
    metrics.update({
        "identities.fault_s": (get("identities.fault"), "s"),
        "identities.counterexamples": (get("identities.fault", 3), "count"),
        "poly.build_s": (probe.get("poly.build_s", 0.0), "s"),
        "oracle.permutations_s": (get("oracle.count_permutations_by_cycles"), "s"),
        "oracle.partitions_s": (get("oracle.count_set_partitions"), "s"),
        "oracle.perms_per_s": (ENUMERATED_PERMUTATIONS
                               / max(get("oracle.count_permutations_by_cycles"), 1e-9), "1/s"),
        "oracle.partitions_per_s": (ENUMERATED_PARTITIONS
                                    / max(get("oracle.count_set_partitions"), 1e-9), "1/s"),
        "exact.dump_json_s": (get("exact.dump_json"), "s"),
        "trace.overhead_s": (traced_wall_s - wall_s, "s"),
    })
    return metrics


def measure(workload, seed, seconds, trace):
    ops = WORKLOADS[workload](random.Random(seed))
    tally = Tally()
    notes = {}

    ops_by_workload = {workload: ops}
    traced = {}
    probe = {}
    if trace:
        for name, build in WORKLOADS.items():
            ops_by_workload.setdefault(name, build(random.Random(seed)))
            _, traced[name] = run_ops(ops_by_workload[name], tally, trace=True)
        probe_report = spawn({"probe": {"seed": seed}})
        probe = (probe_report or {}).get("probe", {})
        tally.attempted += 1
        if not probe or probe["errors"]:
            tally.failed += 1
            tally.reasons.append(f"probe: {probe.get('errors') if probe else 'child failed'}")

    # each call's time in every untraced and every traced repetition
    times = {False: [[] for _ in ops], True: [[] for _ in ops]}
    rss, setups = [], []
    runs = dropped = 0
    deadline = time.monotonic() + seconds
    while runs < MIN_RUNS or time.monotonic() < deadline:
        runs += 1
        # with --trace 1, traced runs alternate with untraced ones, so a
        # drift in the machine's speed cancels out of trace.overhead_s
        for traced_run in (False, True) if trace else (False,):
            report, results = run_ops(ops, tally, trace=traced_run)
            # a run whose child died or whose calls raised has no timing
            # of the program's; its failures are counted by the tally
            if any(r is None or r["error"] for r in results):
                dropped += 1
                continue
            for samples, result in zip(times[traced_run], results):
                samples.append(result["seconds"])
            if not traced_run:
                rss.append(report["maxrss_kib"] / 1024)
                setups.append(report["setup_s"])
    repeats = len(times[False][0])
    if not repeats or (trace and not times[True][0]):
        return tally, None, {}

    # Each call's time is its fastest repetition: on a shared machine other
    # tenants only ever add time, and they slow whole stretches of a run,
    # which moves a median by far more than a minimum (see README.md).
    best_ms = [min(samples) * 1000 for samples in times[False]]
    wall_s = sum(best_ms) / 1000
    if trace:
        traced_wall_s = sum(min(samples) for samples in times[True])
        metrics = per_layer(ops_by_workload, traced, probe, traced_wall_s, wall_s)
        notes["trace.overhead_s"] = (f"{len(times[True][0])} traced runs, best sum "
                                     f"{traced_wall_s:.4f} s - untraced best sum")
        notes["oracle.perms_per_s"] = f"{ENUMERATED_PERMUTATIONS} permutations, computed"
        notes["oracle.partitions_per_s"] = f"{ENUMERATED_PARTITIONS} partitions, computed"
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mib": (statistics.median(rss), "MiB"),
            "query_ms.p50": (percentile(best_ms, 50), "ms"),
            "query_ms.p90": (percentile(best_ms, 90), "ms"),
        }
        median_run_s = statistics.median(sum(run) for run in zip(*times[False]))
        notes["setup_s"] = f"median of {len(setups)} children"
        notes["wall_s"] = (f"{len(ops)} calls, each its best of {repeats} runs; median run "
                           f"{median_run_s:.4f} s; {dropped} failed runs left out")
        notes["peak_rss_mib"] = f"median of {len(rss)} runs, each its own child"
        notes["query_ms.p50"] = f"over {len(ops)} calls, each its best of {repeats} runs"
        notes["query_ms.p90"] = f"over {len(ops)} calls, each its best of {repeats} runs"
    return tally, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stirling" / "cli.py").is_file():
        print(f"bench: no stirling sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tally, metrics, notes = measure(args.workload, args.seed, args.seconds, args.trace)
    if metrics is None:
        for reason in tally.reasons:
            print(f"bench: FAILED {reason}", file=sys.stderr)
        print("bench: every run failed, so there is no timing to report", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:28} {value:.6g} {unit}{note}")
    print(f"  {'fail_share':28} {tally.fail_share:.6g}  ({tally.failed} of {tally.attempted} calls)")
    for reason in tally.reasons:
        print(f"bench: FAILED {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
