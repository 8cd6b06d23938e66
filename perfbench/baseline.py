"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/baseline.py --out perfbench/baseline_seed.json

For each workload, runs `run.py` once per seed (--seeds, default 1-10),
untraced and with the run_seconds of BENCHMARK.json, then once traced, and
writes one JSON file: every run's metrics, and per end-to-end metric the
median, the quartiles (statistics.quantiles, n=4) and the spread, the
distance between the quartiles as a share of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d failed:\n%s"
                         % (workload, seed, proc.stderr[-2000:]))
    lines = proc.stdout.splitlines()
    record = json.loads(next(line for line in lines
                             if line.startswith("record "))[len("record "):])
    return json.loads(lines[-1]), record


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=seed_range, default="1-10")
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    report = {"seeds": args.seeds, "run_seconds": spec["run_seconds"],
              "workloads": {}}
    for workload in names:
        runs = []
        for seed in args.seeds:
            result, record = bench(workload, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         "repetitions": record["repetitions"],
                         "metrics": {k: v["value"] for k, v
                                     in result["metrics"].items()}})
            print(workload, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        summaries = {m["name"]: summary([r["metrics"][m["name"]]
                                         for r in runs])
                     for m in spec["end_to_end"]}
        traced, record = bench(workload, args.seeds[0], spec["run_seconds"],
                               1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = {
            "op_mix": record["op_mix"],
            "provenance": {k: record[k] for k in
                           ("python", "nproc", "commit", "dirty")},
            "runs": runs, "summary": summaries,
            "traced": {"seed": args.seeds[0], "layers": layers,
                       "tracing_overhead_s": record["tracing_overhead_s"]}}
        for name, s in summaries.items():
            print("%s %-12s median %.4g spread %.4f"
                  % (workload, name, s["median"], s["spread"]), flush=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
