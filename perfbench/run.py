"""The selfsim benchmark: one command, stdlib only.

    python3 perfbench/run.py --workload levels --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py and sessions.py for the exact operations):
  levels        operations whose cost today grows with m^L: level
                permutations, adding-machine conjugators, depth-12 closures
                of adding machines, orders on 5^8 and 6^8 vertices
  fold-algebra  fold-family recursions: closure, annihilator kill, peel
  cli-sessions  104 short generated scripts run in-process by cli.main

Each repetition runs every operation of the workload once, in order, in a
fresh interpreter (rep.py), so caches start cold as in a user's run.
Repetitions are started while the next one is expected to end within
--seconds (at least three); set-up alone is also timed SETUP_PROBES times.
Every answer is checked.  With --trace 0 the end-to-end metrics are
reported: medians over repetitions of set-up time, timed wall time and
peak memory, and the median and 90th percentile of all operation
latencies.  With --trace 1, untraced and traced repetitions alternate; the
per-layer metrics (medians over traced repetitions) and the tracing
overhead are reported instead.  The last line of standard output is one
JSON object with keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from layertrace import metric_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REP = os.path.join(HERE, "rep.py")
WORKLOADS = ("levels", "fold-algebra", "cli-sessions")
MIN_REPS = 3
SETUP_PROBES = 8   # extra set-ups per run, so setup_s is a median of many
REP_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))


class RepFailed(RuntimeError):
    pass


def run_rep(workload, seed, size, trace, setup_only=False):
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, REP, "--workload", workload, "--seed", str(seed),
           "--size", size, "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RepFailed(proc.stderr.strip()[-2000:] or
                        "repetition exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(reps, setups):
    latencies = [t for r in reps for t in r["latencies_s"]]
    return {
        "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_p90_ms": 1000.0 * p90(latencies),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(traced):
    names = list(traced[0]["layers"])
    return {name: statistics.median(r["layers"][name] for r in traced)
            for name in names}


def _git(*args):
    # never look above the checkout: it need not be a git work tree itself
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(("git",) + args, cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance():
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit,
            "dirty": None if status is None else bool(status)}


def op_mix(rep):
    mix = {}
    for kind in rep["kinds"]:
        mix[kind] = mix.get(kind, 0) + 1
    return mix


def print_layer_table(layers, top=12):
    entries = sorted(((v, k[:-len(".self_s")]) for k, v in layers.items()
                      if k.endswith(".self_s") and k.count(".") > 1),
                     reverse=True)
    print("  largest self times (traced):")
    for value, name in entries[:top]:
        print("    %-40s %9.4f s  %9d calls"
              % (name, value, layers.get(name + ".calls", 0)))
    print("  layer self times: " + ", ".join(
        "%s %.4f s" % (k[:-len(".self_s")], v) for k, v in layers.items()
        if k.endswith(".self_s") and k.count(".") == 1))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a few small operations (for tests)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "selfsim",
                                       "__init__.py")):
        print("perfbench: no selfsim sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    # Repetitions (untraced and traced in turn with --trace 1) are started
    # while the next one is expected to end within --seconds.
    reps, traced, rounds = [], [], []
    plan = [0, 1] if args.trace else [0]
    start = time.monotonic()
    try:
        setups = [run_rep(args.workload, args.seed, args.size, 0,
                          setup_only=True)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        while True:
            begun = time.monotonic()
            for trace in plan:
                result = run_rep(args.workload, args.seed, args.size, trace)
                (traced if trace else reps).append(result)
            rounds.append(time.monotonic() - begun)
            elapsed = time.monotonic() - start
            if (len(reps) >= (1 if args.trace else MIN_REPS)
                    and elapsed + statistics.median(rounds) > args.seconds):
                break
    except (RepFailed, subprocess.TimeoutExpired) as exc:
        print("perfbench: repetition failed: %s" % exc, file=sys.stderr)
        return 1

    every = reps + traced
    attempted = sum(len(r["ok"]) for r in every)
    failed = sum(1 for r in every for good in r["ok"] if not good)
    same_answers = all(r["digests"] == reps[0]["digests"] for r in every)
    info = dict(provenance(), workload=args.workload, seed=args.seed,
                size=args.size, run_seconds=args.seconds,
                repetitions=len(reps), traced_repetitions=len(traced),
                ops_per_repetition=len(reps[0]["ok"]),
                op_mix=op_mix(reps[0]), same_answers=same_answers,
                fail_ratio=failed / attempted,
                errors=[e for r in every for e in r["errors"]][:20])

    e2e = end_to_end(reps, setups)
    samples = sum(len(r["latencies_s"]) for r in reps)
    print("workload %s, seed %d: %d repetitions x %d ops"
          % (args.workload, args.seed, len(reps), info["ops_per_repetition"]))
    for name, unit in END_TO_END:
        print("  %-12s %12.4f %s" % (name, e2e[name], unit))
    print("  op latency samples: %d, beyond p90: %d"
          % (samples, sum(1 for r in reps for t in r["latencies_s"]
                          if 1000.0 * t > e2e["op_p90_ms"])))
    print("  %-12s %12.4f 1  (%d of %d ops failed)"
          % ("fail_ratio", failed / attempted, failed, attempted))
    if args.trace:
        layers = per_layer(traced)
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - e2e["wall_s"])
        info["tracing_overhead_s"] = overhead
        info["spans_file"] = traced[-1]["spans_file"]
        info["spans_dropped"] = traced[-1]["spans_dropped"]
        print_layer_table(layers)
        print("  tracing overhead: %.4f s (traced minus untraced wall_s)"
              % overhead)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in metric_units().items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    print("record " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and same_answers,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
