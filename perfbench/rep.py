"""One repetition of a workload, in a fresh interpreter.

run.py starts this script once per repetition, so the process-wide
portrait intern table and every per-system memo start cold, as they do
for each user run.  It prints one JSON object: set-up time, per-operation
latencies, answer digests, failures, peak memory and, with --trace 1, the
per-layer metrics of tracing.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "_out")


def import_selfsim():
    """Import the library from this checkout's src/, never from elsewhere."""
    package_dir = os.path.join(SRC, "selfsim")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        raise SystemExit("perfbench: no selfsim sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import selfsim
    found = os.path.dirname(os.path.abspath(selfsim.__file__))
    if found != package_dir:
        raise SystemExit("perfbench: imported selfsim from %s" % found)
    return selfsim


def digest(answer):
    return hashlib.sha256(repr(answer).encode()).hexdigest()[:16]


def run_ops(ops, tracer=None):
    """Run ops in a closed loop; returns (wall seconds, latencies, answers).

    An answer is ("error", text) when the operation raised.
    """
    clock = time.perf_counter
    latencies = []
    answers = []
    begin = clock()
    for index, op in enumerate(ops):
        start = clock()
        try:
            if tracer is None:
                answer = op.run()
            else:
                answer = tracer.op(index, op.kind, op.run)
        except Exception as exc:  # a failed operation is counted, not fatal
            answer = ("error", "%s: %s" % (type(exc).__name__, exc))
        latencies.append(clock() - start)
        answers.append(answer)
    return clock() - begin, latencies, answers


def grade(ops, answers):
    """One flag per operation: it returned the expected answer."""
    from workloads import check
    return [not (isinstance(a, tuple) and a[:1] == ("error",)) and check(op, a)
            for op, a in zip(ops, answers)]


def repetition(workload, seed, size, trace, spawned_at, setup_only=False):
    import_selfsim()
    import workloads
    os.chdir(ROOT)
    ops = workloads.build(workload, seed, size, ROOT)
    setup_s = time.monotonic() - spawned_at
    if setup_only:
        return {"setup_s": setup_s}
    tracer = None
    if trace:
        import sessions
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install(extra_namespaces=(workloads, sessions))
    try:
        wall_s, latencies, answers = run_ops(ops, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    ok = grade(ops, answers)
    errors = [("%d %s %r: %r" % (i, op.kind, op.inputs, a))[:300]
              for i, (op, a, good) in enumerate(zip(ops, answers, ok))
              if not good]
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kinds": [op.kind for op in ops],
        "latencies_s": latencies,
        "ok": ok,
        "errors": errors[:20],
        "digests": [digest(a) for a in answers],
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, "spans-%s-%d.json" % (workload, seed))
        tracer.write_spans(spans)
        result["spans_file"] = os.path.relpath(spans, ROOT)
        result["spans_dropped"] = tracer.dropped
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its time only")
    args = parser.parse_args(argv)
    try:
        result = repetition(args.workload, args.seed, args.size,
                            args.trace, args.spawned_at, args.setup_only)
    finally:
        shutil.rmtree(os.path.join(HERE, "_work"), ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
