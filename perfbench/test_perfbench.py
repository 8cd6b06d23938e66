"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import rep  # noqa: E402

rep.import_selfsim()

import sessions  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402

RUN = os.path.join(HERE, "run.py")
SIX = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
       ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"), ("fail_ratio", "1"))


def spec():
    with open(os.path.join(rep.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def bench(*args, cwd=rep.ROOT, script=RUN):
    return subprocess.run([sys.executable, script, "--seed", "3",
                           "--seconds", "0", "--size", "tiny"] + list(args),
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.fixture(autouse=True)
def _clean_workdir():
    yield
    shutil.rmtree(os.path.join(HERE, "_work"), ignore_errors=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_all_six_metrics(workload):
    proc = bench("--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if len(line.split()) >= 3}
    for name, unit in SIX:
        assert printed.get(name) == unit
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec()["end_to_end"]}


def test_traced_run_reports_every_layer_metric():
    proc = bench("--workload", "cli-sessions", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert result["metrics"]["cli.main.calls"]["value"] == 8


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_planted_wrong_answer_is_a_failure(workload):
    ops = workloads.build(workload, 3, "tiny", rep.ROOT)
    _, _, answers = rep.run_ops(ops)
    assert all(rep.grade(ops, answers))
    planted = [ops[0]._replace(want=("planted",))] + ops[1:]
    assert rep.grade(planted, answers).count(False) == 1


def test_planted_reference_row_is_a_failure():
    ops = workloads.build("cli-sessions", 3, "tiny", rep.ROOT)
    code, rows = ops[0].want
    wrong = [dict(rows[0], command="planted")] + rows[1:]
    planted = [ops[0]._replace(want=(code, wrong))] + ops[1:]
    _, _, answers = rep.run_ops(planted)
    assert rep.grade(planted, answers) == [False] + [True] * (len(ops) - 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_answers_match(workload):
    plain = rep.run_ops(workloads.build(workload, 3, "tiny", rep.ROOT))[2]
    original = workloads.closure.state_closure
    ops = workloads.build(workload, 3, "tiny", rep.ROOT)
    tracer = Tracer()
    tracer.install(extra_namespaces=(workloads, sessions))
    try:
        traced = rep.run_ops(ops, tracer)[2]
    finally:
        tracer.uninstall()
    assert workloads.closure.state_closure is original
    assert [rep.digest(a) for a in traced] == [rep.digest(a) for a in plain]
    assert sum(calls for calls, _ in tracer.stats.values()) > 0
    assert tracer.spans and all(span[5] is not None for span in tracer.spans)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_change_inputs_not_shape(workload):
    one = workloads.build(workload, 1, "full", rep.ROOT)
    two = workloads.build(workload, 2, "full", rep.ROOT)
    again = workloads.build(workload, 1, "full", rep.ROOT)
    assert len(one) >= 100
    assert [op.kind for op in one] == [op.kind for op in two]
    assert [op.inputs for op in one] != [op.inputs for op in two]
    assert [op.inputs for op in one] == [op.inputs for op in again]


def test_fails_without_library_sources(tmp_path):
    shutil.copy(os.path.join(rep.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out",
                                                  "__pycache__"))
    proc = bench("--workload", "levels", "--trace", "0", cwd=tmp_path,
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
