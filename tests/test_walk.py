"""The one breadth-first walk, against the loops it replaced.

`closure._walk` saturates the closure states, the root span that `peel`
solves in, the letter orbits of every closure, and the machine states that
`represent` lists.  The frontier and queue loops those sites kept before
are the oracles here, together with the `is_identity` count that
`ClosureReport.nontrivial_count` ran on every state.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import selfsim
from selfsim import cli, closure
from selfsim.closure import SaturationOverflow, state_closure
from selfsim.endo import phi_rep, triple_from_json
from selfsim.tree import AutExpr, Context, Permutation, System

from test_fold_walk import closures

# G = Z, H = 2Z, f(2n) = 3n: every state has children, and their names
# grow, so the machine has more states than `represent` lists
EXPANDING = {"free_rank": 1, "torsion": [], "H_gens": [[2]],
             "f_images": [[3]], "transversal": [[0], [1]]}


def frontier_span(roots, m, cap):
    """_perm_span as a layer-by-layer frontier loop."""
    table = {Permutation.identity(m): (0,) * len(roots)}
    frontier = list(table)
    while frontier:
        nxt = []
        for p in frontier:
            base = table[p]
            for i, s in enumerate(roots):
                q = p * s
                if q not in table:
                    if len(table) >= cap:
                        raise SaturationOverflow(
                            "root span larger than %d" % cap)
                    t = list(base)
                    t[i] += 1
                    table[q] = tuple(t)
                    nxt.append(q)
        frontier = nxt
    return table


def two_way_orbits(roots, m):
    """_root_orbits by images and inverse images, layer by layer."""
    seen = [False] * (m + 1)
    orbits = []
    for start in range(1, m + 1):
        if seen[start]:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for y in frontier:
                for p in roots:
                    for z in (p.apply(y), p.inverse().apply(y)):
                        if z not in orbit:
                            orbit.add(z)
                            nxt.append(z)
            frontier = nxt
        for y in orbit:
            seen[y] = True
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def queue_machine_states(machine, cap):
    """Session._machine_states as a queue that skips names seen before."""
    queue = []
    for vec in machine.endo.group.basis():
        expr = machine.of(vec)
        if expr.word:
            queue.append(expr.word[0][0])
    seen = set()
    rows = []
    truncated = False
    while queue:
        name = queue.pop(0)
        if name in seen:
            continue
        if len(seen) >= cap:
            truncated = True
            break
        seen.add(name)
        definition = machine.system.definition(name)
        children = []
        for entry in definition.entries:
            if entry.word:
                child = entry.word[0][0]
                children.append(child)
                queue.append(child)
            else:
                children.append("e")
        rows.append({"name": name, "root": repr(definition.root),
                     "children": children})
    return rows, truncated


@st.composite
def root_lists(draw):
    m = draw(st.integers(1, 6))
    perm = st.permutations(range(1, m + 1)).map(Permutation)
    return draw(st.lists(perm, max_size=3)), m


def outcome(fn, *args):
    try:
        return list(fn(*args).items())
    except SaturationOverflow as exc:
        return str(exc)


# ---------------------------------------------------------- the root span

@settings(max_examples=150, deadline=None)
@given(root_lists())
def test_perm_span_matches_the_frontier_loop(case):
    roots, m = case
    span = closure._perm_span(roots, m)
    assert list(span.items()) == list(
        frontier_span(roots, m, closure.ENUM_CAP).items())


@settings(max_examples=150, deadline=None)
@given(root_lists(), st.integers(1, 30))
def test_perm_span_overflows_where_the_frontier_loop_did(case, cap):
    roots, m = case
    with mock.patch.object(closure, "ENUM_CAP", cap):
        got = outcome(closure._perm_span, roots, m)
    assert got == outcome(frontier_span, roots, m, cap)


def test_perm_span_overflow_message():
    roots = [Permutation.from_cycles([[1, 2, 3, 4, 5]], 5)]
    with mock.patch.object(closure, "ENUM_CAP", 4):
        with pytest.raises(SaturationOverflow,
                           match="^root span larger than 4$"):
            closure._perm_span(roots, 5)


# ------------------------------------------------------------- the orbits

@settings(max_examples=150, deadline=None)
@given(root_lists())
def test_root_orbits_match_the_two_way_walk(case):
    roots, m = case
    assert closure._root_orbits(roots, m) == two_way_orbits(roots, m)


# ------------------------------------------------------ the machine states

def expanding_rows(argv, tmp_path):
    triple = tmp_path / "expanding.json"
    triple.write_text(json.dumps(EXPANDING))
    script = tmp_path / "represent.sel"
    script.write_text("represent %s\n" % triple)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", str(script)] + argv)
    assert code == 0 and err.getvalue() == ""
    return out.getvalue()


def test_represent_truncates_an_expanding_machine(tmp_path):
    (row,) = [json.loads(line)
              for line in expanding_rows([], tmp_path).splitlines()]
    assert row["truncated"] is True
    assert len(row["states"]) == cli._STATE_CAP == 200
    assert row["states"][:4] == [
        {"name": "g[1]", "root": "(1 2)", "children": ["e", "g[3]"]},
        {"name": "g[3]", "root": "(1 2)", "children": ["g[3]", "g[6]"]},
        {"name": "g[6]", "root": "()", "children": ["g[9]", "g[9]"]},
        {"name": "g[9]", "root": "(1 2)", "children": ["g[12]", "g[15]"]}]
    assert row["states"][-1] == {
        "name": "g[597]", "root": "(1 2)", "children": ["g[894]", "g[897]"]}


def test_represent_pretty_truncates_an_expanding_machine(tmp_path):
    lines = expanding_rows(["--pretty"], tmp_path).splitlines()
    assert len(lines) == 201
    assert lines[:4] == [
        "representation of Z on 2 letters (truncated)",
        "  g[1] = (e, g[3]) (1 2)",
        "  g[3] = (g[3], g[6]) (1 2)",
        "  g[6] = (g[9], g[9]) ()"]
    assert lines[-1] == "  g[597] = (g[894], g[897]) (1 2)"


@pytest.mark.parametrize("triple", [
    EXPANDING,
    {"free_rank": 1, "H_gens": [[2]], "f_images": [[1]],
     "transversal": [[2], [-1]]},
    {"free_rank": 2, "H_gens": [[3, 0], [0, 1]],
     "f_images": [[0, 1], [1, 0]], "transversal": [[0, 0], [1, 0], [2, 0]]},
])
@pytest.mark.parametrize("cap", [1, 3, 200])
def test_machine_states_match_the_queue(triple, cap, monkeypatch):
    def machine():
        endo, transversal = triple_from_json(triple)
        return phi_rep(endo, transversal, ctx=Context(endo.index))

    monkeypatch.setattr(cli, "_STATE_CAP", cap)
    assert cli.Session._machine_states(machine()) == queue_machine_states(
        machine(), cap)


# --------------------------------------------------- the nontrivial count

def word_path_count(report):
    return sum(1 for s in report.states if not s.is_identity(report.depth))


def assert_counts_without_is_identity(report):
    want = word_path_count(report)
    with mock.patch.object(AutExpr, "is_identity",
                           side_effect=AssertionError("is_identity called")):
        assert report.nontrivial_count() == want
        assert report.to_json()["nontrivial_states"] == want


@settings(max_examples=40, deadline=None)
@given(closures())
def test_nontrivial_count_on_fold_closures(case):
    gens, depth = case
    assert_counts_without_is_identity(state_closure(gens, depth=depth))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_nontrivial_count_on_generic_closures(data):
    # two generators over m = 2 or 3, each a letter permutation with
    # children drawn among e, a, b and their inverses
    m = data.draw(st.integers(2, 3))
    depth = data.draw(st.integers(1, 4))
    system = System(Context(m, K=depth, D=depth, L=depth))
    a, b = system.gen("a"), system.gen("b")
    pool = ["e", a, b, a ** -1, b ** -1]
    for name in ("a", "b"):
        images = data.draw(st.permutations(range(1, m + 1)))
        system.define(name, Permutation(images), [
            data.draw(st.sampled_from(pool)) for _ in range(m)])
    gens = [a, b][:data.draw(st.integers(1, 2))]
    assert_counts_without_is_identity(state_closure(gens))


def test_nontrivial_count_on_grigorchuk():
    system = System(Context(2, K=5, D=5, L=5))
    a, b, c, d = (system.gen(n) for n in "abcd")
    system.define("a", "(1 2)", ["e", "e"])
    system.define("b", "()", [a, c])
    system.define("c", "()", [a, d])
    system.define("d", "()", ["e", b])
    report = state_closure([b])
    assert report.state_count() == 5
    assert_counts_without_is_identity(report)


# ------------------------------------------------ the installed entry point

def test_optimized_entry_point_verifies_like_main():
    # `python -O` strips assert statements; the guards must not rely on them
    src = os.path.dirname(os.path.dirname(os.path.abspath(selfsim.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "selfsim", "verify", "quaternary"],
        capture_output=True, env=env, timeout=120)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "quaternary"]) == 0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == out.getvalue()
