"""The generic closure's checks after the walk, against their oracles.

The abelian certificate of a generic closure commutes the generator names
in its states pairwise; a sample of 48 states misses the one pair that
does not commute in a closure of 53.  A mark lets the system merge the words of every defined name, so no closure
of any subset of the generators may change a portrait.  The recurrence
witness runs the one candidate scan, `closure._witnessed`; its oracle is
the search it replaced, which collected up to 400 distinct first-letter
states and compared each with each generator by `equal_to_depth`.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from selfsim import closure
from selfsim.closure import SaturationOverflow, state_closure
from selfsim.tree import AutExpr, Context, Permutation, System

WITNESS_CAP = 400


def adding_machine_with_swaps():
    """a = (e, a)(1 2), x = (e, e)(1 2) and y = (x, e) over m = 2, L = 8."""
    system = System(Context(2, K=8, D=8, L=8))
    a, x, y = system.gen("a"), system.gen("x"), system.gen("y")
    system.define("a", "(1 2)", ["e", a])
    system.define("x", "(1 2)", ["e", "e"])
    system.define("y", "()", [x, "e"])
    return system, a, x, y


def test_certificate_sees_the_pair_a_sample_missed():
    # 53 states: the powers a^0..a^50, then x and y, which do not commute;
    # a sample of the first 48 states saw only powers of a
    system, a, x, y = adding_machine_with_swaps()
    assert not (x * y).equal_to_depth(y * x, 8)
    report = state_closure([a ** n for n in range(1, 51)] + [x, y])
    assert report.state_count() == 53
    assert report.abelian_to_depth == 1
    assert not system.abelian_certified()
    assert not (x * y).equal_to_depth(y * x, 8)


@st.composite
def generic_systems(draw):
    """A generic system over m = 2 or 3 with one to three generators.

    Each generator has a random root, and children drawn among e, the
    generators, their inverses and products of two of them.
    """
    m = draw(st.integers(2, 3))
    depth = draw(st.integers(1, 4))
    system = System(Context(m, K=depth, D=depth, L=depth))
    names = "abc"[:draw(st.integers(1, 3))]
    gens = [system.gen(name) for name in names]
    pool = ["e"] + gens + [g.inverse() for g in gens] + [
        g * h for g, h in itertools.product(gens, repeat=2)]
    for name in names:
        images = draw(st.permutations(range(1, m + 1)))
        system.define(name, Permutation(images),
                      [draw(st.sampled_from(pool)) for _ in range(m)])
    return system, gens


def product(system, atoms):
    acc = system.identity()
    for g, n in atoms:
        acc = acc * g ** n
    return acc


def words(gens):
    """Products of up to four powers of the generators."""
    atoms = st.tuples(st.sampled_from(gens), st.sampled_from([-1, 1, 2]))
    return st.lists(atoms, max_size=4).map(
        lambda pairs: product(gens[0].system, pairs))


@settings(max_examples=60, deadline=None)
@given(generic_systems(), st.data())
def test_closures_leave_word_portraits_alone(case, data):
    system, gens = case
    exprs = data.draw(st.lists(words(gens), min_size=1, max_size=4))
    subset = data.draw(st.lists(st.sampled_from(gens), min_size=1,
                                unique_by=repr))
    before = [e.portrait() for e in exprs]
    with pytest.MonkeyPatch.context() as patch:
        # random closures can be huge; an overflow marks nothing
        patch.setattr(closure, "ENUM_CAP", 30)
        try:
            state_closure(subset)
        except SaturationOverflow:
            pass
    assert [e.portrait() for e in exprs] == before


# ---------------------------------------------------- the witness scan

def capped_witness(generators, states, depth):
    """The generic search the one scan replaced: (answer, capped).

    It kept up to WITNESS_CAP distinct first-letter states at the probe
    depth, then compared each generator with each of them; capped says
    whether it stopped collecting on that cap.
    """
    generators = [g for g in generators if not g.is_identity(depth)]
    if not generators:
        return True, False
    candidates = []
    seen = set()
    probe = max(1, depth - 1)
    pool = list(states) + [s.inverse() for s in states]
    for scanned, expr in enumerate(itertools.chain(
            pool, (a * b for a, b in itertools.product(pool, repeat=2)))):
        if (len(candidates) >= WITNESS_CAP
                or scanned >= closure.WITNESS_SCAN_BUDGET):
            break
        if expr.root().apply(1) != 1:
            continue
        state = expr.state([1])
        key = state.portrait(probe)
        if key in seen:
            continue
        seen.add(key)
        candidates.append(state)
    answer = all(any(c.equal_to_depth(g, probe) for c in candidates)
                 for g in generators)
    return answer, len(candidates) >= WITNESS_CAP


@settings(max_examples=60, deadline=None)
@given(generic_systems(), st.data())
def test_witness_scan_matches_the_capped_search(case, data):
    system, gens = case
    subset = data.draw(st.lists(st.sampled_from(gens), min_size=1,
                                unique_by=repr))
    depth = data.draw(st.integers(1, system.ctx.L))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(closure, "ENUM_CAP", 30)
        try:
            report = state_closure(subset, depth=depth)
        except SaturationOverflow:
            report = None
        states = (list(report.states) if report else
                  [system.identity()] + subset)
        nontrivial = [g for g in subset if not g.is_identity(depth)]
        patch.setattr(closure, "WITNESS_SCAN_BUDGET",
                      data.draw(st.integers(0, 400)))
        got = closure._recurrence_witness(nontrivial, states, depth)
        want, capped = capped_witness(nontrivial, states, depth)
    if capped:
        # the old search could stop short of a witness the scan finds
        assert got or not want
    else:
        assert got == want
    if report is not None:
        want, capped = capped_witness(report.generators, report.states, depth)
        assert report.recurrent_witnessed == want or capped


def test_witness_scan_stops_once_every_generator_is_matched(monkeypatch):
    # g^2 fixes the first letter and its state there is g, so the scan
    # stops at the second of 199 singles; the capped search went on to
    # collect every distinct first-letter state before comparing
    system = System(Context(2, K=6, D=6, L=6))
    g = system.gen("g")
    system.define("g", "(1 2)", ["e", g])
    pool = [g ** n for n in range(1, 200)]
    calls = []
    state = AutExpr.state

    def counted(expr, u):
        calls.append(expr)
        return state(expr, u)

    monkeypatch.setattr(AutExpr, "state", counted)
    assert closure._recurrence_witness([g], pool, 6)
    assert [repr(e) for e in calls] == ["g^{2}"]
    calls.clear()
    assert capped_witness([g], pool, 6) == (True, False)
    assert len(calls) > 100
