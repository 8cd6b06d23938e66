"""Fold-shape recognition, against the generic engine.

`FoldSystem.from_definition` turns a generator defined on a generic
`System` into its fold system: the root must be a full m-cycle and every
entry a product of powers and diagonal shifts of the generator itself.
The oracle is the generic engine's own portrait of that generator, which
multiplies the entry words out in the order they were written.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from selfsim.tree import Context, FoldSystem, Permutation, ShapeMismatch, System

DEPTH = 4
# (power, shift) factors of the generator: |power| <= 2, shift <= 2
FACTORS = st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 2)),
                   max_size=3)


@st.composite
def fold_definitions(draw):
    """(m, cycle, entries): entries are lists of (power, shift) factors."""
    m = draw(st.sampled_from((2, 3)))
    cycle = [1] + draw(st.permutations(range(2, m + 1)))
    entries = draw(st.lists(FACTORS, min_size=m, max_size=m))
    return m, cycle, entries


def define(m, root, entries, extra=None):
    """Define g on a generic system; extra = (letter, k) puts h^k there."""
    system = System(Context(m, K=DEPTH, D=DEPTH, L=DEPTH))
    g = system.gen("g")
    words = []
    for y, factors in enumerate(entries):
        word = system.identity()
        for power, shift in factors:
            word = word * (g ** power).diagonal(shift)
        if extra is not None and extra[0] == y:
            system.define("h", "(1 2)", ["e"] * m)
            word = word * system.gen("h") ** extra[1]
        words.append(word if word.word else "e")
    system.define("g", root, words)
    return system


@settings(max_examples=80, deadline=None)
@given(fold_definitions(), st.integers(1, DEPTH))
def test_from_definition_matches_the_generic_engine(case, depth):
    m, cycle, entries = case
    system = define(m, Permutation.from_cycles([cycle], m), entries)
    fold = FoldSystem.from_definition(system, "g")
    assert fold.generator().portrait(depth) == system.gen("g").portrait(depth)


@settings(max_examples=40, deadline=None)
@given(fold_definitions(), st.data())
def test_from_definition_rejects_other_shapes(case, data):
    m, cycle, entries = case
    sigma = Permutation.from_cycles([cycle], m)
    letter = data.draw(st.integers(0, m - 1))
    power = data.draw(st.sampled_from((-2, -1, 1, 2)))
    with pytest.raises(ShapeMismatch):
        FoldSystem.from_definition(
            define(m, sigma, entries, extra=(letter, power)), "g")
    root = data.draw(st.sampled_from([
        p for p in map(Permutation, itertools.permutations(range(1, m + 1)))
        if not p.is_full_cycle()]))
    with pytest.raises(ShapeMismatch):
        FoldSystem.from_definition(define(m, root, entries), "g")
