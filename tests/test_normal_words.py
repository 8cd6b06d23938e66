"""The word path's contract: entry points normalize, recursions trust.

`_word_decompose`, `_is_identity` and `_portrait` normalize their word
once; `_decompose_normal`, `_identity_normal` and `_portrait_normal` then
take every word as given, because each child a decomposition returns is
already normal.  Here those three recursions are wrapped on one system,
and every public operation that expands words runs on raw, unnormalized
words; any word that reaches a recursion out of normal form fails the
test.  A mark of abelianness changes the normal form, so words built
before `mark_abelian` are used again after it.
"""

from hypothesis import given, settings, strategies as st

from selfsim.closure import state_closure
from selfsim.tree import AutExpr, Context, System

from test_fold_keys import exponents, fold_systems

NORMAL = ("_decompose_normal", "_identity_normal", "_portrait_normal")


def watch(system):
    """Wrap the *_normal recursions of system; returns (calls, stray),
    the number of calls per recursion and the words that were not in
    normal form."""
    calls, stray = dict.fromkeys(NORMAL, 0), []
    for name in NORMAL:
        inner = getattr(system, name)

        def checked(word, *rest, name=name, inner=inner):
            calls[name] += 1
            if system._normalize(word) != word:
                stray.append((name, word))
            return inner(word, *rest)

        setattr(system, name, checked)
    return calls, stray


def exercise(exprs, data):
    """Every expanding operation on each expression and on pairs."""
    system = exprs[0].system
    L = system.ctx.L
    for e in exprs:
        e.decompose()
        e.root()
        u = data.draw(st.lists(st.integers(1, system.ctx.m), max_size=L))
        e.act(u)
        e.state(u)
        d = data.draw(st.integers(1, L))
        e.is_identity(d)
        e.portrait(d)
        e.equal_to_depth(data.draw(st.sampled_from(exprs)), d)


@st.composite
def generic_systems(draw):
    """One or two generators over m = 2, each entry a short word of
    powers and diagonal shifts of the generators."""
    L = draw(st.integers(1, 3))
    system = System(Context(2, K=L, D=L, L=L))
    names = ["a", "b"][:draw(st.integers(1, 2))]
    factor = st.tuples(st.sampled_from(names), st.integers(-2, 2),
                       st.integers(0, L))
    for name in names:
        entries = []
        for _ in range(2):
            expr = system.identity()
            for other, power, shift in draw(st.lists(factor, max_size=3)):
                expr = expr * (system.gen(other) ** power).diagonal(shift)
            entries.append(expr)
        system.define(name, draw(st.sampled_from(["()", "(1 2)"])), entries)
    return system


def raw_words(system, names, coeffs):
    """Expressions on words as drawn: zero atoms, repeated names and
    unreduced coefficients are all left in."""
    atom = st.tuples(st.sampled_from(names), coeffs)
    return st.lists(atom, max_size=4).map(
        lambda word: AutExpr(system, tuple(word)))


@settings(max_examples=60, deadline=None)
@given(generic_systems(), st.data())
def test_generic_recursions_see_only_normal_words(system, data):
    calls, stray = watch(system)
    L = system.ctx.L
    coeffs = st.lists(st.integers(-2, 2), min_size=L + 1,
                      max_size=L + 1).map(tuple)
    names = system.names()
    exprs = data.draw(st.lists(raw_words(system, names, coeffs), min_size=1,
                               max_size=3))
    exercise(exprs, data)
    gens = [system.gen(name) for name in names]
    state_closure(gens, depth=data.draw(st.integers(1, L)))
    # a closure to full depth may mark the system, which changes the
    # normal form of the words drawn before it
    state_closure(gens)
    exercise(exprs + gens, data)
    assert stray == []
    assert calls["_decompose_normal"] > 0


@settings(max_examples=40, deadline=None)
@given(fold_systems(), st.data())
def test_fold_recursions_see_only_normal_words(system, data):
    calls, stray = watch(system)
    exprs = data.draw(st.lists(raw_words(system, ["g"], exponents(system)),
                               min_size=1, max_size=3))
    exercise(exprs, data)
    state_closure([system.generator()],
                  depth=data.draw(st.integers(1, system.ctx.L)))
    exercise(exprs + [system.generator()], data)
    assert stray == []
    assert calls["_decompose_normal"] > 0


def test_words_built_before_the_mark_are_normalized_after_it():
    # a = (e, a)(1 2) and b = (a, a) = a^2 commute, so the closure marks
    # the system; a*b*a was normal before the mark and is a^2 b after it
    system = System(Context(2, K=4, D=4, L=4))
    a = system.define("a", "(1 2)", ["e", system.gen("a")])
    b = system.define("b", "()", [a, a])
    w = a * b * a
    assert len(w.word) == 3
    calls, stray = watch(system)
    state_closure([a, b])
    assert system.abelian_certified()
    assert system._normalize(w.word) != w.word
    for d in range(1, 5):
        assert w.equal_to_depth(a ** 4, d)
        assert w.portrait(d) == (a ** 4).portrait(d)
    assert w.state([1, 2]).equal_to_depth(a, 2)
    assert w.decompose()[0].is_identity()
    assert stray == []
    assert min(calls.values()) > 0
