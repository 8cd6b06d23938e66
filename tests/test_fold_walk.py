"""Fold saturation on exponent tuples, against the word walk it replaced.

`state_closure` walks a fold system's closure on plain coefficient tuples:
children come from `FoldSystem._exponent_child` (prefix sums along the
root cycle) and states are keyed by `closure._fold_key`.  The oracles kept
here are the breadth-first walk over `AutExpr` words, the c-step walk along
the cycle for the child exponents, the generic `System` engine with states
told apart by their portraits, and the carry loop `reduce_digits` had
before it skipped zero relator terms.
"""

from hypothesis import assume, given, settings, strategies as st

from selfsim.adic import reduce_digits
from selfsim.closure import ENUM_CAP, as_machine, state_closure
from selfsim.tree import (
    AutExpr, Context, FoldSystem, Permutation, ShapeMismatch, System,
)

from test_fold_keys import exponent_digits, exponents, fold_systems


def word_walk(generators, depth):
    """The closure states as the word walk found them, in its order."""
    system = generators[0].system
    states = []
    seen = set()

    def visit(expr):
        word = system._normalize(expr.word)
        coeffs = word[0][1] if word else (0,) * (system.ctx.D + 1)
        key = exponent_digits(system, coeffs, depth)
        if key in seen:
            return None
        if len(seen) >= ENUM_CAP:
            raise AssertionError("oracle walk overflowed")
        seen.add(key)
        states.append(expr)
        return expr

    visit(system.identity())
    frontier = [g for g in generators if visit(g) is not None]
    while frontier:
        nxt = []
        for expr in frontier:
            for child in expr.decompose()[1]:
                if visit(child) is not None:
                    nxt.append(child)
        frontier = nxt
    return states


def cycle_walk_children(system, coeffs):
    """The child exponents by summing p along c steps of the root cycle."""
    m = system.ctx.m
    mK = system.ctx.mod.mK
    v = coeffs[0]
    c = v % m
    xi = (v - c) // m
    tail = coeffs[1:] + (0,)
    children = []
    for y in range(1, m + 1):
        acc = [0] * len(coeffs)
        z = y
        for _ in range(c):
            for d, p in enumerate(system._plifts[z - 1]):
                acc[d] += p
            z = system.sigma.apply(z)
        for d in range(len(coeffs)):
            acc[d] = (acc[d] + system._qsum[d] * xi + tail[d]) % mK
        children.append(tuple(acc))
    return c, tuple(children)


def carry_loop(coeffs, m, qlifts, j, D):
    """reduce_digits as it was: every q term, zero or not, at every carry."""
    c = list(coeffs[:D + 1]) + [0] * (D + 1 - len(coeffs))
    for t in range(D + 1):
        a = c[t] % m
        b = (c[t] - a) // m
        c[t] = a
        if b:
            for s, qs in enumerate(qlifts):
                idx = t + j + s
                if idx > D:
                    break
                c[idx] += b * qs
    return c


def machine_walk(expr, depth):
    """as_machine's definitions as the old walk named them: (name, repr)."""
    system = expr.system
    names = {}
    order = []

    def visit(e):
        word = system._normalize(e.word)
        coeffs = word[0][1] if word else (0,) * (system.ctx.D + 1)
        key = exponent_digits(system, coeffs, depth)
        if key not in names:
            names[key] = "q%d" % len(names)
            order.append((names[key], e))
        return names[key]

    visit(expr)
    rows = []
    i = 0
    while i < len(order):
        name, e = order[i]
        i += 1
        root, kids = e.decompose()
        entries = ["e" if k.is_identity(depth) else visit(k) for k in kids]
        rows.append("%s = (%s) %r" % (name, ", ".join(entries), root))
    return rows


@st.composite
def closures(draw):
    """A fold system, one or two generators and a closure depth.

    A generator is g itself or a one-atom word with signed, unreduced
    coefficients, which the closure must keep as it was passed.
    """
    system = draw(fold_systems())
    gens = [system.generator() if draw(st.booleans()) else
            AutExpr(system, (("g", draw(exponents(system))),))
            for _ in range(draw(st.integers(1, 2)))]
    return gens, draw(st.integers(1, system.ctx.L))


def given_positions(states, gens):
    return [i for i, s in enumerate(states) if any(s is g for g in gens)]


@settings(max_examples=60, deadline=None)
@given(closures())
def test_states_match_the_word_walk(case):
    gens, depth = case
    states = state_closure(gens, depth=depth).states
    oracle = word_walk(gens, depth)
    assert [repr(s) for s in states] == [repr(s) for s in oracle]
    assert given_positions(states, gens) == given_positions(oracle, gens)


@settings(max_examples=80, deadline=None)
@given(fold_systems(), st.data())
def test_exponent_children_match_the_cycle_walk(system, data):
    coeffs = data.draw(exponents(system))
    assert system._exponent_children(coeffs) == cycle_walk_children(
        system, coeffs)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3), st.data())
def test_state_count_matches_portrait_dedupe(m, data):
    # depth <= 4 for m = 2 and <= 3 for m = 3 keeps the generic walk quick
    depth = data.draw(st.integers(1, 6 - m))
    cycle = [1] + data.draw(st.permutations(range(2, m + 1)))
    sigma = Permutation.from_cycles([cycle], m)
    ps = data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    generic = System(Context(m, K=depth, D=depth, L=depth))
    g = generic.gen("g")
    generic.define("g", sigma, [g ** p if p else "e" for p in ps])
    try:
        count = state_closure([g]).state_count()
    except ShapeMismatch:
        # the generic engine expands g^n letter by letter and refuses
        # n past EXPANSION_CAP; there is no oracle count for this draw
        assume(False)
    # each level of the walk costs the mod-m^K exponents one digit, and a
    # walk over `count` states has at most `count` levels
    ctx = Context(m, K=depth + count, D=depth, L=depth)
    fold = FoldSystem(ctx, "g", ps, sigma)
    assert state_closure([fold.generator()]).state_count() == count


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.integers(0, 9), st.integers(0, 3),
       st.data())
def test_reduce_digits_matches_the_carry_loop(m, D, j, data):
    big = 3 * m ** 9
    qlifts = data.draw(st.lists(
        st.one_of(st.just(0), st.integers(-big, big)), max_size=D + 2))
    coeffs = data.draw(st.lists(st.integers(-big, big), max_size=D + 3))
    assert reduce_digits(coeffs, m, qlifts, j, D) == carry_loop(
        coeffs, m, qlifts, j, D)


@settings(max_examples=40, deadline=None)
@given(closures())
def test_machine_names_match_the_old_walk(case):
    (expr, *_), depth = case
    machine = as_machine(expr, depth).system
    rows = [repr(machine.definition(name)) for name in
            sorted(machine.names(), key=lambda n: int(n[1:]))]
    assert rows == machine_walk(expr, depth)
