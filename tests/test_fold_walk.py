"""Fold saturation on exponent tuples, against the walks it replaced.

`state_closure` walks a fold system's closure on plain coefficient tuples
in one loop, `closure._fold_walk`: children follow the child formula of
`FoldSystem._exponent_child` (prefix sums along the root cycle), states are
keyed by `closure._fold_key`, and exponents are carried without the
trailing zeros the recursion never fills.  The oracles kept here are the
lazy `closure._walk` over full-width tuples with tuple keys and children
from `FoldSystem._exponent_child` (`oracle_walk`, the fold walk before the
loop), the breadth-first walk over `AutExpr` words, the c-step walk along
the cycle for the child exponents, the generic `System` engine with states
told apart by their portraits, and the carry loop `reduce_digits` had
before it skipped zero relator terms.
"""

from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from selfsim import closure
from selfsim.adic import reduce_digits
from selfsim.closure import (
    ENUM_CAP, SaturationOverflow, as_machine, state_closure,
)
from selfsim.tree import (
    AutExpr, Context, FoldSystem, Permutation, ShapeMismatch, System,
)

from test_fold_keys import (
    exponent_digits, exponents, fold_systems, keyed_systems,
)


def tuple_key(system, coeffs, depth):
    """The linear key as a tuple of form values, one form or many."""
    forms, M = system.key_table(depth)
    return tuple([sum(map(mul, coeffs, f)) % M for f in forms])


def oracle_children(system, depth):
    """children(Q) for closure._walk on full-width exponent tuples.

    The child of g^Q at source y has exponent P[c][y] + qsum*xi + Q', with
    c and xi from Q(0) = c + m*xi and Q' the higher coefficients shifted
    down one degree (FoldSystem._exponent_child).  The key is linear, so
    that child's key is phi(P[c][y]) + xi*phi(qsum) + phi(Q'): the first
    term is tabled once per walk as table[c][f][y] for form f, and phi(Q')
    is one dot product per form with that form raised one degree.  Keys
    are tuples, as tuple_key makes them; build(y) makes child y.
    """
    forms, M = system.key_table(depth)
    table = [list(zip(*[[sum(map(mul, p, f)) for f in forms] for p in row]))
             for row in system._prefix]
    qvals = [sum(map(mul, system._qsum, f)) for f in forms]
    raised = [(0,) + f for f in forms]

    def children(q):
        c, xi, child = system._exponent_child(q)
        keys = zip(*[[(v + b) % M for v in col] for col, b in zip(
            table[c], [xi * a + sum(map(mul, q, f))
                       for a, f in zip(qvals, raised)])])
        return keys, child
    return children


def oracle_walk(system, seeds, depth, overflow):
    """The kept exponents of the fold walk on closure._walk, at full width.

    Seeds are canonical exponents; ENUM_CAP is read when called.
    """
    return closure._capped(closure._walk(
        seeds, oracle_children(system, depth),
        lambda q: tuple_key(system, q, depth)), closure.ENUM_CAP, overflow)


def oracle_states(gens, depth):
    """state_closure's states, from the oracle walk."""
    system = gens[0].system
    seeds = [system.identity()] + list(gens)
    exps = [system._exponent(g.word) for g in seeds]
    kept = oracle_walk(system, exps, depth, "overflow")
    given = {}
    for g, q in zip(seeds, exps):
        given.setdefault(tuple_key(system, q, depth), g)
    return list(given.values()) + [
        AutExpr(system, (("g", q),)) for q in kept[len(given):]]


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
    c, _, child = system._exponent_child(coeffs)
    assert (c, tuple(map(child, range(system.ctx.m)))) == cycle_walk_children(
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


# ------------------------------------------------ the one-loop fold walk

@st.composite
def walk_cases(draw):
    """A fold system, m 2..4, with one key form or several, a depth 1..L,
    and canonical seed exponents: e, and one to three drawn exponents."""
    if draw(st.booleans()):
        system = draw(fold_systems())
    else:
        system, _ = draw(keyed_systems())
    depth = draw(st.integers(1, system.ctx.L))
    seeds = [system._zero_coeffs()] + [
        system._exponent((("g", q),))
        for q in draw(st.lists(exponents(system), min_size=1, max_size=3))]
    return system, depth, seeds


def padded(system, kept):
    return [q + (0,) * (system.ctx.D + 1 - len(q)) for q in kept]


def fold_walk(system, seeds, depth, overflow):
    """The exponents closure._fold_walk keeps, once the seed indices it
    reports are checked to name the seeds it keeps first, in order."""
    kept, firsts = closure._fold_walk(system, seeds, depth, overflow)
    assert firsts == sorted(set(firsts))
    assert [seeds[i][:len(kept[0])] for i in firsts] == kept[:len(firsts)]
    return kept


def walk_both(system, seeds, depth):
    """(outcome of _fold_walk, outcome of oracle_walk): each the kept
    exponents, or the SaturationOverflow message."""
    out = []
    for walk in (fold_walk, oracle_walk):
        try:
            out.append(walk(system, seeds, depth, "over %d" % depth))
        except SaturationOverflow as exc:
            out.append(str(exc))
    return out


@settings(max_examples=150, deadline=None)
@given(walk_cases())
def test_fold_walk_keeps_the_oracle_exponents(case):
    system, depth, seeds = case
    kept, want = walk_both(system, seeds, depth)
    assert len({len(q) for q in kept}) == 1
    assert len(kept[0]) <= system.ctx.D + 1
    assert padded(system, kept) == want


@settings(max_examples=60, deadline=None)
@given(walk_cases(), st.integers(1, 6))
def test_fold_walk_overflows_as_the_oracle_does(case, cap):
    system, depth, seeds = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(closure, "ENUM_CAP", cap)
        kept, want = walk_both(system, seeds, depth)
    if isinstance(want, str):
        assert kept == want == "over %d" % depth
    else:
        assert len(want) <= cap
        assert padded(system, kept) == want


@pytest.mark.parametrize("p,cycle,power", [
    ([0, 1], "(1 2)", "1 + x^5"),
    ([0, "1 + x"], "(1 2)", "3 + 2*x^6"),
    (["-3 + 2*x", "-2 - 3*x", "-1 - x"], "(1 2 3)", "1 + x^5"),
    ([0, 0, 0, 2], "(1 2 3 4)", "5 + x + 3*x^7"),
])
def test_states_walked_from_a_trimmed_seed_are_canonical_words(p, cycle,
                                                                power):
    # a seed of higher degree than every p_y widens the walk, which still
    # carries fewer than D + 1 coefficients; every state is a word of
    # D + 1 coefficients, as the oracle's
    system = FoldSystem(Context(len(p), K=9, D=8, L=8), "g", p, cycle)
    gens = [system.generator(), system.generator().pow_series(power)]
    for depth in (3, 6, 8):
        report = state_closure(gens, depth=depth)
        oracle = oracle_states(gens, depth)
        assert [repr(s) for s in report.states] == [repr(s) for s in oracle]
        assert report.to_json()["states"] == [repr(s) for s in oracle]
        assert all(len(coeffs) == system.ctx.D + 1
                   for s in report.states for _, coeffs in s.word)
        kept = fold_walk(system, [
            system._exponent(g.word) for g in [system.identity()] + gens],
            depth, "")
        assert len(kept[0]) < system.ctx.D + 1


@settings(max_examples=60, deadline=None)
@given(closures())
def test_closure_states_are_the_oracle_states(case):
    gens, depth = case
    report = state_closure(gens, depth=depth)
    oracle = oracle_states(gens, depth)
    assert [repr(s) for s in report.states] == [repr(s) for s in oracle]
    assert report.to_json()["states"] == [repr(s) for s in oracle]
    width = gens[0].system.ctx.D + 1
    assert all(len(coeffs) == width
               for s in report.states for _, coeffs in s.word)
