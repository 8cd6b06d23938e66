"""Closure analysis tests.

The central oracle: for a foldable generator with annihilator r, peeling
the n-th power of the generator must reproduce the canonical digit
expansion of the integer n modulo r, which the ring module computes by
pure carry arithmetic with no tree code involved.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from selfsim import closure
from selfsim.adic import PowerSeries, parse_series, reduce_mod_r
from selfsim.closure import (
    DedupeCollision, PermSolveFail, SaturationOverflow, ZetaUnbounded,
    as_machine, extract_relations, order_to_depth, peel, restrict_to_orbit,
    state_closure, zeta,
)
from selfsim.tree import (
    Context, DepthExceeded, FoldSystem, NotAbelian, Permutation,
    ShapeMismatch, System, adding_machine,
)


def example_m4():
    ctx = Context(4, K=10, D=10, L=10)
    sys = FoldSystem(ctx, "a", [0, 0, 0, 2], "(1 2 3 4)")
    return ctx, sys, sys.generator()


# ------------------------------------------------------------ peel oracle

def test_peel_binary_three_is_one_plus_x():
    ctx = Context(2, K=8, D=8, L=8)
    a = adding_machine(ctx)
    (q,) = peel(a ** 3, [a])
    assert q == parse_series("1 + x", ctx.mod, ctx.D)


def test_peel_matches_digit_expansion_frozen():
    for m, j, n in ((2, 1, 11), (2, 1, -5), (3, 1, 20), (2, 2, 9), (3, 2, -1)):
        ctx = Context(m, K=8, D=8, L=8)
        a = adding_machine(ctx, j)
        (q,) = peel(a ** n, [a])
        want = reduce_mod_r(n, a.system.annihilator())
        assert q.lifts()[:ctx.L] == want.digits[:ctx.L], (m, j, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(-300, 600), st.sampled_from([(2, 1), (2, 2), (3, 1), (4, 1)]))
def test_peel_matches_digit_expansion_property(n, shape):
    m, j = shape
    ctx = Context(m, K=6, D=6, L=6)
    a = adding_machine(ctx, j)
    (q,) = peel(a ** n, [a])
    want = reduce_mod_r(n, a.system.annihilator())
    assert q.lifts()[:ctx.L] == want.digits[:ctx.L]


def test_peel_determines_digits_below_depth_only():
    # fold-family draws whose canonical digit at degree D = L = 8 is
    # nonzero, which a depth-8 portrait cannot see: peel agrees with
    # reduce_mod_r on the first 8 digits only
    draws = (
        (2, [[2, 0], [2, -1]], "(1 2)", -16, 1),
        (2, [[-1, -3, -1, 2], [-1, 3, -1, -3]], "(1 2)", 5, 1),
        (4, [[-1, -3, 0, -3], [-1, 1, 3, 0], [-1, -3, 1, 0], [3, 3, -3, 2]],
         "(1 2 3 4)", 64, 2),
    )
    for m, exps, sigma, n, top in draws:
        ctx = Context(m, K=9, D=8, L=8)
        sys = FoldSystem(ctx, "g", [PowerSeries(ctx.mod, ctx.D, e)
                                    for e in exps], sigma)
        g = sys.generator()
        (q,) = peel(g ** n, [g])
        want = reduce_mod_r(n, sys.annihilator()).digits
        assert q.lifts()[:ctx.L] == want[:ctx.L], (m, exps, n)
        assert want[ctx.L] == top


def test_peel_series_exponent_roundtrip():
    ctx, sys, a = example_m4()
    target = a.pow_series("3 + 2x + x^3")
    (q,) = peel(target, [a])
    assert a.pow_series(q).equal_to_depth(target)


def test_peel_errors():
    ctx, sys, a = example_m4()
    with pytest.raises(PermSolveFail):
        peel(a, [a * a])  # the 4-cycle is outside the span of its square
    gctx = Context(2, K=6, D=6, L=6)
    gsys = System(gctx)
    b = gsys.gen("b")
    gsys.define("s", "(1 2)", ["e", "e"])
    gsys.define("b", "(1 2)", ["e", b])
    with pytest.raises(NotAbelian):
        peel(gsys.gen("s"), [b])


# ------------------------------------------------------------- saturation

def test_closure_of_adding_machines_counts_states():
    # the j-shifted machine has exactly j nontrivial states
    for m, j in ((2, 1), (2, 3), (3, 2), (5, 3)):
        ctx = Context(m, K=8, D=8, L=8)
        a = adding_machine(ctx, j)
        rep = state_closure([a])
        assert rep.nontrivial_count() == j, (m, j)
        assert rep.state_count() == j + 1
        assert rep.transitive
        assert rep.abelian_to_depth == ctx.L
        assert rep.recurrent_witnessed


def test_closure_example_m4_generator():
    ctx, sys, a = example_m4()
    rep = state_closure([a])
    assert rep.state_count() == 3  # e, a, a^2
    assert rep.nontrivial_count() == 2
    assert rep.transitive
    assert rep.orbits == ((1, 2, 3, 4),)


def test_closure_example_m4_square():
    ctx, sys, a = example_m4()
    rep = state_closure([a * a])
    assert rep.state_count() == 2  # e and a^2
    assert rep.nontrivial_count() == 1
    assert not rep.transitive
    assert rep.orbits == ((1, 3), (2, 4))


def test_closure_generic_machine_and_certification():
    ctx = Context(2, K=8, D=8, L=8)
    sys = System(ctx)
    b = sys.gen("b")
    sys.define("b", "(1 2)", ["e", b])
    assert not sys.abelian_certified()
    rep = state_closure([b])
    assert rep.state_count() == 2
    assert rep.abelian_to_depth == ctx.L
    assert sys.abelian_certified()  # closure certified the system
    assert rep.recurrent_witnessed


MEMOS = ("_atom_memo", "_word_memo", "_identity_memo", "_portrait_memo")


@pytest.mark.parametrize("fold", [False, True])
def test_second_closure_keeps_the_memos(fold):
    # the first full-depth mark forgets the memos; a closure of a system
    # that is already certified must not throw them away again
    ctx = Context(2, K=8, D=8, L=8)
    if fold:
        b = FoldSystem(ctx, "b", [0, 1], "(1 2)").generator()
    else:
        system = System(ctx)
        b = system.gen("b")
        system.define("b", "(1 2)", ["e", b])
    state_closure([b])
    assert b.system.abelian_certified()
    (b * b).portrait(5)
    memos = [getattr(b.system, name) for name in MEMOS]
    entries = [dict(memo) for memo in memos]
    assert any(entries)
    state_closure([b])
    assert [getattr(b.system, name) for name in MEMOS] == memos
    for memo, kept in zip(memos, entries):
        assert kept.items() <= memo.items()


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_binary_adding_machine_recurrence_at_shallow_depths(depth):
    # witness candidates are told apart by their first-letter states at the
    # depth those are compared at; keyed by their own portraits instead,
    # g^2 (trivial to depth 1, state g) was dropped as a copy of e at depth 1
    ctx = Context(2, K=4, D=4, L=4)
    generic = System(ctx)
    g = generic.gen("g")
    generic.define("g", "(1 2)", ["e", g])
    fold = FoldSystem(ctx, "g", [0, 1], "(1 2)").generator()
    assert state_closure([g], depth=depth).recurrent_witnessed
    assert state_closure([fold], depth=depth).recurrent_witnessed


def test_closure_overflow(monkeypatch):
    ctx = Context(2, K=8, D=8, L=8)
    sys = System(ctx)
    g = sys.gen("g")
    sys.define("g", "(1 2)", [g, g * g])  # states g, g^2, g^3, g^4, ...
    monkeypatch.setattr(closure, "ENUM_CAP", 5)
    with pytest.raises(SaturationOverflow):
        state_closure([sys.gen("g")])


def test_fold_closure_guards(monkeypatch):
    # the fold walk reads exponents, not words: a generator of another name
    # is still rejected, and saturation still stops at ENUM_CAP
    sys = FoldSystem(Context(2, K=4, D=4, L=4), "g", [0, 1], "(1 2)")
    for gens in ([sys.gen("b")], [sys.generator(), sys.gen("b")]):
        with pytest.raises(KeyError, match="undefined generator 'b'"):
            state_closure(gens)
    a = adding_machine(Context(2, K=8, D=8, L=8), j=3)   # e and 3 states
    monkeypatch.setattr(closure, "ENUM_CAP", 4)
    assert state_closure([a]).state_count() == 4
    monkeypatch.setattr(closure, "ENUM_CAP", 3)
    with pytest.raises(SaturationOverflow, match="more than 3 states"):
        state_closure([a])


def test_closure_dedupe_guard(monkeypatch):
    # a key finer than the portrait (the raw exponent word) lets two equal
    # states in; the guard is an exception, so it holds under python -O
    ctx = Context(2, K=8, D=8, L=8)
    a = adding_machine(ctx)
    fold_key = closure._fold_key
    monkeypatch.setattr(closure, "_fold_key",
                        lambda system, word, depth:
                        (fold_key(system, word, depth), word))
    twin = a.pow_series("3 - x")    # 2 - x kills a, so this equals a
    with pytest.raises(DedupeCollision):
        state_closure([a, twin])


def test_closure_dedupe_guard_on_walked_states(monkeypatch):
    # the same guard when a finer key (form values mod m^(n+1), not m^n)
    # reaches the child keys the walk derives: g^{2 + x}, a state of
    # g^{1 + x}, gets in although it equals e to depth 4
    g = FoldSystem(Context(2, K=4, D=4, L=4), "g", [0, "1 + x"],
                   "(1 2)").generator()
    fold_forms = closure._fold_forms

    def finer(system, depth):
        forms, M = fold_forms(system, depth)
        return forms, M * system.ctx.m

    monkeypatch.setattr(closure, "_fold_forms", finer)
    with pytest.raises(DedupeCollision, match="e and g\\^{2 \\+ x}"):
        state_closure([g])


def test_closure_dedupe_guard_raises_on_the_first_repeated_state(monkeypatch):
    # two collisions among the seeds: a^{4 - x} repeats a^2 and a^{3 - x}
    # repeats a; the check raises at the first state whose portrait was
    # seen, naming the first state of that class, not at the first pair
    ctx = Context(2, K=8, D=8, L=8)
    a = adding_machine(ctx)
    fold_key = closure._fold_key
    monkeypatch.setattr(closure, "_fold_key",
                        lambda system, word, depth:
                        (fold_key(system, word, depth), word))
    gens = [a, a ** 2, a.pow_series("4 - x"), a.pow_series("3 - x")]
    with pytest.raises(DedupeCollision, match=re.escape(
            "states a^{2} and a^{4 + 255*x} share")):
        state_closure(gens)


def test_closure_marks_only_systems_whose_names_it_covers():
    # a closure of a alone certifies words in a; marking the system would
    # merge the words of b and c too, and c*b would change its portrait
    ctx = Context(2, K=4, D=4, L=4)
    system = System(ctx)
    a, b, c = system.gen("a"), system.gen("b"), system.gen("c")
    system.define("a", "(1 2)", ["e", a])
    system.define("b", "()", [a, c])
    system.define("c", "(1 2)", ["e", "e"])
    before = (c * b).portrait(3)
    assert not (b * c).equal_to_depth(c * b, 4)
    report = state_closure([a], depth=4)
    assert report.abelian_to_depth == 4
    assert not system.abelian_certified()
    assert (c * b).portrait(3) == before
    assert not (b * c).equal_to_depth(c * b, 4)
    # the same closure on a system that defines a alone marks it
    generic = System(ctx)
    g = generic.gen("g")
    generic.define("g", "(1 2)", ["e", g])
    state_closure([g])
    assert generic.abelian_certified()
    # with a second, unrelated generator defined, the closure of g marks
    # nothing, so a presentation of g alone has no certificate to peel with
    wider = System(ctx)
    g = wider.gen("g")
    wider.define("g", "(1 2)", ["e", g])
    wider.define("h", "(1 2)", ["e", "e"])
    with pytest.raises(NotAbelian):
        extract_relations([g])


def test_closure_json_shape():
    ctx, sys, a = example_m4()
    obj = state_closure([a]).to_json()
    assert obj["m"] == 4 and obj["state_count"] == 3
    assert obj["transitive"] is True
    assert isinstance(obj["states"], list)


# ------------------------------------------------------------- restriction

def test_square_restricts_to_binary_adding_machine():
    ctx, sys, a = example_m4()
    sq = a * a
    restricted = restrict_to_orbit(sq, (1, 3))
    model = adding_machine(Context(2, K=10, D=10, L=10))
    assert restricted.portrait(10) == model.portrait(10)
    # and on the other orbit as well
    other = restrict_to_orbit(sq, (2, 4))
    assert other.portrait(10) == model.portrait(10)


def test_as_machine_states_and_agreement():
    ctx, sys, a = example_m4()
    mexpr = as_machine(a * a)
    # one named state: q0 = (e, e, q0, q0)(1 3)(2 4); the identity is "e"
    assert mexpr.system.names() == ["q0"]
    d = mexpr.system.definition("q0")
    assert d.root == Permutation.from_cycles("(1 3)(2 4)", 4)
    assert mexpr.portrait(8) == (a * a).portrait(8)
    # the full machine keeps a and its square apart
    ma = as_machine(a)
    assert len(ma.system.names()) == 2
    assert ma.portrait(8) == a.portrait(8)


def test_restriction_requires_invariance():
    ctx, sys, a = example_m4()
    bad = restrict_to_orbit(a, (1, 3))
    with pytest.raises(ShapeMismatch):
        bad.portrait(2)


# --------------------------------------------------------------- relations

def test_relations_of_adding_machines():
    for m, j in ((2, 1), (2, 2), (3, 1), (4, 2), (5, 1)):
        ctx = Context(m, K=8, D=8, L=8)
        a = adding_machine(ctx, j)
        pres = extract_relations([a])
        want = [m] + [0] * ctx.D
        want[j] = (-1) % ctx.mod.mK
        assert pres.relator.lifts() == tuple(want), (m, j)
        assert pres.orders == (m,)


def test_relations_example_m4():
    ctx, sys, a = example_m4()
    pres = extract_relations([a])
    want = parse_series("4 - 2x", ctx.mod, ctx.D)
    assert pres.relator == want
    assert a.pow_series(pres.relator).is_identity()


def test_relations_rooted_klein_four():
    # two commuting rooted involutions acting regularly on 4 letters
    ctx = Context(4, K=6, D=6, L=6)
    sys = System(ctx)
    sys.define("u", "(1 2)(3 4)", ["e"] * 4)
    sys.define("v", "(1 3)(2 4)", ["e"] * 4)
    pres = extract_relations([sys.gen("u"), sys.gen("v")])
    assert pres.orders == (2, 2)
    assert pres.relator == PowerSeries.constant(ctx.mod, ctx.D, 4)


def test_relations_reject_unbalanced_basis():
    ctx = Context(4, K=6, D=6, L=6)
    sys = System(ctx)
    sys.define("c", "(1 2 3 4)", ["e"] * 4)
    sys.define("d", "(1 3)(2 4)", ["e"] * 4)
    with pytest.raises(ShapeMismatch):
        extract_relations([sys.gen("c"), sys.gen("d")])  # orders 4*2 != 4


def test_relator_kills_every_closure_state():
    for m, j in ((2, 2), (3, 1)):
        ctx = Context(m, K=8, D=8, L=8)
        a = adding_machine(ctx, j)
        r = extract_relations([a]).relator
        for s in state_closure([a]).states:
            assert s.pow_series(r).is_identity()


# ------------------------------------------------------------ depth gauges

def test_order_to_depth_odometer():
    ctx = Context(2, K=8, D=8, L=8)
    a = adding_machine(ctx)
    for l in (1, 2, 5, 8):
        assert order_to_depth(a, l) == 2 ** l
    assert order_to_depth(a.system.identity(), 4) == 1


def test_order_to_depth_past_the_old_enumeration_limit():
    # the m=3 odometer at depth 14 acts on 3^14 > 2,000,000 vertices
    ctx = Context(3, K=14, D=14, L=14)
    a = adding_machine(ctx)
    assert order_to_depth(a, 14) == 3 ** 14
    assert order_to_depth(a * a.diagonal(1), 14) == 3 ** 14
    assert order_to_depth(a ** 3, 14) == 3 ** 13


def test_order_to_depth_guards():
    a = adding_machine(Context(2, K=6, D=6, L=6))
    with pytest.raises(DepthExceeded):
        order_to_depth(a, 0)
    with pytest.raises(DepthExceeded):
        order_to_depth(a, 7)


def test_closure_depth_guards():
    a = adding_machine(Context(2, K=6, D=6, L=6))
    for depth in (0, -1, 7):
        with pytest.raises(DepthExceeded):
            state_closure([a], depth=depth)


def test_order_to_depth_rooted():
    ctx = Context(3, K=6, D=6, L=6)
    sys = System(ctx)
    sys.define("s", "(1 2 3)", ["e"] * 3)
    assert order_to_depth(sys.gen("s"), 5) == 3


def test_zeta_of_adding_machines():
    for m, j in ((2, 1), (2, 3), (3, 2), (4, 2)):
        ctx = Context(m, K=8, D=8, L=8)
        a = adding_machine(ctx, j)
        assert zeta(a) == j, (m, j)


def test_zeta_uniform_gap_on_stabilizer_coset():
    # multiplying by a first-level stabilizer never changes the gap
    ctx = Context(2, K=8, D=8, L=8)
    a = adding_machine(ctx, 2)
    for text in ("2", "x", "2 + 2x", "x + x^2", "4 - 2x"):
        z = a.pow_series(text)
        assert z.root().is_identity()
        assert zeta(z * a) == zeta(a) == 2, text


def test_zeta_errors():
    ctx = Context(2, K=6, D=6, L=6)
    a = adding_machine(ctx)
    with pytest.raises(ValueError):
        zeta(a.system.identity())
    sys = System(ctx)
    sys.define("s", "(1 2)", ["e", "e"])
    with pytest.raises(ZetaUnbounded):
        zeta(sys.gen("s"))  # s^2 = e exactly
