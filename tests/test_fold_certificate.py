"""The fold closure's checks on the portrait DAG, against their oracles.

`suites._fold_abelian_depth`, the `verify fold` gate's abelian
certificate, builds the generator's level portraits by the digit
recursion and compares g * x^t g with x^t g * g node by node, with one
memo of node products for the whole certificate.  One oracle is
the flat certificate it replaced: the same recursion on m^s-entry
level-permutation tuples (`FoldSystem.level_perm_fast`), with each
diagonal copy embedded block by block; the other is the loop that gave
every pair its own `_commutes` memo.  The recurrence witness makes its
candidates as the scan reaches them; its oracle is the search that built
them all first.  The DedupeCollision spot check compares word-path
portraits, expanded from each atom's depth-d residue; its oracle is
pairwise `equal_to_depth`.  The gate's peel
check compares the digits a depth-8 peel determines, those below degree
8, and checks g raised to the `reduce_mod_r` series against g^n; the
quaternary gate does the same at depth 10.
"""

import itertools
import random
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from selfsim import closure, suites
from selfsim.adic import PowerSeries
from selfsim.closure import (
    _fold_recurrence_witness, _word_portraits, state_closure,
)
from selfsim.suites import _fold_abelian_depth, _level_portrait
from selfsim.tree import (
    AutExpr, Context, FoldSystem, Permutation, Portrait, _products_equal,
    adding_machine, rooted_portrait,
)

from test_fold_keys import exponents, fold_systems
from test_portrait_algebra import PAIRS, grigorchuk


def _commutes(a, b):
    """Whether the portraits a and b commute, without building a*b or b*a.

    Every node compared is a descendant of a or b, so the ids in the local
    memo stay valid.
    """
    return _products_equal(a, b, b, a, {})


def flat_certificate(system, depth):
    """Largest s <= depth such that g commutes with every x^t g, t < s, on
    every level up to s, checked on flat 0-based level permutations."""
    m = system.ctx.m
    perms = [None]
    for s in range(1, depth + 1):
        perms.append(tuple(i - 1 for i in system.level_perm_fast(s).images))
        top = perms[s]
        n = m ** s
        for t in range(1, s):
            block = m ** (s - t)
            sub = perms[s - t]
            emb = tuple((i // block) * block + sub[i % block]
                        for i in range(n))
            if any(emb[top[i]] != top[emb[i]] for i in range(n)):
                return s - 1
    return depth


@settings(max_examples=80, deadline=None)
@given(fold_systems())
def test_certificate_matches_flat_oracle(system):
    depth = system.ctx.L
    assert _fold_abelian_depth(system, depth) == flat_certificate(system, depth)


@settings(max_examples=80, deadline=None)
@given(fold_systems())
def test_level_portraits_match_level_perm_fast(system):
    levels = [None]
    for l in range(1, system.ctx.L + 1):
        levels.append(_level_portrait(system, levels))
        assert levels[l].depth == l
        assert levels[l].level_perm(l) == system.level_perm_fast(l)


def test_level_portrait_composes_in_increasing_degree():
    # the real lower levels commute with each other's suspensions, which
    # hides the order of the factors; stand-ins that do not commute show it
    ctx = Context(3, K=3, D=3, L=3)
    system = FoldSystem(ctx, "g", [PowerSeries(ctx.mod, ctx.D, [1, 1]), 0, 0],
                        "(1 2 3)")
    s12 = rooted_portrait(Permutation.from_cycles("(1 2)", 3), 1)
    s23 = rooted_portrait(Permutation.from_cycles("(2 3)", 3), 1)
    lower = [None, s23, s12.suspended(1)]
    top = _level_portrait(system, lower)
    # p_1 = 1 + x: the level-2 factor (degree 0), then the level-1 one
    # suspended once (degree 1)
    assert top.children[0] == lower[2] * s23.suspended(1)
    assert top.children[0] != s23.suspended(1) * lower[2]
    assert top.children[1].is_identity() and top.children[2].is_identity()


@settings(max_examples=80, deadline=None)
@given(PAIRS)
def test_commutes_matches_the_products(pair):
    p, q = pair
    assert _commutes(p, q) == (p * q == q * p)
    assert _commutes(q, p) == _commutes(p, q)


def test_commutes_rejects_non_commuting_pairs():
    a, b = grigorchuk()[:2]
    for depth in (2, 3, 5):
        assert not _commutes(a.portrait(depth), b.portrait(depth))
    # depth 1 sees only the roots, (1 2) and the identity
    assert _commutes(a.portrait(1), b.portrait(1))
    for depth in (1, 3):
        s = rooted_portrait(Permutation.from_cycles("(1 2)", 3), depth)
        t = rooted_portrait(Permutation.from_cycles("(2 3)", 3), depth)
        assert not _commutes(s, t)
        assert _commutes(s, s.inverse())


@pytest.mark.parametrize("m", [3, 4, 5])
def test_adding_machines_certified_to_depth_twelve(m):
    # the flat certificate stopped at 11, 9, 8 for m = 3, 4, 5 on cost
    a = adding_machine(Context(m, K=12, D=12, L=12), 1)
    assert _fold_abelian_depth(a.system, 12) == 12


# ------------------------------------------- one memo for the certificate

def per_pair_certificate(system, depth):
    """The certificate with a new _commutes memo for every pair."""
    levels = [None]
    for s in range(1, depth + 1):
        top = suites._level_portrait(system, levels)
        levels.append(top)
        if not all(_commutes(top, levels[s - t].suspended(t))
                   for t in range(1, s)):
            return s - 1
    return depth


@settings(max_examples=60, deadline=None)
@given(fold_systems())
def test_shared_memo_certificate_matches_the_per_pair_loop(system):
    depth = system.ctx.L
    assert (_fold_abelian_depth(system, depth)
            == per_pair_certificate(system, depth))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=4),
       st.integers(1, 6))
@example([1], 6)    # b = (a, c) fails against (b, b)
def test_shared_memo_certificate_matches_on_non_commuting_levels(word, depth):
    # a fold generator always passes, so stand-in levels from a word in
    # the Grigorchuk generators (which need not commute with their own
    # suspensions) make the certificate stop early
    gens = grigorchuk()
    expr = gens[word[0]]
    for i in word[1:]:
        expr = expr * gens[i]
    system = FoldSystem(Context(2, K=7, D=6, L=6), "g", [0, 1], "(1 2)")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(suites, "_level_portrait",
                      lambda system, levels: expr.portrait(len(levels)))
        assert (_fold_abelian_depth(system, depth)
                == per_pair_certificate(system, depth))


def test_fold_gate_fails_on_a_broken_certificate():
    # state_closure no longer runs the certificate, so the fold-family
    # gate must: with the level portraits replaced by the Grigorchuk b,
    # which does not commute with its own suspension, every draw fails
    b = grigorchuk()[1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(suites, "_level_portrait",
                      lambda system, levels: b.portrait(len(levels)))
        checks = suites.criterion_fold_family()
    assert len(checks) == 50
    assert not any(ok for _, ok in checks)


def fold_gate(seed=20240811, perturb=None, peel_too=False):
    """Whether each criterion_fold_family check passes, with the draws
    seeded by seed, and reduce_mod_r's digit at degree perturb (if any)
    moved by one; with peel_too, peel returns the moved digits as well."""
    seeded, reduce = random.Random, suites.reduce_mod_r

    def moved(n, r):
        digits = list(reduce(n, r).digits)
        digits[perturb] = (digits[perturb] + 1) % r.mod.m
        return types.SimpleNamespace(digits=tuple(digits))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(suites, "random",
                      types.SimpleNamespace(Random=lambda _: seeded(seed)))
        if perturb is not None:
            patch.setattr(suites, "reduce_mod_r", moved)
        if peel_too:
            patch.setattr(suites, "peel", lambda target, basis: [PowerSeries(
                target.system.ctx.mod, target.system.ctx.D,
                moved(target.system._exponent(target.word)[0],
                      target.system.annihilator()).digits)])
        checks = suites.criterion_fold_family()
    assert len(checks) == 50
    return [ok for _, ok in checks]


@pytest.mark.parametrize("seed", [9, 10])
def test_fold_gate_compares_only_the_determined_digits(seed):
    # each seed draws one power whose peel differs from reduce_mod_r only
    # at degree 8, which a depth-8 portrait cannot see
    assert all(fold_gate(seed))


@pytest.mark.parametrize("degree,passes", [(7, False), (8, True)])
def test_fold_gate_sees_every_determined_digit(degree, passes):
    assert fold_gate(perturb=degree) == [passes] * 50


def test_fold_gate_checks_the_reduced_series_against_the_power():
    # peel agreeing with a wrong reduce_mod_r still fails: g raised to the
    # reduced series is not g^n at depth 8
    assert not any(fold_gate(perturb=3, peel_too=True))


@pytest.mark.parametrize("degree,passes", [(9, False), (10, True)])
def test_quaternary_gate_compares_only_the_determined_digits(degree, passes):
    # the probes are peeled at depth 10, which fixes the digits below
    # degree 10; moving reduce_mod_r's digit at degree 9 fails the
    # membership check, and at degree 10 it passes
    reduce = suites.reduce_mod_r

    def moved(n, r):
        digits = list(reduce(n, r).digits)
        digits[degree] = (digits[degree] + 1) % r.mod.m
        return types.SimpleNamespace(digits=tuple(digits))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(suites, "reduce_mod_r", moved)
        checks = dict(suites.criterion_quaternary_machine())
    assert checks.pop("membership: torsion part and peeled normal forms") \
        == passes
    assert all(checks.values())


def test_fold_closure_leaves_no_portrait_products():
    # the names rule computes no product; the certificate it replaced left
    # 6,757 entries in Portrait._products over the fold_base closures
    Portrait.clear_tables()
    for p, cycle in ((["-3 + 2*x", "-2 - 3*x", "-1 - x"], "(1 2 3)"),
                     ([0, "1 + x"], "(1 2)"), ([0, 0, 0, 2], "(1 2 3 4)")):
        system = FoldSystem(Context(len(p), K=9, D=8, L=8), "g", p, cycle)
        for depth in (3, 6, 8):
            report = state_closure([system.generator()], depth=depth)
            assert report.abelian_to_depth == depth
    assert len(Portrait._products) == 0


# ------------------------------------------------ the lazy witness pool

def eager_witness(system, generators, exponents, depth):
    """The witness search that built every candidate before scanning."""
    m = system.ctx.m
    forms, M = closure._fold_forms(system, max(1, depth - 1))
    qsum = closure._form_values(forms, system._qsum)
    unmatched = {closure._reduced(
        closure._form_values(forms, system._exponent(g.word)), M)
        for g in generators}
    pool = [(w[0], closure._form_values(forms, w[1:])) for w in exponents]
    pool += [(-v, [-t for t in tail]) for v, tail in pool]
    singles_then_sums = itertools.chain(
        pool, ((a + b, [x + y for x, y in zip(ta, tb)])
               for (a, ta), (b, tb) in itertools.product(pool, repeat=2)))
    for scanned, (v, tail) in enumerate(singles_then_sums):
        if not unmatched or scanned >= closure.WITNESS_SCAN_BUDGET:
            break
        if v % m:
            continue
        xi = v // m
        unmatched.discard(closure._reduced(
            [xi * q + t for q, t in zip(qsum, tail)], M))
    return not unmatched


@settings(max_examples=80, deadline=None)
@given(fold_systems(), st.data())
def test_lazy_witness_matches_the_eager_search(system, data):
    pool = data.draw(st.lists(exponents(system), max_size=8))
    gens = [AutExpr(system, (("g", q),)) for q in
            data.draw(st.lists(exponents(system), min_size=1, max_size=3))]
    depth = data.draw(st.integers(1, system.ctx.L))
    budget = data.draw(st.integers(0, 90))
    evaluated = []
    form_values = closure._form_values

    def counted(forms, coeffs):
        evaluated.append(coeffs)
        return form_values(forms, coeffs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(closure, "WITNESS_SCAN_BUDGET", budget)
        want = eager_witness(system, gens, pool, depth)
        patch.setattr(closure, "_form_values", counted)
        assert _fold_recurrence_witness(system, gens, pool, depth) == want
    # qsum, the generators, and at most the singles the scan reached
    assert len(evaluated) <= 1 + len(gens) + min(len(pool), budget + 1)


def test_witness_scan_stops_before_the_unreached_singles():
    system = FoldSystem(Context(2, K=7, D=6, L=6), "g", [0, 1], "(1 2)")
    g = system.generator()
    pool = [system._exponent((g ** n).word) for n in range(1, 200)]
    evaluated = []
    form_values = closure._form_values

    def counted(forms, coeffs):
        evaluated.append(coeffs)
        return form_values(forms, coeffs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(closure, "_form_values", counted)
        # g^2 fixes the first letter and its state there is g
        assert _fold_recurrence_witness(system, [g], pool, 6)
    assert len(evaluated) < 10


# ---------------------------------------------- word-path spot check

@settings(max_examples=60, deadline=None)
@given(fold_systems(), st.data())
def test_word_portraits_part_states_as_equal_to_depth_does(system, data):
    exprs = [AutExpr(system, (("g", q),)) for q in
             data.draw(st.lists(exponents(system), min_size=1, max_size=6))]
    exprs += exprs[:data.draw(st.integers(0, 2))]
    depth = data.draw(st.integers(1, system.ctx.L))
    nodes = list(_word_portraits(system, exprs, depth))
    for a, b in itertools.product(range(len(exprs)), repeat=2):
        assert ((nodes[a] == nodes[b])
                == exprs[a].equal_to_depth(exprs[b], depth))
    assert nodes == [e.portrait(depth) for e in exprs]


@settings(max_examples=60, deadline=None)
@given(fold_systems(), st.data())
def test_word_portraits_expand_one_residue_per_class(system, data):
    # exponents that differ by k*m^(d-i)*x^i (i < d) or by terms of degree
    # d and up expand from one residue: the twin adds no decomposition
    ctx = system.ctx
    d = data.draw(st.integers(1, ctx.L))
    q = data.draw(exponents(system))
    twin = list(q)
    for i in range(ctx.D + 1):
        step = ctx.m ** (d - i) if i < d else 1
        twin[i] += step * data.draw(st.integers(-3, 3))
    exprs = [AutExpr(system, (("g", c),)) for c in (q, tuple(twin))]
    words = []
    expand = system._decompose_normal

    def spy(word):
        words.append(word)
        return expand(word)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(system, "_decompose_normal", spy)
        one = list(_word_portraits(system, exprs[:1], d))
        alone = len(words)
        both = list(_word_portraits(system, exprs, d))
    assert len(words) == 2 * alone
    assert both[0] is both[1] is one[0] == exprs[1].portrait(d)
