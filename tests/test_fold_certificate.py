"""The fold abelian certificate on the portrait DAG, against its oracle.

`closure._fold_abelian_depth` builds the generator's level portraits by
the digit recursion and compares g * x^t g with x^t g * g node by node.
The oracle is the flat certificate it replaced: the same recursion on
m^s-entry level-permutation tuples (`FoldSystem.level_perm_fast`), with
each diagonal copy embedded block by block.
"""

import pytest
from hypothesis import given, settings

from selfsim.adic import PowerSeries
from selfsim.closure import (
    _commutes, _fold_abelian_depth, _level_portrait, state_closure,
)
from selfsim.tree import (
    Context, FoldSystem, Permutation, adding_machine, rooted_portrait,
)

from test_fold_keys import fold_systems
from test_portrait_algebra import PAIRS, grigorchuk


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
    report = state_closure([a], depth=12)
    assert report.abelian_to_depth == 12
