"""The fold engine's fast paths, against their oracles.

A FoldSystem keys states by the digit prefix of their exponent modulo the
annihilator, computed by `exponent_digits` from a relator split once at
construction; the oracle is `reduce_mod_r` on the annihilator series.  It
also decomposes one-atom words straight through `_atom_decompose`; the
oracle is the generic `System` word engine.
"""

import pytest
from hypothesis import given, settings, strategies as st

from selfsim.adic import PowerSeries, reduce_mod_r
from selfsim.tree import AutExpr, Context, FoldSystem, Permutation, System


@st.composite
def fold_systems(draw):
    """A random fold system, m 2..4; sometimes p_1+...+p_m = 0 (no carries)."""
    m = draw(st.integers(2, 4))
    depth = draw(st.integers(1, 6))
    ctx = Context(m, K=depth + 1, D=depth, L=depth)
    cycle = [1] + draw(st.permutations(range(2, m + 1)))
    sigma = Permutation.from_cycles([cycle], m)
    coeffs = st.lists(st.integers(-m * m, m * m), max_size=depth + 1)
    exps = [draw(coeffs) for _ in range(m)]
    if draw(st.booleans()):
        last = [0] * (depth + 1)
        for e in exps[:-1]:
            for d, c in enumerate(e):
                last[d] -= c
        exps[-1] = last
    return FoldSystem(ctx, "g", [PowerSeries(ctx.mod, ctx.D, e) for e in exps],
                      sigma)


def exponents(system):
    """Signed, unreduced integer exponents of full width D + 1."""
    bound = 3 * system.ctx.mod.mK
    return st.lists(st.integers(-bound, bound), min_size=system.ctx.D + 1,
                    max_size=system.ctx.D + 1).map(tuple)


@settings(max_examples=80, deadline=None)
@given(fold_systems(), st.data())
def test_exponent_digits_match_reduce_mod_r(system, data):
    coeffs = data.draw(exponents(system))
    want = reduce_mod_r(coeffs, system.annihilator()).digits
    for n in range(1, system.ctx.D + 2):
        assert system.exponent_digits(coeffs, n) == want[:n]
    assert system.exponent_digits(coeffs, system.ctx.D + 5) == want


@settings(max_examples=60, deadline=None)
@given(fold_systems(), st.data())
def test_one_atom_words_match_the_generic_engine(system, data):
    word = (("g", data.draw(exponents(system))),)
    assert system._normalize(word) == System._normalize(system, word)
    oracle = System._word_decompose(system, word)
    assert system._word_decompose(word) == oracle
    root, children = AutExpr(system, word).decompose()
    assert (root, tuple(c.word for c in children)) == oracle


@settings(max_examples=40, deadline=None)
@given(fold_systems())
def test_cached_annihilator_is_the_closed_form_and_kills(system):
    ctx = system.ctx
    total = PowerSeries(ctx.mod, ctx.D)
    for p in system.exponents:
        total = total + p
    want = PowerSeries.constant(ctx.mod, ctx.D, ctx.m) - total.shift(1)
    assert system.annihilator() == want
    assert system.annihilator() is system.annihilator()
    g = system.generator()
    assert g.pow_series(system.annihilator()).is_identity(ctx.L)


def test_one_digit_systems_still_build():
    # with K = 1 the annihilator's constant m vanishes mod m^K, so the
    # relator is only split (and rejected) when a key is asked for
    system = FoldSystem(Context(2, K=1, D=1, L=1), "g", [0, 1], "(1 2)")
    g = system.generator()
    assert g.portrait().root == Permutation.from_cycles("(1 2)", 2)
    with pytest.raises(ValueError):
        system.exponent_digits((1, 0), 1)
