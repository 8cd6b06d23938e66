"""The fold engine's fast paths, against their oracles.

A FoldSystem's exponents are told apart to depth n by the digit prefix of
their exponent modulo the annihilator, computed by `exponent_digits` here
from a relator split once; its oracle is `reduce_mod_r` on the annihilator
series.  The closure walk keys states by the linear invariant of
`key_forms` instead; its oracle is the digit prefix, and each child key
the oracle walk of test_fold_walk.py derives from its parent must equal
the key of the built child.
`key_forms` returns w forms, w the largest Weierstrass degree of the
annihilator over the primes of m; the tests recompute w, check that the
w forms tell every digit tuple apart, and that w - 1 of them do not.
A FoldSystem decomposes one-atom words straight through `_atom_decompose`
on the word path it shares with `System`, so the one-atom test below now
compares that path with itself; the fold child formula's independent
oracle is the cycle walk of test_fold_walk.py.  Fold portraits are
memoized by the same linear key; their oracle is the word-memo expansion
`System._portrait`.
"""

import itertools
import types
from unittest import mock
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from selfsim import closure
from selfsim.adic import (
    PowerSeries, reduce_digits, reduce_mod_r, split_relator,
)
from selfsim.closure import state_closure
from selfsim.tree import (
    AutExpr, Context, ContextError, FoldSystem, Permutation, System,
)


def exponent_digits(system, coeffs, n):
    """The first n canonical digits of an exponent modulo the annihilator.

    coeffs are integers indexed by degree, signed or unreduced.  Equal to
    reduce_mod_r(coeffs, system.annihilator()).digits[:n]: carries only
    move to higher degrees, so the first n digits depend on the first n
    coefficients alone.
    """
    # split_relator rejects K = 1, where m is 0 mod m^K
    q, j = split_relator(system.annihilator())
    n = min(n, system.ctx.D + 1)
    return tuple(reduce_digits(coeffs[:n], system.ctx.m, q.lifts(), j, n - 1))


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
        assert exponent_digits(system, coeffs, n) == want[:n]
    assert exponent_digits(system, coeffs, system.ctx.D + 5) == want


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
    # digit oracle's relator split rejects it; the linear key needs none
    system = FoldSystem(Context(2, K=1, D=1, L=1), "g", [0, 1], "(1 2)")
    g = system.generator()
    assert g.portrait().root == Permutation.from_cycles("(1 2)", 2)
    with pytest.raises(ValueError):
        exponent_digits(system, (1, 0), 1)


# ------------------------------------------------------------ linear keys

# "divisible" is listed twice, so that 1 < w < n is drawn often
QSUM_KINDS = ("unit", "non-unit", "zero", "divisible", "divisible")


@st.composite
def keyed_systems(draw):
    """A fold system whose q(0) = p_1(0)+...+p_m(0) is a unit mod m, a
    nonzero non-unit, or 0, or whose first k coefficients q_0..q_(k-1)
    are all 0 mod p, the prime of m, with k < n - 1, so that 1 < w < n
    occurs (see weierstrass_degree); and a key depth n in
    1..min(K, D + 1)."""
    m = draw(st.integers(2, 4))
    p = 3 if m == 3 else 2
    depth = draw(st.integers(1, 5))
    ctx = Context(m, K=depth + draw(st.integers(1, 2)), D=depth, L=depth)
    n = draw(st.integers(1, min(ctx.K, ctx.D + 1)))
    cycle = [1] + draw(st.permutations(range(2, m + 1)))
    sigma = Permutation.from_cycles([cycle], m)
    coeffs = st.lists(st.integers(-m * m, m * m), min_size=1,
                      max_size=depth + 1)
    exps = [draw(coeffs) for _ in range(m)]
    kind = draw(st.sampled_from(QSUM_KINDS))
    if kind == "unit":
        units = [u for u in range(1, m) if gcd(u, m) == 1]
        want = [draw(st.sampled_from(units)) + m * draw(st.integers(-2, 2))]
    elif kind == "non-unit":
        want = [p * draw(st.integers(1, 3)) * draw(st.sampled_from((1, -1)))]
        if gcd(want[0], m) == 1:
            want[0] *= p
    elif kind == "zero":
        want = [0]
    else:
        # q_0..q_(k-1) divisible by p and q_k not, so w = k + 1 < n for n > 2
        want = [p * draw(st.integers(-3, 3))
                for _ in range(draw(st.integers(1, max(1, n - 2))))]
        want.append(p * draw(st.integers(-3, 3)) + draw(st.integers(1, p - 1)))
    last = exps[-1] + [0] * (len(want) - len(exps[-1]))
    for d, v in enumerate(want):
        last[d] += v - sum(e[d] for e in exps if d < len(e))
    exps[-1] = last
    system = FoldSystem(
        ctx, "g", [PowerSeries(ctx.mod, ctx.D, e) for e in exps], sigma)
    return system, n


def weierstrass_degree(system, n):
    """w: the largest, over the primes p of m, of 1 + the first i < n - 1
    with q_i != 0 mod p, or n when there is none."""
    m, q = system.ctx.m, system._qsum
    primes = [p for p in range(2, m + 1)
              if m % p == 0 and all(p % d for d in range(2, p))]
    return max(next((i + 1 for i in range(n - 1) if q[i] % p), n)
               for p in primes)


def poly_mul(a, b, width):
    out = [0] * width
    for i, x in enumerate(a[:width]):
        for j, y in enumerate(b[:width - i]):
            out[i + j] += x * y
    return out


def same_class(system, q, depth, data):
    """q + r*A + m^K*B + x^depth*C: one class of Z[x]/(r, x^depth)."""
    ctx = system.ctx
    width = ctx.D + 1
    small = st.lists(st.integers(-9, 9), min_size=width, max_size=width)
    r = [ctx.m] + [-v for v in system._qsum[:ctx.D]]
    ra = poly_mul(r, data.draw(small), width)
    b, c = data.draw(small), data.draw(small)
    return tuple(v + w + ctx.mod.mK * u + (t if d >= depth else 0)
                 for d, (v, w, u, t) in enumerate(zip(q, ra, b, c)))


def linear_key(system, coeffs, n):
    forms = system.key_forms(n)
    return tuple(sum(c * w for c, w in zip(coeffs, f)) % system.ctx.m ** n
                 for f in forms)


def key_images(system, n, drop=0):
    """How many keys the canonical digit tuples of depth n take under the
    last len(key_forms(n)) - drop forms."""
    M = system.ctx.m ** n
    forms = system.key_forms(n)[drop:]
    return len({tuple(sum(map(mul, d, f)) % M for f in forms)
                for d in itertools.product(range(system.ctx.m), repeat=n)})


@settings(max_examples=120, deadline=None)
@given(keyed_systems(), st.data())
def test_linear_key_and_digit_prefix_give_one_partition(case, data):
    system, n = case
    ctx = system.ctx
    samples = []
    for q in data.draw(st.lists(exponents(system), min_size=1, max_size=6)):
        samples += [q, same_class(system, q, n, data)]
    keys = [linear_key(system, q, n) for q in samples]
    digits = [exponent_digits(system, q, n) for q in samples]
    for i, j in itertools.combinations(range(len(samples)), 2):
        assert (keys[i] == keys[j]) == (digits[i] == digits[j])
    for q, k, d in zip(samples, keys, digits):
        assert linear_key(system, d, n) == k
    w = weierstrass_degree(system, n)
    assert len(system.key_forms(n)) == w
    if gcd(system._qsum[0], ctx.m) == 1 or n == 1:
        assert w == 1
    if ctx.m ** n <= 1024:
        # injective on the canonical digit tuples, one per class, and
        # minimal: the p-part of the class group needs w_p generators
        assert key_images(system, n) == ctx.m ** n
        if w > 1:
            assert key_images(system, n, drop=1) < ctx.m ** n


# (m, q = p_1 + ... + p_m, w at n = 1, 2, ...) with m^n <= 1,296; at m = 6
# and m = 12 the 2-part and the 3-part have their own Weierstrass degrees
COMPOSITE_KEYS = [
    (6, (1, 0, 0, 0), (1, 1, 1, 1)),
    (6, (2, 1, 0, 0), (1, 2, 2, 2)),
    (6, (3, 3, 1, 0), (1, 2, 3, 3)),
    (6, (2, 4, 3, 0), (1, 2, 3, 3)),
    (6, (6, 2, 3, 0), (1, 2, 3, 3)),
    (6, (6, 4, 2, 1), (1, 2, 3, 4)),
    (6, (0, 0, 0, 0), (1, 2, 3, 4)),
    (12, (4, 1), (1, 2)),
    (12, (3, 5), (1, 2)),
    (12, (5, 0), (1, 1)),
]


@pytest.mark.parametrize("m,q,ws", COMPOSITE_KEYS)
def test_composite_keys_need_exactly_w_forms(m, q, ws):
    D = len(q)
    ctx = Context(m, K=D, D=D, L=D)
    exps = [PowerSeries(ctx.mod, ctx.D, list(q))] + [0] * (m - 1)
    system = FoldSystem(ctx, "g", exps, "(%s)" % " ".join(
        map(str, range(1, m + 1))))
    for n, w in enumerate(ws, 1):
        assert len(system.key_forms(n)) == w == weierstrass_degree(system, n)
        assert key_images(system, n) == m ** n
        if w > 1:
            assert key_images(system, n, drop=1) < m ** n


@pytest.mark.parametrize("ps", [[[0], [1]], [[0], [2, 1]], [[0], [2]],
                                [[1, 1], [0, 0, 0, 1]]])
def test_key_forms_past_the_degree_bound(ps):
    # q has degree at most D, so its coefficients above D are 0 and every
    # key depth up to K gets complete forms, also past D + 2
    ctx = Context(2, K=10, D=3, L=3)
    system = FoldSystem(ctx, "g", [PowerSeries(ctx.mod, ctx.D, p)
                                   for p in ps], "(1 2)")
    for n in range(1, ctx.K + 1):
        assert key_images(system, n) == 2 ** n
        if len(system.key_forms(n)) > 1:
            assert key_images(system, n, drop=1) < 2 ** n


@pytest.fixture(scope="module")
def oracle_children():
    # test_fold_walk imports this module, so it is imported once it exists
    from test_fold_walk import oracle_children
    return oracle_children


@settings(max_examples=80, deadline=None)
@given(keyed_systems(), st.data())
def test_derived_child_keys_are_the_keys_of_the_built_children(
        oracle_children, case, data):
    # the derivation of the oracle walk, the one closure._fold_walk is
    # checked against; _fold_key is a bare int when there is one form
    system, depth = case
    depth = min(depth, system.ctx.L)
    q = data.draw(exponents(system))
    _, _, child = system._exponent_child(q)
    kids = [child(y) for y in range(system.ctx.m)]
    keys, build = oracle_children(system, depth)(q)
    keys = list(keys)
    assert len(keys) == system.ctx.m
    for y, kid in enumerate(kids):
        assert build(y) == kid
        assert keys[y] == linear_key(system, kid, depth)
        key = closure._fold_key(system, kid, depth)
        assert keys[y] == ((key,) if len(keys[y]) == 1 else key)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.data())
def test_one_digit_fold_closures_raise(m, data):
    # K = 1 keeps each p_y mod m only, which does not fix the closure (see
    # the next test), so every fold closure there raises, whatever it gets
    ctx = Context(m, K=1, D=1, L=1)
    cycle = [1] + data.draw(st.permutations(range(2, m + 1)))
    coeffs = st.lists(st.integers(-m * m, m * m), max_size=2)
    exps = [PowerSeries(ctx.mod, ctx.D, data.draw(coeffs)) for _ in range(m)]
    system = FoldSystem(ctx, "g", exps, Permutation.from_cycles([cycle], m))
    power = AutExpr(system, (("g", data.draw(exponents(system))),))
    for gens in ([system.generator()], [power], [system.generator(), power]):
        with pytest.raises(ContextError, match="need K >= 2"):
            state_closure(gens)


def test_one_digit_does_not_fix_the_closure():
    # the generic engine keeps exact exponents: p = (0, 0, -1, -1) and
    # (0, 0, 3, 3) give one fold system at K = 1, yet their generators
    # have 3 and 4 states to depth 1; with a second digit the fold walk
    # tells them apart and agrees with the generic engine
    counts = {}
    for K in (1, 2):
        ctx = Context(4, K=K, D=1, L=1)
        for ps in ((0, 0, -1, -1), (0, 0, 3, 3)):
            generic = System(ctx)
            g = generic.gen("g")
            generic.define("g", "(1 2 3 4)",
                           ["e" if p == 0 else g ** p for p in ps])
            fold = FoldSystem(ctx, "g", list(ps), "(1 2 3 4)")
            counts[K, ps] = (state_closure([g]).state_count(),
                             fold._defs)
            if K == 2:
                assert (state_closure([fold.generator()]).state_count()
                        == counts[K, ps][0])
    one, three = counts[1, (0, 0, -1, -1)], counts[1, (0, 0, 3, 3)]
    assert one[1] == three[1]
    assert (one[0], three[0]) == (3, 4)
    assert counts[2, (0, 0, -1, -1)][0] == 3
    assert counts[2, (0, 0, 3, 3)][0] == 4


# -------------------------------------------------------- keyed portraits

def rebuilt(system, word_engine=False):
    """The same fold system on a new context, so SELFSIM_CACHE is read
    again; with word_engine, every portrait, children included, is the
    word-memo expansion System._portrait through _decompose_normal."""
    old = system.ctx
    ctx = Context(old.m, K=old.K, D=old.D, L=old.L)
    twin = FoldSystem(ctx, system.name, [
        PowerSeries(ctx.mod, ctx.D, p.lifts()) for p in system.exponents],
        system.sigma)
    if word_engine:
        twin._portrait = types.MethodType(System._portrait, twin)
    return twin


def keyed_portraits(system, samples):
    """Each sample's portrait at every depth, and the generator's level
    permutations from its portraits."""
    L = system.ctx.L
    g = system.generator()
    return ([system._portrait((("g", q),), d)
             for q in samples for d in range(L, 0, -1)],
            [g.portrait(l).level_perm(l) for l in range(1, L + 1)])


def dag_nodes(portrait):
    """The distinct nodes of a portrait's DAG."""
    nodes, stack = set(), [portrait]
    while stack:
        node = stack.pop()
        if node not in nodes:
            nodes.add(node)
            stack.extend(node.children)
    return nodes


@settings(max_examples=60, deadline=None)
@given(keyed_systems(), st.data())
def test_keyed_portraits_recurse_once_per_new_memo_entry(case, data):
    # each child's key comes from its parent's, and _keyed_node is entered
    # only for a key the memo misses, so every call adds one entry; from an
    # empty memo, the first portrait's entries are its distinct nodes
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("SELFSIM_CACHE", raising=False)
        system = rebuilt(case[0])
        spy = mock.Mock(wraps=system._keyed_node)
        patch.setattr(system, "_keyed_node", spy)
        samples = data.draw(st.lists(exponents(system), min_size=1,
                                     max_size=4))
        for i, q in enumerate(samples):
            calls, size = spy.call_count, len(system._portrait_memo)
            node = system._portrait((("g", q),), data.draw(
                st.integers(1, system.ctx.L)))
            made = len(system._portrait_memo) - size
            assert spy.call_count - calls == made
            if i == 0:
                assert made == len(dag_nodes(node))


@settings(max_examples=60, deadline=None)
@given(keyed_systems(), st.data())
def test_keyed_portraits_match_the_word_expansion(case, data):
    system = case[0]
    L = system.ctx.L
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("SELFSIM_CACHE", raising=False)
        system = rebuilt(system)
        oracle = rebuilt(system, word_engine=True)
        samples = data.draw(st.lists(exponents(system), min_size=1,
                                     max_size=4))
        want, perms = keyed_portraits(system, samples)
        got = [oracle._portrait((("g", q),), d)
               for q in samples for d in range(L, 0, -1)]
        assert [a is b for a, b in zip(want, got)] == [True] * len(got)
        assert perms == [system.level_perm_fast(l) for l in range(1, L + 1)]
        # an exponent of the same class at depth d is a memo hit there
        for q in samples:
            d = data.draw(st.integers(1, L))
            node = system._portrait((("g", q),), d)
            size = len(system._portrait_memo)
            twin = same_class(system, q, d, data)
            assert system._portrait((("g", twin),), d) is node
            assert len(system._portrait_memo) == size
        patch.setenv("SELFSIM_CACHE", "1")
        bounded = rebuilt(system)
        assert bounded._portrait_memo.cap == 1
        assert keyed_portraits(bounded, samples) == (want, perms)
