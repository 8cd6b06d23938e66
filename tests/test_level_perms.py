"""Level permutations and permutation products, against their loops.

`Portrait.level_perm` computes the images below each distinct DAG node
once per call and appends each child block with one comprehension;
`FoldSystem.level_perm_fast` finds the cycles of each lower level once per
call, takes each power of it from slices of those cycles and one gather,
and applies each (letter, degree) term of the digit recursion through one
lift table.  The oracles kept here are the per-vertex loops they replaced,
which walk every vertex of the level and, for the portrait, every shared
node again at each vertex above it; the fast recursion's oracle takes
each power by walking the cycles one point at a time (`_perm_tuple_pow`).
Its draws are the fold systems of the other fold tests (m 2..4, small K
and D, sometimes q = 0) and systems that reach m = 5, about half of them
made with a non-unit q(0), so that their level permutations from level 2
on have several cycles.
Products, inverses, powers, identities and both level permutations build
their images without the bijection check; each must give images that the
validating constructor accepts, equal to what the checked loops give.
"""

from math import gcd

from hypothesis import given, settings, strategies as st

from selfsim.adic import PowerSeries
from selfsim.tree import Context, FoldSystem, Permutation, Portrait

from test_fold_keys import fold_systems


def _perm_tuple_pow(tup, n):
    """Power of a 0-based permutation tuple via cycle decomposition."""
    size = len(tup)
    out = [0] * size
    seen = [False] * size
    for start in range(size):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        nxt = tup[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = tup[nxt]
        ln = len(cyc)
        shift = n % ln
        for i, a in enumerate(cyc):
            out[a] = cyc[(i + shift) % ln]
    return tuple(out)


def level_perm_loop(portrait, l):
    """Portrait.level_perm as a per-vertex loop over the whole level."""
    m = portrait.m

    def images(node, lev):
        if lev == 1:
            return [img - 1 for img in node.root.images]
        block = m ** (lev - 1)
        out = [0] * (m * block)
        for y in range(1, m + 1):
            sub = images(node.children[y - 1], lev - 1)
            base = (y - 1) * block
            tbase = (node.root.apply(y) - 1) * block
            for w in range(block):
                out[base + w] = tbase + sub[w]
        return out

    return Permutation(i + 1 for i in images(portrait, l))


def level_perm_fast_loop(system, l):
    """FoldSystem.level_perm_fast with a divmod per vertex and term."""
    m = system.ctx.m
    sig = [None, tuple(i - 1 for i in system.sigma.images)]
    for lev in range(2, l + 1):
        block = m ** (lev - 1)
        out = [0] * (m * block)
        for y in range(1, m + 1):
            ty = tuple(range(block))
            for d, p in enumerate(system._plifts[y - 1]):
                if d > lev - 2:
                    break
                sub = lev - 1 - d
                e = p % (m ** sub)
                if e == 0:
                    continue
                piece = _perm_tuple_pow(sig[sub], e)
                width = m ** sub
                lifted = []
                for idx in ty:
                    u, vv = divmod(idx, width)
                    lifted.append(u * width + piece[vv])
                ty = tuple(lifted)
            base = (y - 1) * block
            tbase = (system.sigma.apply(y) - 1) * block
            for w in range(block):
                out[base + w] = tbase + ty[w]
        sig.append(tuple(out))
    return Permutation(i + 1 for i in sig[l])


def permutations(m):
    return st.permutations(range(1, m + 1)).map(Permutation)


def validated(perm):
    """perm's images through the checking constructor, which raises
    ValueError unless they are a bijection of 1..m."""
    return Permutation(perm.images)


@st.composite
def shared_portraits(draw):
    """A portrait of depth 1..5 over m in 2..4 whose children are drawn,
    with repeats, from a small pool per depth, so most nodes are shared;
    some nodes bypass the intern table, so equal nodes may be distinct,
    and nodes of every depth share root objects."""
    m = draw(st.integers(2, 4))
    depth = draw(st.integers(1, 5 if m < 4 else 4))
    roots = st.sampled_from(draw(st.lists(permutations(m), min_size=1,
                                          max_size=3)))
    pool = [Portrait.make(draw(roots), ()) for _ in range(draw(
        st.integers(1, 3)))]
    for _ in range(depth - 1):
        nodes = []
        for _ in range(draw(st.integers(1, 3))):
            kids = tuple(draw(st.sampled_from(pool)) for _ in range(m))
            build = Portrait.make if draw(st.booleans()) else Portrait
            nodes.append(build(draw(roots), kids))
        pool = nodes
    return draw(st.sampled_from(pool))


@settings(max_examples=100, deadline=None)
@given(shared_portraits())
def test_portrait_level_perm_matches_the_vertex_loop(portrait):
    for l in range(1, portrait.depth + 1):
        got = portrait.level_perm(l)
        assert validated(got) == got == level_perm_loop(portrait, l)


@st.composite
def level_systems(draw):
    """A fold system over m in 2..5 with exponents of degree below 6.
    When the drawn flag is set, q(0) = p_1(0) + ... + p_m(0) is a multiple
    of a prime of m, a non-unit, so the level-2 permutation, whose blocks
    g^m moves by q(0), is not one cycle."""
    m = draw(st.integers(2, 5))
    ctx = Context(m, K=7, D=6, L=draw(st.integers(1, 6 if m < 5 else 5)))
    cycle = [1] + draw(st.permutations(range(2, m + 1)))
    exps = [draw(st.lists(st.integers(-m * m, m * m), max_size=6))
            for _ in range(m)]
    if draw(st.booleans()):
        p = next(p for p in range(2, m + 1) if m % p == 0)
        exps[-1] = (exps[-1] or [0])[:]
        exps[-1][0] += draw(st.integers(0, m // p - 1)) * p - sum(
            e[0] for e in exps if e)
    return FoldSystem(ctx, "g", [PowerSeries(ctx.mod, ctx.D, e) for e in exps],
                      Permutation.from_cycles([cycle], m))


@settings(max_examples=140, deadline=None)
@given(st.one_of(fold_systems(), level_systems()))
def test_level_perm_fast_matches_the_vertex_loop(system):
    # fold_systems draws m in 2..4 and depth 1..6; the digit recursion does
    # not read the depth bound, so every level up to 6 (5 at m = 5) is
    # checked, and the portrait's up to L
    g = system.generator()
    m = system.ctx.m
    for l in range(1, 7 if m < 5 else 6):
        got = system.level_perm_fast(l)
        assert validated(got) == got == level_perm_fast_loop(system, l)
        if l <= system.ctx.L:
            portrait = g.portrait(l)
            assert got == portrait.level_perm(l) == level_perm_loop(
                portrait, l)
    if gcd(system._qsum[0], m) > 1:
        assert not system.level_perm_fast(2).is_full_cycle()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda m: st.tuples(permutations(m), permutations(m))),
    st.integers(-30, 30))
def test_unchecked_permutations_are_the_checked_results(pair, n):
    a, b = pair
    m = a.m
    product = Permutation(b.images[i - 1] for i in a.images)
    inverse = [0] * m
    for i, img in enumerate(a.images):
        inverse[img - 1] = i + 1
    inverse = Permutation(inverse)
    power = Permutation(range(1, m + 1))
    for _ in range(abs(n)):
        power = Permutation(
            (a if n > 0 else inverse).images[i - 1] for i in power.images)
    assert validated(a * b) == a * b == product
    assert validated(a.inverse()) == a.inverse() == inverse
    assert validated(a ** n) == a ** n == power
    identity = Permutation.identity(m)
    assert validated(identity) == identity == Permutation(range(1, m + 1))
    assert type(a * b) is type(identity) is Permutation
