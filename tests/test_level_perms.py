"""Level permutations and permutation products, against their loops.

`Portrait.level_perm` computes the images below each distinct DAG node
once per call and appends each child block with one comprehension;
`FoldSystem.level_perm_fast` applies each (letter, degree) term of the
digit recursion through one lift table.  The oracles kept here are the
per-vertex loops they replaced, which walk every vertex of the level and,
for the portrait, every shared node again at each vertex above it.
Products, inverses, powers, identities and both level permutations build
their images without the bijection check; each must give images that the
validating constructor accepts, equal to what the checked loops give.
"""

from hypothesis import given, settings, strategies as st

from selfsim.tree import Permutation, Portrait, _perm_tuple_pow

from test_fold_keys import fold_systems


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


@settings(max_examples=60, deadline=None)
@given(fold_systems())
def test_level_perm_fast_matches_the_vertex_loop(system):
    # fold_systems draws m in 2..4 and depth 1..6; the digit recursion does
    # not read the depth bound, so every level up to 6 is checked
    g = system.generator()
    for l in range(1, 7):
        got = system.level_perm_fast(l)
        assert validated(got) == got == level_perm_fast_loop(system, l)
        if l <= system.ctx.L:
            portrait = g.portrait(l)
            assert got == portrait.level_perm(l) == level_perm_loop(
                portrait, l)


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
