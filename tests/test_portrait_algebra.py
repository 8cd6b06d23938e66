"""Portrait algebra on the shared DAG, against its oracles.

Products, inverses and orders of portraits are memoized in computed tables
keyed on interned nodes, and the order comes from the cycle formula.  The
oracles here are independent of those tables: the level permutation of a
portrait (enumeration of every vertex of a level) and a plain tree-walk
product that builds fresh, uninterned nodes.
"""

from hypothesis import given, settings, strategies as st

from selfsim.adic import PowerSeries
from selfsim.tree import Context, FoldSystem, Permutation, Portrait, System


def walk_mul(p, q):
    """Unmemoized product: walks every vertex and interns nothing."""
    kids = tuple(walk_mul(child, q.children[p.root.apply(y + 1) - 1])
                 for y, child in enumerate(p.children))
    return Portrait(p.root * q.root, kids)


def grigorchuk():
    """The first Grigorchuk group: a, b = (a, c), c = (a, d), d = (e, b)."""
    sys = System(Context(2, K=6, D=6, L=6))
    b, c, d = sys.gen("b"), sys.gen("c"), sys.gen("d")
    a = sys.define("a", "(1 2)", ["e", "e"])
    sys.define("b", "()", [a, c])
    sys.define("c", "()", [a, d])
    sys.define("d", "()", ["e", b])
    return [a, b, c, d]


def abelian_pair():
    """The commuting pair a = (b, e)(1 2), b = (a, a)."""
    sys = System(Context(2, K=6, D=6, L=6))
    b = sys.gen("b")
    a = sys.define("a", "(1 2)", [b, "e"])
    sys.define("b", "()", [a, a])
    return [a, b]


def ternary_pair():
    """x = (x, y, e)(1 2 3) and y = (y, e, x)(1 2): a non-abelian pair whose
    root 3-cycle carries states that do not commute, so the order of the
    state product depends on the order of its factors."""
    sys = System(Context(3, K=6, D=6, L=6))
    x, y = sys.gen("x"), sys.gen("y")
    sys.define("x", "(1 2 3)", [x, y, "e"])
    sys.define("y", "(1 2)", [y, "e", x])
    return [x, y]


GENERIC = {"grigorchuk": grigorchuk(), "abelian-pair": abelian_pair(),
           "ternary-pair": ternary_pair()}
POWERS = st.sampled_from([-2, -1, 1, 2, 3])


def _word(gens, atoms):
    acc = gens[0].system.identity()
    for i, n in atoms:
        acc = acc * gens[i % len(gens)] ** n
    return acc


@st.composite
def generic_pairs(draw):
    """Two words over one generic recursion and a depth."""
    gens = GENERIC[draw(st.sampled_from(sorted(GENERIC)))]
    atoms = st.lists(st.tuples(st.integers(0, 3), POWERS), max_size=5)
    depth = draw(st.integers(1, 6))
    return (_word(gens, draw(atoms)).portrait(depth),
            _word(gens, draw(atoms)).portrait(depth))


@st.composite
def fold_pairs(draw):
    """Two words in diagonal powers of a random fold generator, m 2..4."""
    m = draw(st.integers(2, 4))
    ctx = Context(m, K=6, D=6, L=6)
    cycle = [1] + draw(st.permutations(range(2, m + 1)))
    sigma = Permutation.from_cycles([cycle], m)
    coeffs = st.lists(st.integers(0, m * m - 1), max_size=3)
    exps = [PowerSeries(ctx.mod, ctx.D, draw(coeffs)) for _ in range(m)]
    g = FoldSystem(ctx, "g", exps, sigma).generator()
    atoms = st.lists(st.tuples(st.integers(0, 2), POWERS), max_size=4)
    depth = draw(st.integers(1, 6))

    def word(pairs):
        acc = g.system.identity()
        for shift, n in pairs:
            acc = acc * (g ** n).diagonal(shift)
        return acc.portrait(depth)

    return word(draw(atoms)), word(draw(atoms))


PAIRS = st.one_of(generic_pairs(), fold_pairs())


@settings(max_examples=80, deadline=None)
@given(PAIRS)
def test_order_matches_level_permutation(pair):
    for p in pair:
        assert p.order() == p.level_perm(p.depth).order()


@settings(max_examples=80, deadline=None)
@given(PAIRS)
def test_product_acts_levelwise(pair):
    p, q = pair
    for l in range(1, p.depth + 1):
        assert (p * q).level_perm(l) == p.level_perm(l) * q.level_perm(l)


@settings(max_examples=60, deadline=None)
@given(PAIRS)
def test_inverse_cancels(pair):
    p, q = pair
    assert (p * p.inverse()).is_identity()
    assert (q.inverse() * q).is_identity()
    assert (p * q).inverse() == q.inverse() * p.inverse()


@settings(max_examples=60, deadline=None)
@given(PAIRS)
def test_memoized_product_matches_tree_walk(pair):
    p, q = pair
    assert p * q == walk_mul(p, q)
    assert q * p == walk_mul(q, p)


@settings(max_examples=40, deadline=None)
@given(PAIRS)
def test_results_survive_clearing_the_tables(pair):
    p, q = pair
    product, inverse, order = p * q, p.inverse(), (p * q).order()
    Portrait.clear_tables()
    assert p * q == product
    Portrait.clear_tables()
    assert p.inverse() == inverse
    Portrait.clear_tables()
    assert (p * q).order() == order
    # nodes interned before the clear mix freely with nodes made after it
    assert (p * q) * inverse == walk_mul(product, inverse)


def test_order_by_hand():
    # (1 2)(3) at the root with children (a, b, c): the 2-cycle carries
    # the state a*b, the fixed point carries c.
    s = Portrait.make(Permutation.from_cycles("(1 2 3)", 3), ())
    t = Portrait.make(Permutation.from_cycles("(1 2)", 3), ())
    e = Portrait.make(Permutation.identity(3), ())
    node = Portrait.make(Permutation.from_cycles("(1 2)", 3), (s, s, t))
    assert node.order() == 6      # lcm(2 * ord(s*s), 1 * ord(t)) = lcm(6, 2)
    node = Portrait.make(Permutation.from_cycles("(1 2)", 3), (s, s.inverse(), e))
    assert node.order() == 2      # s * s^-1 is trivial
    assert node.order() == node.level_perm(2).order()
