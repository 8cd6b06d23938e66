"""Tree engine tests.

Oracles come first and are independent of the engine: the adding machine
is modelled by integer increment (first letter least significant), level
permutations are recovered by brute-force action on every vertex word, and
small decompositions are worked out by hand in the comments.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from selfsim.adic import PowerSeries, parse_series
from selfsim.tree import (
    AutExpr, Context, ContextError, DepthExceeded, ExponentNotStabilized,
    FoldSystem, NotAbelian, Permutation, Portrait, ShapeMismatch, System,
    adding_machine, level_perm_fast,
)


# ---------------------------------------------------------------- oracles

def increment_image(u, m, n=1):
    """Image of vertex word u under the m-ary odometer to the n-th power.

    The first letter is the least significant digit, so the odometer is
    plain addition of n modulo m^len(u).
    """
    val = sum((letter - 1) * m ** i for i, letter in enumerate(u))
    val = (val + n) % (m ** len(u))
    return [(val // m ** i) % m + 1 for i in range(len(u))]


def word_index(u, m):
    """Lexicographic vertex number, first letter most significant."""
    idx = 0
    for letter in u:
        idx = idx * m + (letter - 1)
    return idx


def act_level_perm(expr, l):
    """Level-l permutation recovered by acting on every vertex word."""
    m = expr.system.ctx.m
    images = [0] * (m ** l)
    for u in itertools.product(range(1, m + 1), repeat=l):
        img, _ = expr.act(list(u))
        images[word_index(u, m)] = word_index(img, m) + 1
    return Permutation(images)


def binary_pair():
    """m=2 generic system with the rooted swap s and the odometer b."""
    ctx = Context(2, K=10, D=10, L=10)
    sys = System(ctx)
    b = sys.gen("b")
    sys.define("s", "(1 2)", ["e", "e"])
    sys.define("b", "(1 2)", ["e", b])
    return ctx, sys, sys.gen("s"), b


# ----------------------------------------------------------- permutations

def test_cycle_roundtrip():
    p = Permutation.from_cycles("(1 2 3 4)", 4)
    assert p.images == (2, 3, 4, 1)
    assert repr(p) == "(1 2 3 4)"
    assert p.apply(4) == 1
    assert (p * p).images == (3, 4, 1, 2)
    assert p.inverse().images == (4, 1, 2, 3)
    assert p.order() == 4
    assert (p ** 4).is_identity()
    assert (p ** -1) == p.inverse()


def test_cycle_list_and_validation():
    p = Permutation.from_cycles([(1, 3), (2, 4)], 4)
    assert p.images == (3, 4, 1, 2)
    with pytest.raises(ValueError):
        Permutation.from_cycles("(1 2", 4)
    with pytest.raises(ValueError):
        Permutation.from_cycles("(1 5)", 4)
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


def test_permutation_composition_is_right_action():
    # apply p then q: 1 -> 2 under p, 2 -> 3 under q
    p = Permutation.from_cycles("(1 2)", 3)
    q = Permutation.from_cycles("(2 3)", 3)
    assert (p * q).apply(1) == 3


# -------------------------------------------------- odometer against oracle

def test_odometer_action_matches_increment():
    ctx = Context(2, K=10, D=10, L=10)
    a = adding_machine(ctx)
    for l in range(1, 9):
        for u in itertools.product((1, 2), repeat=l):
            img, _ = a.act(list(u))
            assert img == increment_image(list(u), 2, 1)


def test_odometer_powers_match_increment():
    ctx = Context(3, K=8, D=8, L=8)
    a = adding_machine(ctx)
    for n in (-7, -1, 0, 1, 2, 5, 26, 27):
        an = a ** n
        for u in itertools.product((1, 2, 3), repeat=4):
            img, _ = an.act(list(u))
            assert img == increment_image(list(u), 3, n), (n, u)


def test_odometer_carry_state():
    # after the all-m word the machine carries: the residual is a itself
    ctx = Context(2, K=8, D=8, L=8)
    a = adding_machine(ctx)
    img, residual = a.act([2, 2, 2])
    assert img == [1, 1, 1]
    assert residual.equal_to_depth(a, 5)
    # no carry: residual is the identity
    img, residual = a.act([1, 2, 2])
    assert img == [2, 2, 2]
    assert residual.is_identity(5)


def test_odometer_order_lower_bound():
    # a^(2^4) fixes level 4 but not level 5
    ctx = Context(2, K=8, D=8, L=8)
    a = adding_machine(ctx)
    p16 = a ** 16
    assert p16.is_identity(4)
    assert not p16.is_identity(5)


# ------------------------------------------------- hand-worked decompositions

def test_binary_hand_decompositions():
    ctx, sys, s, b = binary_pair()
    # b*b = (b, b) with trivial root
    root, kids = (b * b).decompose()
    assert root.is_identity()
    assert kids[0].equal_to_depth(b, 8) and kids[1].equal_to_depth(b, 8)
    # b*s = (e, b) with trivial root
    root, kids = (b * s).decompose()
    assert root.is_identity()
    assert kids[0].is_identity(8)
    assert kids[1].equal_to_depth(b, 8)
    # s*b = (b, e) with trivial root
    root, kids = (s * b).decompose()
    assert root.is_identity()
    assert kids[0].equal_to_depth(b, 8)
    assert kids[1].is_identity(8)
    # s*s = e on the nose
    assert (s * s).is_identity()


def test_inverse_formula_by_hand():
    # g = (u, v) rho with rho = (1 2): g^-1 = (v^-1, u^-1) rho
    ctx = Context(2, K=8, D=8, L=8)
    sys = System(ctx)
    g = sys.gen("g")
    sys.define("u", "(1 2)", ["e", "e"])
    u = sys.gen("u")
    sys.define("g", "(1 2)", [u, "e"])  # g = (u, e)(1 2)
    root, kids = sys.gen("g").inverse().decompose()
    assert root == Permutation.from_cycles("(1 2)", 2)
    assert kids[0].is_identity(6)
    assert kids[1].equal_to_depth(u.inverse(), 6)


def test_portrait_depth3_frozen():
    ctx, sys, s, b = binary_pair()
    p = b.portrait(3)
    nodes = [perm.images for perm in p.nodes_bfs()]
    assert nodes == [(2, 1),
                     (1, 2), (2, 1),
                     (1, 2), (1, 2), (1, 2), (2, 1)]
    assert p.depth == 3
    assert p.node_count() == 7


def test_portrait_json_roundtrip_and_dot():
    ctx, sys, s, b = binary_pair()
    p = (b * s).portrait(4)
    again = Portrait.from_json(p.to_json())
    assert again == p
    dot = b.portrait(2).to_dot()
    assert "digraph" in dot and "->" in dot


def test_identity_portrait_and_fast_path():
    ctx, sys, s, b = binary_pair()
    e = sys.identity()
    assert e.is_identity()
    assert e.portrait(4).is_identity()
    assert (b * b.inverse()).is_identity()
    assert (s * b).equal_to_depth(s * b, 10)


# ---------------------------------------------------------- diagonal, state

def test_diagonal_grafts_one_level_down():
    ctx, sys, s, b = binary_pair()
    d = b.diagonal(1)
    for u in itertools.product((1, 2), repeat=5):
        for first in (1, 2):
            img, _ = d.act([first] + list(u))
            assert img == [first] + increment_image(list(u), 2, 1)


def test_state_walks_the_tree():
    ctx, sys, s, b = binary_pair()
    assert b.state([2]).equal_to_depth(b, 8)
    assert b.state([1]).is_identity(8)
    assert b.state([2, 2]).equal_to_depth(b, 7)
    with pytest.raises(DepthExceeded):
        b.act([1] * 11)
    with pytest.raises(ValueError):
        b.act([3])


# ----------------------------------------------------------- fold engine

def test_fold_matches_generic_engine():
    # same recursion g = (e, g)(1 2) built through both engines
    ctx = Context(2, K=8, D=8, L=8)
    fold = adding_machine(ctx)
    _, sys, s, b = binary_pair()
    for n in (-5, -1, 1, 2, 3, 9):
        pf = (fold ** n).portrait(6)
        pg = (b ** n).portrait(6)
        assert pf == pg, n


def test_fold_pow_series_matches_generic_expansion():
    ctx = Context(2, K=9, D=9, L=9)
    fold = adding_machine(ctx)
    _, sys, s, b = binary_pair()
    for text in ("1 + x", "x", "2 - x", "1 + x^2", "3 + 2x + x^3"):
        pf = fold.pow_series(text).portrait(6)
        # generic expansion: product of shifted integer powers
        q = parse_series(text, sys.ctx.mod, sys.ctx.D)
        acc = sys.identity()
        for d, c in enumerate(q.lifts()):
            c = c if c <= sys.ctx.mod.mK // 2 else c - sys.ctx.mod.mK
            acc = acc * (b ** c).diagonal(d)
        assert pf == acc.portrait(6), text


def test_example_single_generator_m4():
    # the m=4 machine a = (e, e, e, a^2)(1 2 3 4)
    ctx = Context(4, K=10, D=10, L=10)
    sys = FoldSystem(ctx, "a", [0, 0, 0, 2], "(1 2 3 4)")
    a = sys.generator()
    sq = a * a
    root, kids = sq.decompose()
    assert root == Permutation.from_cycles("(1 3)(2 4)", 4)
    # source-indexed children of a^2
    assert kids[0].is_identity(8)
    assert kids[1].is_identity(8)
    assert kids[2].equal_to_depth(sq, 8)
    assert kids[3].equal_to_depth(sq, 8)
    # printed with entries indexed through the generator's own cycle the
    # same data reads (a^2, e, e, a^2): child at source y sits at slot (y)s
    displayed = [sq, sys.identity(), sys.identity(), sq]
    for y in (1, 2, 3, 4):
        assert kids[y - 1].equal_to_depth(displayed[sys.sigma.apply(y) - 1], 8)


def test_annihilator_kills_generator():
    ctx = Context(4, K=10, D=10, L=10)
    sys = FoldSystem(ctx, "a", [0, 0, 0, 2], "(1 2 3 4)")
    a = sys.generator()
    r = sys.annihilator()
    assert r.lifts()[0] == 4 and a.pow_series(r).is_identity()
    # generalized adding machines: annihilator is m - x^j
    for m, j in ((2, 1), (2, 3), (3, 2), (5, 1)):
        ctx = Context(m, K=8, D=8, L=8)
        g = adding_machine(ctx, j)
        r = g.system.annihilator()
        assert g.pow_series(r).is_identity()
        want = [m] + [0] * ctx.D
        want[j] = (-1) % ctx.mod.mK
        assert r.lifts() == tuple(want)


def test_fold_exponent_additivity():
    ctx = Context(3, K=8, D=8, L=8)
    a = adding_machine(ctx, 2)
    for i, j in ((2, 5), (-3, 3), (7, -11), (0, 4)):
        assert ((a ** i) * (a ** j)).equal_to_depth(a ** (i + j))


@settings(max_examples=60, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40), st.sampled_from([2, 3, 4]))
def test_fold_power_homomorphism_property(i, j, m):
    ctx = Context(m, K=6, D=6, L=6)
    a = adding_machine(ctx)
    assert ((a ** i) * (a ** j)).equal_to_depth(a ** (i + j))


def test_fold_series_multiplicativity():
    # (a^q1)^q2 = a^(q1*q2) for the abelian fold systems
    ctx = Context(2, K=8, D=8, L=8)
    a = adding_machine(ctx)
    q1 = parse_series("1 + x", ctx.mod, ctx.D)
    q2 = parse_series("2 + x^2", ctx.mod, ctx.D)
    lhs = a.pow_series(q1).pow_series(q2)
    rhs = a.pow_series(q1 * q2)
    assert lhs.equal_to_depth(rhs)


# ------------------------------------------------------- level permutations

def test_level_perm_against_action_oracle():
    ctx, sys, s, b = binary_pair()
    for expr in (b, s, b * s, b ** 3, b.inverse()):
        for l in (1, 2, 3, 4):
            assert expr.portrait(l).level_perm(l) == act_level_perm(expr, l)


def test_level_perm_fast_matches_portrait_and_oracle():
    for m, j in ((2, 1), (2, 2), (3, 1), (4, 2)):
        ctx = Context(m, K=7, D=7, L=7)
        a = adding_machine(ctx, j)
        for l in (1, 2, 3, 4):
            fast = level_perm_fast(a, l)
            assert fast == a.portrait(l).level_perm(l), (m, j, l)
            assert fast == act_level_perm(a, l), (m, j, l)


def test_level_perm_fast_odometer_is_full_cycle():
    ctx = Context(2, K=10, D=10, L=10)
    a = adding_machine(ctx)
    for l in range(1, 9):
        p = level_perm_fast(a, l)
        assert p.is_full_cycle()
        assert p.order() == 2 ** l


def test_level_perm_fast_shape_errors():
    ctx, sys, s, b = binary_pair()
    with pytest.raises(ShapeMismatch):
        level_perm_fast(b, 3)
    ctx2 = Context(2, K=6, D=6, L=6)
    a = adding_machine(ctx2)
    with pytest.raises(ShapeMismatch):
        level_perm_fast(a * a, 3)


# -------------------------------------------------------------- exponents

def test_pow_series_stabilization_guard():
    # order-3 rooted cycle in the 4-ary tree: scalar exponents whose top
    # digit flips the value mod 3 cannot stabilize
    ctx = Context(4, K=5, D=5, L=5)
    sys = System(ctx)
    sys.define("s", "(1 2 3)", ["e", "e", "e", "e"])
    s = sys.gen("s")
    top = [0] * (ctx.D + 1)
    q = PowerSeries(ctx.mod, ctx.D, [4 ** (ctx.K - 1)])
    with pytest.raises(ExponentNotStabilized):
        s.pow_series(q)
    # small scalars are exact and fine
    assert s.pow_series(3).is_identity()
    assert s.pow_series(-1).equal_to_depth(s * s)


def test_pow_series_needs_abelian_for_words():
    ctx, sys, s, b = binary_pair()
    with pytest.raises(NotAbelian):
        (s * b).pow_series("1 + x")
    # a plain generator power is allowed
    assert b.pow_series("1").equal_to_depth(b)


def test_pow_series_accepts_int_scalar_series_text():
    ctx = Context(2, K=8, D=8, L=8)
    a = adding_machine(ctx)
    one = a.pow_series(1)
    assert one.equal_to_depth(a)
    via_text = a.pow_series("2 - x")
    via_series = a.pow_series(parse_series("2 - x", ctx.mod, ctx.D))
    assert via_text.equal_to_depth(via_series)


def test_context_validation():
    with pytest.raises(ContextError):
        Context(2, K=4, D=8, L=8)
    with pytest.raises(ContextError):
        Context(2, K=8, D=4, L=8)
    ctx = Context(2, K=8, D=8, L=8)
    other = Context(3, K=8, D=8, L=8)
    with pytest.raises(ContextError):
        ctx.series(PowerSeries(other.mod, other.D, [1]))


def test_depth_below_one_is_rejected():
    with pytest.raises(ContextError):
        Context(2, K=8, D=8, L=0)
    a = adding_machine(Context(2, K=6, D=6, L=6))
    for depth in (0, -1):
        with pytest.raises(DepthExceeded):
            a.portrait(depth)


def test_permutation_order_counts_fixed_points_as_one():
    assert Permutation.identity(5).order() == 1
    assert Permutation.from_cycles("(1 2)(3 4 5)", 6).order() == 6


def test_portrait_depth_guard():
    ctx = Context(2, K=6, D=6, L=6)
    a = adding_machine(ctx)
    with pytest.raises(DepthExceeded):
        a.portrait(7)
    with pytest.raises(DepthExceeded):
        a.is_identity(9)


# ----------------------------------------------------- randomized properties

@st.composite
def binary_words(draw):
    return draw(st.lists(st.sampled_from("sbB"), min_size=0, max_size=6))


_shared = binary_pair()


def _expr_of(codes):
    ctx, sys, s, b = _shared
    acc = sys.identity()
    for c in codes:
        acc = acc * {"s": s, "b": b, "B": b.inverse()}[c]
    return acc


@settings(max_examples=80, deadline=None)
@given(binary_words(), binary_words(),
       st.lists(st.sampled_from([1, 2]), min_size=1, max_size=8))
def test_action_is_right_homomorphism(w1, w2, u):
    e1, e2 = _expr_of(w1), _expr_of(w2)
    img_prod, _ = (e1 * e2).act(u)
    mid, _ = e1.act(u)
    img_seq, _ = e2.act(mid)
    assert img_prod == img_seq


@settings(max_examples=60, deadline=None)
@given(binary_words(), st.lists(st.sampled_from([1, 2]), min_size=1, max_size=8))
def test_inverse_undoes_action(w, u):
    e = _expr_of(w)
    img, _ = e.act(u)
    back, _ = e.inverse().act(img)
    assert back == u


@settings(max_examples=40, deadline=None)
@given(binary_words())
def test_portrait_roundtrip_property(w):
    p = _expr_of(w).portrait(5)
    assert Portrait.from_json(p.to_json()) == p


@settings(max_examples=40, deadline=None)
@given(binary_words(), binary_words())
def test_root_of_product_is_product_of_roots(w1, w2):
    e1, e2 = _expr_of(w1), _expr_of(w2)
    assert (e1 * e2).root() == e1.root() * e2.root()


def test_definition_introspection():
    ctx, sys, s, b = binary_pair()
    d = sys.definition("b")
    assert d.name == "b"
    assert d.root == Permutation.from_cycles("(1 2)", 2)
    assert d.entries[0].is_identity()
    assert d.entries[1].equal_to_depth(b, 8)
    assert "b" in repr(d)
    assert sorted(sys.names()) == ["b", "s"]
