"""Group-triple representations, transversal changes, and conjugators."""

import random

import pytest

from selfsim.adic import NonUnit, PowerSeries
from selfsim.intlin import hnf, lattice_index, left_kernel, solve_left
from selfsim.tree import (
    AutExpr, Context, DepthExceeded, FoldSystem, Permutation, System,
    ShapeMismatch, adding_machine,
)
from selfsim.tree import _identity_portrait
from selfsim.endo import (
    FgAbelianGroup, NonUnitSum, SelfSimilarMachine, StageRootDrift,
    Transversal, VirtualEndo,
    coset_permutation, closed_form_conjugator, closed_form_sequences, phi_rep,
    adding_machine_conjugator, transversal_change, transversal_conjugator,
    triple_from_json,
)


# ------------------------------------------------------ integer lattice work

def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_hnf_hand_cases():
    h, u, piv = hnf([[4], [6]], 1)
    assert h[0] == [2] and all(r == [0] for r in h[1:])
    assert piv == [(0, 0)]
    h, u, piv = hnf([[2, 0], [0, 3]], 2)
    assert h[0] == [2, 0] and h[1] == [0, 3]
    h, u, piv = hnf([[1, 1], [0, 2]], 2)
    assert h[0] == [1, 1] and h[1] == [0, 2]


def test_hnf_transform_random():
    rng = random.Random(5)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 3)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        h, u, piv = hnf(a, cols)
        assert matmul(u, a) == h
        for idx, (r, c) in enumerate(piv):
            assert h[r][c] > 0
            assert all(v == 0 for v in h[r][:c])
            for rr in range(r):
                assert 0 <= h[rr][c] < h[r][c]
        rank = len(piv)
        assert all(all(v == 0 for v in row) for row in h[rank:])


def test_solve_left():
    assert solve_left([[2, 0], [0, 3]], [4, 9], 2) == [2, 3]
    assert solve_left([[2, 0], [0, 3]], [3, 1], 2) is None
    assert solve_left([[2, 0], [0, 3]], [0, 0], 2) == [0, 0]
    x = solve_left([[2, 1], [1, 1]], [5, 4], 2)
    assert x[0] * 2 + x[1] * 1 == 5 and x[0] * 1 + x[1] * 1 == 4


def test_solve_left_random():
    rng = random.Random(9)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 3)
        a = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        y = [rng.randint(-4, 4) for _ in range(rows)]
        target = [sum(y[i] * a[i][j] for i in range(rows)) for j in range(cols)]
        x = solve_left(a, target, cols)
        assert x is not None
        assert [sum(x[i] * a[i][j] for i in range(rows))
                for j in range(cols)] == target


def test_lattice_index_and_kernel():
    assert lattice_index([[2, 0], [0, 3]], 2) == 6
    assert lattice_index([[1, 1], [0, 2]], 2) == 2
    assert lattice_index([[2, 0]], 2) is None
    assert lattice_index([[2], [4]], 1) == 2
    kern = left_kernel([[2], [4]], 1)
    assert len(kern) == 1
    c = kern[0]
    assert c[0] * 2 + c[1] * 4 == 0 and any(c)
    assert left_kernel([[2, 0], [0, 3]], 2) == []


# ------------------------------------------------------------ group plumbing

def test_group_normalize():
    g = FgAbelianGroup(1, (4,))
    assert g.normalize((5, 7)) == (5, 3)
    assert g.add((1, 3), (2, 2)) == (3, 1)
    assert g.neg((1, 1)) == (-1, 3)
    assert g.scale((2, 3), 3) == (6, 1)
    with pytest.raises(ValueError):
        g.normalize((1,))
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        FgAbelianGroup(-1)
    assert repr(FgAbelianGroup(2, (2, 3))) == "Z + Z + Z/2 + Z/3"


def binary_endo():
    group = FgAbelianGroup(1)
    return VirtualEndo(group, [[2]], [[1]])


def test_endo_validation():
    v = binary_endo()
    assert v.index == 2
    assert v.contains((4,)) and not v.contains((3,))
    assert v.apply_f((6,)) == (3,)
    with pytest.raises(ValueError):
        v.apply_f((1,))
    with pytest.raises(ValueError):
        VirtualEndo(FgAbelianGroup(1), [[1]], [[1]])      # index 1
    with pytest.raises(ValueError):
        VirtualEndo(FgAbelianGroup(1), [[0]], [[0]])      # infinite index
    with pytest.raises(ValueError):
        VirtualEndo(FgAbelianGroup(1), [[2]], [[1], [1]])
    z4 = FgAbelianGroup(0, (4,))
    with pytest.raises(ValueError):
        VirtualEndo(z4, [[2]], [[1]])                     # 2+2=0 but 1+1!=0
    v4 = VirtualEndo(z4, [[2]], [[2]])
    assert v4.index == 2 and v4.apply_f((2,)) == (2,)


def test_transversal_validation():
    v = binary_endo()
    with pytest.raises(ValueError):
        Transversal(v, [(0,), (2,)])
    with pytest.raises(ValueError):
        Transversal(v, [(0,)])
    t = Transversal(v, [(0,), (1,)])
    assert t.position((7,)) == 2 and t.position((-4,)) == 1


def test_coset_permutation_examples():
    v = binary_endo()
    t = Transversal(v, [(0,), (1,)])
    assert coset_permutation((0,), t).is_identity()
    assert coset_permutation((1,), t) == Permutation((2, 1))
    group = FgAbelianGroup(2)
    v2 = VirtualEndo(group, [[2, 0], [0, 1]], [[1, 0], [0, 1]])
    t2 = Transversal(v2, [(0, 0), (1, 0)])
    assert coset_permutation((1, 5), t2) == Permutation((2, 1))
    assert coset_permutation((2, 3), t2).is_identity()


# --------------------------------------------------------- the machine build

def test_machine_nine_transversals():
    v = binary_endo()
    for k in range(3):
        for l in range(3):
            t = Transversal(v, [(2 * k,), (2 * l + 1,)])
            rep = phi_rep(v, t, ctx=Context(2, K=10, D=10, L=10))
            fold = FoldSystem(Context(2, K=10, D=10, L=10), "a",
                              (k - l, l - k + 1), "(1 2)")
            assert rep.of((1,)).portrait(8) == fold.generator().portrait(8)


def test_machine_is_homomorphism():
    v = binary_endo()
    t = Transversal(v, [(0,), (1,)])
    rep = phi_rep(v, t, ctx=Context(2, K=10, D=10, L=10))
    rng = random.Random(7)
    for _ in range(12):
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        prod = rep.of((a,)) * rep.of((b,))
        assert prod.equal_to_depth(rep.of((a + b,)), 7)
    assert rep.of((0,)).is_identity()


def test_machine_h_image_property():
    v = binary_endo()
    t = Transversal(v, [(0,), (1,)])
    rep = phi_rep(v, t, ctx=Context(2, K=10, D=10, L=10))
    for h in [2, 4, -6, 10]:
        root, kids = rep.of((h,)).decompose()
        assert root.is_identity()
        image = rep.of(v.apply_f((h,)))
        assert kids[0].equal_to_depth(image, 9)
        assert kids[1].equal_to_depth(image, 9)


def test_machine_torsion_quotient():
    # Z/4 with H = <2> and f fixing 2: the image collapses to the swap.
    z4 = FgAbelianGroup(0, (4,))
    v = VirtualEndo(z4, [[2]], [[2]])
    t = Transversal(v, [(0,), (1,)])
    rep = phi_rep(v, t, ctx=Context(2, K=8, D=8, L=8))
    assert rep.of((2,)).is_identity()
    one = rep.of((1,))
    assert one.root() == Permutation((2, 1))
    assert (one * one).is_identity()


def test_machine_arity_guard():
    v = binary_endo()
    t = Transversal(v, [(0,), (1,)])
    with pytest.raises(ShapeMismatch):
        SelfSimilarMachine(v, t, system=System(Context(3, K=8, D=8, L=8)))


def test_triple_from_json():
    v, t = triple_from_json({
        "free_rank": 1, "H_gens": [[2]], "f_images": [[1]],
        "transversal": [[0], [1]],
    })
    assert v.index == 2 and t.reps == ((0,), (1,))


# --------------------------------------------------------- conjugators: lam

def test_transversal_change_example():
    v = binary_endo()
    t = Transversal(v, [(0,), (1,)])
    rep1, rep2, lam = transversal_change([(2,), (2,)], v, t,
                                         ctx=Context(2, K=8, D=8, L=8))
    for g in [1, 2, 5, -3]:
        want = rep2.of((g,))
        got = lam * rep1.of((g,)) * lam.inverse()
        assert want.equal_to_depth(got, 8)


def test_transversal_change_random():
    v = binary_endo()
    t = Transversal(v, [(0,), (1,)])
    rng = random.Random(11)
    for _ in range(8):
        hs = [(2 * rng.randint(-3, 3),), (2 * rng.randint(-3, 3),)]
        rep1, rep2, lam = transversal_change(hs, v, t,
                                             ctx=Context(2, K=8, D=8, L=8))
        for g in [(1,), (rng.randint(-8, 8),)]:
            want = rep2.of(g)
            got = lam * rep1.of(g) * lam.inverse()
            assert want.equal_to_depth(got, 8)


def test_transversal_change_zero_shift():
    v = binary_endo()
    t = Transversal(v, [(0,), (1,)])
    lam = transversal_conjugator([(0,), (0,)], v, t,
                                 ctx=Context(2, K=8, D=8, L=8))
    assert lam.is_identity()


def test_transversal_change_invalid_shift():
    v = binary_endo()
    t = Transversal(v, [(0,), (1,)])
    with pytest.raises(ValueError):
        transversal_conjugator([(1,), (0,)], v, t)


# ------------------------------------------------- conjugators: prefix tuple

def test_conjugator_fixes_adding_machines():
    for (m, j) in [(2, 1), (3, 2), (4, 1)]:
        am = adding_machine(Context(m, K=8, D=8, L=8), j)
        res = adding_machine_conjugator(am, j)
        assert res.verified()
        assert res.portrait() == _identity_portrait(m, 8)


def binary_series_beta():
    sysb = FoldSystem(Context(2, K=10, D=10, L=10), "b", (0, "1 + x"), "(1 2)")
    return sysb.generator()


def test_conjugator_binary_series():
    beta = binary_series_beta()
    res = adding_machine_conjugator(beta, 1)
    assert res.verified()
    assert res.conjugated == res.target
    mod, D = beta.system.ctx.mod, beta.system.ctx.D
    # stage entries carry minus the running exponent sums
    assert res.factors[0][1] == PowerSeries(mod, D)
    assert res.factors[1][1] == -PowerSeries.constant(mod, D, 1)
    assert res.factors[2][1] == -PowerSeries(mod, D, (2, 1))
    assert "verified=True" in repr(res)


def test_closed_form_matches_stream():
    beta = binary_series_beta()
    res = adding_machine_conjugator(beta, 1, depth=8)
    assert res.verified()
    assert closed_form_conjugator(beta, 8) == res.portrait()


def test_closed_form_sequences_frozen():
    mod = Context(2, K=10, D=10, L=10).mod
    q = PowerSeries(mod, 10, (1, 1))
    cs, cps = closed_form_sequences(q, 4)
    assert cs[0].lifts()[:2] == (1, 0)
    assert cs[1].lifts()[:2] == (1, 1)
    assert cs[2].lifts()[:3] == (3, 1, 0)
    assert cps[1].lifts()[:2] == (1, 0)
    assert cps[2].lifts()[:3] == (2, 1, 0)
    assert cps[3].lifts()[:3] == (5, 2, 0)
    # the recurrences: c_n = 2 c_(n-2) + c_(n-1), c'_n = c_(n-1) + c'_(n-1)
    assert cs[3] == cs[1] * 2 + cs[2]
    assert cps[4] == cs[3] + cps[3]
    with pytest.raises(ValueError):
        closed_form_sequences(q, -1)


def random_fold(rng, m, j, cx, invert_cycle=False):
    qc = [1] + [rng.randint(0, m * m - 1) for _ in range(3)]
    q = PowerSeries(cx.mod, cx.D, qc)
    ps = [PowerSeries(cx.mod, cx.D, [rng.randint(0, m - 1) for _ in range(3)])
          for _ in range(m - 1)]
    last = q * PowerSeries.x_power(cx.mod, cx.D, j - 1)
    for p in ps:
        last = last - p
    ps.append(last)
    if invert_cycle and m > 2:
        sigma = Permutation([m] + list(range(1, m)))
    else:
        sigma = Permutation(list(range(2, m + 1)) + [1])
    return FoldSystem(cx, "g", ps, sigma).generator()


def test_conjugator_random_shapes():
    rng = random.Random(23)
    for (m, j) in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        cx = Context(m, K=10, D=10, L=10)
        for trial in range(3):
            beta = random_fold(rng, m, j, cx, invert_cycle=(trial == 2))
            res = adding_machine_conjugator(beta, j, depth=8)
            assert res.verified(), (m, j, trial)


def test_conjugator_errors():
    c2 = Context(2, K=8, D=8, L=8)
    with pytest.raises(NonUnitSum):
        adding_machine_conjugator(FoldSystem(c2, "g", (0, "x"), "(1 2)").generator(), 1)
    with pytest.raises(NonUnitSum):
        adding_machine_conjugator(FoldSystem(Context(2, K=8, D=8, L=8), "g",
                                    (1, 1), "(1 2)").generator(), 1)
    with pytest.raises(NonUnit):
        adding_machine_conjugator(FoldSystem(Context(3, K=8, D=8, L=8), "g",
                                    (0, 0, 2), "(1 2 3)").generator(), 1)
    plain = System(Context(2, K=8, D=8, L=8))
    plain.define("s", "(1 2)", ["e", "e"])
    with pytest.raises(ShapeMismatch):
        adding_machine_conjugator(plain.gen("s"), 1)
    beta = binary_series_beta()
    with pytest.raises(ShapeMismatch):
        adding_machine_conjugator(beta * beta, 1)
    with pytest.raises(ValueError):
        adding_machine_conjugator(beta, 0)
    with pytest.raises(ShapeMismatch):
        closed_form_conjugator(adding_machine(Context(3, K=8, D=8, L=8), 1))


def test_conjugator_depth_guards():
    beta = binary_series_beta()   # context depth L = 10
    for conjugate in (lambda d: adding_machine_conjugator(beta, 1, depth=d),
                      lambda d: closed_form_conjugator(beta, depth=d)):
        with pytest.raises(DepthExceeded,
                           match="^depth 22 exceeds truncation 10$"):
            conjugate(22)
        with pytest.raises(DepthExceeded):
            conjugate(0)


def test_conjugator_stage_root_guard(monkeypatch):
    # a stage root off the base cycle means the corecursion diverged; the
    # guard is an exception, so it holds under python -O
    beta = adding_machine(Context(3, K=6, D=6, L=6))
    decompose = AutExpr.decompose
    monkeypatch.setattr(AutExpr, "decompose", lambda self: (
        Permutation.identity(3), decompose(self)[1]))
    with pytest.raises(StageRootDrift):
        adding_machine_conjugator(beta, 1)
