"""Tree representations of finitely generated abelian groups.

A triple (G, H, f) with G = Z^n + Z/d_1 + ... + Z/d_t, H a finite-index
subgroup, and f: H -> G a homomorphism acts on the [G:H]-ary tree: pick
coset representatives x_1..x_m, send g to the permutation it induces on
the cosets, and recurse on the transition elements f(x_i + g - x_(i)pi).
Elements of G are integer vectors of length n+t with the torsion
coordinates reduced; all coset questions reduce to integer lattice work
in Z^(n+t) with the torsion relations adjoined as extra rows.

The module also builds the two explicit conjugators: the change-of-
transversal product lambda = gamma gamma^(1) gamma^(2) ... and the
corecursive conjugator taking a single-generator recursion with unit
exponent sum onto the generalized adding machine.  The latter lives at
portrait level because its factors have unequal components and arbitrary
host systems would force exponential expansions.  Its portrait is built
by one recursion memoized per (level, exponent class), and
beta h == h target is checked node pair by node pair.
"""

from math import gcd
from operator import add

from .adic import Memo, NonUnit, PowerSeries
from .intlin import lattice_index, left_kernel, solve_left
from .tree import (
    Context, ContextError, FoldSystem, Permutation, ShapeMismatch, System,
    _form_columns, _products_equal, adding_machine,
)


class NonUnitSum(ArithmeticError):
    pass


class StageRootDrift(ArithmeticError):
    pass


class MalformedTriple(TypeError):
    """A field of a group triple has the wrong JSON type."""


class FgAbelianGroup(object):
    """Z^free_rank plus cyclic factors; elements are integer tuples."""

    __slots__ = ("free_rank", "torsion", "dim")

    def __init__(self, free_rank, torsion=()):
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        torsion = tuple(torsion)
        if any(d < 2 for d in torsion):
            raise ValueError("torsion orders must be at least 2")
        self.free_rank = free_rank
        self.torsion = torsion
        self.dim = free_rank + len(torsion)

    def normalize(self, vec):
        vec = tuple(vec)
        if len(vec) != self.dim:
            raise ValueError("expected a vector of length %d" % self.dim)
        free = vec[:self.free_rank]
        tor = tuple(v % d for v, d in zip(vec[self.free_rank:], self.torsion))
        return free + tor

    def zero(self):
        return (0,) * self.dim

    def add(self, a, b):
        return self.normalize(x + y for x, y in zip(a, b))

    def neg(self, a):
        return self.normalize(-x for x in a)

    def scale(self, a, n):
        return self.normalize(x * n for x in a)

    def torsion_rows(self):
        rows = []
        for i, d in enumerate(self.torsion):
            row = [0] * self.dim
            row[self.free_rank + i] = d
            rows.append(row)
        return rows

    def basis(self):
        """Standard generating vectors, one per coordinate."""
        out = []
        for i in range(self.dim):
            v = [0] * self.dim
            v[i] = 1
            out.append(self.normalize(v))
        return out

    def __eq__(self, other):
        return (isinstance(other, FgAbelianGroup)
                and self.free_rank == other.free_rank
                and self.torsion == other.torsion)

    def __repr__(self):
        parts = ["Z"] * self.free_rank + ["Z/%d" % d for d in self.torsion]
        return " + ".join(parts) if parts else "0"


class VirtualEndo(object):
    """Subgroup H given by generator rows plus a homomorphism f: H -> G."""

    __slots__ = ("group", "h_gens", "f_images", "index", "_stack")

    def __init__(self, group, h_gens, f_images):
        self.group = group
        self.h_gens = tuple(tuple(h) for h in h_gens)
        self.f_images = tuple(group.normalize(v) for v in f_images)
        if len(self.h_gens) != len(self.f_images):
            raise ValueError("need one f-image per subgroup generator")
        for h in self.h_gens:
            if len(h) != group.dim:
                raise ValueError("subgroup generator has wrong length")
        if len(self.h_gens) + len(group.torsion) < group.dim:
            # too few rows for full rank; a torsion row has dim entries
            raise ValueError("subgroup does not have finite index")
        self._stack = [list(h) for h in self.h_gens] + group.torsion_rows()
        index = lattice_index(self._stack, group.dim)
        if index is None:
            raise ValueError("subgroup does not have finite index")
        if index < 2:
            raise ValueError("index must be at least 2, got %d" % index)
        self.index = index
        for rel in left_kernel(self._stack, group.dim):
            img = group.zero()
            for c, v in zip(rel[:len(self.h_gens)], self.f_images):
                img = group.add(img, group.scale(v, c))
            if img != group.zero():
                raise ValueError("transition map is not well defined "
                                 "on the subgroup relations")

    def contains(self, vec):
        return solve_left(self._stack, list(vec), self.group.dim) is not None

    def apply_f(self, vec):
        """Image of a subgroup element under f."""
        x = solve_left(self._stack, list(vec), self.group.dim)
        if x is None:
            raise ValueError("element %r is outside the subgroup" % (vec,))
        img = self.group.zero()
        for c, v in zip(x[:len(self.h_gens)], self.f_images):
            img = self.group.add(img, self.group.scale(v, c))
        return img


class Transversal(object):
    """Coset representatives x_1..x_m for G modulo the subgroup."""

    __slots__ = ("endo", "reps")

    def __init__(self, endo, reps):
        self.endo = endo
        group = endo.group
        self.reps = tuple(group.normalize(r) for r in reps)
        if len(self.reps) != endo.index:
            raise ValueError("need %d representatives, got %d"
                             % (endo.index, len(self.reps)))
        for i in range(len(self.reps)):
            for j in range(i + 1, len(self.reps)):
                diff = group.add(self.reps[i], group.neg(self.reps[j]))
                if endo.contains(diff):
                    raise ValueError(
                        "representatives %d and %d share a coset" % (i + 1, j + 1))

    def position(self, vec):
        """1-based index of the representative in vec's coset."""
        group = self.endo.group
        for i, x in enumerate(self.reps):
            if self.endo.contains(group.add(vec, group.neg(x))):
                return i + 1
        raise ValueError("transversal does not cover %r" % (vec,))


def coset_permutation(g, t):
    """The permutation right-translation by g induces on the cosets."""
    group = t.endo.group
    g = group.normalize(g)
    return Permutation(t.position(group.add(x, g)) for x in t.reps)


class SelfSimilarMachine(object):
    """The tree representation as a lazily expanded generator system.

    States are group elements; the generator named for g decomposes with
    root the coset permutation of g and transitions f(x_i + g - x_(i)pi).
    Several machines may share one System (distinct prefixes), which makes
    cross-transversal products and conjugation checks possible.
    """

    __slots__ = ("endo", "transversal", "system", "prefix", "_vecs")

    def __init__(self, endo, transversal, ctx=None, system=None, prefix="g"):
        if transversal.endo is not endo:
            raise ValueError("transversal was built for a different subgroup")
        self.endo = endo
        self.transversal = transversal
        if system is None:
            if ctx is None:
                ctx = Context(endo.index)
            system = System(ctx)
        if system.ctx.m != endo.index:
            raise ShapeMismatch("system arity %d differs from index %d"
                                % (system.ctx.m, endo.index))
        self.system = system
        self.prefix = prefix
        self._vecs = {}
        system.add_provider(self._provide)

    def _name(self, vec):
        name = self.prefix + "[" + ",".join(str(v) for v in vec) + "]"
        self._vecs[name] = vec
        return name

    def _provide(self, name):
        vec = self._vecs.get(name)
        if vec is None:
            return None
        group = self.endo.group
        pi = coset_permutation(vec, self.transversal)
        entries = []
        for i, x in enumerate(self.transversal.reps):
            target = self.transversal.reps[pi.apply(i + 1) - 1]
            h = group.add(group.add(x, vec), group.neg(target))
            child = self.endo.apply_f(h)
            if child == group.zero():
                entries.append(())
            else:
                coeffs = [0] * (self.system.ctx.D + 1)
                coeffs[0] = 1
                entries.append(((self._name(child), tuple(coeffs)),))
        return pi, tuple(entries)

    def of(self, vec):
        """The expression representing the group element vec."""
        vec = self.endo.group.normalize(vec)
        if vec == self.endo.group.zero():
            return self.system.identity()
        return self.system.gen(self._name(vec))


def phi_rep(v, t, ctx=None):
    """Build the tree representation machine for the triple and transversal."""
    return SelfSimilarMachine(v, t, ctx=ctx)


def transversal_change(h_list, v, t, ctx=None):
    """Machines for t and the shifted transversal plus the conjugator.

    Returns (rep, rep2, lam) on one shared system, where rep2 uses the
    representatives h_i + x_i and lam satisfies
    rep2.of(g) = lam * rep.of(g) * lam^-1 to the context depth.  lam is
    gamma gamma^(1) gamma^(2) ... truncated at the context depth, where
    gamma has trivial root and entries f(h_i) in the new machine.
    """
    group = v.group
    hs = [group.normalize(h) for h in h_list]
    for h in hs:
        if not v.contains(h):
            raise ValueError("shift %r is not in the subgroup" % (h,))
    if ctx is None:
        ctx = Context(v.index)
    system = System(ctx)
    rep = SelfSimilarMachine(v, t, system=system, prefix="p")
    t2 = Transversal(v, [group.add(h, x) for h, x in zip(hs, t.reps)])
    rep2 = SelfSimilarMachine(v, t2, system=system, prefix="q")
    entries = []
    for h in hs:
        img = v.apply_f(h)
        entries.append("e" if img == group.zero() else rep2.of(img))
    system.define("conj", Permutation.identity(ctx.m), entries)
    gamma = system.gen("conj")
    lam = system.identity()
    for i in range(ctx.L):
        lam = lam * gamma.diagonal(i)
    return rep, rep2, lam


# ---------------------------------------------- adding-machine conjugation

class AddingMachineConjugation(object):
    """Corecursive conjugator onto the generalized adding machine.

    Defined by a stream of level-indexed prefix factors; factor n has
    trivial root, entries inverse partial products of the states of
    beta^(q^n) along the root cycle, and sits nj levels down.  Materialized
    as a portrait: the factors have unequal components, so they live in no
    abelian system, and hosting them on a generic engine would force
    integer exponents far past any expansion budget.  The portrait is not
    a product of factor portraits: below a vertex of level k the product
    acts as beta^E followed by the factors at and below level k, so each
    node is read off (k, the class of E) in one memoized recursion, and
    the uniform relabel multiplies every root on the right.  conjugates is
    whether beta h == h target for h the conjugator, compared node pair by
    node pair.
    """

    __slots__ = ("beta", "j", "depth", "factors", "relabel", "conjugator",
                 "target", "conjugates")

    def __init__(self, beta, j, depth, factors, relabel, conjugator, target,
                 conjugates):
        self.beta = beta
        self.j = j
        self.depth = depth
        self.factors = factors
        self.relabel = relabel
        self.conjugator = conjugator
        self.target = target
        self.conjugates = conjugates

    def verified(self):
        """Does conjugating beta really give the adding machine?"""
        return self.conjugates

    def __repr__(self):
        return ("AddingMachineConjugation(j=%d, depth=%d, factors=%d, verified=%r)"
                % (self.j, self.depth, len(self.factors), self.verified()))


def adding_machine_conjugator(beta, j, depth=None):
    """Conjugate a foldable generator onto the generalized adding machine.

    beta must be the generator of a fold system whose exponent sum is
    q * x^(j-1) with q a unit congruent to 1 mod m; the returned object
    carries the conjugator portrait and the verified conjugation.  Raises
    ContextError when j - 1 > D, NonUnitSum when the exponent sum has the
    wrong valuation or a non-unit q, and NonUnit when q(0) is a unit other
    than 1 mod m (the corecursion then changes the root cycle each stage
    and never converges).
    """
    system = FoldSystem.of(beta)
    ctx = system.ctx
    depth = ctx.depth(depth)
    if j < 1:
        raise ValueError("shift %d outside the degree bound" % j)
    if j - 1 > ctx.D:
        raise ContextError("shift %d outside the degree bound" % j)
    qsum = system._qsum
    if any(qsum[:j - 1]):
        raise NonUnitSum("exponent sum is not q * x^%d" % (j - 1))
    q = PowerSeries(ctx.mod, ctx.D, qsum[j - 1:])
    q0 = qsum[j - 1]
    if gcd(q0, ctx.m) != 1 or q0 == 0:
        raise NonUnitSum("leading coefficient %d is not a unit mod %d"
                         % (q0, ctx.m))
    if q0 % ctx.m != 1:
        raise NonUnit("need q constant 1 mod %d for a fixed root cycle" % ctx.m)

    m = ctx.m
    cycle = system.sigma.cycles()[0]
    relabel = Permutation(cycle.index(y) + 1 for y in range(1, m + 1))

    factors = []
    qn = PowerSeries.constant(ctx.mod, ctx.D, 1)
    for n in range((depth + j - 1) // j):   # the stages with n j < depth
        root, kids = beta.pow_series(qn).decompose()
        if root != system.sigma:
            raise StageRootDrift(
                "stage %d root %r drifted off the base cycle %r"
                % (n, root, system.sigma))
        exps = [PowerSeries(ctx.mod, ctx.D, c.word[0][1] if c.word else ())
                for c in kids]
        partial = PowerSeries(ctx.mod, ctx.D)
        series = [None] * m
        for letter, e in zip(cycle, (exps[z - 1] for z in cycle)):
            series[letter - 1] = -partial
            partial = partial + e
        factors.append(tuple(series))
        qn = qn * q
    # Conjugation by relabel at every vertex renames letters uniformly on
    # all levels, turning the recursion along sigma's cycle into the
    # recursion along the standard cycle (1 2 ... m).
    conj = _conjugator_portrait(system, factors, j, relabel, depth)
    target = adding_machine(Context(m, ctx.K, ctx.D, depth), j).portrait(depth)
    conjugates = _products_equal(beta.portrait(depth), conj, conj, target, {})
    return AddingMachineConjugation(beta, j, depth, tuple(factors), relabel,
                                    conj, target, conjugates)


def _conjugator_portrait(system, factors, step, relabel, depth):
    """The depth-bounded portrait of S * U, built node by node.

    S = p_0 * p_1^(step) * p_2^(2 step) * ..., where p_n has trivial root
    and g^(factors[n][y - 1]) at letter y, and p^(k) is p at every vertex
    k levels down; U carries relabel at every vertex.  Below a vertex of
    level k, S acts as g^E * R_k: the stages above level k contribute
    states of g, which add up because g's closure is abelian, and R_k, the
    product of the stages at and below level k, has trivial root.  So
    the node has root sigma^c * relabel, c = E(0) mod m (multiplying by U
    multiplies every root on the right), and its child at letter z has
    exponent child_z(E), plus factors[n][(z)sigma^c - 1] when k = n step.
    The walk starts from E = 0 at level 0.  g^E below level k is read to
    depth - k <= L <= K, so two exponents with equal key_table(depth - k)
    values give one node (FoldSystem._portrait): FoldSystem._keyed_node
    makes it under (depth - k, those values) in a memo local to the call,
    with the stage's offsets added to child_key_table's prefix sums.  That
    memo holds one entry per node, fewer than the m^depth it may hold
    before it empties, so no node is made twice.
    """
    offsets = [tuple(f.lifts() for f in stage) for stage in factors]
    tables = {}
    for k in range(depth - 1):
        n = depth - k - 1
        tables[n] = system.child_key_table(n)
        if k % step == 0:
            M, prefix, _, qvals, raised = tables[n]
            rows = [[tuple(map(add, row, offsets[k // step][y - 1]))
                     for row, y in zip(by_c, turn.images)]
                    for by_c, turn in zip(prefix, system._sigma_powers)]
            tables[n] = (M, rows, _form_columns(
                rows, system.key_table(n)[0], M), qvals, raised)
    key = (depth,) + (0,) * len(system.key_table(depth)[0])
    return system._keyed_node(
        (0,) * (system.ctx.D + 1), depth, key, tables.__getitem__,
        [turn * relabel for turn in system._sigma_powers],
        Memo(system.ctx.m ** depth))


def closed_form_sequences(q, n_max):
    """The two exponent sequences of the m=2, j=1 conjugation family.

    c_0 = 1, c_1 = q, c_n = 2 c_(n-2) + c_(n-1); c'_0 = 0 and
    c'_n = c_(n-1) + c'_(n-1).  The closed-form conjugator is the product
    over n of (e, beta^(-c'_n)) suspended n levels.
    """
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    mod, D = q.mod, q.D
    one = PowerSeries.constant(mod, D, 1)
    cs = [one, q]
    for n in range(2, n_max + 1):
        cs.append(cs[n - 2] * 2 + cs[n - 1])
    cps = [PowerSeries(mod, D)]
    for n in range(1, n_max + 1):
        cps.append(cs[n - 1] + cps[n - 1])
    return cs[:n_max + 1], cps[:n_max + 1]


def triple_from_json(data):
    """Build (VirtualEndo, Transversal) from a JSON-style mapping.

    Keys: free_rank (int), torsion (list of orders, optional), H_gens
    (list of vectors), f_images (list of vectors), transversal (list of
    vectors); a vector is a list of integers.  Raises KeyError for a
    missing required key and MalformedTriple for a value of the wrong
    JSON type; the classes check lengths and the group conditions.
    """
    if not isinstance(data, dict):
        raise MalformedTriple("a triple must be a JSON object")
    free_rank = data.get("free_rank", 0)
    if not _is_int(free_rank):
        raise MalformedTriple("free_rank must be an integer")
    group = FgAbelianGroup(free_rank,
                           _integers(data.get("torsion", []), "torsion"))
    v = VirtualEndo(group, _vectors(data, "H_gens"), _vectors(data, "f_images"))
    t = Transversal(v, _vectors(data, "transversal"))
    return v, t


def _is_int(value):
    return type(value) is int   # JSON true and false are bools, not ints


def _integers(value, key):
    if not (isinstance(value, list) and all(map(_is_int, value))):
        raise MalformedTriple("%s must be a list of integers" % key)
    return value


def _vectors(data, key):
    value = data[key]
    if not (isinstance(value, list) and all(
            isinstance(vec, list) and all(map(_is_int, vec))
            for vec in value)):
        raise MalformedTriple("%s must be a list of integer vectors" % key)
    return value


def closed_form_conjugator(beta, depth=None):
    """Portrait of the closed-form conjugator Prod (e, beta^(-c'_n))^(n)."""
    system = FoldSystem.of(beta)
    ctx = system.ctx
    if ctx.m != 2:
        raise ShapeMismatch("the closed form is specific to binary trees")
    depth = ctx.depth(depth)
    qsum = PowerSeries(ctx.mod, ctx.D, system._qsum)
    _, cps = closed_form_sequences(qsum, depth)
    zero = PowerSeries(ctx.mod, ctx.D)
    factors = [(zero, -cps[n]) for n in range(depth - 1)]
    return _conjugator_portrait(system, factors, 1, Permutation.identity(2),
                                depth)
