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
host systems would force exponential expansions.
"""

from math import gcd

from .adic import NonUnit, PowerSeries
from .intlin import lattice_index, left_kernel, solve_left
from .tree import (
    AutExpr, Context, FoldSystem, Permutation, Portrait, ShapeMismatch,
    System, _uniform_portrait, adding_machine,
)


class NonUnitSum(ArithmeticError):
    pass


class StageRootDrift(ArithmeticError):
    pass


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
    rep2.of(g) = lam * rep.of(g) * lam^-1 to the context depth.
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


def transversal_conjugator(h_list, v, t, ctx=None):
    """The conjugator between the representations of t and h_i + x_i.

    lambda = gamma gamma^(1) gamma^(2) ... truncated at the context depth,
    where gamma has trivial root and entries f(h_i) in the new machine.
    """
    return transversal_change(h_list, v, t, ctx)[2]


# ---------------------------------------------- adding-machine conjugation

class AddingMachineConjugation(object):
    """Corecursive conjugator onto the generalized adding machine.

    Built as a stream of level-indexed prefix factors; factor n has trivial
    root, entries inverse partial products of the states of beta^(q^n)
    along the root cycle, and sits nj levels down.  Materialized as a
    portrait: the factors have unequal components, so they live in no
    abelian system, and hosting them on a generic engine would force
    integer exponents far past any expansion budget.
    """

    __slots__ = ("beta", "j", "depth", "factors", "relabel", "conjugator",
                 "target", "conjugated")

    def __init__(self, beta, j, depth, factors, relabel, conjugator, target,
                 conjugated):
        self.beta = beta
        self.j = j
        self.depth = depth
        self.factors = factors
        self.relabel = relabel
        self.conjugator = conjugator
        self.target = target
        self.conjugated = conjugated

    def verified(self):
        """Does conjugating beta really give the adding machine?"""
        return self.conjugated == self.target

    def portrait(self):
        return self.conjugator

    def __repr__(self):
        return ("AddingMachineConjugation(j=%d, depth=%d, factors=%d, verified=%r)"
                % (self.j, self.depth, len(self.factors), self.verified()))


def adding_machine_conjugator(beta, j, depth=None):
    """Conjugate a foldable generator onto the generalized adding machine.

    beta must be the generator of a fold system whose exponent sum is
    q * x^(j-1) with q a unit congruent to 1 mod m; the returned object
    carries the conjugator portrait and the verified conjugation.  Raises
    NonUnitSum when the exponent sum has the wrong valuation or a non-unit
    q, and NonUnit when q(0) is a unit other than 1 mod m (the corecursion
    then changes the root cycle each stage and never converges).
    """
    system = FoldSystem.of(beta)
    ctx = system.ctx
    depth = ctx.depth(depth)
    if j < 1 or j - 1 > ctx.D:
        raise ValueError("shift %d outside the degree bound" % j)
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
    images = [0] * m
    for pos, letter in enumerate(cycle):
        images[letter - 1] = pos + 1
    relabel = Permutation(images)

    factors = []
    qn = PowerSeries.constant(ctx.mod, ctx.D, 1)
    n = 0
    conj = None
    while n * j < depth:
        bn = beta.pow_series(qn)
        root, kids = bn.decompose()
        if root != system.sigma:
            raise StageRootDrift(
                "stage %d root %r drifted off the base cycle %r"
                % (n, root, system.sigma))
        exps = []
        for child in kids:
            w = system._normalize(child.word)
            exps.append(PowerSeries(ctx.mod, ctx.D, w[0][1] if w else ()))
        sub_depth = depth - n * j
        partial = PowerSeries(ctx.mod, ctx.D)
        entries = [None] * m
        series = [None] * m
        for letter, e in zip(cycle, (exps[z - 1] for z in cycle)):
            series[letter - 1] = -partial
            if sub_depth == 1:
                entries[letter - 1] = None
            else:
                entries[letter - 1] = beta.pow_series(
                    partial).inverse().portrait(sub_depth - 1)
            partial = partial + e
        if sub_depth == 1:
            pn = Portrait.make(Permutation.identity(m), ())
        else:
            pn = Portrait.make(Permutation.identity(m), tuple(entries))
        factors.append(tuple(series))
        lifted = pn.suspended(n * j)
        conj = lifted if conj is None else conj * lifted
        qn = qn * q
        n += 1
    # Conjugation by relabel at every vertex renames letters uniformly on
    # all levels, turning the recursion along sigma's cycle into the
    # recursion along the standard cycle (1 2 ... m).
    conj = conj * _uniform_portrait(relabel, depth)
    target = adding_machine(Context(m, K=ctx.K, D=ctx.D, L=depth), j)
    conjugated = beta.portrait(depth).conjugated_by(conj)
    return AddingMachineConjugation(beta, j, depth, tuple(factors), relabel,
                                    conj, target.portrait(depth), conjugated)


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
    vectors).
    """
    group = FgAbelianGroup(int(data.get("free_rank", 0)),
                           tuple(int(d) for d in data.get("torsion", ())))
    v = VirtualEndo(group, data["H_gens"], data["f_images"])
    t = Transversal(v, data["transversal"])
    return v, t


def closed_form_conjugator(beta, depth=None):
    """Portrait of the closed-form conjugator Prod (e, beta^(-c'_n))^(n)."""
    system = FoldSystem.of(beta)
    ctx = system.ctx
    if ctx.m != 2:
        raise ShapeMismatch("the closed form is specific to binary trees")
    depth = ctx.depth(depth)
    qsum = PowerSeries(ctx.mod, ctx.D, system._qsum)
    _, cps = closed_form_sequences(qsum, depth)
    conj = None
    for n in range(depth):
        sub = depth - n
        if sub == 1:
            pn = Portrait.make(Permutation.identity(2), ())
        else:
            ident = _uniform_portrait(Permutation.identity(2), sub - 1)
            entry = beta.pow_series(cps[n]).inverse().portrait(sub - 1)
            pn = Portrait.make(Permutation.identity(2), (ident, entry))
        lifted = pn.suspended(n)
        conj = lifted if conj is None else conj * lifted
    return conj
