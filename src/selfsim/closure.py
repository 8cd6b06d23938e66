"""State-closure analysis: saturation, restriction, peeling, relations.

The state-closure of a set of tree automorphisms is everything reachable by
repeatedly taking first-level states; one breadth-first walk (_walk) finds
it.  For a foldable single-generator system the states are powers of one
generator, so the walk runs on plain exponent coefficient tuples (children
by FoldSystem._exponent_children) and an expression is built only for each
state kept.  Those states are deduplicated by the canonical digit expansion
of their exponents modulo the annihilator (two exponents share a digit
prefix below depth d exactly when the automorphisms agree to depth d); for
anything else the walk runs on expressions, deduplicated by their
depth-bounded portraits, which are hash-consed and therefore cheap keys.

Peeling writes an element of an abelian-verified closure as a product of
basis elements with power-series exponents, one stabilized layer at a time;
the relation extractor runs peeling on the m_i-th powers of a basis whose
root permutations span a regular abelian group on the m letters and returns
the determinant relator of the resulting presentation matrix.
"""

import itertools

from .adic import PowerSeries
from .tree import (
    AutExpr, Context, NotAbelian, Permutation, Portrait, ShapeMismatch, System,
    _uniform_portrait,
)

ENUM_CAP = 10000
PAIRWISE_CAP = 24
WITNESS_CAP = 400
WITNESS_SCAN_BUDGET = 20000


class SaturationOverflow(ArithmeticError):
    pass


class PermSolveFail(ArithmeticError):
    pass


class DedupeCollision(ArithmeticError):
    pass


class ZetaUnbounded(ArithmeticError):
    def __init__(self, bound):
        super().__init__("stabilization depth is at least %d" % bound)
        self.bound = bound


# ------------------------------------------------------------- saturation

def _fold_key(system, coeffs, depth):
    return system.exponent_digits(coeffs, depth)


def _state_key(system, expr, depth):
    if system.foldable:
        return _fold_key(system, system._exponent(expr.word), depth)
    return expr.portrait(depth)


def _walk(seeds, children, key, max_states, overflow):
    """Breadth-first saturation: one item per key, in discovery order.

    The seeds are visited first, in order, then children(item) of every
    kept item in turn; an item whose key was seen before is dropped.
    Raises SaturationOverflow(overflow) on a key past max_states.
    """
    kept = []
    seen = set()
    batch = seeds
    expanded = 0
    while True:
        for item in batch:
            k = key(item)
            if k not in seen:
                if len(seen) >= max_states:
                    raise SaturationOverflow(overflow)
                seen.add(k)
                kept.append(item)
        if expanded == len(kept):
            return kept
        batch = children(kept[expanded])
        expanded += 1


class ClosureReport(object):
    """What saturation found: states, transitivity, abelianness, witnesses."""

    __slots__ = ("system", "generators", "states", "depth", "transitive",
                 "orbits", "abelian_to_depth", "recurrent_witnessed")

    def __init__(self, system, generators, states, depth, transitive, orbits,
                 abelian_to_depth, recurrent_witnessed):
        self.system = system
        self.generators = generators
        self.states = states
        self.depth = depth
        self.transitive = transitive
        self.orbits = orbits
        self.abelian_to_depth = abelian_to_depth
        self.recurrent_witnessed = recurrent_witnessed

    def state_count(self):
        """Number of distinct states, the identity included."""
        return len(self.states)

    def nontrivial_count(self):
        """Number of distinct nontrivial states."""
        return sum(1 for s in self.states if not s.is_identity(self.depth))

    def to_json(self):
        return {
            "m": self.system.ctx.m,
            "depth": self.depth,
            "generators": [repr(g) for g in self.generators],
            "states": [repr(s) for s in self.states],
            "state_count": self.state_count(),
            "nontrivial_states": self.nontrivial_count(),
            "transitive": self.transitive,
            "orbits": [list(o) for o in self.orbits],
            "abelian_to_depth": self.abelian_to_depth,
            "recurrent_witnessed": self.recurrent_witnessed,
        }

    def __repr__(self):
        return ("ClosureReport(states=%d, transitive=%r, abelian_to_depth=%r)"
                % (self.state_count(), self.transitive, self.abelian_to_depth))


def _root_orbits(roots, m):
    seen = [False] * (m + 1)
    orbits = []
    for start in range(1, m + 1):
        if seen[start]:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for y in frontier:
                for p in roots:
                    for z in (p.apply(y), p.inverse().apply(y)):
                        if z not in orbit:
                            orbit.add(z)
                            nxt.append(z)
            frontier = nxt
        for y in orbit:
            seen[y] = True
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def _portrait_power(node, e):
    """node ** e for e >= 1, by repeated squaring with the memoized product."""
    result = None
    while True:
        if e & 1:
            result = node if result is None else result._mul(node)
        e >>= 1
        if not e:
            return result
        node = node._mul(node)


def _products_equal(p, q, r, s, memo):
    """Whether p*q == r*s, compared node by node without building either.

    The roots must agree, and then the children (p*q)_y = p_y * q_(y)p and
    (r*s)_y = r_y * s_(y)r.  memo is keyed on node ids, so the caller must
    keep every compared node alive while memo is in use.
    """
    if p is r and q is s:
        return True
    key = (id(p), id(q), id(r), id(s))
    hit = memo.get(key)
    if hit is not None:
        return hit
    pi, qi, ri, si = p.root.images, q.root.images, r.root.images, s.root.images
    ok = all(qi[pi[y] - 1] == si[ri[y] - 1] for y in range(len(pi)))
    if ok and p.children:
        ok = all(_products_equal(p.children[y], q.children[pi[y] - 1],
                                 r.children[y], s.children[ri[y] - 1], memo)
                 for y in range(len(pi)))
    memo[key] = ok
    return ok


def _commutes(a, b):
    """Whether the portraits a and b commute, without building a*b or b*a.

    Every node compared is a descendant of a or b, so the ids in the local
    memo stay valid; nothing is interned, so the global tables do not grow
    with products that would be thrown away.
    """
    return _products_equal(a, b, b, a, {})


def _level_portrait(system, levels):
    """The fold generator's level-s portrait, s = len(levels).

    levels[l] is the level-l portrait for 1 <= l < s (levels[0] is unused).
    This is the digit recursion of FoldSystem.level_perm_fast on portrait
    nodes: the root is sigma, and the child at letter y is the product, in
    increasing degree d, of the level-(s-1-d) portrait raised to
    p_y[d] mod m^(s-1-d) and suspended d levels.
    """
    s = len(levels)
    if s == 1:
        return Portrait.make(system.sigma, ())
    m = system.ctx.m
    kids = []
    for lifts in system._plifts:
        kid = None
        for d, p in enumerate(lifts[:s - 1]):
            sub = s - 1 - d
            e = p % m ** sub
            if e:
                factor = _portrait_power(levels[sub], e).suspended(d)
                kid = factor if kid is None else kid._mul(factor)
        if kid is None:
            kid = _uniform_portrait(Permutation.identity(m), s - 1)
        kids.append(kid)
    return Portrait.make(system.sigma, tuple(kids))


def _fold_abelian_depth(system, depth):
    """Certify a single-generator recursion abelian levelwise.

    Every closure element is a product of diagonal copies of the generator,
    so the level-s image of the closure is generated by the block-diagonal
    embeddings (suspensions) of the generator's own level portraits.
    Those come from the digit recursion (_level_portrait), which composes
    factors strictly in definition order and never calls the fold engine;
    their pairwise commutation therefore certifies both the abelian claim
    and the engine's exponent merging to depth s without assuming either.
    The cost follows the distinct portrait nodes, not the m^s vertices.
    Returns the largest s <= depth such that every level up to s passes.
    """
    levels = [None]
    for s in range(1, depth + 1):
        top = _level_portrait(system, levels)
        levels.append(top)
        if not all(_commutes(top, levels[s - t].suspended(t))
                   for t in range(1, s)):
            return s - 1
    return depth


def _abelian_depth(system, states, depth):
    """Largest d <= depth with all sampled pairwise commutators trivial."""
    if system.foldable:
        return _fold_abelian_depth(system, depth)
    exprs = states[:min(len(states), 2 * PAIRWISE_CAP)]
    best = depth
    for a, b in itertools.combinations(exprs, 2):
        c = a.commutator(b)
        d = 0
        while d < best and c.is_identity(d + 1):
            d += 1
        best = min(best, d)
        if best == 0:
            return 0
    return best


def _fold_recurrence_witness(system, generators, exponents, depth):
    """Ring-arithmetic witness search for single-recursion systems.

    A word with exponent series w fixes the first letter exactly when the
    constant term is divisible by m, and its state there has exponent
    qsum * (w(0) / m) + (w - w(0)) / x.  Candidates are the states'
    exponents, their negatives and their pairwise sums, compared by
    reduced digit prefix.
    """
    m = system.ctx.m
    qsum = system._qsum
    probe = max(1, depth - 1)

    def key(coeffs):
        return system.exponent_digits(coeffs, probe)

    unmatched = {key(system._exponent(g.word)) for g in generators}
    pool = list(exponents)
    pool += [tuple(-c for c in w) for w in pool]
    singles_then_sums = itertools.chain(
        pool, (tuple(x + y for x, y in zip(a, b))
               for a, b in itertools.product(pool, repeat=2)))
    for scanned, w in enumerate(singles_then_sums):
        if not unmatched or scanned >= WITNESS_SCAN_BUDGET:
            break
        if w[0] % m:
            continue
        xi = w[0] // m
        child = tuple(q * xi + t for q, t in zip(qsum, w[1:] + (0,)))
        unmatched.discard(key(child))
    return not unmatched


def _recurrence_witness(system, generators, states, depth):
    """Look for stabilizer elements whose first state hits each generator."""
    generators = [g for g in generators if not g.is_identity(depth)]
    if not generators:
        return True
    candidates = []
    seen = set()
    pool = list(states) + [s.inverse() for s in states]
    for scanned, expr in enumerate(itertools.chain(
            pool, (a * b for a, b in itertools.product(pool, repeat=2)))):
        if len(candidates) >= WITNESS_CAP or scanned >= WITNESS_SCAN_BUDGET:
            break
        root = expr.root()
        if root.apply(1) != 1:
            continue
        key = _state_key(system, expr, depth)
        if key in seen:
            continue
        seen.add(key)
        candidates.append(expr.state([1]))
    probe = max(1, depth - 1)
    for g in generators:
        if not any(c.equal_to_depth(g, probe) for c in candidates):
            return False
    return True


def state_closure(generators, depth=None, max_states=ENUM_CAP):
    """Saturate first-level states of the generators; returns a report.

    depth bounds both the deduplication of states and every verification
    in the report (defaults to the context depth L).  If a generic system
    turns out abelian to the full context depth it is marked so, which
    lets later algebra merge exponents.
    """
    if not generators:
        raise ValueError("need at least one generator")
    system = generators[0].system
    ctx = system.ctx
    for g in generators:
        if g.system is not system:
            raise ValueError("generators belong to different systems")
    depth = ctx.depth(depth)
    seeds = [system.identity()] + list(generators)
    overflow = "more than %d states at depth %d" % (max_states, depth)
    if system.foldable:
        # walk exponent tuples; equal children of one state share a key
        exponents = [system._exponent(g.word) for g in seeds]
        kept = _walk(
            exponents,
            lambda q: dict.fromkeys(system._exponent_children(q)[1]),
            lambda q: _fold_key(system, q, depth), max_states, overflow)
        # the walk keeps the seeds first, each unless an earlier one had its
        # key; those states stay the expressions as they were passed
        given = {}
        for g, q in zip(seeds, exponents):
            given.setdefault(_fold_key(system, q, depth), g)
        states = list(given.values()) + [
            AutExpr(system, ((system.name, q),)) for q in kept[len(given):]]
    else:
        states = _walk(seeds, lambda expr: expr.decompose()[1],
                       lambda expr: _state_key(system, expr, depth),
                       max_states, overflow)

    if system.foldable and len(states) <= 2 * PAIRWISE_CAP:
        # the digit-prefix keys promise pairwise distinctness; spot-check it
        for a, b in itertools.combinations(states, 2):
            if a.equal_to_depth(b, depth):
                raise DedupeCollision(
                    "states %r and %r share a portrait but not a key" % (a, b))

    roots = [g.root() for g in generators]
    orbits = _root_orbits(roots, ctx.m)
    transitive = len(orbits) == 1
    abelian = _abelian_depth(system, states, depth)
    if abelian >= ctx.L and not system.foldable:
        system.mark_abelian(abelian)
    nontrivial = sorted(
        (g for g in generators if not g.is_identity(depth)), key=repr)
    if system.foldable:
        recurrent = _fold_recurrence_witness(system, nontrivial, kept, depth)
    else:
        recurrent = _recurrence_witness(system, nontrivial, states, depth)
    return ClosureReport(system, tuple(nontrivial), tuple(states), depth,
                         transitive, orbits, abelian, recurrent)


# ------------------------------------------------------------- restriction

def as_machine(expr, depth=None):
    """Rebuild expr as a finite-state machine on a generic system.

    States discovered breadth-first become generators q0, q1, ... of a new
    System over the same context; q0 is expr itself.  The machine agrees
    with expr to the deduplication depth (default: the context depth).
    """
    system = expr.system
    ctx = system.ctx
    depth = ctx.L if depth is None else depth

    def key(e):
        return _state_key(system, e, depth)

    states = _walk(
        [expr],
        lambda e: [c for c in e.decompose()[1] if not c.is_identity(depth)],
        key, ENUM_CAP, "more than %d machine states" % ENUM_CAP)
    machine = System(ctx)
    names = {key(e): "q%d" % i for i, e in enumerate(states)}
    for name, e in zip(names.values(), states):
        root, kids = e.decompose()
        machine.define(name, root, [
            "e" if c.is_identity(depth) else machine.gen(names[key(c)])
            for c in kids])
    return machine.gen("q0")


def restrict_to_orbit(expr, orbit, depth=None):
    """Restrict expr to the subtree over an invariant set of letters.

    orbit is a set of first-level letters closed under expr's recursion;
    letters are relabeled in increasing order.  Fold-system expressions are
    converted to machines first.  Raises ShapeMismatch when some reachable
    state moves the orbit.
    """
    system = expr.system
    ctx = system.ctx
    if system.foldable:
        expr = as_machine(expr, depth)
        system = expr.system
    letters = tuple(sorted(set(orbit)))
    if not letters or letters[0] < 1 or letters[-1] > ctx.m:
        raise ValueError("orbit letters must lie in 1..%d" % ctx.m)
    relabel = {y: i + 1 for i, y in enumerate(letters)}
    sub = Context(len(letters), K=ctx.K, D=ctx.D, L=ctx.L)
    restricted = System(sub)
    outer = system

    def provide(name):
        try:
            root, entries = outer._lookup(name)
        except KeyError:
            return None
        images = []
        for y in letters:
            z = root.apply(y)
            if z not in relabel:
                raise ShapeMismatch(
                    "state %r moves letter %d outside the orbit" % (name, y))
            images.append(relabel[z])
        words = tuple(entries[y - 1] for y in letters)
        return Permutation(images), words

    restricted.add_provider(provide)
    return AutExpr(restricted, expr.word)


# ------------------------------------------------------------------ peeling

def _perm_span(roots, m):
    """Breadth-first table: permutation -> first-found exponent tuple."""
    table = {Permutation.identity(m): (0,) * len(roots)}
    frontier = list(table)
    while frontier:
        nxt = []
        for p in frontier:
            base = table[p]
            for i, s in enumerate(roots):
                q = p * s
                if q not in table:
                    if len(table) >= ENUM_CAP:
                        raise SaturationOverflow(
                            "root span larger than %d" % ENUM_CAP)
                    t = list(base)
                    t[i] += 1
                    table[q] = tuple(t)
                    nxt.append(q)
        frontier = nxt
    return table


def peel(target, basis, depth=None):
    """Write target as a product of basis elements with series exponents.

    Returns one power series per basis element such that the product of
    basis[i] ** q[i] equals target to the requested depth.  Only the
    coefficients below degree `depth` are determined: a depth-d portrait
    cannot see an exponent's digit at degree d or above, so those
    coefficients may differ from the canonical digits of reduce_mod_r.
    Works layer by layer: solve the root permutation in the span of the
    basis roots, divide, and desuspend the stabilized remainder.  Raises
    PermSolveFail when a root is outside the span and NotAbelian when the
    system carries no abelianness certificate or a remainder is not a
    diagonal.
    """
    system = target.system
    ctx = system.ctx
    depth = ctx.L if depth is None else depth
    if not system.abelian_certified():
        raise NotAbelian("peeling needs an abelian-verified system")
    for b in basis:
        if b.system is not system:
            raise ValueError("basis belongs to a different system")
    table = _perm_span([b.root() for b in basis], ctx.m)
    coeffs = [[0] * (ctx.D + 1) for _ in basis]
    cur = target
    offset = 0
    while offset <= ctx.D and not cur.is_identity(depth):
        r = table.get(cur.root())
        if r is None:
            raise PermSolveFail("root %r outside the basis span" % cur.root())
        if any(r):
            for i, ri in enumerate(r):
                coeffs[i][offset] = ri
            div = system.identity()
            for b, ri in zip(basis, r):
                div = div * b ** ri
            cur = cur * div.inverse()
        s = 0
        while s < depth and cur.is_identity(s + 1):
            s += 1
        if s >= depth:
            break
        gamma = cur.state([1] * s)
        if not gamma.diagonal(s).equal_to_depth(cur, depth):
            raise NotAbelian("remainder at layer %d is not a diagonal" % offset)
        cur = gamma
        offset += s
    out = tuple(PowerSeries(ctx.mod, ctx.D, c) for c in coeffs)
    recon = system.identity()
    for b, q in zip(basis, out):
        recon = recon * b.pow_series(q)
    if not recon.equal_to_depth(target, depth):
        raise ArithmeticError("peel reconstruction failed")
    return out


class RelationPresentation(object):
    """Module presentation: root orders, matrix diag(orders)-rows, relator."""

    __slots__ = ("basis", "orders", "matrix", "relator")

    def __init__(self, basis, orders, matrix, relator):
        self.basis = basis
        self.orders = orders
        self.matrix = matrix
        self.relator = relator

    def to_json(self):
        from .adic import series_to_json
        return {
            "orders": list(self.orders),
            "matrix": [[series_to_json(q) for q in row] for row in self.matrix],
            "relator": series_to_json(self.relator),
        }

    def __repr__(self):
        return "RelationPresentation(orders=%r, relator=%s)" % (
            list(self.orders), self.relator)


def _det(mat, mod, D):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc = PowerSeries(mod, D)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * _det(minor, mod, D)
        acc = acc - term if j % 2 else acc + term
    return acc


def extract_relations(basis, depth=None):
    """Presentation of an abelian closure from a regular basis.

    The basis roots must generate an abelian group acting regularly on the
    m letters with the product of the root orders equal to m.  Each
    basis[i] ** order_i stabilizes the first level and peels to a series
    row; the relator is det(diag(orders) - rows).
    """
    if not basis:
        raise ValueError("need at least one basis element")
    system = basis[0].system
    ctx = system.ctx
    if not system.abelian_certified():
        # certification needs the full context depth, whatever depth the
        # presentation itself is asked to use
        state_closure(list(basis))
    roots = [b.root() for b in basis]
    span = _perm_span(roots, ctx.m)
    if len(span) != ctx.m:
        raise ShapeMismatch(
            "root span has order %d, want %d for a regular action"
            % (len(span), ctx.m))
    if len(_root_orbits(roots, ctx.m)) != 1:
        raise ShapeMismatch("root span is not transitive")
    orders = tuple(r.order() for r in roots)
    prod = 1
    for o in orders:
        prod *= o
    if prod != ctx.m:
        raise ShapeMismatch(
            "root orders multiply to %d, want %d; pick an adapted basis"
            % (prod, ctx.m))
    rows = [peel(b ** o, basis, depth) for b, o in zip(basis, orders)]
    mat = []
    for i, row in enumerate(rows):
        mat.append([
            PowerSeries.constant(ctx.mod, ctx.D, orders[i] if i == j else 0) - q
            for j, q in enumerate(row)])
    relator = _det(mat, ctx.mod, ctx.D)
    return RelationPresentation(tuple(basis), orders,
                                tuple(tuple(row) for row in mat), relator)


# ------------------------------------------------------------ depth gauges

def annihilator_check(expr, r, depth=None):
    """Does the series r kill expr to the given depth?"""
    return expr.pow_series(r).is_identity(depth)


def order_to_depth(expr, depth=None):
    """The order of expr's action on the first `depth` levels.

    Computed on the portrait by the cycle formula (Portrait.order), so
    no level is enumerated and there is no size limit.
    """
    return expr.portrait(depth).order()


def zeta(expr, depth=None):
    """Exact number of levels stabilized by the m-th power of expr.

    Raises ValueError on the identity and ZetaUnbounded when the m-th
    power still looks trivial at the full observation depth.
    """
    ctx = expr.system.ctx
    depth = ctx.L if depth is None else depth
    if expr.is_identity(depth):
        raise ValueError("zeta needs a nontrivial element")
    w = expr ** ctx.m
    s = 0
    while s < depth and w.is_identity(s + 1):
        s += 1
    if s >= depth:
        raise ZetaUnbounded(depth)
    return s
