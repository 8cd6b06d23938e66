"""State-closure analysis: saturation, restriction, peeling, relations.

The state-closure of a set of tree automorphisms is everything reachable by
repeatedly taking first-level states.  For a foldable single-generator
system the states are powers of one generator, so one plain breadth-first
loop (_fold_walk) runs on exponent coefficient tuples and an expression is
built only for each state kept.  Those states are keyed by the linear
invariant of FoldSystem.key_forms: w dot products per state (w the
Weierstrass degree of the annihilator, 1 when q(0) is a unit mod m, and
then the key is a bare int) that tell exponents apart exactly when the
automorphisms differ to depth d.  The key is additive, so each state's m
child keys follow from one dot product per form with its own exponent, and
a child's tuple is built only when its key is new.  For anything else one
lazy breadth-first walk (_walk) runs on expressions, deduplicated by their
depth-bounded portraits, which are hash-consed and therefore cheap keys;
_walk also saturates the machine states of as_machine, the root span that
peel solves in, the letter orbits of a closure, and the machine states the
CLI's represent lists.

After the walk, either engine is certified abelian by its state names
(_names_abelian_depth) and looks for recurrence witnesses with one
candidate scan (_witnessed) that stops at the first full match.

Peeling writes an element of an abelian-verified closure as a product of
basis elements with power-series exponents, one stabilized layer at a time;
the relation extractor runs peeling on the m_i-th powers of a basis whose
root permutations span a regular abelian group on the m letters and returns
the determinant relator of the resulting presentation matrix.
"""

import itertools
from operator import mul

from .adic import PowerSeries
from .tree import (
    AutExpr, Context, ContextError, NotAbelian, Permutation, Portrait,
    ShapeMismatch, System, _form_columns,
)

ENUM_CAP = 10000
SPOT_CHECK_CAP = 48
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

def _fold_forms(system, depth):
    """(forms, m^depth) of FoldSystem.key_table."""
    return system.key_table(depth)


def _form_values(forms, coeffs):
    """The forms' unreduced values at coeffs: one dot product each."""
    return [sum(map(mul, coeffs, f)) for f in forms]


def _reduced(values, M):
    """The key from form values: each taken mod M."""
    return tuple([v % M for v in values])


def _fold_key(system, coeffs, depth):
    """The linear key of g^coeffs at depth: a bare int for one form."""
    forms, M = _fold_forms(system, depth)
    key = _reduced(_form_values(forms, coeffs), M)
    return key[0] if len(key) == 1 else key


def _fold_walk(system, seeds, depth, overflow):
    """(kept, firsts): the exponents of a fold closure's states, the seeds
    (canonical, D + 1 coefficients each) first, then the children of each
    kept one in turn, one per _fold_key, and the indices of the seeds kept;
    more than ENUM_CAP raise SaturationOverflow(overflow).

    A child's key is phi(P[c][y]) + xi*phi(qsum) + phi(Q') (the child
    formula of FoldSystem._exponent_child): the first term is tabled once
    per walk and phi(Q') is one dot product per form, shared by the m
    children, whose tuples are built only for new keys, from one base
    qsum*xi + Q'.  Tuples are carried at width W, 1 + the top nonzero
    degree among the P[c][y], qsum and the seeds (the seeds are cut, and
    zip cuts the base): every term of a child's coefficient of degree
    j >= W is 0 (Q_W = 0 by induction), so a kept tuple is the full one
    without trailing zeros, and the dot products only drop zero terms.
    """
    forms, M = _fold_forms(system, depth)
    m, mK = system.ctx.m, system._mK
    degrees = zip(system._qsum, *seeds, *itertools.chain(*system._prefix))
    width = 1 + max([j for j, d in enumerate(degrees) if any(d)], default=0)
    prefix, qsum = system._prefix, system._qsum
    table = _form_columns(prefix, forms, M)
    qvals = _form_values(forms, qsum)
    raised = [(0,) + f for f in forms]
    one = len(forms) == 1
    if one:
        (a,), (f,) = qvals, raised
        cols = [col for col, in table]
    kept, firsts, seen = [], [], set()
    for i, q in enumerate(seeds):
        k = _fold_key(system, q, depth)
        if k not in seen:
            seen.add(k)
            firsts.append(i)
            kept.append(q[:width])
    for q in kept:
        if len(kept) > ENUM_CAP:
            raise SaturationOverflow(overflow)
        xi, c = divmod(q[0], m)
        if one:
            b = xi * a + sum(map(mul, q, f))
            keys = [(v + b) % M for v in cols[c]]
        else:
            keys = zip(*[[(v + b) % M for v in col] for col, b in zip(
                table[c], [xi * a + sum(map(mul, q, f))
                           for a, f in zip(qvals, raised)])])
        base = None
        for row, k in zip(prefix[c], keys):
            if k not in seen:
                seen.add(k)
                if base is None:
                    base = [s * xi + t for s, t in zip(qsum, q[1:] + (0,))]
                kept.append(tuple([(p + t) % mK for p, t in zip(row, base)]))
    if len(kept) > ENUM_CAP:
        raise SaturationOverflow(overflow)
    return kept, firsts


def _built(items, key=None):
    """Children for _walk that are already built: their keys (the items
    themselves when key is None), and items."""
    keys = items if key is None else [key(item) for item in items]
    return keys, items.__getitem__


def _word_portraits(system, exprs, depth):
    """The depth-d portraits of the fold states exprs, one at a time, on
    the word path.

    Nodes come from system._decompose_normal alone, memoized per (word,
    depth) for this call and interned by Portrait.make; the keyed portrait
    memo of a fold system is never read, so comparing these nodes checks
    the linear key independently.  Before the memo lookup, each atom g^Q
    at depth d is replaced by its residue R: R_i = Q_i mod m^(d-i) for
    i < d and R_i = 0 from degree d up.  g^Q and g^R agree to depth d,
    because Q - R is a sum of terms m^(d-i)*x^i*A_i (i < d) and x^d*B:
    m = x*q mod the annihilator r = m - x*q, so m^(d-i)*x^i = x^d*q^(d-i)
    mod r lies in (r, x^d); g^r = e, and g^(x^d*B) is the diagonal of g^B
    at level d, trivial to depth d.  Equal residues share a node, but
    residues of one class are still expanded apart, so the cost grows with
    the distinct residues below the states and callers cap how many
    states they pass.
    """
    m, width = system.ctx.m, system.ctx.D + 1
    moduli = [[m ** (d - i) for i in range(d)] for d in range(depth + 1)]
    memo = {}

    def expand(word, d):
        if word:
            (name, coeffs), = word
            res = [v % M for v, M in zip(coeffs, moduli[d])]
            word = ((name, tuple(res) + (0,) * (width - d)),) if any(
                res) else ()
        node = memo.get((word, d))
        if node is None:
            root, children = system._decompose_normal(word)
            node = memo[word, d] = Portrait.make(root, () if d == 1 else tuple(
                [expand(w, d - 1) for w in children]))
        return node

    for expr in exprs:
        yield expand(system._normalize(expr.word), depth)


def _walk(seeds, children, key=None):
    """Breadth-first saturation, lazily: one item per key, in discovery order.

    Yields the seeds first, in order, then the children of every yielded
    item in turn; an item whose key was seen before is dropped.  Seeds are
    keyed by key(item), or are their own keys when key is None;
    children(item) returns (keys, build) with the children's keys in order
    and build(i) making child i, which is called only for a key not seen
    before, so a child that repeats a state is never built.  An item's
    children are asked for only when the caller wants more items.
    """
    kept = []
    seen = set()
    keys, build = _built(seeds, key)
    expanded = 0
    while True:
        for i, k in enumerate(keys):
            if k not in seen:
                seen.add(k)
                kept.append(build(i))
                yield kept[-1]
        if expanded == len(kept):
            return
        keys, build = children(kept[expanded])
        expanded += 1


def _capped(items, cap, overflow):
    """The items as a list; raises SaturationOverflow(overflow) past cap."""
    kept = list(itertools.islice(items, cap + 1))
    if len(kept) > cap:
        raise SaturationOverflow(overflow)
    return kept


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
        """Number of distinct nontrivial states.

        The walk keeps one state per depth-d key and seeds the identity
        first, so every other state differs from it to depth d.
        """
        return len(self.states) - 1

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
    """The orbits of the roots' group on the letters, each sorted.

    The roots are finite permutations, so every inverse is a power and
    forward images reach the whole orbit.
    """
    orbits = []
    seen = set()
    for start in range(1, m + 1):
        if start not in seen:
            orbit = sorted(_walk(
                [start], lambda y: _built([p.apply(y) for p in roots])))
            seen.update(orbit)
            orbits.append(tuple(orbit))
    return tuple(orbits)


def _names_abelian_depth(system, names, depth):
    """Largest d <= depth to which the named generators pairwise commute.

    A closure's states are words in the names they contain and in their
    diagonal shifts a^{x^i} = (a^{x^(i-1)}, ..., a^{x^(i-1)}).  When the
    children of each name are such words too, pairwise commutation of the
    names to depth d makes all those generators commute to depth d, by
    induction on d:
    - two names commute by the check;
    - two shifts a^{x^i}, b^{x^j} are diagonals and commute when
      a^{x^(i-1)} and b^{x^(j-1)} do to depth d - 1;
    - a diagonal commutes with any root, so a name a and a shift b^{x^j}
      commute when each child of a, a word in the generators, commutes
      with b^{x^(j-1)} to depth d - 1.
    Truncation is a homomorphism, so every pair of states commutes to
    depth d: k(k - 1)/2 commutators for k names, and no sample.  A fold
    generator's children are powers of it and its shifts, so a fold
    closure has one name and computes no commutator; when the names are
    every defined generator, the case that marks the system, every child
    is a word in them.
    """
    gens = [system.gen(name) for name in sorted(names)]
    best = depth
    for a, b in itertools.combinations(gens, 2):
        c = a.commutator(b)
        while best and not c.is_identity(best):
            best -= 1
        if not best:
            return 0
    return best


def _witnessed(targets, singles, inverse, product, first_state_key):
    """Whether each target key is the first-letter state key of a candidate.

    The candidates are the singles, then their inverses, then every ordered
    product of two of those; first_state_key(c) is the key of c's state at
    the first letter, or None when c moves that letter.  Candidates are
    made as the scan reaches them, and the scan stops once every target is
    matched or after WITNESS_SCAN_BUDGET candidates.
    """
    unmatched = set(targets)

    def candidates():
        pool = []
        for c in singles:
            pool.append(c)
            yield c
        for c in pool[:]:
            pool.append(inverse(c))
            yield pool[-1]
        for a, b in itertools.product(pool, repeat=2):
            yield product(a, b)

    for scanned, c in enumerate(candidates()):
        if not unmatched or scanned >= WITNESS_SCAN_BUDGET:
            break
        unmatched.discard(first_state_key(c))
    return not unmatched


def _fold_recurrence_witness(system, generators, exponents, depth):
    """Ring-arithmetic witness search for single-recursion systems.

    A word with exponent series w fixes the first letter exactly when the
    constant term is divisible by m, and its state there has exponent
    qsum * (w(0) / m) + (w - w(0)) / x.  Candidates are the states'
    exponents, their negatives and their pairwise sums, compared by the
    linear key at depth - 1.  The key is linear, so a candidate is carried
    as [w(0), form values of (w - w(0)) / x] and its state's key costs one
    multiply-add per form, with no exponent tuple built.  A single's form
    values are made when first read: for its own key only if m | w(0).
    """
    m = system.ctx.m
    forms, M = _fold_forms(system, max(1, depth - 1))
    qsum = _form_values(forms, system._qsum)

    def tail(c):
        if c[1] is None:
            c[1] = _form_values(forms, c[2][1:])
        return c[1]

    def first_state_key(c):
        v = c[0]
        if v % m:
            return None
        return _reduced([v // m * q + t for q, t in zip(qsum, tail(c))], M)

    return _witnessed(
        [_reduced(_form_values(forms, system._exponent(g.word)), M)
         for g in generators],
        ([w[0], None, w] for w in exponents),
        lambda c: [-c[0], [-t for t in tail(c)]],
        lambda a, b: [a[0] + b[0], [x + y for x, y in zip(tail(a), tail(b))]],
        first_state_key)


def _recurrence_witness(generators, states, depth):
    """Look for stabilizer elements whose first state hits each generator.

    Candidates and generators are compared by their portraits at the probe
    depth, depth - 1.
    """
    probe = max(1, depth - 1)

    def first_state_key(expr):
        if expr.root().apply(1) != 1:
            return None
        return expr.state([1]).portrait(probe)

    return _witnessed([g.portrait(probe) for g in generators], states,
                      AutExpr.inverse, mul, first_state_key)


def state_closure(generators, depth=None):
    """Saturate first-level states of the generators; returns a report.

    depth bounds both the deduplication of states and every verification
    in the report (defaults to the context depth L); more than ENUM_CAP
    states raise SaturationOverflow.  Either closure is certified abelian
    to the depth to which the generator names in its states pairwise
    commute (one fold name needs no commutator); if that is the full
    context depth, and those names are every defined generator, the system
    is marked so, which lets later algebra merge exponents.

    A fold closure pads each walked exponent back to D + 1 coefficients,
    a canonical word, and checks its linear keys after the walk: when it
    keeps at most SPOT_CHECK_CAP states, each state's portrait is expanded
    once on the word path (_word_portraits, which never reads the key) and
    the first state whose portrait was seen raises DedupeCollision.  The
    cap stays because word-path expansion does not merge exponents of one
    class.  The fold recurrence witness reads the generator and the kept
    exponents, not the states.  Either witness scan stops at the first
    candidate that completes the match.
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
    overflow = "more than %d states at depth %d" % (ENUM_CAP, depth)
    if system.foldable:
        if ctx.K < 2:
            # one digit of each p_y does not fix the closure: at m = 4,
            # p = (0, 0, -1, -1) and (0, 0, 3, 3) make one K = 1 system, yet
            # their generators have 3 and 4 states to depth 1
            raise ContextError("need K >= 2 for a fold state closure")
        exponents = [system._exponent(g.word) for g in seeds]
        kept, firsts = _fold_walk(system, exponents, depth, overflow)
        # the seeds the walk keeps stay the expressions as they were passed
        pad = (0,) * (ctx.D + 1 - len(kept[0]))
        states = [seeds[i] for i in firsts] + [AutExpr(system, (
            (system.name, q + pad),)) for q in kept[len(firsts):]]
        if len(states) <= SPOT_CHECK_CAP:
            # the linear keys promise pairwise distinctness; spot-check it
            # on word-path portraits, raising at the first state of a seen
            # class
            first = {}
            for b, node in zip(states,
                               _word_portraits(system, states, depth)):
                a = first.setdefault(node, b)
                if a is not b:
                    raise DedupeCollision(
                        "states %r and %r share a portrait but not a key"
                        % (a, b))
    else:
        def key(expr):
            return expr.portrait(depth)

        states = _capped(_walk(
            seeds, lambda expr: _built(expr.decompose()[1], key), key),
            ENUM_CAP, overflow)
    names = {name for s in states for name, _ in s.word}
    abelian = _names_abelian_depth(system, names, depth)
    # a mark merges the words of every defined name, so it needs all
    if abelian >= ctx.L and names >= set(system.names()):
        system.mark_abelian(abelian)

    roots = [g.root() for g in generators]
    orbits = _root_orbits(roots, ctx.m)
    transitive = len(orbits) == 1
    nontrivial = sorted(
        (g for g in generators if not g.is_identity(depth)), key=repr)
    if system.foldable:
        recurrent = _fold_recurrence_witness(system, nontrivial, kept, depth)
    else:
        recurrent = _recurrence_witness(nontrivial, states, depth)
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
    depth = ctx.depth(depth)

    def key(e):
        return e.portrait(depth)

    states = _capped(_walk(
        [expr],
        lambda e: _built([c for c in e.decompose()[1]
                          if not c.is_identity(depth)], key),
        key), ENUM_CAP, "more than %d machine states" % ENUM_CAP)
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
    def children(item):
        p, t = item
        keys = [p * s for s in roots]
        return keys, lambda i: (keys[i], t[:i] + (t[i] + 1,) + t[i + 1:])

    return dict(_capped(
        _walk([(Permutation.identity(m), (0,) * len(roots))], children,
              lambda item: item[0]),
        ENUM_CAP, "root span larger than %d" % ENUM_CAP))


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
