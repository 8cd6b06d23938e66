"""Automorphisms of the rooted m-ary tree as lazily expanded words.

An automorphism is a word of atoms g^{q} where g is a named wreath-recursion
generator and q a truncated power series over Z_m (a diagonal shift by x^d
is just multiplication of q by x^d).  Levels of the tree are observed
through first-level decompositions: a word unfolds into a root permutation
of Y = {1..m} plus one residual word per letter, and every question the
library answers (portraits, states, identity and equality checks) is asked
to a finite depth L only.

Permutations act on the right and letters are 1-indexed, so the image of y
under p is written (y)p and p*q means "apply p, then q".  Entries of a
wreath recursion are indexed by source letter: the generator
(w_1, ..., w_m)s sends a vertex y.u to (y)s . u^{w_y}.

Two expansion engines live here.  A System holds arbitrary named recursions
and unfolds words by the product rule; a FoldSystem holds one generator
g = (g^{p_1}, ..., g^{p_m})s with s an m-cycle, whose state-closure is
abelian, and folds whole power-series exponents in one step.  The fold
consumes one scalar digit of precision per level, which is why contexts
require K >= L and D >= L: depth-L observations are then exact.
"""

import os
import re
from math import lcm

from .adic import MAdicInt, Modulus, PowerSeries


class ContextError(ValueError):
    pass


class DepthExceeded(ContextError):
    pass


class ExponentNotStabilized(ArithmeticError):
    pass


class ShapeMismatch(ValueError):
    pass


class NotAbelian(ArithmeticError):
    pass


DEFAULT_CACHE = 1000000
EXPANSION_CAP = 4096


# ------------------------------------------------------------ permutations

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation(object):
    """A permutation of {1..m}; images[i-1] is the image of i."""

    __slots__ = ("images",)

    def __init__(self, images):
        imgs = tuple(images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError("not a bijection of 1..%d" % len(imgs))
        self.images = imgs

    @classmethod
    def identity(cls, m):
        return cls(range(1, m + 1))

    @classmethod
    def from_cycles(cls, cycles, m):
        """Build from cycle notation: a string like '(1 2 3)(4 5)' or a list."""
        if isinstance(cycles, str):
            text = cycles.replace(",", " ").strip()
            if _CYCLE_RE.sub("", text).strip():
                raise ValueError("ill formatted cycle notation: %r" % cycles)
            cycles = [[int(tok) for tok in body.split()]
                      for body in _CYCLE_RE.findall(text)]
        imgs = list(range(1, m + 1))
        for cyc in cycles:
            if len(cyc) != len(set(cyc)):
                raise ValueError("repeated point in cycle")
            for a in cyc:
                if not 1 <= a <= m:
                    raise ValueError("point %d outside 1..%d" % (a, m))
            for i, a in enumerate(cyc):
                imgs[a - 1] = cyc[(i + 1) % len(cyc)]
        return cls(imgs)

    @property
    def m(self):
        return len(self.images)

    def apply(self, i):
        return self.images[i - 1]

    def __mul__(self, other):
        if self.m != other.m:
            raise ValueError("permutation sizes differ")
        return Permutation(other.images[i - 1] for i in self.images)

    def inverse(self):
        out = [0] * self.m
        for i, img in enumerate(self.images):
            out[img - 1] = i + 1
        return Permutation(out)

    def __pow__(self, n):
        n %= self.order()
        result = Permutation.identity(self.m)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def order(self):
        return lcm(1, *(len(c) for c in self.cycles()))

    def cycles(self):
        """Nontrivial cycles, each starting at its least point."""
        seen = set()
        out = []
        for start in range(1, self.m + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self.apply(start)
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self.apply(nxt)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def is_identity(self):
        return all(img == i + 1 for i, img in enumerate(self.images))

    def is_full_cycle(self):
        cycs = self.cycles()
        return len(cycs) == 1 and len(cycs[0]) == self.m

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(%s)" % " ".join(str(a) for a in c) for c in cycs)


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


# ----------------------------------------------------------------- context

class Context(object):
    """Shared truncation context: base m, K digits, degree D, depth L."""

    __slots__ = ("m", "K", "D", "L", "mod", "cache_cap")

    def __init__(self, m, K=8, D=8, L=8, cache_cap=None):
        if L < 1:
            raise ContextError("need depth L >= 1")
        if K < L or D < L:
            raise ContextError("need K >= L and D >= L for exact depth-L portraits")
        self.m = m
        self.K = K
        self.D = D
        self.L = L
        self.mod = Modulus(m, K)
        if cache_cap is None:
            cache_cap = int(os.environ.get("SELFSIM_CACHE", DEFAULT_CACHE))
        self.cache_cap = cache_cap

    def series(self, q):
        """Coerce q (series, scalar, int, or literal text) to a context series."""
        from .adic import parse_series
        if isinstance(q, PowerSeries):
            if q.mod != self.mod or q.D > self.D:
                raise ContextError("series context differs from session context")
            return PowerSeries(self.mod, self.D, q.lifts())
        if isinstance(q, MAdicInt):
            if q.mod != self.mod:
                raise ContextError("scalar context differs from session context")
            return PowerSeries.constant(self.mod, self.D, q.value)
        if isinstance(q, int):
            return PowerSeries.constant(self.mod, self.D, q)
        if isinstance(q, str):
            return parse_series(q, self.mod, self.D)
        raise TypeError("cannot interpret %r as an exponent series" % (q,))

    def __eq__(self, other):
        return (isinstance(other, Context) and (self.m, self.K, self.D, self.L)
                == (other.m, other.K, other.D, other.L))

    def __hash__(self):
        return hash((self.m, self.K, self.D, self.L))

    def depth(self, depth=None):
        """Resolve a depth argument: None means L, else it must lie in 1..L."""
        if depth is None:
            return self.L
        if depth < 1:
            raise DepthExceeded("depth must be at least 1, got %d" % depth)
        if depth > self.L:
            raise DepthExceeded("depth %d exceeds truncation %d" % (depth, self.L))
        return depth

    def __repr__(self):
        return "Context(m=%d, K=%d, D=%d, L=%d)" % (self.m, self.K, self.D, self.L)


# ---------------------------------------------------------------- portrait

class Portrait(object):
    """Depth-L truncation of an automorphism: a tree of permutations.

    Portraits are hash-consed so that equal subtrees are usually the same
    object, which makes a portrait a DAG of distinct nodes.  Products,
    inverses and orders are memoized in computed tables keyed on node
    identity (each entry keeps its operands alive, so an id is never
    reused while its entry exists), so their cost follows the number of
    distinct nodes and node pairs, not the m^depth vertices.  The tables
    clear together with the intern table at DEFAULT_CACHE entries;
    equality falls back to structural comparison, so clearing is always
    safe.
    """

    __slots__ = ("root", "children", "depth", "_hash")

    _intern = {}
    _products = {}   # (id(a), id(b)) -> (a, b, a*b)
    _inverses = {}   # id(a) -> (a, a^-1)
    _orders = {}     # id(a) -> (a, order of a)

    def __init__(self, root, children):
        self.root = root
        self.children = children
        self.depth = 1 + (children[0].depth if children else 0)
        self._hash = hash((root.images, children))

    @classmethod
    def make(cls, root, children):
        key = (root.images, children)
        hit = cls._intern.get(key)
        if hit is not None:
            return hit
        node = cls(root, children)
        cls._remember(cls._intern, key, node)
        return node

    @classmethod
    def _remember(cls, table, key, value):
        if len(table) > DEFAULT_CACHE:
            cls.clear_tables()
        table[key] = value

    @classmethod
    def clear_tables(cls):
        """Drop the intern table and every computed table together."""
        for table in (cls._intern, cls._products, cls._inverses, cls._orders):
            table.clear()

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Portrait) and self._hash == other._hash
                and self.root == other.root and self.children == other.children)

    def __hash__(self):
        return self._hash

    @property
    def m(self):
        return self.root.m

    def is_identity(self):
        return self.root.is_identity() and all(c.is_identity() for c in self.children)

    def node_count(self):
        return 1 + sum(c.node_count() for c in self.children)

    def nodes_bfs(self):
        """Yield permutation labels in breadth-first order."""
        layer = [self]
        while layer:
            nxt = []
            for node in layer:
                yield node.root
                nxt.extend(node.children)
            layer = nxt

    def to_json(self):
        return {"m": self.m, "L": self.depth,
                "nodes": [list(p.images) for p in self.nodes_bfs()]}

    @classmethod
    def from_json(cls, obj):
        m, L = obj["m"], obj["L"]
        nodes = [Permutation(images) for images in obj["nodes"]]
        expected = (m ** L - 1) // (m - 1) if m > 1 else L
        if len(nodes) != expected:
            raise ValueError("expected %d portrait nodes, got %d" % (expected, len(nodes)))

        def build(idx, depth):
            if depth == L:
                kids = ()
            else:
                kids = tuple(build(idx * m + 1 + y, depth + 1) for y in range(m))
            return cls.make(nodes[idx], kids)

        return build(0, 1)

    def to_dot(self):
        """Render as a DOT digraph; vertex names are tree addresses."""
        lines = ["digraph portrait {", '  node [shape=box, fontname="monospace"];']

        def walk(node, name):
            label = repr(node.root)
            lines.append('  "%s" [label="%s"];' % (name or "root", label))
            for y, child in enumerate(node.children, start=1):
                childname = name + ("." if name else "") + str(y)
                lines.append('  "%s" -> "%s" [label="%d"];' % (name or "root", childname, y))
                walk(child, childname)

        walk(self, "")
        lines.append("}")
        return "\n".join(lines)

    def __mul__(self, other):
        """Product of two portraits of equal depth (truncations compose)."""
        if not isinstance(other, Portrait):
            raise TypeError("expected a portrait")
        if self.depth != other.depth or self.m != other.m:
            raise ShapeMismatch("portrait shapes differ")
        return self._mul(other)

    def _mul(self, other):
        key = (id(self), id(other))
        hit = Portrait._products.get(key)
        if hit is not None:
            return hit[2]
        images = self.root.images
        kids = tuple(
            child._mul(other.children[images[y] - 1])
            for y, child in enumerate(self.children))
        node = Portrait.make(self.root * other.root, kids)
        Portrait._remember(Portrait._products, key, (self, other, node))
        return node

    def inverse(self):
        hit = Portrait._inverses.get(id(self))
        if hit is not None:
            return hit[1]
        inv = self.root.inverse()
        kids = tuple(
            self.children[inv.images[y] - 1].inverse()
            for y in range(len(self.children)))
        node = Portrait.make(inv, kids)
        Portrait._remember(Portrait._inverses, id(self), (self, node))
        return node

    def order(self):
        """The order of the automorphism on the portrait's depth.

        The cycle formula: the lcm, over the root's cycles C (fixed points
        included), of |C| times the order of the product of the children
        along C in right-action order, which is the state of g^|C| at
        the cycle's first letter.  Memoized per node.
        """
        hit = Portrait._orders.get(id(self))
        if hit is not None:
            return hit[1]
        if not self.children:
            result = self.root.order()
        else:
            result = 1
            images = self.root.images
            seen = [False] * len(images)
            for start in range(len(images)):
                if seen[start]:
                    continue
                y = start
                state = None
                length = 0
                while not seen[y]:
                    seen[y] = True
                    child = self.children[y]
                    state = child if state is None else state._mul(child)
                    y = images[y] - 1
                    length += 1
                result = lcm(result, length * state.order())
        Portrait._remember(Portrait._orders, id(self), (self, result))
        return result

    def suspended(self, levels):
        """The diagonal lift: this portrait at every vertex `levels` down."""
        node = self
        for _ in range(levels):
            node = Portrait.make(Permutation.identity(self.m), (node,) * self.m)
        return node

    def conjugated_by(self, h):
        """The portrait of h^-1 * self * h."""
        return h.inverse() * self * h

    def level_perm(self, l):
        """The permutation this portrait induces on the m^l vertices of level l.

        Vertices are numbered lexicographically (first letter most
        significant), matching breadth-first order; the result is 1-indexed.
        """
        if l < 1 or l > self.depth:
            raise DepthExceeded("level %d outside portrait depth %d" % (l, self.depth))

        def images(node, lev):
            if lev == 1:
                return [img - 1 for img in node.root.images]
            block = self.m ** (lev - 1)
            out = [0] * (self.m * block)
            for y in range(1, self.m + 1):
                sub = images(node.children[y - 1], lev - 1)
                base = (y - 1) * block
                tbase = (node.root.apply(y) - 1) * block
                for w in range(block):
                    out[base + w] = tbase + sub[w]
            return out

        return Permutation(i + 1 for i in images(self, l))

    def __repr__(self):
        return "Portrait(depth=%d, root=%r)" % (self.depth, self.root)


def _identity_portrait(m, depth):
    node = Portrait.make(Permutation.identity(m), ())
    for _ in range(depth - 1):
        node = Portrait.make(Permutation.identity(m), (node,) * m)
    return node


def rooted_portrait(perm, depth):
    """Depth-bounded portrait of the rooted automorphism given by perm."""
    if depth < 1:
        raise DepthExceeded("depth must be at least 1")
    if depth == 1:
        return Portrait.make(perm, ())
    sub = _identity_portrait(perm.m, depth - 1)
    return Portrait.make(perm, (sub,) * perm.m)


# ------------------------------------------------------------- expressions

def _signed(lift, mK):
    """Smallest-magnitude signed representative of a residue mod mK."""
    return lift - mK if lift > mK // 2 else lift


def _format_exponent(coeffs):
    terms = []
    for d, c in enumerate(coeffs):
        if c == 0:
            continue
        if d == 0:
            terms.append("%d" % c)
        else:
            mag = "" if abs(c) == 1 else "%d*" % abs(c)
            sign = "-" if c < 0 else ""
            terms.append("%s%sx%s" % (sign, mag, "^%d" % d if d > 1 else ""))
    if not terms:
        return "0"
    text = terms[0]
    for t in terms[1:]:
        text += " - " + t[1:] if t.startswith("-") else " + " + t
    return text


class AutExpr(object):
    """A tree automorphism: a word of generator powers over one system."""

    __slots__ = ("system", "word")

    def __init__(self, system, word):
        self.system = system
        self.word = word

    def _check(self, other):
        if not isinstance(other, AutExpr):
            raise TypeError("expected an automorphism expression")
        if self.system is not other.system:
            raise ContextError("expressions belong to different systems")

    def __mul__(self, other):
        self._check(other)
        return AutExpr(self.system, self.system._normalize(self.word + other.word))

    def inverse(self):
        return AutExpr(self.system, self.system._invert_word(self.word))

    def __pow__(self, n):
        if not isinstance(n, int):
            return self.pow_series(n)
        return self.system._int_power(self, n)

    def pow_series(self, q):
        """Raise to a power-series exponent (series, scalar, int, or literal)."""
        return self.system._pow_series(self, q)

    def diagonal(self, i):
        """The diagonal embedding at level i: exponents multiplied by x^i."""
        return self.system._diagonal(self, i)

    def decompose(self):
        """Return (root permutation, tuple of m child expressions)."""
        root, children = self.system._word_decompose(self.word)
        return root, tuple(AutExpr(self.system, w) for w in children)

    def root(self):
        return self.system._word_decompose(self.word)[0]

    def act(self, u):
        """Apply to a vertex word; returns (image word, residual state)."""
        u = list(u)
        if len(u) > self.system.ctx.L:
            raise DepthExceeded("vertex word longer than depth bound %d" % self.system.ctx.L)
        image = []
        word = self.word
        for letter in u:
            if not 1 <= letter <= self.system.ctx.m:
                raise ValueError("letter %r outside 1..%d" % (letter, self.system.ctx.m))
            root, children = self.system._word_decompose(word)
            image.append(root.apply(letter))
            word = children[letter - 1]
        return image, AutExpr(self.system, word)

    def state(self, u):
        """The automorphism induced on the subtree below vertex u."""
        return self.act(u)[1]

    def portrait(self, depth=None):
        return self.system._portrait(self.word, self.system.ctx.depth(depth))

    def is_identity(self, depth=None):
        depth = self.system.ctx.L if depth is None else depth
        if depth > self.system.ctx.L:
            raise DepthExceeded("depth %d exceeds truncation %d" % (depth, self.system.ctx.L))
        return self.system._is_identity(self.word, depth)

    def equal_to_depth(self, other, depth=None):
        """Portrait equality to the given depth (never full equality)."""
        self._check(other)
        return (self * other.inverse()).is_identity(depth)

    def commutator(self, other):
        self._check(other)
        return self.inverse() * other.inverse() * self * other

    def __repr__(self):
        if not self.word:
            return "e"
        parts = []
        for name, coeffs in self.word:
            if tuple(coeffs[1:]) == (0,) * (len(coeffs) - 1) and coeffs[0] == 1:
                parts.append(name)
            else:
                parts.append("%s^{%s}" % (name, _format_exponent(coeffs)))
        return " ".join(parts)


def commutator(a, b):
    """The commutator a^-1 b^-1 a b."""
    return a.commutator(b)


def multiply(a, b):
    """Product of two expressions over the same system."""
    return a * b


def invert(a):
    """Inverse of an expression."""
    return a.inverse()


def act(expr, u):
    """Apply expr to the vertex word u; returns (image, residual state)."""
    return expr.act(u)


def state(expr, u):
    """The state of expr below vertex u."""
    return expr.state(u)


def diagonal(expr, i):
    """Diagonal embedding of expr at level i."""
    return expr.diagonal(i)


def pow_series(expr, q):
    """expr raised to the series exponent q."""
    return expr.pow_series(q)


def portrait(expr, depth=None):
    """Depth-bounded portrait of expr."""
    return expr.portrait(depth)


def equal_to_depth(a, b, depth=None):
    """Portrait equality of two expressions to the given depth."""
    return a.equal_to_depth(b, depth)


# ----------------------------------------------------------------- systems

class GeneratorDef(object):
    """Introspection record for one defined generator."""

    __slots__ = ("name", "root", "entries")

    def __init__(self, name, root, entries):
        self.name = name
        self.root = root
        self.entries = entries

    def __repr__(self):
        inner = ", ".join("e" if not w.word else repr(w) for w in self.entries)
        return "%s = (%s) %r" % (self.name, inner, self.root)


class System(object):
    """A family of named wreath recursions sharing one context.

    Generators may be defined eagerly with define() or served lazily by
    providers (used for machine representations whose state space is
    discovered on demand).  All expansion results are memoized; words used
    as memo keys are normalized but never rewritten modulo any relator, so
    identity tests stay independent of the algebra they are used to check.
    """

    foldable = False

    def __init__(self, ctx):
        self.ctx = ctx
        self._defs = {}
        self._providers = []
        self._abelian_depth = 0
        self._atom_memo = {}
        self._word_memo = {}
        self._identity_memo = {}
        self._portrait_memo = {}

    # -- construction

    def gen(self, name):
        """The expression for a named generator (may be defined later)."""
        coeffs = [0] * (self.ctx.D + 1)
        coeffs[0] = 1
        return AutExpr(self, ((name, tuple(coeffs)),))

    def identity(self):
        return AutExpr(self, ())

    def define(self, name, root, entries):
        """Define name = (entries) root; entries are expressions or 'e'."""
        if name in self._defs:
            raise ValueError("generator %r already defined" % name)
        if isinstance(root, str):
            root = Permutation.from_cycles(root, self.ctx.m)
        if root.m != self.ctx.m:
            raise ShapeMismatch("root permutation size differs from m")
        if len(entries) != self.ctx.m:
            raise ShapeMismatch("expected %d entries" % self.ctx.m)
        words = []
        for entry in entries:
            if isinstance(entry, str):
                if entry != "e":
                    raise ValueError("entry literals other than 'e' need expressions")
                words.append(())
            else:
                if entry.system is not self:
                    raise ContextError("entry expression belongs to a different system")
                words.append(entry.word)
        if self._abelian_depth:
            # A certificate only covers generators that existed when it was
            # issued; a new definition invalidates it.
            self._abelian_depth = 0
            self._atom_memo.clear()
            self._word_memo.clear()
            self._identity_memo.clear()
            self._portrait_memo.clear()
        self._defs[name] = (root, tuple(words))
        return self.gen(name)

    def add_provider(self, fn):
        """Register a callback name -> (root, entry words) for lazy generators."""
        self._providers.append(fn)

    def definition(self, name):
        root, words = self._lookup(name)
        return GeneratorDef(name, root, tuple(AutExpr(self, w) for w in words))

    def names(self):
        return sorted(self._defs)

    def mark_abelian(self, depth):
        """Record an abelianness certificate; enables sorted-merged words.

        Only a certificate at full context depth changes normalization,
        since memo keys must stay sound for every depth-bounded question.
        """
        self._abelian_depth = max(self._abelian_depth, depth)
        if depth >= self.ctx.L:
            self._atom_memo.clear()
            self._word_memo.clear()
            self._identity_memo.clear()
            self._portrait_memo.clear()

    def abelian_certified(self):
        return self._abelian_depth >= self.ctx.L

    # -- word plumbing

    def _lookup(self, name):
        hit = self._defs.get(name)
        if hit is not None:
            return hit
        for fn in self._providers:
            hit = fn(name)
            if hit is not None:
                self._defs[name] = hit
                return hit
        raise KeyError("undefined generator %r" % name)

    def _zero_coeffs(self):
        return (0,) * (self.ctx.D + 1)

    def _coeff_add(self, a, b):
        return tuple(u + v for u, v in zip(a, b))

    def _coeff_neg(self, a):
        return tuple(-u for u in a)

    def _normalize(self, word):
        if self.abelian_certified():
            acc = {}
            for name, coeffs in word:
                cur = acc.get(name)
                acc[name] = self._coeff_add(cur, coeffs) if cur else coeffs
            items = []
            for name in sorted(acc):
                coeffs = self._canon_coeffs(acc[name])
                if any(coeffs):
                    items.append((name, coeffs))
            return tuple(items)
        out = []
        for atom in word:
            name, coeffs = atom
            coeffs = self._canon_coeffs(coeffs)
            if not any(coeffs):
                continue
            if out and out[-1][0] == name:
                pname, pcoeffs = out[-1]
                if self._constant(coeffs) is not None and self._constant(pcoeffs) is not None:
                    merged = self._canon_coeffs(self._coeff_add(pcoeffs, coeffs))
                    out.pop()
                    if any(merged):
                        out.append((name, merged))
                    continue
            out.append((name, coeffs))
        return tuple(out)

    def _canon_coeffs(self, coeffs):
        return tuple(coeffs)

    @staticmethod
    def _constant(coeffs):
        if any(coeffs[1:]):
            return None
        return coeffs[0]

    def _invert_atom(self, atom):
        name, coeffs = atom
        if self.abelian_certified():
            return ((name, self._canon_coeffs(self._coeff_neg(coeffs))),)
        c = self._constant(coeffs)
        if c is not None:
            out = [0] * len(coeffs)
            out[0] = -c
            return ((name, self._canon_coeffs(tuple(out))),)
        # invert each diagonal block, highest degree first
        out = []
        for d in range(len(coeffs) - 1, -1, -1):
            if coeffs[d]:
                blk = [0] * len(coeffs)
                blk[d] = -coeffs[d]
                out.append((name, self._canon_coeffs(tuple(blk))))
        return tuple(out)

    def _invert_word(self, word):
        out = []
        for atom in reversed(word):
            out.extend(self._invert_atom(atom))
        return self._normalize(tuple(out))

    def _diagonal(self, expr, i):
        if i < 0:
            raise ValueError("diagonal shift must be nonnegative")
        out = []
        for name, coeffs in expr.word:
            shifted = (0,) * i + coeffs[:len(coeffs) - i]
            out.append((name, self._canon_coeffs(shifted)))
        return AutExpr(self, self._normalize(tuple(out)))

    def _int_power(self, expr, n):
        if n == 0:
            return self.identity()
        word = expr.word
        if len(word) == 1:
            name, coeffs = word[0]
            c = self._constant(coeffs)
            if self.abelian_certified() or c is not None:
                scaled = tuple(v * n for v in coeffs)
                return AutExpr(self, self._normalize(((name, self._canon_coeffs(scaled)),)))
        if self.abelian_certified():
            out = []
            for name, coeffs in word:
                out.append((name, self._canon_coeffs(tuple(v * n for v in coeffs))))
            return AutExpr(self, self._normalize(tuple(out)))
        reps = abs(n)
        if reps * max(1, len(word)) > EXPANSION_CAP:
            raise ShapeMismatch(
                "integer power %d too large for a non-abelian word; "
                "use a foldable single-generator system" % n)
        base = word if n > 0 else self._invert_word(word)
        return AutExpr(self, self._normalize(base * reps))

    def _pow_series(self, expr, q):
        q = self.ctx.series(q)
        word = self._normalize(expr.word)
        if not word:
            return self.identity()
        if not self.abelian_certified():
            if len(word) > 1 or self._constant(word[0][1]) is None:
                raise NotAbelian(
                    "series exponents need an abelian-verified system "
                    "or a plain generator power")
        expr = AutExpr(self, word)
        lifts = q.lifts()
        mK = self.ctx.mod.mK
        exact = [_signed(v, mK) for v in lifts]
        small = [_signed(v % (mK // self.ctx.m), mK // self.ctx.m) for v in lifts]
        candidate = self._series_power_word(expr, exact)
        if exact != small:
            if self.ctx.K < 2:
                raise ContextError("need K >= 2 to certify scalar exponents")
            probe = self._series_power_word(expr, small)
            if not candidate.equal_to_depth(probe, self.ctx.L):
                raise ExponentNotStabilized(
                    "portraits at %d and %d scalar digits disagree at depth %d"
                    % (self.ctx.K - 1, self.ctx.K, self.ctx.L))
        return candidate

    def _series_power_word(self, expr, int_coeffs):
        factors = []
        for d, c in enumerate(int_coeffs):
            if c:
                factors.append(self._diagonal(self._int_power(expr, c), d))
        out = self.identity()
        for f in factors:
            out = out * f
        return out

    # -- expansion engine

    def _atom_decompose(self, atom):
        hit = self._atom_memo.get(atom)
        if hit is not None:
            return hit
        name, coeffs = atom
        c0 = coeffs[0]
        rest = coeffs[1:] + (0,)
        root, children = self._const_decompose(name, c0)
        if any(rest):
            tail = (name, self._canon_coeffs(rest))
            children = tuple(self._normalize(w + (tail,)) for w in children)
        result = (root, children)
        if len(self._atom_memo) > self.ctx.cache_cap:
            self._atom_memo.clear()
        self._atom_memo[atom] = result
        return result

    def _const_decompose(self, name, n):
        root, entries = self._lookup(name)
        m = self.ctx.m
        if n == 0:
            return Permutation.identity(m), ((),) * m
        if all(not w for w in entries):
            return root ** n, ((),) * m
        reps = abs(n)
        if reps > EXPANSION_CAP:
            raise ShapeMismatch(
                "constant exponent %d too large for a non-foldable generator" % n)
        pos_root = root ** reps
        children = []
        for y in range(1, m + 1):
            parts = []
            z = y
            for _ in range(reps):
                parts.extend(entries[z - 1])
                z = root.apply(z)
            children.append(self._normalize(tuple(parts)))
        if n > 0:
            return pos_root, tuple(children)
        inv_root = pos_root.inverse()
        inv_children = tuple(
            self._invert_word(children[inv_root.apply(y) - 1]) for y in range(1, m + 1))
        return inv_root, inv_children

    def _word_decompose(self, word):
        word = self._normalize(word)
        hit = self._word_memo.get(word)
        if hit is not None:
            return hit
        m = self.ctx.m
        root = Permutation.identity(m)
        children = [() for _ in range(m)]
        track = list(range(1, m + 1))
        for atom in word:
            aroot, achildren = self._atom_decompose(atom)
            for y in range(m):
                children[y] = children[y] + achildren[track[y] - 1]
                track[y] = aroot.apply(track[y])
            root = root * aroot
        result = (root, tuple(self._normalize(w) for w in children))
        if len(self._word_memo) > self.ctx.cache_cap:
            self._word_memo.clear()
        self._word_memo[word] = result
        return result

    def _is_identity(self, word, depth):
        word = self._normalize(word)
        if not word or depth <= 0:
            return True
        key = (word, depth)
        hit = self._identity_memo.get(key)
        if hit is not None:
            return hit
        root, children = self._word_decompose(word)
        ok = root.is_identity()
        if ok and depth > 1:
            ok = all(self._is_identity(w, depth - 1) for w in children)
        if len(self._identity_memo) > self.ctx.cache_cap:
            self._identity_memo.clear()
        self._identity_memo[key] = ok
        return ok

    def _portrait(self, word, depth):
        word = self._normalize(word)
        key = (word, depth)
        hit = self._portrait_memo.get(key)
        if hit is not None:
            return hit
        root, children = self._word_decompose(word)
        if depth == 1:
            node = Portrait.make(root, ())
        else:
            node = Portrait.make(
                root, tuple(self._portrait(w, depth - 1) for w in children))
        if len(self._portrait_memo) > self.ctx.cache_cap:
            self._portrait_memo.clear()
        self._portrait_memo[key] = node
        return node


class FoldSystem(System):
    """One generator g = (g^{p_1}, ..., g^{p_m})s with s a full m-cycle.

    Exponent words fold level by level: for an exponent series Q with
    constant part v = c + m*xi (0 <= c < m) and tail Q', the decomposition
    is root s^c with the child at source y equal to g raised to

        p_y + p_{(y)s} + ... + p_{(y)s^(c-1)}  +  (p_1+...+p_m)*xi  +  Q'.

    The state-closure of such a generator is abelian, so exponents add;
    all coefficients live mod m^K and one digit of scalar precision is
    consumed per level, exactly matching the K >= L context rule.
    """

    foldable = True

    def __init__(self, ctx, name, exponents, sigma):
        super().__init__(ctx)
        if isinstance(sigma, str):
            sigma = Permutation.from_cycles(sigma, ctx.m)
        if not sigma.is_full_cycle():
            raise ShapeMismatch("root permutation must be a full m-cycle")
        if len(exponents) != ctx.m:
            raise ShapeMismatch("expected %d exponent series" % ctx.m)
        self.name = name
        self.sigma = sigma
        self._sigma_powers = tuple(sigma ** c for c in range(ctx.m))
        self.exponents = tuple(ctx.series(p) for p in exponents)
        self._plifts = tuple(p.lifts() for p in self.exponents)
        qsum = [0] * (ctx.D + 1)
        for lifts in self._plifts:
            for d, c in enumerate(lifts):
                qsum[d] += c
        self._qsum = tuple(v % ctx.mod.mK for v in qsum)
        entry_words = []
        for lifts in self._plifts:
            entry_words.append(
                ((name, self._canon_coeffs(lifts)),) if any(lifts) else ())
        self._defs[name] = (sigma, tuple(entry_words))
        self._abelian_depth = ctx.L

    def _canon_coeffs(self, coeffs):
        mK = self.ctx.mod.mK
        return tuple(v % mK for v in coeffs)

    def generator(self):
        return self.gen(self.name)

    def annihilator(self):
        """The series m - x*(p_1+...+p_m), which kills the generator."""
        coeffs = [self.ctx.m] + [-v for v in self._qsum[:self.ctx.D]]
        return PowerSeries(self.ctx.mod, self.ctx.D, coeffs)

    def _const_decompose(self, name, n):
        raise AssertionError("fold systems decompose atoms directly")

    def _atom_decompose(self, atom):
        hit = self._atom_memo.get(atom)
        if hit is not None:
            return hit
        name, coeffs = atom
        m = self.ctx.m
        mK = self.ctx.mod.mK
        v = coeffs[0]
        c = v % m
        xi = (v - c) // m
        tail = coeffs[1:] + (0,)
        children = []
        for y in range(1, m + 1):
            acc = [0] * len(coeffs)
            z = y
            for _ in range(c):
                for d, p in enumerate(self._plifts[z - 1]):
                    acc[d] += p
                z = self.sigma.apply(z)
            for d in range(len(coeffs)):
                acc[d] = (acc[d] + self._qsum[d] * xi + tail[d]) % mK
            word = ((name, tuple(acc)),) if any(acc) else ()
            children.append(word)
        result = (self._sigma_powers[c], tuple(children))
        if len(self._atom_memo) > self.ctx.cache_cap:
            self._atom_memo.clear()
        self._atom_memo[atom] = result
        return result

    def _pow_series(self, expr, q):
        # exponents of one abelian generator multiply straight through
        q = self.ctx.series(q)
        word = self._normalize(expr.word)
        if not word:
            return self.identity()
        (name, coeffs), = word
        D = self.ctx.D
        mK = self.ctx.mod.mK
        out = [0] * (D + 1)
        ql = q.lifts()
        for i, a in enumerate(coeffs):
            if a:
                for jdg in range(D + 1 - i):
                    out[i + jdg] += a * ql[jdg]
        out = tuple(v % mK for v in out)
        return AutExpr(self, self._normalize(((name, out),)))

    def level_perm_fast(self, l):
        """The level-l permutation of the generator, by the digit recursion.

        Builds s(l) from s(l-1): the letter-y block acts by the product over
        degrees d of the level-(l-1-d) permutation raised to p_y[d], each
        coefficient reduced mod m^(l-1-d); the root cycles the blocks.
        Vertex numbering matches Portrait.level_perm.
        """
        if l < 1:
            raise DepthExceeded("level must be at least 1")
        m = self.ctx.m
        sig = [None, tuple(i - 1 for i in self.sigma.images)]
        for lev in range(2, l + 1):
            block = m ** (lev - 1)
            out = [0] * (m * block)
            for y in range(1, m + 1):
                ty = tuple(range(block))
                for d, p in enumerate(self._plifts[y - 1]):
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
                tbase = (self.sigma.apply(y) - 1) * block
                for w in range(block):
                    out[base + w] = tbase + ty[w]
            sig.append(tuple(out))
        return Permutation(i + 1 for i in sig[l])


def level_perm_fast(gen_expr, l):
    """Level-l permutation of a foldable generator; checked for shape."""
    system = gen_expr.system
    if not system.foldable:
        raise ShapeMismatch("level recursion needs a foldable single-generator system")
    word = system._normalize(gen_expr.word)
    if word != system._normalize(system.generator().word):
        raise ShapeMismatch("level recursion applies to the generator itself")
    return system.level_perm_fast(l)


def adding_machine(ctx, j=1):
    """The generalized adding machine (e, ..., e, g^{x^(j-1)}) (1 2 ... m)."""
    if j < 1:
        raise ValueError("diagonal index must be at least 1")
    if j - 1 > ctx.D:
        raise ContextError("degree bound too small for x^%d" % (j - 1))
    exps = [0] * ctx.m
    exps[ctx.m - 1] = PowerSeries.x_power(ctx.mod, ctx.D, j - 1)
    sigma = Permutation.from_cycles([tuple(range(1, ctx.m + 1))], ctx.m)
    return FoldSystem(ctx, "a", exps, sigma).generator()
