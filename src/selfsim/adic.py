"""Truncated exact arithmetic over m-adic integers and power series.

An MAdicInt is a residue mod m^K presented as K base-m digits, little-endian
(digit 0 is the value mod m).  A PowerSeries is a polynomial of degree <= D
standing in for a formal power series truncated at degree D; it holds its
coefficients as integer lifts in [0, m^K).  A QuotientElement is the
canonical normal form of a series in Z_m[[x]] / (r) for a relator of the
shape r = m - q*x^j: every coefficient is an integer digit in [0, m), so
two classes are equal iff their digit strings agree.

Values are immutable.  Mixing values built over different (m, K) or
different degree bounds raises ContextMismatch rather than coercing.
Negative integer inputs are taken mod m^K, i.e. they normalize to the
usual complement representation.
"""

import re
from math import gcd


class Memo(dict):
    """A memo table that empties itself once it holds more than cap entries.

    Every memo table that outlives a single call is a Memo, so put is
    the one place where a cache bound is compared.  Emptying only loses
    entries; callers recompute what they miss.  It lives in this module,
    which every other module imports, and tree re-exports it.
    """

    __slots__ = ("cap",)

    def __init__(self, cap):
        self.cap = cap

    def put(self, key, value):
        """Store value under key and return it."""
        if len(self) > self.cap:
            self.clear()
        self[key] = value
        return value


class ContextMismatch(ValueError):
    pass


class SeriesSyntaxError(ValueError):
    """A malformed series literal; a degree above D is a ContextMismatch."""


class NonUnit(ArithmeticError):
    pass


class AllDivisible(ArithmeticError):
    pass


def _factorize(m):
    """Return the prime factorization of m as a tuple of (p, k) pairs."""
    fact = []
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            fact.append((p, k))
        p += 1
    if n > 1:
        fact.append((n, 1))
    return tuple(fact)


class Modulus(object):
    """The base m together with the digit precision K."""

    __slots__ = ("m", "K", "factorization", "mK")

    def __init__(self, m, K):
        if m < 2:
            raise ValueError("base must be at least 2")
        if K < 1:
            raise ValueError("precision must be at least 1")
        self.m = m
        self.K = K
        self.factorization = _factorize(m)
        self.mK = m ** K

    def __eq__(self, other):
        return isinstance(other, Modulus) and self.m == other.m and self.K == other.K

    def __hash__(self):
        return hash((self.m, self.K))

    def __repr__(self):
        return "Modulus(m=%d, K=%d)" % (self.m, self.K)


def _from_digits(mod, digits):
    """The integer with the given K little-endian base-m digits."""
    if len(digits) != mod.K:
        raise ValueError("expected %d digits" % mod.K)
    acc = 0
    for d in reversed(digits):
        if not 0 <= d < mod.m:
            raise ValueError("digit out of range")
        acc = acc * mod.m + d
    return acc


def _to_digits(mod, value):
    """The K little-endian base-m digits of a residue in [0, m^K)."""
    out = []
    for _ in range(mod.K):
        value, d = divmod(value, mod.m)
        out.append(d)
    return out


class MAdicInt(object):
    """A residue mod m^K, viewed as K base-m digits."""

    __slots__ = ("mod", "value")

    def __init__(self, mod, value):
        self.mod = mod
        if isinstance(value, (list, tuple)):
            self.value = _from_digits(mod, value)
        else:
            self.value = value % mod.mK

    @property
    def digits(self):
        return tuple(_to_digits(self.mod, self.value))

    def is_unit(self):
        return gcd(self.value % self.mod.m, self.mod.m) == 1

    def __add__(self, other):
        return MAdicInt(self.mod, self.value + _value(self.mod, other))

    __radd__ = __add__

    def __sub__(self, other):
        return MAdicInt(self.mod, self.value - _value(self.mod, other))

    def __mul__(self, other):
        return MAdicInt(self.mod, self.value * _value(self.mod, other))

    __rmul__ = __mul__

    def __neg__(self):
        return MAdicInt(self.mod, -self.value)

    def invert(self):
        """Return the inverse mod m^K; raises NonUnit if none exists."""
        if not self.is_unit():
            raise NonUnit("not a unit mod %d" % self.mod.m)
        # pow with a negative exponent is exactly the Hensel lift here
        return MAdicInt(self.mod, pow(self.value, -1, self.mod.mK))

    def __eq__(self, other):
        return (isinstance(other, MAdicInt) and self.mod == other.mod
                and self.value == other.value)

    def __hash__(self):
        return hash((self.mod, self.value))

    def __repr__(self):
        return "MAdicInt(%d mod %d^%d)" % (self.value, self.mod.m, self.mod.K)


def _value(mod, v):
    """The integer behind an int, or behind an MAdicInt over mod."""
    if isinstance(v, MAdicInt):
        if v.mod != mod:
            raise ContextMismatch(
                "values use different moduli: %r vs %r" % (mod, v.mod))
        return v.value
    if isinstance(v, int):
        return v
    raise TypeError("cannot interpret %r as an m-adic integer" % (v,))


def idempotents(mod):
    """Return the orthogonal idempotents of Z/m^K, one per prime of m.

    The idempotent for the prime p is congruent to 1 mod p^(k*K) and to 0
    mod the complementary factor; they sum to 1 and multiply to 0 pairwise.
    For a prime power there is a single idempotent, 1.
    """
    out = []
    for p, k in mod.factorization:
        part = p ** (k * mod.K)
        rest = mod.mK // part
        # CRT: rest * (rest^{-1} mod part) is 1 mod part, 0 mod rest
        e = rest * pow(rest, -1, part)
        out.append(MAdicInt(mod, e))
    return out


class PowerSeries(object):
    """A series over Z/m^K truncated at degree D.

    coeffs is the tuple of the D+1 coefficients as integer lifts in
    [0, m^K); the constructor takes ints (reduced mod m^K) or MAdicInts.
    """

    __slots__ = ("mod", "D", "coeffs")

    def __init__(self, mod, D, coeffs=()):
        if D < 0:
            raise ValueError("degree bound must be nonnegative")
        self.mod = mod
        self.D = D
        mK = mod.mK
        cs = tuple([(c if type(c) is int else _value(mod, c)) % mK
                    for c in coeffs])
        if len(cs) > D + 1:
            raise ValueError("too many coefficients for degree bound %d" % D)
        self.coeffs = cs + (0,) * (D + 1 - len(cs))

    @classmethod
    def constant(cls, mod, D, c):
        return cls(mod, D, (c,))

    @classmethod
    def x_power(cls, mod, D, n):
        cs = [0] * (D + 1)
        if n <= D:
            cs[n] = 1
        return cls(mod, D, cs)

    def _check(self, other):
        if not isinstance(other, PowerSeries):
            raise TypeError("expected a power series")
        if self.mod != other.mod or self.D != other.D:
            raise ContextMismatch("series use different contexts")

    def lifts(self):
        """Return the tuple of integer coefficient lifts in [0, m^K)."""
        return self.coeffs

    def __add__(self, other):
        self._check(other)
        return PowerSeries(self.mod, self.D,
                           [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return PowerSeries(self.mod, self.D,
                           [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return PowerSeries(self.mod, self.D, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, MAdicInt)):
            c = _value(self.mod, other)
            return PowerSeries(self.mod, self.D, [a * c for a in self.coeffs])
        self._check(other)
        out = [0] * (self.D + 1)
        av = self.coeffs
        bv = other.coeffs
        for i, ai in enumerate(av):
            if ai == 0:
                continue
            for j in range(self.D + 1 - i):
                out[i + j] += ai * bv[j]
        return PowerSeries(self.mod, self.D, out)

    __rmul__ = __mul__

    def shift(self, n):
        """Multiply by x^n, dropping coefficients past the degree bound."""
        if n < 0:
            raise ValueError("shift must be nonnegative")
        return PowerSeries(self.mod, self.D, (0,) * n + self.coeffs[:self.D + 1 - n])

    def valuation(self):
        """Return the least degree with a nonzero coefficient, or None."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def is_zero(self):
        return not any(self.coeffs)

    def invert(self):
        """Invert the series; requires a unit constant term."""
        av = self.coeffs
        mK = self.mod.mK
        if gcd(av[0], self.mod.m) != 1:
            raise NonUnit("constant term is not a unit")
        inv0 = pow(av[0], -1, mK)
        out = [0] * (self.D + 1)
        out[0] = inv0
        # solve sum_{i<=n} a_i * b_{n-i} = 0 for b_n, degree by degree
        for n in range(1, self.D + 1):
            acc = 0
            for i in range(1, n + 1):
                acc += av[i] * out[n - i]
            out[n] = (-acc * inv0) % mK
        return PowerSeries(self.mod, self.D, out)

    def __eq__(self, other):
        return (isinstance(other, PowerSeries) and self.mod == other.mod
                and self.D == other.D and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.mod, self.D, self.coeffs))

    def __repr__(self):
        return "PowerSeries(%s; m=%d, K=%d, D=%d)" % (
            format_series(self), self.mod.m, self.mod.K, self.D)


_TERM_RE = re.compile(r"^(?:(\d+)\s*\*?\s*)?(x)(?:\^(\d+))?$|^(\d+)$")


def parse_series(text, mod, D):
    """Parse a series literal like '2 - x', '1 + x', or '3*x^2'."""
    s = text.strip()
    if not s:
        raise SeriesSyntaxError("empty series literal")
    # normalize leading sign, then split into signed terms
    if s[0] not in "+-":
        s = "+" + s
    tokens = re.findall(r"[+-][^+-]+", s)
    if "".join(tokens).replace(" ", "") != s.replace(" ", ""):
        raise SeriesSyntaxError("ill formatted series literal: %r" % text)
    coeffs = [0] * (D + 1)
    for tok in tokens:
        sign = -1 if tok[0] == "-" else 1
        body = tok[1:].strip()
        match = _TERM_RE.match(body)
        if match is None:
            raise SeriesSyntaxError("ill formatted series term: %r" % tok)
        if match.group(4) is not None:
            c, d = int(match.group(4)), 0
        else:
            c = int(match.group(1)) if match.group(1) else 1
            d = int(match.group(3)) if match.group(3) else 1
        if d > D:
            raise ContextMismatch("term degree %d exceeds bound %d" % (d, D))
        coeffs[d] += sign * c
    return PowerSeries(mod, D, coeffs)


def format_series(ps):
    """Format a series with canonical nonnegative coefficient lifts."""
    terms = []
    for d, c in enumerate(ps.coeffs):
        if c == 0:
            continue
        if d == 0:
            terms.append(str(c))
        elif d == 1:
            terms.append("x" if c == 1 else "%d*x" % c)
        else:
            terms.append("x^%d" % d if c == 1 else "%d*x^%d" % (c, d))
    return " + ".join(terms) if terms else "0"


def series_to_json(ps):
    """Return the canonical JSON form of a series."""
    return {"m": ps.mod.m, "K": ps.mod.K, "D": ps.D,
            "coeffs": [_to_digits(ps.mod, c) for c in ps.coeffs]}


def series_from_json(obj):
    """Rebuild a series from its canonical JSON form."""
    mod = Modulus(obj["m"], obj["K"])
    return PowerSeries(mod, obj["D"], [_from_digits(mod, d) for d in obj["coeffs"]])


def unit_decompose(q, p):
    """Split q = x^l * u + p * t with u invertible; returns (l, u, t).

    Works coefficientwise: coefficients that are units mod p form the unit
    part s = x^l * u, the rest are divided by p to form t.  Raises
    AllDivisible when every coefficient of q is divisible by p.
    """
    mod = q.mod
    if len(mod.factorization) != 1 or mod.factorization[0][0] != p:
        raise ContextMismatch("modulus %d is not a power of %d" % (mod.m, p))
    s = [0] * (q.D + 1)
    t = [0] * (q.D + 1)
    for d, c in enumerate(q.coeffs):
        if c % p == 0:
            t[d] = c // p
        else:
            s[d] = c
    l = None
    for d, c in enumerate(s):
        if c != 0:
            l = d
            break
    if l is None:
        raise AllDivisible("every coefficient is divisible by %d" % p)
    u = PowerSeries(mod, q.D, s[l:])
    return l, u, PowerSeries(mod, q.D, t)


def relator_parts(r):
    """Check r = m - q*x^j and return (q, j); j >= 1 unless q = 0.

    The degenerate relator r = m (zero x part) is the pure-torsion case:
    reduction is then coefficientwise mod m with no carries, and the
    returned pair is (0, 0).
    """
    mod = r.mod
    if r.coeffs[0] != mod.m:
        raise ValueError("relator constant term must lift to exactly m")
    for j, c in enumerate(r.coeffs[1:], 1):
        if c:
            return PowerSeries(mod, r.D, [-v for v in r.coeffs[j:]]), j
    return PowerSeries(mod, r.D), 0


_splits = Memo(1024)   # relator series -> relator_parts of it


def split_relator(r):
    """relator_parts(r), computed once per relator series and kept."""
    hit = _splits.get(r)
    if hit is None:
        hit = _splits.put(r, relator_parts(r))
    return hit


class QuotientElement(object):
    """Canonical residue in Z_m[[x]]/(m - q*x^j), digits in [0, m)."""

    __slots__ = ("mod", "D", "j", "qlifts", "digits")

    def __init__(self, mod, D, j, qlifts, digits):
        self.mod = mod
        self.D = D
        self.j = j
        self.qlifts = tuple(qlifts)
        self.digits = tuple(digits)

    def is_zero(self):
        return all(d == 0 for d in self.digits)

    def is_zero_to(self, n):
        """True when every digit at a degree below n vanishes."""
        return all(d == 0 for d in self.digits[:n])

    def exact_zone(self):
        """Degrees below this bound are exact for mod-m^K coefficient inputs.

        A coefficient is only known mod m^K; the unknown multiple of m^K
        divides down by m with every carry step, each of which advances at
        least j degrees, so it cannot disturb a digit before degree j*K.
        Plain-integer inputs are exact at every degree, as is the
        carry-free torsion case q = 0.
        """
        if not any(self.qlifts):
            return self.D + 1
        return min(self.D + 1, self.j * self.mod.K)

    def as_series(self):
        return PowerSeries(self.mod, self.D, self.digits)

    def __eq__(self, other):
        return (isinstance(other, QuotientElement) and self.mod == other.mod
                and self.D == other.D and self.j == other.j
                and self.qlifts == other.qlifts and self.digits == other.digits)

    def __hash__(self):
        return hash((self.mod, self.D, self.j, self.qlifts, self.digits))

    def __repr__(self):
        return "QuotientElement(%s)" % format_series(self.as_series())


def reduce_digits(coeffs, m, qlifts, j, D):
    """Carry-rewrite integer coefficients into digits in [0, m).

    Processes degrees in ascending order; an overflow b at degree t adds
    b * q at degree t + j.  Carries that land past degree D are discarded
    (truncation, not an error).
    """
    c = list(coeffs[:D + 1]) + [0] * (D + 1 - len(coeffs))
    # (offset, q_s) for the nonzero q terms a carry can reach, offsets rising
    terms = [(j + s, qs) for s, qs in enumerate(qlifts) if qs and j + s <= D]
    for t in range(D + 1):
        b, c[t] = divmod(c[t], m)
        if b:
            for offset, qs in terms:
                idx = t + offset
                if idx > D:
                    break
                c[idx] += b * qs
    return c


def reduce_mod_r(coeffs, r):
    """Reduce integer or series coefficients to the canonical form mod r.

    coeffs may be a PowerSeries, a plain integer (a constant), or a sequence
    of integers indexed by degree.
    """
    q, j = split_relator(r)
    mod = r.mod
    if isinstance(coeffs, PowerSeries):
        if coeffs.mod != mod or coeffs.D != r.D:
            raise ContextMismatch("series context differs from relator context")
        cs = coeffs.coeffs
    elif isinstance(coeffs, int):
        cs = [coeffs]
    else:
        cs = [c.value if isinstance(c, MAdicInt) else int(c) for c in coeffs]
    digits = reduce_digits(cs, mod.m, q.coeffs, j, r.D)
    return QuotientElement(mod, r.D, j, q.coeffs, digits)


def congruence_exponent(r, p, k):
    """Run the constructive congruence argument for r = p^k - q*x^j.

    Returns (l_total, witness) with x^l_total = p * witness mod r.  The
    identity is rechecked two ways: exactly, as the series equation
    x^l_total - p*witness + r*u' = 0, and by carry reduction, which must
    vanish on every digit inside its exact zone.
    """
    mod = r.mod
    if mod.m != p ** k:
        raise ContextMismatch("modulus %d is not %d^%d" % (mod.m, p, k))
    q, j = split_relator(r)
    l, u, t = unit_decompose(q, p)
    if j + l > r.D:
        raise ContextMismatch("degree bound %d too small for exponent %d" % (r.D, j + l))
    u_inv = u.invert()
    head = PowerSeries.constant(mod, r.D, p ** (k - 1)) - t.shift(j)
    witness = head * u_inv
    l_total = j + l
    check = PowerSeries.x_power(mod, r.D, l_total) - witness * p
    if not (check + r * u_inv).is_zero():
        raise ArithmeticError("congruence witness identity failed")
    reduced = reduce_mod_r(check, r)
    if not reduced.is_zero_to(reduced.exact_zone()):
        raise ArithmeticError("congruence witness identity failed to reduce")
    return l_total, witness


def _component_relator(r, p, k, K):
    """Project r = m - q*x^j into the p^k component, normalized to p^k - q'*x^j."""
    mod = r.mod
    q, j = split_relator(r)
    sub = Modulus(p ** k, K)
    v = mod.m // (p ** k)
    v_inv = pow(v, -1, sub.mK)
    q_sub = PowerSeries(sub, r.D, [(c * v_inv) % sub.mK for c in q.coeffs])
    coeffs = [0] * (r.D + 1)
    coeffs[0] = p ** k
    rel = PowerSeries(sub, r.D, coeffs) - q_sub.shift(j)
    return rel, q_sub


def pro_m_generators(r):
    """Return ({1, x, ..., x^(l-1)} as classes mod r, l).

    l is the congruence exponent: for prime-power m it comes straight from
    the constructive argument; for composite m the relator is projected to
    each prime-power component and l is the largest component exponent.
    """
    mod = r.mod
    ls = []
    for p, k in mod.factorization:
        rel, _ = _component_relator(r, p, k, mod.K)
        l_total, _ = congruence_exponent(rel, p, k)
        ls.append(l_total)
    l = max(ls)
    gens = [reduce_mod_r(PowerSeries.x_power(mod, r.D, i), r) for i in range(l)]
    return gens, l
