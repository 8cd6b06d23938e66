"""Tests for truncated m-adic and power-series arithmetic.

Expected values are frozen from independent oracles written here (base-m
expansion, modular inverses via pow, CRT by search, integer convolution)
rather than from the code under test.
"""

from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from selfsim.adic import (
    AllDivisible, ContextMismatch, MAdicInt, Modulus, NonUnit, PowerSeries,
    QuotientElement, congruence_exponent, format_series, idempotents,
    parse_series, pro_m_generators, reduce_digits, reduce_mod_r,
    relator_parts,
    series_from_json, series_to_json, unit_decompose,
)


def base_m_digits(n, m, K):
    """Oracle: little-endian base-m digits of n mod m^K."""
    n %= m ** K
    out = []
    for _ in range(K):
        n, d = divmod(n, m)
        out.append(d)
    return tuple(out)


def convolve(a, b, D):
    """Oracle: integer polynomial product truncated at degree D."""
    out = [0] * (D + 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= D:
                out[i + j] += ai * bj
    return out


moduli = st.integers(min_value=2, max_value=12)
precisions = st.integers(min_value=1, max_value=6)


# ---------------------------------------------------------------- scalars

def test_add_binary_carry():
    mod = Modulus(2, 4)
    a = MAdicInt(mod, 1)
    assert (a + a).digits == (0, 1, 0, 0)


def test_mul_decimal():
    mod = Modulus(10, 3)
    assert (MAdicInt(mod, 7) * MAdicInt(mod, 8)).digits == (6, 5, 0)


def test_neg_one_is_all_top_digits():
    mod = Modulus(6, 4)
    assert MAdicInt(mod, -1).digits == base_m_digits(6 ** 4 - 1, 6, 4) == (5, 5, 5, 5)


def test_digit_constructor_round_trip():
    mod = Modulus(6, 4)
    a = MAdicInt(mod, (5, 5, 5, 5))
    assert a == MAdicInt(mod, -1)


def test_modulus_mismatch_rejected():
    a = MAdicInt(Modulus(2, 4), 1)
    b = MAdicInt(Modulus(2, 5), 1)
    with pytest.raises(ContextMismatch):
        a + b


@given(moduli, precisions, st.integers(), st.integers(), st.integers())
def test_scalar_ring_axioms(m, K, x, y, z):
    mod = Modulus(m, K)
    a, b, c = MAdicInt(mod, x), MAdicInt(mod, y), MAdicInt(mod, z)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == MAdicInt(mod, 0)
    assert a.value == (x % mod.mK)


def test_invert_three_mod_32():
    mod = Modulus(2, 5)
    oracle = pow(3, -1, 2 ** 5)
    assert oracle == 11
    assert MAdicInt(mod, 3).invert().value == 11


def test_invert_one():
    mod = Modulus(5, 3)
    assert MAdicInt(mod, 1).invert().value == 1


def test_invert_zero_divisor():
    mod = Modulus(4, 3)
    with pytest.raises(NonUnit):
        MAdicInt(mod, 2).invert()


@given(moduli, precisions, st.integers())
def test_invert_when_unit(m, K, x):
    mod = Modulus(m, K)
    a = MAdicInt(mod, x)
    if a.is_unit():
        assert a * a.invert() == MAdicInt(mod, 1)


# ------------------------------------------------------------ idempotents

def crt_idempotent(part, whole):
    """Oracle: the element of Z/whole that is 1 mod part, 0 mod whole//part."""
    rest = whole // part
    for e in range(whole):
        if e % part == 1 and e % rest == 0:
            return e
    raise AssertionError("no idempotent found")


def test_idempotents_prime_power():
    assert idempotents(Modulus(8, 3)) == [MAdicInt(Modulus(8, 3), 1)]


def test_idempotents_six():
    mod = Modulus(6, 2)
    eps = idempotents(mod)
    lifts = sorted(e.value for e in eps)
    assert lifts == sorted([crt_idempotent(4, 36), crt_idempotent(9, 36)]) == [9, 28]
    assert 28 in lifts


def test_idempotent_laws_six():
    mod = Modulus(6, 2)
    eps = idempotents(mod)
    total = MAdicInt(mod, 0)
    for i, e in enumerate(eps):
        assert e * e == e
        total = total + e
        for k, f in enumerate(eps):
            if i != k:
                assert e * f == MAdicInt(mod, 0)
    assert total == MAdicInt(mod, 1)


@given(st.integers(min_value=2, max_value=60), precisions)
def test_idempotent_laws_random(m, K):
    mod = Modulus(m, K)
    eps = idempotents(mod)
    assert sum((e.value for e in eps)) % mod.mK == 1
    for e in eps:
        assert e * e == e


# ----------------------------------------------------------------- series

def test_series_difference_of_squares():
    mod = Modulus(3, 4)
    one_plus = PowerSeries(mod, 3, (1, 1))
    one_minus = PowerSeries(mod, 3, (1, -1))
    assert one_plus * one_minus == PowerSeries(mod, 3, (1, 0, -1, 0))


def test_series_times_zero():
    mod = Modulus(5, 2)
    a = PowerSeries(mod, 4, (1, 2, 3))
    assert a * PowerSeries(mod, 4) == PowerSeries(mod, 4)


def test_series_square_keeps_adic_coefficient():
    # over Z_2 the middle coefficient of (1+x)^2 is the 2-adic integer 2
    mod = Modulus(2, 5)
    a = PowerSeries(mod, 3, (1, 1))
    sq = a * a
    oracle = convolve([1, 1], [1, 1], 3)
    assert list(sq.coeffs) == [v % mod.mK for v in oracle] == [1, 2, 1, 0]


@given(moduli, precisions, st.lists(st.integers(), max_size=5),
       st.lists(st.integers(), max_size=5), st.lists(st.integers(), max_size=5))
def test_series_ring_axioms(m, K, xs, ys, zs):
    mod = Modulus(m, K)
    D = 4
    a = PowerSeries(mod, D, xs[:D + 1])
    b = PowerSeries(mod, D, ys[:D + 1])
    c = PowerSeries(mod, D, zs[:D + 1])
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    oracle = convolve([v % mod.mK for v in a.lifts()], [v % mod.mK for v in b.lifts()], D)
    assert list((a * b).lifts()) == [v % mod.mK for v in oracle]


def test_series_invert_geometric():
    mod = Modulus(3, 3)
    one_minus_x = PowerSeries(mod, 3, (1, -1))
    assert one_minus_x.invert() == PowerSeries(mod, 3, (1, 1, 1, 1))


def test_series_invert_identity():
    mod = Modulus(7, 2)
    one = PowerSeries.constant(mod, 5, 1)
    assert one.invert() == one


def test_series_invert_round_trip():
    mod = Modulus(2, 5)
    a = PowerSeries(mod, 4, (1, 1))
    assert a * a.invert() == PowerSeries.constant(mod, 4, 1)


def test_series_invert_non_unit():
    mod = Modulus(4, 3)
    with pytest.raises(NonUnit):
        PowerSeries(mod, 3, (2, 1)).invert()


@given(moduli, precisions, st.lists(st.integers(), min_size=1, max_size=5))
def test_series_invert_random(m, K, xs):
    mod = Modulus(m, K)
    a = PowerSeries(mod, 4, xs[:5])
    if gcd(a.coeffs[0], m) == 1:
        assert a * a.invert() == PowerSeries.constant(mod, 4, 1)


@given(moduli, precisions, st.lists(st.integers(), max_size=5), st.booleans())
def test_series_holds_plain_integer_lifts(m, K, xs, boxed):
    mod = Modulus(m, K)
    a = PowerSeries(mod, 4, [MAdicInt(mod, v) for v in xs] if boxed else xs)
    want = [v % mod.mK for v in xs] + [0] * (5 - len(xs))
    assert all(type(c) is int for c in a.coeffs)
    assert list(a.coeffs) == want and a.lifts() == a.coeffs
    obj = series_to_json(a)
    assert obj["coeffs"] == [list(base_m_digits(v, m, K)) for v in want]
    assert series_from_json(obj) == a
    if gcd(want[0], m) != 1:
        with pytest.raises(NonUnit):
            a.invert()
    with pytest.raises(ContextMismatch):
        PowerSeries(mod, 4, [MAdicInt(Modulus(m, K + 1), 1)])


# --------------------------------------------------------------- literals

def test_parse_simple_literals():
    mod = Modulus(2, 6)
    assert parse_series("2 - x", mod, 4).lifts() == (2, 2 ** 6 - 1, 0, 0, 0)
    assert parse_series("1 + x", mod, 4).lifts() == (1, 1, 0, 0, 0)
    assert parse_series("3*x^2", mod, 4).lifts() == (0, 0, 3, 0, 0)


def test_format_series():
    mod = Modulus(4, 3)
    assert format_series(PowerSeries(mod, 3, (0, 1, 1))) == "x + x^2"
    assert format_series(PowerSeries(mod, 3, (2, 0, 3))) == "2 + 3*x^2"
    assert format_series(PowerSeries(mod, 3)) == "0"


def test_parse_format_round_trip():
    mod = Modulus(5, 3)
    for text in ("1", "2 + x", "x^2", "4 + 3*x + 2*x^3"):
        ps = parse_series(text, mod, 3)
        assert parse_series(format_series(ps), mod, 3) == ps


def test_parse_rejects_garbage():
    mod = Modulus(2, 3)
    with pytest.raises(ValueError):
        parse_series("2 -", mod, 3)
    with pytest.raises(ValueError):
        parse_series("y + 1", mod, 3)


def test_series_json_round_trip():
    mod = Modulus(6, 3)
    ps = parse_series("5 + 2*x + x^2", mod, 4)
    obj = series_to_json(ps)
    assert obj["m"] == 6 and obj["K"] == 3 and obj["D"] == 4
    assert series_from_json(obj) == ps


# --------------------------------------------------------- unit decompose

def test_unit_decompose_mixed():
    mod = Modulus(4, 3)
    q = PowerSeries(mod, 3, (3, 2))
    l, u, t = unit_decompose(q, 2)
    assert l == 0
    assert u == PowerSeries.constant(mod, 3, 3)
    assert t == PowerSeries(mod, 3, (0, 1))


def test_unit_decompose_identity():
    mod = Modulus(2, 4)
    l, u, t = unit_decompose(PowerSeries.constant(mod, 3, 1), 2)
    assert (l, u, t) == (0, PowerSeries.constant(mod, 3, 1), PowerSeries(mod, 3))


def test_unit_decompose_all_divisible():
    mod = Modulus(4, 3)
    with pytest.raises(AllDivisible):
        unit_decompose(PowerSeries(mod, 3, (2, 2)), 2)


@given(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]),
       st.lists(st.integers(), min_size=1, max_size=5))
def test_unit_decompose_reconstructs(pk, xs):
    p, k = pk
    mod = Modulus(p ** k, 4)
    q = PowerSeries(mod, 4, xs[:5])
    try:
        l, u, t = unit_decompose(q, p)
    except AllDivisible:
        assert all(c % p == 0 for c in q.lifts())
        return
    assert gcd(u.coeffs[0], mod.m) == 1
    assert u.shift(l) + t * p == q


# ---------------------------------------------------------------- reduce

def test_reduce_six_is_binary_expansion():
    mod = Modulus(2, 8)
    r = parse_series("2 - x", mod, 6)
    got = reduce_mod_r(6, r)
    assert got.digits == (0, 1, 1, 0, 0, 0, 0)
    assert format_series(got.as_series()) == "x + x^2"


def test_reduce_zero():
    mod = Modulus(2, 8)
    r = parse_series("2 - x", mod, 6)
    assert reduce_mod_r(0, r).is_zero()


def test_reduce_torsion_relator():
    # 2*(2 - x) = 4 - 2x reduces to zero mod 4 - 2x
    mod = Modulus(4, 6)
    r = parse_series("4 - 2*x", mod, 6)
    assert reduce_mod_r([4, -2], r).is_zero()


def test_reduce_binary_expansions_exhaustive():
    mod = Modulus(2, 10)
    r = parse_series("2 - x", mod, 9)
    for n in range(256):
        expected = base_m_digits(n, 2, 10)[:10]
        got = reduce_mod_r(n, r)
        assert got.digits == expected[: r.D + 1]


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_reduce_value_preserved_for_binary(n):
    # mod 2 - x the class of n is its base-2 expansion: evaluation at x=2 returns n
    mod = Modulus(2, 24)
    r = parse_series("2 - x", mod, 22)
    got = reduce_mod_r(n, r)
    assert sum(d << i for i, d in enumerate(got.digits)) == n


relator_texts = st.sampled_from([
    (2, "2 - x"), (2, "2 - x^2"), (4, "4 - 2*x"), (4, "4 - x - 2*x^2"),
    (3, "3 - x"), (9, "9 - 3*x - x^2"), (6, "6 - x"), (8, "8 - x^3"),
])


@given(relator_texts, st.lists(st.integers(min_value=-50, max_value=50), max_size=6),
       st.lists(st.integers(min_value=-50, max_value=50), max_size=6))
@settings(max_examples=150)
def test_reduce_idempotent_and_additive(mr, xs, ys):
    m, text = mr
    mod = Modulus(m, 8)
    r = parse_series(text, mod, 7)
    a = xs + [0] * (8 - len(xs))
    b = ys + [0] * (8 - len(ys))
    ra = reduce_mod_r(a, r)
    rb = reduce_mod_r(b, r)
    assert reduce_mod_r(list(ra.digits), r) == ra
    s = [u + v for u, v in zip(a, b)]
    lhs = reduce_mod_r(s, r)
    rhs = reduce_mod_r([u + v for u, v in zip(ra.digits, rb.digits)], r)
    assert lhs == rhs


@given(relator_texts, st.lists(st.integers(min_value=-9, max_value=9), max_size=4),
       st.lists(st.integers(min_value=-9, max_value=9), max_size=4))
@settings(max_examples=150)
def test_reduce_multiplicative(mr, xs, ys):
    m, text = mr
    mod = Modulus(m, 8)
    r = parse_series(text, mod, 7)
    prod = convolve(xs, ys, 7)
    lhs = reduce_mod_r(prod, r)
    ra = reduce_mod_r(xs + [0] * (8 - len(xs)), r)
    rb = reduce_mod_r(ys + [0] * (8 - len(ys)), r)
    rhs = reduce_mod_r(convolve(ra.digits, rb.digits, 7), r)
    assert lhs == rhs


# --------------------------------------------------- congruence exponent

def test_congruence_exponent_adding_machine():
    mod = Modulus(2, 6)
    r = parse_series("2 - x", mod, 6)
    l_total, witness = congruence_exponent(r, 2, 1)
    assert l_total == 1
    assert witness == PowerSeries.constant(mod, 6, 1)


def test_congruence_exponent_shifted_machine():
    mod = Modulus(3, 6)
    r = parse_series("3 - x^2", mod, 6)
    l_total, witness = congruence_exponent(r, 3, 1)
    assert l_total == 2
    assert witness == PowerSeries.constant(mod, 6, 1)


def test_congruence_exponent_prime_square():
    mod = Modulus(4, 6)
    r = parse_series("4 - x - 2*x^2", mod, 6)
    l_total, witness = congruence_exponent(r, 2, 2)
    # q = 1 + 2x has unit part at degree 0, so the exponent is j = 1
    assert l_total == 1
    check = PowerSeries.x_power(mod, 6, l_total) - witness * 2
    reduced = reduce_mod_r(check, r)
    assert reduced.is_zero_to(reduced.exact_zone())


def test_congruence_exponent_all_divisible():
    mod = Modulus(4, 6)
    r = parse_series("4 - 2*x - 2*x^2", mod, 6)
    with pytest.raises(AllDivisible):
        congruence_exponent(r, 2, 2)


@given(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]),
       st.integers(min_value=1, max_value=3),
       st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=4))
@settings(max_examples=80)
def test_congruence_exponent_random(pk, j, qs):
    p, k = pk
    assume(any(qs))
    mod = Modulus(p ** k, 8)
    D = 9
    q = PowerSeries(mod, D, qs)
    r = PowerSeries.constant(mod, D, mod.m) - q.shift(j)
    if all(c % p == 0 for c in q.lifts()):
        with pytest.raises(AllDivisible):
            congruence_exponent(r, p, k)
        return
    l, u, t = unit_decompose(q, p)
    if j + l > D:
        return
    l_total, witness = congruence_exponent(r, p, k)
    assert l_total == j + l
    check = PowerSeries.x_power(mod, D, l_total) - witness * p
    reduced = reduce_mod_r(check, r)
    assert reduced.is_zero_to(reduced.exact_zone())
    assert (check + r * u.invert()).is_zero()


# ------------------------------------------------------ pro-m generators

def test_pro_m_generators_rank_one():
    mod = Modulus(2, 6)
    r = parse_series("2 - x", mod, 6)
    gens, l = pro_m_generators(r)
    assert l == 1
    assert [g.digits for g in gens] == [(1, 0, 0, 0, 0, 0, 0)]


def test_pro_m_generators_free_rank_j():
    for m, j in ((2, 2), (3, 3), (5, 2)):
        mod = Modulus(m, 6)
        r = parse_series("%d - x^%d" % (m, j), mod, 6)
        gens, l = pro_m_generators(r)
        assert l == j
        for i, g in enumerate(gens):
            expected = [0] * 7
            expected[i] = 1
            assert list(g.digits) == expected


def test_pro_m_generators_unit_constant():
    mod = Modulus(4, 6)
    r = parse_series("4 - 3*x", mod, 6)
    gens, l = pro_m_generators(r)
    assert l == 1 and len(gens) == 1


def test_pro_m_generators_composite():
    mod = Modulus(6, 6)
    r = parse_series("6 - x", mod, 6)
    gens, l = pro_m_generators(r)
    assert l == 1 and len(gens) == 1


def test_relator_parts_shape_check():
    mod = Modulus(4, 4)
    with pytest.raises(ValueError):
        relator_parts(parse_series("3 - x", mod, 4))
    q, j = relator_parts(parse_series("4 - 2*x^2", mod, 4))
    assert j == 2 and q.lifts()[0] == 2


def test_relator_pure_torsion():
    # r = m has no x part: reduction is coefficientwise mod m, no carries
    mod = Modulus(4, 4)
    q, j = relator_parts(parse_series("4", mod, 4))
    assert j == 0 and q.is_zero()
    red = reduce_mod_r([7, -1, 9, 4, 2], parse_series("4", mod, 4))
    assert red.digits == (3, 3, 1, 0, 2)
    assert red.exact_zone() == 5


def test_relator_is_split_once_per_series(monkeypatch):
    # reduce_mod_r and the fold digit oracle share one kept split per
    # relator series; a bad relator is rejected every time, never kept
    from selfsim import adic
    from selfsim.tree import Context, FoldSystem
    from test_fold_keys import exponent_digits
    monkeypatch.setattr(adic, "_splits", adic.Memo(4))
    calls = []
    split = adic.relator_parts
    monkeypatch.setattr(adic, "relator_parts",
                        lambda r: calls.append(r) or split(r))
    mod = Modulus(3, 5)
    r = parse_series("3 - x - x^2", mod, 5)
    want = [reduce_mod_r(n, r).digits for n in range(20)]
    assert calls == [r]
    twin = parse_series("3 - x - x^2", mod, 5)
    assert reduce_mod_r(7, twin).digits == want[7]
    assert calls == [r]
    system = FoldSystem(Context(3, K=5, D=5, L=5), "g", [0, 1, "1 + x"],
                        "(1 2 3)")   # annihilator 3 - 2*x - x^2
    exponent_digits(system, (4, 1, 0, 0, 0, 0), 3)
    exponent_digits(system, (5, 1, 0, 0, 0, 0), 3)
    assert calls == [r, system.annihilator()]
    assert not hasattr(system, "_relator")
    bad = parse_series("2 - x", mod, 5)
    for _ in range(2):
        with pytest.raises(ValueError):
            reduce_mod_r(1, bad)
    assert calls[2:] == [bad, bad]


@st.composite
def carry_cases(draw):
    """A relator m - q*x^j (m 2..6, j 1..3, q with zero and nonzero
    lifts) and an input: an int, a list of ints or of MAdicInts, possibly
    longer than D + 1, or a PowerSeries."""
    m = draw(st.integers(2, 6))
    K = draw(st.integers(2, 5))
    j = draw(st.integers(1, 3))
    D = draw(st.integers(j, 8))
    mod = Modulus(m, K)
    q = draw(st.lists(st.one_of(st.just(0), st.integers(1, mod.mK - 1)),
                      max_size=D - j + 1))
    r = PowerSeries(mod, D, [m] + [0] * (j - 1) + [-c for c in q])
    ints = st.integers(-m ** (K + 2), m ** (K + 2))
    kind = draw(st.sampled_from(["int", "list", "madic", "series"]))
    if kind == "int":
        value = draw(ints)
        cs = [value]
    else:
        cs = draw(st.lists(ints, max_size=D + 3))
        value = {"list": cs,
                 "madic": [MAdicInt(mod, c) for c in cs],
                 "series": PowerSeries(mod, D, cs[:D + 1])}[kind]
        if kind != "list":
            cs = [c % mod.mK for c in cs]
    return r, value, reduce_digits(cs, m, q, j, D)


@settings(max_examples=300, deadline=None)
@given(carry_cases())
def test_reduce_mod_r_matches_the_digit_oracle(case):
    # reduce_mod_r takes its carry terms from the kept split of r; the
    # oracle builds them from the drawn q and j on every call
    r, value, want = case
    assert list(reduce_mod_r(value, r).digits) == want
