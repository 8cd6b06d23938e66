"""Named verification suites reproducing the library's worked examples.

Each criterion function returns a list of (label, ok) pairs; a suite is a
named batch of criteria.  The command line exposes them through
`selfsim verify <suite>`; the package's acceptance tests assert them
one by one.  All checks are exact at their stated truncation depths and
deterministic (fixed seeds).
"""

import random
from math import lcm

from .adic import (
    AllDivisible, Modulus, PowerSeries, congruence_exponent, parse_series,
    pro_m_generators, reduce_mod_r,
)
from .closure import (
    extract_relations, order_to_depth, peel, restrict_to_orbit, state_closure,
    zeta,
)
from .endo import (
    FgAbelianGroup, Transversal, VirtualEndo, closed_form_conjugator, phi_rep,
    adding_machine_conjugator, transversal_change,
)
from .tree import (
    Context, FoldSystem, Permutation, System, adding_machine, level_perm_fast,
)


def criterion_binary_transversals():
    """Tree representations of (Z, 2Z, 2 -> 1) across nine transversals."""
    group = FgAbelianGroup(1)
    v = VirtualEndo(group, [[2]], [[1]])
    checks = []
    for k in range(3):
        for l in range(3):
            t = Transversal(v, [(2 * k,), (2 * l + 1,)])
            rep = phi_rep(v, t, ctx=Context(2, K=10, D=10, L=10))
            fold = FoldSystem(Context(2, K=10, D=10, L=10), "a",
                              (k - l, l - k + 1), "(1 2)")
            ok = rep.of((1,)).portrait(8) == fold.generator().portrait(8)
            checks.append(("transversal (%d,%d) closed form at depth 8"
                           % (k, l), ok))
    return checks


def criterion_quaternary_machine():
    """The 4-ary machine with fourth entry squared: identities at depth 10."""
    ctx = Context(4, K=10, D=10, L=10)
    sys4 = FoldSystem(ctx, "a", (0, 0, 0, 2), "(1 2 3 4)")
    a = sys4.generator()
    checks = []

    sq = a * a
    root_ok = sq.root() == Permutation.from_cycles("(1 3)(2 4)", 4)
    _, kids = sq.decompose()
    kid_ok = (kids[0].is_identity(9) and kids[1].is_identity(9)
              and kids[2].equal_to_depth(sq, 9)
              and kids[3].equal_to_depth(sq, 9))
    checks.append(("square has root (1 3)(2 4) and states (e, e, sq, sq)",
                   root_ok and kid_ok))

    checks.append(("fourth power equals the 2x diagonal power at depth 10",
                   (a ** 4).equal_to_depth(a.pow_series("2*x"), 10)))

    kappa = a.pow_series("2 - x")
    checks.append(("kappa = a^(2-x) is a nontrivial involution at depth 10",
                   (kappa * kappa).is_identity(10)
                   and not kappa.is_identity(10)))

    restricted = restrict_to_orbit(sq, (1, 3))
    target = adding_machine(Context(2, K=10, D=10, L=10))
    checks.append(("square restricted to orbit {1,3} is the binary odometer",
                   restricted.portrait(10) == target.portrait(10)))

    r = sys4.annihilator()
    ok = a.pow_series(r).is_identity(10)
    for i in range(3):
        ki = kappa.pow_series(PowerSeries.x_power(ctx.mod, ctx.D, i))
        ok = ok and (ki * ki).is_identity(10) and not ki.is_identity(10)
    probes = ["3", "2 + x", "1 + 2*x + 3*x^2", "7 - x^3", "5*x"]
    for text in probes:
        qs = parse_series(text, ctx.mod, ctx.D)
        digits = peel(a.pow_series(qs), [a])[0].lifts()
        ok = ok and digits == reduce_mod_r(qs, r).digits
    checks.append(("membership: torsion part and peeled normal forms", ok))
    return checks


def criterion_binary_series_conjugation():
    """Both conjugators send (e, b^(1+x)) swap to the odometer at depth 10."""
    sysb = FoldSystem(Context(2, K=10, D=10, L=10), "b", (0, "1 + x"), "(1 2)")
    beta = sysb.generator()
    res = adding_machine_conjugator(beta, 1)
    closed = closed_form_conjugator(beta, 10)
    checks = [
        ("prefix-stream conjugator verified at depth 10", res.verified()),
        ("closed-form conjugator verified at depth 10",
         beta.portrait(10).conjugated_by(closed) == res.target),
        ("the two conjugators agree as portraits", closed == res.portrait()),
    ]
    return checks


def criterion_adding_machines():
    """Generalized adding machines over m in {2..5}, shift j in {1..3}."""
    checks = []
    for m in (2, 3, 4, 5):
        for j in (1, 2, 3):
            ctx = Context(m, K=12, D=12, L=12)
            a = adding_machine(ctx, j)
            rel = PowerSeries.constant(ctx.mod, ctx.D, m) \
                - PowerSeries.x_power(ctx.mod, ctx.D, j)
            ok = a.pow_series(rel).is_identity(12)
            report = state_closure([a], depth=12)
            ok = ok and report.nontrivial_count() == j
            pres = extract_relations([a], depth=12)
            ok = ok and pres.relator.lifts() == rel.lifts()
            gens, l = pro_m_generators(rel)
            ok = ok and l == j
            for i, g in enumerate(gens):
                want = tuple(1 if d == i else 0 for d in range(ctx.D + 1))
                ok = ok and g.digits == want
            checks.append(("m=%d j=%d: relator, closure size, module basis"
                           % (m, j), ok))
    return checks


def _random_fold(rng, m, ctx):
    degree = rng.randint(0, 3)
    exps = []
    for _ in range(m):
        coeffs = [rng.randint(-3, 3) for _ in range(degree + 1)]
        exps.append(PowerSeries(ctx.mod, ctx.D, coeffs))
    sigma = list(range(1, m + 1))
    rng.shuffle(sigma)
    perm = Permutation(sigma)
    if not perm.is_full_cycle():
        base = list(range(2, m + 1)) + [1]
        perm = Permutation(base)
    return FoldSystem(ctx, "g", exps, perm)


def criterion_fold_family():
    """Random single-generator recursions: closure, annihilator, peeling."""
    rng = random.Random(20240811)
    checks = []
    for trial in range(50):
        m = rng.choice((2, 3, 4))
        # K = D + 1 keeps every digit of the reduction oracle inside the
        # carry-exact zone, so the peel comparison is digit-for-digit.
        ctx = Context(m, K=9, D=8, L=8)
        sysg = _random_fold(rng, m, ctx)
        g = sysg.generator()
        report = state_closure([g], depth=6)
        ok = report.abelian_to_depth >= 6
        ok = ok and g.pow_series(sysg.annihilator()).is_identity(8)
        n = rng.randint(-40, 80)
        digits = peel(g ** n, [g])[0].lifts()
        want = reduce_mod_r(n, sysg.annihilator()).digits
        ok = ok and digits == want
        checks.append(("random recursion %d (m=%d): closure/annihilator/peel"
                       % (trial, m), ok))
    return checks


def criterion_level_actions():
    """Carry-free level permutations match portrait enumeration for l <= 6."""
    rng = random.Random(20240811)
    checks = []
    for trial in range(50):
        m = rng.choice((2, 3, 4))
        ctx = Context(m, K=8, D=8, L=8)
        sysg = _random_fold(rng, m, ctx)
        g = sysg.generator()
        ok = True
        for l in range(1, 7):
            fast = level_perm_fast(g, l)
            slow = g.portrait(l).level_perm(l)
            ok = ok and fast == slow
        checks.append(("random recursion %d (m=%d): levels 1..6 agree"
                       % (trial, m), ok))
    return checks


def criterion_quotient_ring():
    """Carry rewriting is idempotent and additive; base 2 gives binary."""
    rng = random.Random(99)
    mod = Modulus(2, 8)
    r = parse_series("2 - x", mod, 8)
    ok_idem = True
    ok_hom = True
    for _ in range(100):
        c1 = [rng.randint(-30, 60) for _ in range(9)]
        c2 = [rng.randint(-30, 60) for _ in range(9)]
        r1 = reduce_mod_r(c1, r)
        r2 = reduce_mod_r(c2, r)
        ok_idem = ok_idem and reduce_mod_r(list(r1.digits), r).digits == r1.digits
        direct = reduce_mod_r([a + b for a, b in zip(c1, c2)], r)
        staged = reduce_mod_r([a + b for a, b in zip(r1.digits, r2.digits)], r)
        ok_hom = ok_hom and direct.digits == staged.digits
    checks = [("rewriting is idempotent on 100 random inputs", ok_idem),
              ("rewriting is additive on 100 random pairs", ok_hom)]
    ok_bits = True
    for n in range(256):
        bits = tuple((n >> i) & 1 for i in range(9))
        ok_bits = ok_bits and reduce_mod_r(n, r).digits == bits
    checks.append(("integers 0..255 reduce to their binary digits", ok_bits))
    return checks


def criterion_congruence_witnesses():
    """Constructive congruence exponents over prime-power arities."""
    rng = random.Random(4242)
    checks = []
    trial = 0
    while trial < 20:
        p = rng.choice((2, 3, 5))
        k = rng.choice((1, 2))
        m = p ** k
        mod = Modulus(m, 8)
        j = rng.randint(1, 2)
        qc = [rng.randint(0, m - 1) for _ in range(3)]
        if all(c % p == 0 for c in qc):
            qc[rng.randrange(3)] = 1
        q = PowerSeries(mod, 8, qc)
        rel = PowerSeries.constant(mod, 8, m) - q.shift(j)
        l_total, witness = congruence_exponent(rel, p, k)
        check = PowerSeries.x_power(mod, 8, l_total) - witness * p
        red = reduce_mod_r(check, rel)
        ok = l_total >= 1 and red.is_zero_to(red.exact_zone())
        checks.append(("witness %d: m=%d j=%d exponent %d reduces to zero"
                       % (trial, m, j, l_total), ok))
        trial += 1
    # the all-divisible rejection, once per prime
    ok = True
    for p in (2, 3, 5):
        mod = Modulus(p, 8)
        rel = PowerSeries.constant(mod, 8, p) \
            - PowerSeries.constant(mod, 8, p).shift(1)
        try:
            congruence_exponent(rel, p, 1)
            ok = False
        except AllDivisible:
            pass
    checks.append(("q divisible by p is rejected exactly", ok))
    return checks


def criterion_transversal_conjugation():
    """Changing transversals conjugates the representation, depth 8."""
    group = FgAbelianGroup(1)
    v = VirtualEndo(group, [[2]], [[1]])
    t = Transversal(v, [(0,), (1,)])
    checks = []
    for k in range(3):
        base = Transversal(v, [(2 * k,), (1,)])
        hs = [(2 - 2 * k,), (4,)]
        rep1, rep2, lam = transversal_change(hs, v, base,
                                             ctx=Context(2, K=8, D=8, L=8))
        ok = True
        for gvec in [(1,), (3,), (-2,)]:
            want = rep2.of(gvec)
            got = lam * rep1.of(gvec) * lam.inverse()
            ok = ok and want.equal_to_depth(got, 8)
        checks.append(("shifted transversal pair %d conjugates at depth 8"
                       % k, ok))
    rng = random.Random(31)
    ok = True
    for _ in range(10):
        hs = [(2 * rng.randint(-4, 4),), (2 * rng.randint(-4, 4),)]
        rep1, rep2, lam = transversal_change(hs, v, t,
                                             ctx=Context(2, K=8, D=8, L=8))
        for gvec in [(1,), (rng.randint(-8, 8),)]:
            want = rep2.of(gvec)
            got = lam * rep1.of(gvec) * lam.inverse()
            ok = ok and want.equal_to_depth(got, 8)
    checks.append(("ten random subgroup shifts conjugate at depth 8", ok))
    return checks


def criterion_uniform_gap():
    """Stabilizer shifts do not move the gap value of the adding machines."""
    rng = random.Random(77)
    checks = []
    for m in (2, 3):
        for j in (1, 2):
            ctx = Context(m, K=8, D=8, L=8)
            beta = adding_machine(ctx, j)
            ok = zeta(beta, 8) == j
            for _ in range(20):
                coeffs = [rng.randint(0, m * m) for _ in range(4)]
                coeffs[0] = m * rng.randint(0, m)
                z = beta.pow_series(PowerSeries(ctx.mod, ctx.D, coeffs))
                ok = ok and zeta(z * beta, 8) == j
            checks.append(("m=%d j=%d: twenty stabilizer samples keep the gap"
                           % (m, j), ok))
    return checks


def criterion_exponent_law():
    """Rooted two-cycle systems obey the lcm exponent law at depth 8."""
    checks = []
    for (m1, m2) in ((2, 4), (2, 3)):
        m = m1 + m2
        ctx = Context(m, K=8, D=8, L=8)
        sysr = System(ctx)
        c1 = Permutation.from_cycles([tuple(range(1, m1 + 1))], m)
        c2 = Permutation.from_cycles([tuple(range(m1 + 1, m + 1))], m)
        sysr.define("r1", c1, ["e"] * m)
        sysr.define("r2", c2, ["e"] * m)
        g1, g2 = sysr.gen("r1"), sysr.gen("r2")
        exponent = 1
        for a in range(m1):
            for b in range(m2):
                g = (g1 ** a) * (g2 ** b)
                if g.is_identity(8):
                    continue
                exponent = lcm(exponent, order_to_depth(g, 8))
        want = lcm(m1, m2)
        ok = exponent == want
        smaller = all(
            any(not (((g1 ** a) * (g2 ** b)) ** n).is_identity(8)
                for a in range(m1) for b in range(m2))
            for n in range(1, want))
        checks.append(("orders %dx%d: minimal exponent is lcm = %d"
                       % (m1, m2, want), ok and smaller))
    return checks


CRITERIA = (
    ("binary-transversals", criterion_binary_transversals),
    ("quaternary-machine", criterion_quaternary_machine),
    ("binary-series-conjugation", criterion_binary_series_conjugation),
    ("adding-machines", criterion_adding_machines),
    ("fold-family", criterion_fold_family),
    ("level-actions", criterion_level_actions),
    ("quotient-ring", criterion_quotient_ring),
    ("congruence-witnesses", criterion_congruence_witnesses),
    ("transversal-conjugation", criterion_transversal_conjugation),
    ("uniform-gap", criterion_uniform_gap),
    ("exponent-law", criterion_exponent_law),
)

SUITES = {
    "transversals": ("binary-transversals", "transversal-conjugation"),
    "quaternary": ("quaternary-machine",),
    "series-conjugation": ("binary-series-conjugation",),
    "odometer": ("adding-machines",),
    "fold": ("fold-family", "level-actions"),
    "ring": ("quotient-ring", "congruence-witnesses"),
    "torsion": ("exponent-law",),
    "gap": ("uniform-gap",),
}
SUITES["all"] = tuple(name for name, _ in CRITERIA)

_BY_NAME = dict(CRITERIA)


def run_criterion(name):
    """Run one named criterion; returns (checks, all_ok)."""
    checks = _BY_NAME[name]()
    return checks, all(ok for _, ok in checks)


def run_suite(suite):
    """Run a named suite; returns a JSON-ready report dict."""
    if suite not in SUITES:
        raise KeyError("unknown suite %r; choose from %s"
                       % (suite, ", ".join(sorted(SUITES))))
    report = {"suite": suite, "criteria": [], "pass": True}
    for name in SUITES[suite]:
        checks, ok = run_criterion(name)
        report["criteria"].append({
            "name": name,
            "pass": ok,
            "checks": [{"label": label, "pass": good}
                       for label, good in checks],
        })
        report["pass"] = report["pass"] and ok
    return report
