"""The benchmark's workloads, built from a seed.

A workload is a list of `Op`s run in order, each after the previous one
returns.  `Op.inputs` describes the generated input; `Op.run()` returns an
answer, which is right when it equals `Op.want`, or, when `want` is AGREE,
when the answer is a pair of two independent computations that agree.
Expected answers come from closed forms, from an independent oracle, or
(for `cli-sessions`) from reference rows recorded on the seed code; never
from the code path being timed.

How much work an operation is depends strongly on its recursion (closure
sizes range from 2 to 4096 states), so the recursions of a workload are
drawn once from a fixed master seed and the benchmark's --seed only varies
the inputs in ways that keep the work the same: it renames the tree's
letters (conjugation by a rooted permutation, which preserves closure
sizes, annihilators and orders), and picks peeled powers and exponents.
Seeds then give different inputs of the same shape and the same cost, so
run-to-run spread measures the program, not the draw.

The library is reached through module attributes (`closure.peel`, ...) at
call time, so the tracer's rebinding of those names is seen here too.
"""

import json
import os
import random
from collections import namedtuple
from math import gcd

from selfsim import adic, closure, endo, tree

HERE = os.path.dirname(os.path.abspath(__file__))
FOLD_BASE = os.path.join(HERE, "fold_base.json")

Op = namedtuple("Op", "kind inputs run want")
AGREE = "agree"
SIZES = ("full", "tiny")
WORKLOADS = ("levels", "fold-algebra", "cli-sessions")


def check(op, answer):
    if op.want == AGREE:
        return answer[0] == answer[1]
    return answer == op.want


def seeded(name, seed=None):
    # string seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(name if seed is None else "%s:%d" % (name, seed))


def fold_exponents(rng, m, degree_max=3, bound=3):
    """m exponent coefficient lists of one random degree <= degree_max."""
    degree = rng.randint(0, degree_max)
    return [[rng.randint(-bound, bound) for _ in range(degree + 1)]
            for _ in range(m)]


def random_sigma(rng, m):
    """A random full m-cycle, as a list of images."""
    images = list(range(1, m + 1))
    rng.shuffle(images)
    if tree.Permutation(images).is_full_cycle():
        return images
    return list(range(2, m + 1)) + [1]


def relabel(rng, exponents, sigma):
    """The recursion with its letters renamed by a random permutation pi.

    g = (g^{p_1}, ..., g^{p_m}) s becomes the recursion with p'_{pi(y)} =
    p_y and root pi s pi^-1, its conjugate by the rooted automorphism pi.
    """
    m = len(sigma)
    pi = list(range(1, m + 1))
    rng.shuffle(pi)
    new_sigma = [0] * m
    new_exps = [None] * m
    for y in range(1, m + 1):
        new_sigma[pi[y - 1] - 1] = pi[sigma[y - 1] - 1]
        new_exps[pi[y - 1] - 1] = exponents[y - 1]
    return new_exps, new_sigma


def fold_system(m, K, D, L, exponents, sigma):
    ctx = tree.Context(m, K=K, D=D, L=L)
    exps = [adic.PowerSeries(ctx.mod, ctx.D, e) for e in exponents]
    return tree.FoldSystem(ctx, "g", exps, tree.Permutation(sigma))


# ------------------------------------------------------------------ levels

LEVEL_PERM_SHAPES = {"full": ((2, 8, 5), (3, 7, 4), (4, 6, 4)),
                     "tiny": ((2, 4, 1), (3, 3, 1))}  # (m, top level, count)
CONJUGATE_SIZES = {"full": ((2, 10), (2, 12), (3, 7), (3, 9), (4, 6), (4, 8)),
                   "tiny": ((2, 5), (3, 3))}            # (m, L): m^L vertices
MACHINES = {"full": ((2, 3), (3, 1), (4, 2), (5, 3)),
            "tiny": ((2, 2), (3, 1))}                   # (m, shift j)
ORDER_SHAPES = {"full": (((2, 4), 8), ((2, 3), 8)),
                "tiny": (((2, 4), 4), ((2, 3), 4))}     # ((m1, m2), depth)


def _level_pair(g, l):
    fast = tree.level_perm_fast(g, l)
    slow = g.portrait(l).level_perm(l)
    return fast.images, slow.images


def _conjugate(g):
    result = endo.adding_machine_conjugator(g, 1)
    return result.verified(), len(result.factors)


def _machine_closure(a, relator, depth):
    report = closure.state_closure([a], depth=depth)
    return report.nontrivial_count(), a.pow_series(relator).is_identity(depth)


def _order(g, depth):
    return closure.order_to_depth(g, depth)


def build_levels(rng, size):
    """Operations whose cost today grows with m^L (portraits, level perms)."""
    base = seeded("levels")
    ops = []
    for m, top, count in LEVEL_PERM_SHAPES[size]:
        for _ in range(count):
            exps, sigma = relabel(rng, fold_exponents(base, m),
                                  random_sigma(base, m))
            g = fold_system(m, 8, 8, 8, exps, sigma).generator()
            for l in range(1, top + 1):
                ops.append(Op("level_perm_fast", (m, exps, sigma, l),
                              lambda g=g, l=l: _level_pair(g, l), AGREE))
    for m, L in CONJUGATE_SIZES[size]:
        # exponent sum q with q(0) = 1 mod m, so q is a unit and the
        # conjugator onto the 1-step adding machine exists at every depth
        exps = fold_exponents(base, m, degree_max=2)
        exps[-1][0] += (1 - sum(e[0] for e in exps)) % m
        exps, sigma = relabel(rng, exps, random_sigma(base, m))
        g = fold_system(m, L, L, L, exps, sigma).generator()
        ops.append(Op("adding_machine_conjugator", (m, L, exps, sigma),
                      lambda g=g: _conjugate(g), (True, L)))
    depth = 12 if size == "full" else 4
    for m, j in MACHINES[size]:
        # the j-step adding machine: j nontrivial states, killed by m - x^j
        exps, sigma = relabel(rng, [[0]] * (m - 1) + [[0] * (j - 1) + [1]],
                              list(range(2, m + 1)) + [1])
        a = fold_system(m, depth, depth, depth, exps, sigma).generator()
        relator = adic.PowerSeries(a.system.ctx.mod, depth,
                                   [m] + [0] * (j - 1) + [-1])
        ops.append(Op("state_closure", (m, j, exps, sigma),
                      lambda a=a, r=relator: _machine_closure(a, r, depth),
                      (j, True)))
    for (m1, m2), depth in ORDER_SHAPES[size]:
        # rooted g1^a * g2^b, with g1 and g2 cycles on disjoint letters,
        # has order lcm(m1 / gcd(a, m1), m2 / gcd(b, m2))
        m = m1 + m2
        system = tree.System(tree.Context(m, K=depth, D=depth, L=depth))
        c1 = tree.Permutation.from_cycles([tuple(range(1, m1 + 1))], m)
        c2 = tree.Permutation.from_cycles([tuple(range(m1 + 1, m + 1))], m)
        g1 = system.define("r1", c1, ["e"] * m)
        g2 = system.define("r2", c2, ["e"] * m)
        a, b = 0, 0
        while (a, b) == (0, 0):
            a, b = rng.randrange(m1), rng.randrange(m2)
        o1, o2 = m1 // gcd(a, m1), m2 // gcd(b, m2)
        g = (g1 ** a) * (g2 ** b)
        ops.append(Op("order_to_depth", (m1, m2, a, b, depth),
                      lambda g=g, d=depth: _order(g, d),
                      o1 * o2 // gcd(o1, o2)))
    return ops


# ------------------------------------------------------------ fold-algebra

# recursions per arity in one repetition; each gives three operations
FOLD_COUNTS = {"full": {2: 14, 3: 14, 4: 6}, "tiny": {2: 2, 3: 1}}
PEEL_POWERS = range(-40, 81)


def draw_fold_recursions():
    """Fold-family recursions (m, exponents, sigma) from the master seed."""
    base = seeded("fold-algebra")
    while True:
        m = base.choice((2, 3, 4))
        yield m, fold_exponents(base, m), random_sigma(base, m)


def fold_annihilator(system, exponents):
    """The closed form m - x * (p_1 + ... + p_m), from the exponents."""
    ctx = system.ctx
    qsum = [0] * (ctx.D + 1)
    for exps in exponents:
        for d, c in enumerate(exps):
            qsum[d] += c
    return adic.PowerSeries(ctx.mod, ctx.D, [ctx.m] + [-c for c in qsum[:-1]])


def _fold_closure(g):
    report = closure.state_closure([g], depth=6)
    return report.abelian_to_depth, report.transitive


def peel_pair(g, n, r):
    peeled = closure.peel(g ** n, [g])[0].lifts()
    return tuple(peeled), tuple(adic.reduce_mod_r(n, r).digits)


def fold_ops(g, r, n, inputs=None):
    """The three operations of one fold-family recursion."""
    return [
        Op("state_closure", inputs, lambda: _fold_closure(g), (6, True)),
        Op("annihilator_kills", inputs,
           lambda: g.pow_series(r).is_identity(8), True),
        Op("peel", inputs, lambda: peel_pair(g, n, r), AGREE),
    ]


def build_fold_algebra(rng, size):
    """Fold-family recursions: closure, annihilator and peel operations.

    The recursions are the first FOLD_COUNTS of each arity listed in
    fold_base.json (see record.py), renamed by the seed.
    """
    with open(FOLD_BASE, "r", encoding="utf-8") as handle:
        recursions = json.load(handle)["recursions"]
    remaining = dict(FOLD_COUNTS[size])
    ops = []
    for entry in recursions:
        m = entry["m"]
        if not remaining.get(m):
            continue
        remaining[m] -= 1
        exps, sigma = relabel(rng, entry["exponents"], entry["sigma"])
        n = rng.choice(PEEL_POWERS)
        # K = D + 1 keeps every reduced digit inside the exact zone
        system = fold_system(m, 9, 8, 8, exps, sigma)
        r = fold_annihilator(system, exps)
        ops.extend(fold_ops(system.generator(), r, n, (m, exps, sigma, n)))
    return ops


def build(workload, seed, size="full", root=None):
    """The operation list of one workload at one seed.

    root is the repository root; cli-sessions writes its scripts below it.
    """
    if size not in SIZES:
        raise ValueError("unknown size %r" % size)
    rng = seeded(workload, seed)
    if workload == "levels":
        return build_levels(rng, size)
    if workload == "fold-algebra":
        return build_fold_algebra(rng, size)
    if workload == "cli-sessions":
        from sessions import build_cli_sessions
        return build_cli_sessions(rng, size, root)
    raise ValueError("unknown workload %r" % workload)
