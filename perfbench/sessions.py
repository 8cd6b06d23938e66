"""The `cli-sessions` workload: many short scripts run through `cli.main`.

Each script is one template's prelude (context, generators, lets) plus one
statement drawn by the seed from each of the template's slots.  A slot's
alternatives cost about the same (the costly statements -- closure,
present, conjugate, verify -- have one alternative), and every repetition
runs the templates round-robin, so the work per repetition stays steady
while the statements change with the seed.  Every statement's output row
was recorded on the seed code in `cli_reference.json` (see record.py); a
row passes when it holds every reference key with an equal value, so
fields added later are allowed.
"""

import contextlib
import io
import json
import os

from selfsim import cli

from workloads import Op

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "cli_reference.json")
WORKDIR = "perfbench/_work"   # relative to the repository root
MISSING = "<missing>"

# group triples for `represent`; each is written to WORKDIR/<name>.json
TRIPLES = {
    "odometer2": {"free_rank": 1, "H_gens": [[2]], "f_images": [[1]],
                  "transversal": [[0], [1]]},
    "odometer3": {"free_rank": 1, "H_gens": [[3]], "f_images": [[1]],
                  "transversal": [[0], [1], [2]]},
    "shifted2": {"free_rank": 1, "H_gens": [[2]], "f_images": [[1]],
                 "transversal": [[2], [-1]]},
    "plane2": {"free_rank": 2, "H_gens": [[2, 0], [0, 1]],
               "f_images": [[0, 1], [1, 0]],
               "transversal": [[0, 0], [1, 0]]},
    "plane3": {"free_rank": 2, "H_gens": [[3, 0], [0, 1]],
               "f_images": [[0, 1], [1, 0]],
               "transversal": [[0, 0], [1, 0], [2, 0]]},
}


def _triple_path(name):
    return "%s/%s.json" % (WORKDIR, name)


# name -> (prelude lines, slots); a slot is a list of (statement, closed
# forms), the closed forms being {dotted row key: value} pairs that
# record.py checks against the recorded row.
TEMPLATES = {
    "abelian-pair": (
        ["context m=2 K=8 D=8 L=8",
         "gen a = (b, e) (1 2)",
         "gen b = (a, a)",
         "let s = a^{1 + x}"],
        [[("portrait a*b L=4", {}), ("portrait a^3*b^-1 L=4", {}),
          ("portrait s L=4", {}), ("portrait b@1 L=4", {})],
         [("act a*b 1.2.1.2", {}), ("act s 2.2.2.1", {}),
          ("act b^2 1.1.2.1", {}), ("act a^-1 2.1.2.2", {})],
         [("order a L=6", {}), ("order a*b L=6", {}), ("order s L=6", {}),
          ("order b L=6", {})],
         [("closure a b depth=6", {}), ("closure a depth=6", {})]],
    ),
    "grigorchuk": (
        ["context m=2 K=8 D=8 L=8",
         "gen a = (e, e) (1 2)",
         "gen b = (a, c)",
         "gen c = (a, d)",
         "gen d = (e, b)"],
        [[("portrait a*b L=4", {}), ("portrait b*c L=4", {}),
          ("portrait a*d*a L=4", {}), ("portrait c*a*b L=4", {})],
         [("act a*b*a*c 1.2.2.1", {}), ("act b*d 2.2.1.2", {}),
          ("act c*a 1.1.1.2", {}), ("act a*d 2.1.2.1", {})],
         [("order b L=6", {"order": 2}), ("order c L=6", {"order": 2}),
          ("order d L=6", {"order": 2}), ("order a L=6", {"order": 2})],
         [("order a*b L=6", {}), ("order a*c L=6", {}),
          ("order a*d L=6", {}), ("order b*a*c L=6", {})],
         [("closure a b c d depth=5", {"report.state_count": 5})]],
    ),
    "series-machine": (
        ["context m=2 K=10 D=10 L=10",
         "gen b = (e, b^{1 + x}) (1 2)",
         "let k = b^{2 - x}"],
        [[("portrait b^3 L=4", {}), ("portrait k L=4", {}),
          ("portrait b^{1 + x}@1 L=4", {}), ("portrait b*k L=4", {})],
         [("order b L=8", {"order": 256}), ("order b^2 L=8", {"order": 128}),
          ("order b^3 L=8", {"order": 256}),
          ("order b^4 L=8", {"order": 64})],
         [("zeta b L=8", {}), ("zeta b^3 L=8", {}), ("zeta k L=8", {})],
         [("closure b depth=8", {}), ("present b depth=8", {})],
         [('reduce "6" r="2 - x"', {}), ('reduce "-7" r="2 - x"', {}),
          ('reduce "1 + x^2" r="2 - x"', {}), ('reduce "13" r="2 - x"', {})],
         [("conjugate b j=1 L=8", {})]],
    ),
    "odometer3": (
        ["context m=3 K=8 D=8 L=8",
         "gen c = (e, c^2, c^2) (1 2 3)"],
        [[("portrait c L=3", {}), ("portrait c^2 L=3", {}),
          ("portrait c^{2 + x} L=3", {}), ("portrait c@1 L=3", {})],
         [("act c 1.2.3.1", {}), ("act c^5 3.3.1.2", {}),
          ("act c^-1 2.1.1.3", {}), ("act c^{1 + x} 1.1.2.2", {})],
         [("order c L=6", {"order": 729}), ("order c^3 L=6", {"order": 243}),
          ("order c^2 L=6", {"order": 729}),
          ("order c^4 L=6", {"order": 729})],
         [("zeta c L=8", {}), ("zeta c^2 L=8", {}), ("zeta c^3 L=8", {})],
         [("conjugate c j=1 L=6", {})]],
    ),
    "quaternary": (
        ["context m=4 K=10 D=10 L=10",
         "gen a = (e, e, e, a^{2}) (1 2 3 4)",
         "let kappa = a^{2 - x}"],
        [[("portrait a L=3", {}), ("portrait kappa L=3", {}),
          ("portrait a^2 L=3", {}), ("portrait a^{1 + x}@1 L=3", {})],
         [("act kappa 1.2.3.4", {}), ("act a^3 4.4.1.2", {}),
          ("act a*kappa 2.3.1.1", {}), ("act a@1 3.1.4.2", {})],
         [("zeta a L=8", {}), ("zeta kappa L=8", {}), ("zeta a^3 L=8", {})],
         [("present a depth=6", {})],
         [("verify quaternary", {})],
         [("order a L=5", {}), ("order kappa L=5", {"order": 2}),
          ("order a^3 L=5", {})]],
    ),
    "adding-j2": (
        ["context m=3 K=8 D=8 L=8",
         "gen a = (e, e, a^{x}) (1 2 3)"],
        [[("portrait a L=3", {}), ("portrait a^4 L=3", {}),
          ("portrait a^{x} L=3", {}), ("portrait a^-2 L=3", {})],
         [("order a L=6", {"order": 27}), ("order a^2 L=6", {"order": 27}),
          ("order a^3 L=6", {"order": 9}), ("order a^4 L=6", {"order": 27})],
         [("closure a depth=8", {"report.nontrivial_states": 2})],
         [("zeta a L=8", {}), ("zeta a^2 L=8", {})],
         [('reduce "5" r="3 - x^2"', {}), ('reduce "-4" r="3 - x^2"', {}),
          ('reduce "2 + x" r="3 - x^2"', {})]],
    ),
    "adding-j3": (
        ["context m=2 K=9 D=9 L=9",
         "gen a = (e, a^{x^2}) (1 2)"],
        [[("portrait a L=4", {}), ("portrait a^3 L=4", {}),
          ("portrait a^{1 + x} L=4", {}), ("portrait a^-1 L=4", {})],
         [("order a L=9", {"order": 8}), ("order a^2 L=9", {"order": 4}),
          ("order a^3 L=9", {"order": 8}), ("order a^5 L=9", {"order": 8})],
         [("closure a depth=9", {"report.nontrivial_states": 3})],
         [("present a depth=6", {})],
         [("verify gap", {})]],
    ),
    "represent": (
        ["context m=2 K=8 D=8 L=8"],
        [[("represent %s" % _triple_path(name), {}) for name in TRIPLES],
         [('reduce "%d" r="2 - x"' % n, {}) for n in (5, 11, -3, 100)],
         [("verify ring", {})]],
    ),
}

SCRIPTS = {"full": 104, "tiny": 8}


def script_text(template, statements):
    prelude, _ = TEMPLATES[template]
    return "\n".join(prelude + list(statements)) + "\n"


def write_triples(root):
    os.makedirs(os.path.join(root, WORKDIR), exist_ok=True)
    for name, triple in TRIPLES.items():
        with open(os.path.join(root, _triple_path(name)), "w",
                  encoding="utf-8") as handle:
            json.dump(triple, handle, sort_keys=True)


def run_script(path):
    """Run one script file through cli.main; returns (exit code, rows)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", path])
    rows = [json.loads(line) for line in out.getvalue().splitlines()]
    return code, rows


def project(row, keys):
    """The row restricted to the reference keys (absent keys marked)."""
    return {key: row.get(key, MISSING) for key in keys}


def _session(path, keys):
    code, rows = run_script(path)
    if len(rows) != len(keys):
        return code, rows
    return code, [project(row, k) for row, k in zip(rows, keys)]


def load_reference():
    with open(REFERENCE, "r", encoding="utf-8") as handle:
        return json.load(handle)["rows"]


def build_cli_sessions(rng, size, root):
    """Write the seed's scripts under root/WORKDIR; one op per script."""
    reference = load_reference()
    write_triples(root)
    names = sorted(TEMPLATES)
    ops = []
    for i in range(SCRIPTS[size]):
        template = names[i % len(names)]
        statements = [rng.choice(slot)[0] for slot in TEMPLATES[template][1]]
        path = "%s/script-%03d.sel" % (WORKDIR, i)
        with open(os.path.join(root, path), "w", encoding="utf-8") as handle:
            handle.write(script_text(template, statements))
        want_rows = [reference[template][s] for s in statements]
        keys = [sorted(row) for row in want_rows]
        ops.append(Op("script:" + template, statements,
                      lambda p=path, k=keys: _session(p, k),
                      (0, want_rows)))
    return ops
