"""Source-level rules that every module of the package must keep.

Library guards must hold under `python -O`, which strips `assert`, so any
`assert` statement fails; a guard is an explicit check that raises a named
exception.  Cache bounds are enforced in one place, `Memo.put`, so any
other comparison that reads a bound fails too.  The closure walk keys fold
states without the digit carry pass, which stays an independent oracle.
Fold portraits are memoized by the same linear key, so the word expansion
behind the closure's DedupeCollision check, and the check's own portrait
helper, must not reach that key.  A FoldSystem shares System's word path
and differs only at the atom, and the recursions on normal words never
normalize again.  Every cost cap and budget the package
defines is read by the package, so none is a dead knob.  Permutations
built from input pass the bijection check: the unchecked constructor,
for images derived from valid permutations, is called in tree.py only.
"""

import ast
import pathlib
import re

import selfsim

PACKAGE = pathlib.Path(selfsim.__file__).parent
BOUND_NAMES = ("cache_cap", "DEFAULT_CACHE")


def parsed_modules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"), str(path)))
            for path in modules]


def test_package_has_no_assert_statements():
    found = []
    for name, tree in parsed_modules():
        found += ["%s:%d" % (name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def reads_a_bound(node):
    return any(
        (isinstance(n, ast.Name) and n.id in BOUND_NAMES)
        or (isinstance(n, ast.Attribute)
            and (n.attr in BOUND_NAMES or n.attr == "cap"))
        for n in ast.walk(node))


def memo_put_nodes(tree):
    """Ids of every node inside the body of Memo.put."""
    inside = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "Memo":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "put":
                    inside.update(id(n) for n in ast.walk(fn))
    return inside


def test_cache_bounds_are_compared_only_in_memo_put():
    found, in_put = [], 0
    for name, tree in parsed_modules():
        inside = memo_put_nodes(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and reads_a_bound(node):
                if id(node) in inside:
                    in_put += 1
                else:
                    found.append("%s:%d" % (name, node.lineno))
    assert found == []
    assert in_put == 1


def test_closure_never_calls_the_digit_oracle():
    # exponent_digits and reduce_digits check the closure walk's linear
    # keys, so the walk must not reach them
    (tree,) = [tree for name, tree in parsed_modules()
               if name == "closure.py"]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            called = f.attr if isinstance(f, ast.Attribute) else getattr(
                f, "id", None)
            if called in ("exponent_digits", "reduce_digits"):
                found.append("closure.py:%d" % node.lineno)
    assert found == []


def called_names(fn):
    """Names of everything fn calls or passes to a call, as attributes or
    plain names; a method passed as a value may be called by its taker."""
    return {f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            for n in ast.walk(fn) if isinstance(n, ast.Call)
            for f in [n.func, *n.args, *(k.value for k in n.keywords)]}


def method_calls(tree, classes):
    """Method name -> names it calls, over the named classes of tree."""
    calls = {}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name in classes:
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef):
                    calls.setdefault(fn.name, set()).update(called_names(fn))
    return calls


def reached_from(calls, start):
    """Every name reached from start through calls, start included."""
    reached, frontier = set(), list(start)
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            frontier.extend(calls.get(name, ()))
    return reached


KEYED = ("key_forms", "key_table", "child_key_table", "_portrait",
         "_keyed_node")


def test_keyed_guards_see_methods_passed_as_values():
    # FoldSystem._portrait hands child_key_table to _keyed_node, which
    # calls it as table(d - 1), so the call graph keeps that edge
    tree = dict(parsed_modules())["tree.py"]
    calls = method_calls(tree, ("FoldSystem",))
    assert {"_keyed_node", "child_key_table"} <= calls["_portrait"]


def test_word_expansion_never_reaches_the_portrait_key():
    # _is_identity and _word_decompose expand words without the key, so
    # nothing they call, directly or through other System or FoldSystem
    # methods, may read key_forms or keyed portraits
    trees = dict(parsed_modules())
    calls = method_calls(trees["tree.py"], ("System", "FoldSystem"))
    reached = reached_from(calls, ["_is_identity", "_word_decompose"])
    assert "_atom_decompose" in reached
    assert reached.isdisjoint(KEYED)


def test_dedupe_spot_check_never_reaches_the_portrait_key():
    # the closure's DedupeCollision spot check compares the portraits of
    # closure._word_portraits, so that helper, through closure functions
    # and System or FoldSystem methods, must expand words only
    trees = dict(parsed_modules())
    calls = method_calls(trees["tree.py"], ("System", "FoldSystem"))
    for fn in trees["closure.py"].body:
        if isinstance(fn, ast.FunctionDef):
            calls.setdefault(fn.name, set()).update(called_names(fn))
    assert "_word_portraits" in calls
    reached = reached_from(calls, ["_word_portraits"])
    assert "_decompose_normal" in reached
    assert reached.isdisjoint(KEYED + ("_fold_key", "_fold_forms", "portrait"))


def test_unchecked_permutations_are_built_only_in_tree():
    # cli, endo, suites and closure build images from input (cycles, JSON,
    # sigma, user images), so they must go through Permutation.__init__
    calls = {}
    for name, tree in parsed_modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_derived"):
                calls.setdefault(name, []).append(node.lineno)
    assert "tree.py" in calls
    assert sorted(calls) == ["tree.py"]


WORD_PATH = ("_normalize", "_word_decompose", "_decompose_normal",
             "_identity_normal", "_portrait_normal")


def test_fold_system_shares_the_word_path():
    # FoldSystem differs from System at the atom, so it overrides none of
    # the word path; the *_normal recursions trust their input, so they
    # neither normalize it again nor go back through an entry point
    tree = dict(parsed_modules())["tree.py"]
    fold = method_calls(tree, ("FoldSystem",))
    assert "_atom_decompose" in fold
    assert sorted(set(fold) & set(WORD_PATH)) == []
    calls = method_calls(tree, ("System",))
    for name in ("_identity_normal", "_portrait_normal"):
        assert name in calls[name]
        assert calls[name].isdisjoint(
            ("_normalize", "_word_decompose", "_is_identity", "_portrait"))


KNOB = re.compile(r"_?[A-Z][A-Z0-9_]*_(CAP|BUDGET)$")


def test_every_cap_and_budget_is_read():
    # a module-level *_CAP or *_BUDGET constant that nothing reads is an
    # option that changes nothing; reads are loads of the name or of an
    # attribute of that name, in any module of the package
    trees = parsed_modules()
    knobs = {}
    for name, tree in trees:
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and KNOB.match(target.id):
                        knobs[target.id] = "%s:%d" % (name, node.lineno)
    read = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert "ENUM_CAP" in knobs and "WITNESS_SCAN_BUDGET" in knobs
    assert sorted(v for k, v in knobs.items() if k not in read) == []
