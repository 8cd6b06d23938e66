"""Library guards must hold under `python -O`, which strips `assert`.

Every module of the package is parsed and any `assert` statement fails the
test; a guard is an explicit check that raises a named exception.
"""

import ast
import pathlib

import selfsim

PACKAGE = pathlib.Path(selfsim.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
