"""Script language and command-line behavior."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import selfsim
from selfsim import cli, suites
from selfsim.cli import (CliParseError, format_script, format_statement,
                         main, parse_script, parse_statement)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(out):
    return [json.loads(line) for line in out.splitlines()]


def write_script(tmp_path, text, name="session.sel"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ----------------------------------------------------------------- parsing

def test_parse_gen_statement_shape():
    stmt = parse_statement(1, "gen a = (e, a^{2 - x}@1*b^-3) (1 2)(3 4)")
    assert stmt["kind"] == "gen"
    assert stmt["name"] == "a"
    assert stmt["entries"][0] is None
    first, second = stmt["entries"][1]
    assert first == {"name": "a", "power": None, "series": "2 - x", "shift": 1}
    assert second == {"name": "b", "power": -3, "series": None, "shift": None}
    assert stmt["cycles"] == [[1, 2], [3, 4]]


def test_parse_strips_comments_and_blanks():
    script = parse_script("# header\n\ncontext m=2  # inline\n")
    assert len(script) == 1
    assert script[0] == {"kind": "context", "line": 3, "kv": {"m": 2}}


def test_parse_command_words_and_options():
    stmt = parse_statement(1, "closure a b*c depth=6")
    assert stmt["kind"] == "closure"
    assert [len(w) for w in stmt["words"]] == [1, 2]
    assert stmt["kv"] == {"depth": 6}


def test_parse_act_vertex():
    stmt = parse_statement(1, "act a^2 1.2.1")
    assert stmt["vertex"] == [1, 2, 1]


def test_parse_reduce_quotes():
    stmt = parse_statement(1, 'reduce "6" r="2 - x"')
    assert stmt["input"] == "6"
    assert stmt["kv"]["r"] == "2 - x"


# (text, column, message) of every parse error path, each head's included
PARSE_ERRORS = [
    ("frobnicate a", 1, "unknown statement 'frobnicate'"),
    ("frobnicate %", 12, "unexpected character '%'"),
    ("%foo", 1, "expected a statement"),
    ("represent", 10, "expected a file path"),
    ("represent   # c", 10, "expected a file path"),
    ("verify", 7, "expected a suite name"),
    ("verify -x", 8, "expected a suite name"),
    ("verify ring x", 13, "unexpected input after the suite name"),
    ("verify series-", 14, "unexpected input after the suite name"),
    ("context K=9", 12, "context needs m=<arity>"),
    ('reduce "6"', 11, 'reduce needs r="<relator series>"'),
    ("conjugate a L=4", 16, "conjugate needs j=<shift>"),
    ("context m=2 m=3", 13, "option 'm' given twice"),
    ("zeta a L=3 L=4", 12, "option 'L' given twice"),
    ("portrait a depth=3", 12, "unknown option 'depth' (allowed: L)"),
    ("conjugate a k=1", 13, "unknown option 'k' (allowed: L, j)"),
    ("context 5", 9, "expected an option name, found '5'"),
    ("context m", 10, "expected ="),
    ("portrait a L=x", 14, "expected an integer value, found 'x'"),
    ("present a depth=x", 17, "expected an integer value, found 'x'"),
    ('reduce "6" r=2', 14, "expected a quoted value, found '2'"),
    ("portrait a b", 13, "too many words (at most 1)"),
    ("order L=3", 7, "expected a word"),
    ("closure", 8, "expected a word"),
    ("order a %", 9, "unexpected character '%'"),
    ("portrait a^x", 12, "expected an integer or {series} after '^'"),
    ("portrait a@-1", 12, "shift must not be negative"),
    ("let x = a b", 11, "unexpected input after the word"),
    ("let 1 = a", 5, "expected a name, found '1'"),
    ("let x a", 7, "expected =, found 'a'"),
    ("act a 1.2 3", 11, "unexpected input after the vertex"),
    ("act a", 6, "expected a vertex letter"),
    ("act a 0.1", 7, "vertex letters count from 1"),
    ("act a 1.0", 9, "vertex letters count from 1"),
    ('reduce 6 r="x"', 8, "expected a quoted series, found '6'"),
    ("conjugate 1 j=1", 11, "expected a generator name, found '1'"),
    ("gen 1", 5, "expected a generator name, found '1'"),
    ("gen a = (e,", 12, "unterminated entry list"),
    ("gen a = (e, a", 14, "expected ',' or ')'"),
    ("gen a = (e, a) (1 2", 20, "expected a letter or ')'"),
    ("gen a = (e, a) ()", 18, "empty cycle"),
    ("gen a = (e, a) (1 2) x", 22,
     "unexpected input after the generator definition"),
]


@pytest.mark.parametrize("text,col,message", PARSE_ERRORS,
                         ids=[text for text, _, _ in PARSE_ERRORS])
def test_parse_error_positions(text, col, message):
    with pytest.raises(CliParseError) as info:
        parse_statement(4, text)
    assert (info.value.line, info.value.col, info.value.message) == (
        4, col, message)


def test_parse_rejects_unknown_option():
    with pytest.raises(CliParseError) as info:
        parse_statement(1, "portrait a depth=3")
    assert "unknown option" in info.value.message


def test_format_parse_roundtrip():
    text = "\n".join([
        "context m=4 K=10 D=10 L=10",
        "gen a = (e, e, e, a^{2}) (1 2 3 4)",
        "let kappa = a^{2 - x}",
        "portrait kappa L=3",
        "act a^-1*kappa@2 1.2.3",
        "closure a kappa depth=6",
        'reduce "6" r="2 - x"',
        "conjugate a j=2 L=8",
        "verify quaternary",
    ])
    first = parse_script(text)
    second = parse_script(format_script(first))

    def strip(statements):
        return [{k: v for k, v in s.items() if k != "line"}
                for s in statements]

    assert strip(first) == strip(second)
    assert format_statement(first[1]) == "gen a = (e, e, e, a^{2}) (1 2 3 4)"


# Strategies for syntactically valid statements, derived from the
# statement table: one per field kind and option type.  Names avoid a bare
# "e", which a gen entry reads as the identity.
NAMES = st.from_regex(r"[A-Za-z_][A-Za-z_0-9]{0,3}", fullmatch=True).filter(
    lambda name: name != "e")
QUOTED = st.text(alphabet="0123456789x+-*^ #", max_size=6)


@st.composite
def factors(draw):
    power = draw(st.none() | st.integers(-20, 20))
    series = None if power is not None else draw(
        st.none() | st.text(alphabet="0123456789x+-*^ ", max_size=6).map(
            str.strip))
    return {"name": draw(NAMES), "power": power, "series": series,
            "shift": draw(st.none() | st.integers(0, 12))}


WORDS = st.lists(factors(), min_size=1, max_size=3)
FIELD_VALUES = {
    "word": WORDS, "one word": WORDS,
    "words": st.lists(WORDS, min_size=1, max_size=3),
    "vertex": st.lists(st.integers(1, 9), min_size=1, max_size=4),
    "name": NAMES, "quoted": QUOTED, "=": st.none(), "end": st.none(),
    "entries": st.lists(st.none() | WORDS, min_size=1, max_size=3),
    "cycles": st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=3),
                       max_size=2),
    "path": st.from_regex(r"[A-Za-z0-9_./-]+( [A-Za-z0-9_./-]+)?",
                          fullmatch=True),
    "suite": st.from_regex(r"[A-Za-z_][A-Za-z_0-9]*(-[A-Za-z_0-9]+)*",
                           fullmatch=True),
}
OPTION_VALUES = {int: st.integers(-50, 50), str: QUOTED}


@st.composite
def statements(draw, head):
    """A parsed statement of one head: every field of its table row, its
    required option and any of its other options."""
    row = cli._STATEMENTS[head]
    stmt = {"kind": head, "line": 1}
    for key, kind, _ in row.fields:
        if key is not None:
            stmt[key] = draw(FIELD_VALUES[kind])
    if row.options:
        required = row.required[0] if row.required else None
        stmt["kv"] = {key: draw(OPTION_VALUES[typ])
                      for key, typ in row.options.items()
                      if key == required or draw(st.booleans())}
    return stmt


def test_every_field_kind_has_a_strategy():
    assert set(FIELD_VALUES) == set(cli._FIELDS)


@pytest.mark.parametrize("head", sorted(cli._STATEMENTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_statement_round_trips(head, data):
    stmt = data.draw(statements(head))
    text = format_statement(stmt)
    assert parse_statement(7, text) == dict(stmt, line=7), text


def test_statement_table_matches_the_session_and_formatters():
    # a new statement is one table row plus one Session._cmd_<head> method
    commands = {name[len("_cmd_"):] for name in dir(cli.Session)
                if name.startswith("_cmd_")}
    assert set(cli._STATEMENTS) == commands
    silent = {head for head, row in cli._STATEMENTS.items()
              if row.pretty is None}
    assert silent == {"context", "gen", "let"}   # they print no row


def test_every_statement_is_documented():
    # in `selfsim run --help` (the module docstring) and in the README
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("### Script language", 1)[1].split("```text", 1)[1]
    for text in (cli.__doc__, block.split("```", 1)[0]):
        heads = {line.split()[0] for line in text.splitlines() if line.strip()}
        assert set(cli._STATEMENTS) <= heads


# ---------------------------------------------------------------- commands

def test_run_odometer_session(tmp_path, capsys):
    script = write_script(tmp_path, "\n".join([
        "context m=2 K=8 D=8 L=8",
        "gen a = (e, a) (1 2)",
        "act a 1.1",
        "order a L=6",
        "zeta a",
        "closure a",
    ]))
    code, out, err = run_cli(["run", script], capsys)
    assert code == 0 and err == ""
    act, order, zv, closure = rows_of(out)
    assert act == {"command": "act", "word": "a", "vertex": "1.1",
                   "image": "2.1", "state": "e"}
    assert order["order"] == 64
    assert zv["zeta"] == 1
    assert closure["report"]["state_count"] == 2
    assert closure["report"]["transitive"] is True
    assert closure["report"]["recurrent_witnessed"] is True


def test_run_reduce_example(tmp_path, capsys):
    script = write_script(tmp_path, "\n".join([
        "context m=2",
        'reduce "6" r="2 - x"',
    ]))
    code, out, _ = run_cli(["run", script], capsys)
    assert code == 0
    row = rows_of(out)[0]
    assert row["normal_form"] == "x + x^2"
    assert row["digits"] == [0, 1, 1, 0, 0, 0, 0, 0, 0]
    assert row["relator"] == "2 - x"


def test_run_portrait_json_and_depth(tmp_path, capsys):
    script = write_script(tmp_path, "\n".join([
        "context m=2",
        "gen a = (e, a) (1 2)",
        "portrait a^2 L=2",
    ]))
    code, out, _ = run_cli(["run", script], capsys)
    assert code == 0
    row = rows_of(out)[0]
    assert row["portrait"] == {"m": 2, "L": 2,
                               "nodes": [[1, 2], [2, 1], [2, 1]]}


def test_run_present_and_series_powers(tmp_path, capsys):
    script = write_script(tmp_path, "\n".join([
        "context m=2 K=10 D=10 L=10",
        "gen b = (e, b^{1 + x}) (1 2)",
        "present b depth=8",
    ]))
    code, out, _ = run_cli(["run", script], capsys)
    assert code == 0
    row = rows_of(out)[0]
    assert row["orders"] == [2]
    assert row["presentation"]["orders"] == [2]


def test_run_conjugate_reports_verified(tmp_path, capsys):
    script = write_script(tmp_path, "\n".join([
        "context m=3 K=9 D=9 L=9",
        "gen c = (e, e, c^{1}) (1 2 3)",
        "conjugate c j=1 L=6",
    ]))
    code, out, _ = run_cli(["run", script], capsys)
    assert code == 0
    row = rows_of(out)[0]
    assert row["verified"] is True
    assert row["generator"] == "c"
    assert row["depth"] == 6


@pytest.mark.parametrize("context,written,plain", [
    ("context m=2", "(e, b*b^{x}) (1 2)", "(e, b^{1 + x}) (1 2)"),
    ("context m=3", "(b@1, e, b^-2*b^3) (1 2 3)", "(b^{x}, e, b) (1 2 3)"),
])
def test_run_conjugate_accepts_products_and_shifts(tmp_path, capsys, context,
                                                   written, plain):
    rows = []
    for entries in (written, plain):
        script = write_script(tmp_path, "%s\ngen b = %s\nconjugate b j=1 L=8\n"
                              % (context, entries))
        code, out, err = run_cli(["run", script], capsys)
        assert code == 0, err
        rows.append(out)
    assert rows[0] == rows[1]
    assert rows_of(rows[0])[0]["verified"] is True


def test_run_represent(tmp_path, capsys):
    triple = tmp_path / "triple.json"
    triple.write_text(json.dumps({
        "free_rank": 1, "torsion": [], "H_gens": [[2]],
        "f_images": [[1]], "transversal": [[0], [1]]}))
    script = write_script(tmp_path, "represent %s" % triple)
    code, out, _ = run_cli(["run", script], capsys)
    assert code == 0
    row = rows_of(out)[0]
    assert row["index"] == 2
    assert row["truncated"] is False
    assert row["states"] == [
        {"name": "g[1]", "root": "(1 2)", "children": ["e", "g[1]"]}]


ODOMETER = {"free_rank": 1, "torsion": [], "H_gens": [[2]],
            "f_images": [[1]], "transversal": [[0], [1]]}


@pytest.mark.parametrize("data,message", [
    ([1, 2], "a triple must be a JSON object"),
    ("text", "a triple must be a JSON object"),
    (dict(ODOMETER, H_gens=5), "H_gens must be a list of integer vectors"),
    (dict(ODOMETER, f_images=None),
     "f_images must be a list of integer vectors"),
    (dict(ODOMETER, transversal="ab"),
     "transversal must be a list of integer vectors"),
    (dict(ODOMETER, transversal=[["a"], [1]]),
     "transversal must be a list of integer vectors"),
    (dict(ODOMETER, transversal=[[2.5], [1]]),
     "transversal must be a list of integer vectors"),
    (dict(ODOMETER, free_rank=1.5), "free_rank must be an integer"),
    (dict(ODOMETER, free_rank=True), "free_rank must be an integer"),
    (dict(ODOMETER, torsion=None), "torsion must be a list of integers"),
], ids=["list", "string", "H_gens-int", "f_images-null", "transversal-string",
        "string-entry", "float-entry", "free_rank-float", "free_rank-bool",
        "torsion-null"])
def test_represent_rejects_malformed_triples(tmp_path, capsys, data, message):
    # a wrongly typed field is a parse error (exit 2, file:line: message),
    # not a traceback and not a silently truncated number
    triple = tmp_path / "triple.json"
    triple.write_text(json.dumps(data))
    script = write_script(tmp_path, "represent %s" % triple)
    code, out, err = run_cli(["run", script], capsys)
    assert code == 2
    assert out == ""
    assert err == "%s:1: %s\n" % (script, message)


@pytest.mark.parametrize("torsion", [[], [2]], ids=["free", "torsion"])
def test_represent_rejects_a_huge_free_rank_quickly(tmp_path, capsys,
                                                     torsion):
    # no H generator spans a free rank of 10^12, and saying so takes no
    # time or memory that grows with the rank, torsion rows included
    triple = tmp_path / "triple.json"
    triple.write_text(json.dumps({"free_rank": 10 ** 12, "torsion": torsion,
                                  "H_gens": [], "f_images": [],
                                  "transversal": []}))
    script = write_script(tmp_path, "represent %s" % triple)
    code, out, err = run_cli(["run", script], capsys)
    assert code == 4
    assert out == ""
    assert "subgroup does not have finite index" in err


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                         st.floats(-3, 3, allow_nan=False), st.text(max_size=3))
JSON_VALUES = st.recursive(
    JSON_SCALARS, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=6)


@st.composite
def triples(draw):
    """A triple as JSON data: an index-m subgroup of Z with a transversal
    of shifted residues, or vectors of small integers of one length (most
    of those fail the group checks), then with one field, or the whole
    triple, replaced by a value of any JSON type."""
    if draw(st.booleans()):
        m = draw(st.integers(2, 4))
        data = {"free_rank": 1, "H_gens": [[m]],
                "f_images": [[draw(st.integers(-m, m))]],
                "transversal": [[r + m * draw(st.integers(-1, 1))]
                                for r in range(m)]}
    else:
        torsion = draw(st.lists(st.integers(1, 4), max_size=2))
        dim = draw(st.integers(0 if torsion else 1, 2))
        vectors = st.lists(st.lists(st.integers(-3, 3), min_size=dim,
                                    max_size=dim), max_size=3)
        data = {"free_rank": dim, "torsion": torsion,
                "H_gens": draw(vectors), "f_images": draw(vectors),
                "transversal": draw(vectors)}
    mutation = draw(st.sampled_from(
        [None, "triple", "free_rank", "torsion", "H_gens", "f_images",
         "transversal"]))
    if mutation == "triple":
        return draw(JSON_VALUES)
    if mutation is not None:
        data[mutation] = draw(JSON_VALUES)
    return data


@settings(max_examples=150, deadline=None)
@given(data=triples())
def test_represent_fuzz_exits_cleanly(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("represent")
    triple = root / "triple.json"
    triple.write_text(json.dumps(data))
    script = write_script(root, "represent %s" % triple)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", script])
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_run_is_deterministic(tmp_path, capsys):
    script = write_script(tmp_path, "\n".join([
        "context m=2 K=8 D=8 L=8",
        "gen b = (e, b^{1 + x}) (1 2)",
        "closure b depth=6",
        "portrait b L=3",
        'reduce "-7" r="2 - x"',
    ]))
    code1, out1, _ = run_cli(["run", script], capsys)
    code2, out2, _ = run_cli(["run", script], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_run_reads_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin",
                        io.StringIO("context m=2\ngen a = (e, a) (1 2)\n"
                                    "order a L=3\n"))
    code, out, _ = run_cli(["run", "-"], capsys)
    assert code == 0
    assert rows_of(out)[0]["order"] == 8


def test_run_pretty_output(tmp_path, capsys):
    script = write_script(tmp_path, "\n".join([
        "context m=2",
        "gen a = (e, a) (1 2)",
        "act a 2.1",
        "portrait a L=1",
    ]))
    code, out, _ = run_cli(["run", script, "--pretty"], capsys)
    assert code == 0
    assert "act a: 2.1 -> 1.2" in out
    assert "portrait a depth=1" in out
    assert "(1 2)" in out


def test_run_pretty_lines_of_every_command(tmp_path, capsys):
    triple = tmp_path / "shifted2.json"
    triple.write_text(json.dumps({
        "free_rank": 1, "H_gens": [[2]], "f_images": [[1]],
        "transversal": [[2], [-1]]}))
    script = write_script(tmp_path, "\n".join([
        "context m=4 K=10 D=10 L=10",
        "gen a = (e, e, e, a^{2}) (1 2 3 4)",
        "order a L=5",
        "zeta a L=8",
        "zeta a^{2 - x} L=8",
        "closure a depth=4",
        "present a depth=6",
        'reduce "6" r="4 - x"',
        "gen c = (e, e, e, c) (1 2 3 4)",
        "conjugate c j=1 L=4",
        "represent %s" % triple,
    ]))
    code, out, err = run_cli(["run", script, "--pretty"], capsys)
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "order a depth=5: 64",
        "zeta a = 1",
        "zeta a^{2 - x}: still trivial after 8 levels",
        "closure of a: 3 states (2 nontrivial), transitive, abelian to "
        "depth 4, recurrence not witnessed",
        "  e",
        "  a",
        "  a^{2}",
        "presentation of a: orders [4]",
        "  relator: 4 + 1048574*x",
        "6 mod (4 - x) = 2 + x   digits [2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0] "
        "(exact below degree 10)",
        "conjugate c with j=1: verified to depth 4 in 4 stages",
        "representation of Z on 2 letters",
        "  g[1] = (g[2], g[-1]) (1 2)",
        "  g[2] = (g[1], g[1]) ()",
        "  g[-1] = (g[1], g[-2]) (1 2)",
        "  g[-2] = (g[-1], g[-1]) ()",
    ]


def test_run_dot_output(tmp_path, capsys):
    script = write_script(tmp_path, "\n".join([
        "context m=2",
        "gen a = (e, a) (1 2)",
        "portrait a L=1",
    ]))
    code, out, _ = run_cli(["run", script, "--dot"], capsys)
    assert code == 0
    assert out.startswith("digraph portrait {")
    assert '"root" [label="(1 2)"];' in out


def test_flags_supply_default_context(tmp_path, capsys):
    script = write_script(tmp_path, 'reduce "3" r="2 - x"\n')
    code, out, _ = run_cli(["run", script, "--m", "2"], capsys)
    assert code == 0
    assert rows_of(out)[0]["normal_form"] == "1 + x"


# -------------------------------------------------------------- exit codes

def test_exit_parse_error(tmp_path, capsys):
    script = write_script(tmp_path, "context m=2\ngen a = (e, a (1 2)\n")
    code, _, err = run_cli(["run", script], capsys)
    assert code == 2
    assert ":2:" in err


def test_exit_undefined_name(tmp_path, capsys):
    script = write_script(tmp_path, "context m=2\nportrait zz\n")
    code, _, err = run_cli(["run", script], capsys)
    assert code == 2
    assert "undefined name 'zz'" in err


def test_exit_undefined_generator_prints_one_message(tmp_path, capsys):
    # b is named in a definition but never defined; the lookup raises at
    # the first statement that expands a
    script = write_script(tmp_path, "context m=2\ngen a = (b, e) (1 2)\n"
                          "portrait a L=2\n", name="fwd.txt")
    code, out, err = run_cli(["run", script], capsys)
    assert code == 2 and out == ""
    assert err == "%s:3: undefined generator 'b'\n" % script


def test_exit_arity_mismatch(tmp_path, capsys):
    script = write_script(tmp_path, "context m=3\ngen a = (e, a) (1 2 3)\n")
    code, _, err = run_cli(["run", script], capsys)
    assert code == 2
    assert "expected 3 entries" in err


def test_exit_context_errors(tmp_path, capsys):
    script = write_script(tmp_path, "context m=2 K=2 L=9\n")
    code, _, err = run_cli(["run", script], capsys)
    assert code == 3
    script = write_script(tmp_path, "context m=2\ncontext m=3\n")
    code, _, err = run_cli(["run", script], capsys)
    assert code == 3
    assert "already declared" in err
    script = write_script(tmp_path, "portrait a\n")
    code, _, err = run_cli(["run", script], capsys)
    assert code == 3
    assert "no context declared" in err


def test_exit_base_below_two(tmp_path, capsys):
    script = write_script(tmp_path, "context m=1\n")
    code, _, err = run_cli(["run", script], capsys)
    assert code == 3
    assert "base must be at least 2" in err


def test_exit_cache_bound_not_a_positive_integer(tmp_path, capsys,
                                                 monkeypatch):
    script = write_script(tmp_path, "context m=2\ngen a = (e, a) (1 2)\n")
    # `verify ring` builds no Context, alone or in a script
    ring = write_script(tmp_path, "verify ring\n", name="ring.sel")
    for value in ("abc", "0"):
        monkeypatch.setenv("SELFSIM_CACHE", value)
        code, _, err = run_cli(["run", script], capsys)
        assert code == 3
        assert "SELFSIM_CACHE must be a positive integer" in err
    for argv in (["verify", "odometer"], ["verify", "ring"], ["run", ring]):
        code, out, err = run_cli(argv, capsys)
        assert code == 3 and out == ""
        assert "SELFSIM_CACHE must be a positive integer" in err


def test_exit_depth_exceeded(tmp_path, capsys):
    script = write_script(tmp_path,
                          "context m=2 L=4\ngen a = (e, a) (1 2)\n"
                          "portrait a L=9\n")
    code, _, err = run_cli(["run", script], capsys)
    assert code == 3
    assert "exceeds truncation" in err


def test_exit_depth_below_one(tmp_path, capsys):
    script = write_script(tmp_path, "context m=2 L=0\ngen a = (e, a) (1 2)\n"
                          "portrait a\n")
    code, _, err = run_cli(["run", script], capsys)
    assert code == 3
    assert ":1:" in err and "L >= 1" in err
    for stmt in ("order a L=0", "present a depth=0", "closure a depth=0"):
        script = write_script(tmp_path, "context m=2\ngen a = (e, a) (1 2)\n"
                              + stmt + "\n")
        code, out, err = run_cli(["run", script], capsys)
        assert code == 3, stmt
        assert not out and ":3:" in err and "at least 1" in err


@pytest.mark.parametrize("flag", ["--K", "--D", "--L"])
def test_exit_zero_context_flags(tmp_path, capsys, flag):
    # a zero flag is a context like the script line context m=2 L=0, not
    # the default 8
    script = write_script(tmp_path, "gen a = (e, a) (1 2)\nportrait a\n")
    code, out, err = run_cli(["run", script, "--m", "2", flag, "0"], capsys)
    assert code == 3
    assert not out and ":1:" in err


def test_exit_conjugate_depth_reports_requested_depth(tmp_path, capsys):
    script = write_script(tmp_path, "context m=2 L=8\ngen a = (e, a) (1 2)\n"
                          "conjugate a j=1 L=20\n")
    code, _, err = run_cli(["run", script], capsys)
    assert code == 3
    assert "depth 20 exceeds truncation 8" in err


def test_exit_conjugate_shift_past_degree_bound(tmp_path, capsys):
    # x^(j-1) past D is a context error, as in adding_machine
    script = write_script(tmp_path, "context m=2 K=8 D=8 L=8\n"
                          "gen a = (e, a) (1 2)\nconjugate a j=10 L=4\n")
    code, out, err = run_cli(["run", script], capsys)
    assert code == 3
    assert not out and err.startswith(script + ":3: ")
    assert "shift 10 outside the degree bound" in err


def test_order_has_no_enumeration_limit(tmp_path, capsys):
    # 3^14 vertices on the last level: past what enumeration could afford
    script = write_script(tmp_path, "context m=3 K=14 D=14 L=14\n"
                          "gen a = (e, e, a) (1 2 3)\norder a L=14\n")
    code, out, _ = run_cli(["run", script], capsys)
    assert code == 0
    assert rows_of(out)[0]["order"] == 3 ** 14


def test_exit_math_errors(tmp_path, capsys):
    script = write_script(tmp_path, "\n".join([
        "context m=3",
        "gen a = (e, a, e) (1 2 3)",
        "zeta e",
    ]))
    code, _, err = run_cli(["run", script], capsys)
    assert code == 4
    assert "nontrivial" in err
    script = write_script(tmp_path, "\n".join([
        "context m=2",
        "gen a = (e, a) (1 2)",
        "gen b = (b, e) (1 2)",
        "let w = a*b",
        "portrait w^{1 + x}",
    ]))
    code, _, err = run_cli(["run", script], capsys)
    assert code == 4
    assert "abelian" in err
    script = write_script(tmp_path, "\n".join([
        "context m=2",
        "gen a = (a, a)",
        "conjugate a j=1",
    ]))
    code, _, err = run_cli(["run", script], capsys)
    assert code == 4
    assert "full-cycle root" in err
    script = write_script(tmp_path, "\n".join([
        "context m=2",
        "gen a = (a, a) (1 2)",
        "conjugate a j=1",
    ]))
    code, _, err = run_cli(["run", script], capsys)
    assert code == 4
    assert "unit" in err


@pytest.mark.parametrize("line,code", [
    ("portrait a^{1 +} L=2", 2),
    ("portrait a^{y} L=2", 2),
    ("portrait a^{} L=2", 2),
    ("gen b = (e, b^{x^}) (1 2)", 2),
    ('reduce "1 + + x" r="2 - x"', 2),
    ('reduce "5" r="2 - - x"', 2),
    ("portrait a^{x^9} L=2", 3),
    ("gen b = (e, b^{x^9}) (1 2)", 3),
    ('reduce "x^9" r="2 - x"', 3),
])
def test_exit_series_literals(tmp_path, capsys, line, code):
    # a malformed literal is a parse error; a term past the degree bound D
    # is a context error, like adding_machine's bound on x^(j-1)
    script = write_script(tmp_path, "context m=2 K=8 D=8 L=8\n"
                          "gen a = (e, a) (1 2)\n" + line + "\n")
    got, out, err = run_cli(["run", script], capsys)
    assert got == code, err
    assert not out and err.startswith(script + ":3: ")
    if code == 3:
        assert "term degree 9 exceeds bound 8" in err


def _series_text(coeffs):
    terms = []
    for d, c in enumerate(coeffs):
        if c:
            body = "%d*x^%d" % (abs(c), d) if d else str(abs(c))
            terms.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else text


@st.composite
def fold_conjugate_scripts(draw):
    """A single self-recursion (a^{p_1}, ..., a^{p_m}) s with s a full
    cycle and p_1 + ... + p_m = x^(j-1) q, q(0) = 1 mod m, then one
    conjugate statement whose j and L are drawn on their own."""
    m = draw(st.integers(2, 4))
    order = [1] + draw(st.permutations(range(2, m + 1)))
    cycle = "(" + " ".join(map(str, order)) + ")"
    j = draw(st.integers(1, 3))
    coeff = st.integers(-2 * m, 2 * m)
    exps = [draw(st.lists(coeff, min_size=3, max_size=3))
            for _ in range(m - 1)]
    total = [0] * (j - 1) + [1 + m * draw(coeff)] + draw(
        st.lists(coeff, min_size=2, max_size=2))
    exps.append([t - sum(e[d] for e in exps if d < len(e))
                 for d, t in enumerate(total)])
    entries = ", ".join("a^{%s}" % _series_text(e) if any(e) else "e"
                        for e in exps)
    return "\n".join([
        "context m=%d K=8 D=8 L=8" % m,
        "gen a = (%s) %s" % (entries, cycle),
        "conjugate a j=%d L=%d" % (draw(st.integers(1, 3)),
                                   draw(st.integers(1, 9))),
    ]) + "\n"


@settings(max_examples=60, deadline=None)
@given(fold_conjugate_scripts())
def test_conjugate_scripts_exit_cleanly(text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", "-"])
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert [row["verified"] for row in rows_of(out.getvalue())] == [True]


# (name index, power, shift) factors; a series power needs a plain
# generator, or a system marked abelian; shifts reach past D = 4, where a
# factor is the identity
SESSION_WORDS = st.lists(st.tuples(
    st.integers(0, 7), st.sampled_from(["", "", "^2", "^-1", "^3", "^{1 + x}"]),
    st.integers(0, 9)), min_size=1, max_size=3)
COEFFS = st.lists(st.integers(-6, 6), min_size=1, max_size=3)


@st.composite
def session_scripts(draw, m=2):
    """A session on m letters: one or two generators whose entries are
    words in them, a let made before a full-depth closure that may mark
    the system abelian, then portrait, act, order, zeta, closure and let
    statements on those names; at m = 3 also present and reduce, with
    L <= 2.  Depths, vertices and shifts stay inside their bounds, so most
    scripts exit 0."""
    L = draw(st.integers(1, 3 if m == 2 else 2))
    gens = ["a", "b"][:draw(st.integers(1, 2))]
    roots = ["", " (1 2)"] + ([" (1 2 3)", " (1 3 2)"] if m == 3 else [])
    kinds = ["portrait", "act", "order", "zeta", "closure", "let"]
    if m == 3:
        kinds += ["present", "reduce"]

    def word(names):
        return "*".join(
            names[i % len(names)] + power + ("@%d" % d if d else "")
            for i, power, d in draw(SESSION_WORDS))

    def entry():
        return "e" if draw(st.booleans()) else word(gens)

    depth = st.integers(1, L)
    lines = ["context m=%d K=4 D=4 L=%d" % (m, L)]
    for g in gens:
        lines.append("gen %s = (%s)%s" % (
            g, ", ".join(entry() for _ in range(m)),
            draw(st.sampled_from(roots))))
    lines += ["let u = %s" % word(gens),
              "closure %s depth=%d" % (" ".join(gens), L)]
    names = gens + ["u"]
    for i in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(kinds))
        w = word(names)
        if kind == "act":
            lines.append("act %s %s" % (w, ".".join(map(str, draw(
                st.lists(st.integers(1, m), min_size=1, max_size=L))))))
        elif kind == "closure":
            lines.append("closure %s %s depth=%d"
                         % (w, word(names), draw(depth)))
        elif kind == "present":
            # a bare generator name, as a presentation usually needs
            lines.append("present %s depth=%d"
                         % (draw(st.sampled_from([w] + gens)), draw(depth)))
        elif kind == "let":
            lines.append("let v%d = %s" % (i, w))
            names.append("v%d" % i)
        elif kind == "reduce":
            # a relator's constant term must be m; other draws exit 4
            r = draw(COEFFS)
            r[0] = m if draw(st.booleans()) else r[0]
            lines.append('reduce "%s" r="%s"' % (
                _series_text(draw(COEFFS)) or "0", _series_text(r) or "0"))
        else:
            lines.append("%s %s L=%d" % (kind, w, draw(depth)))
    return "\n".join(lines) + "\n"


def exits_cleanly(text):
    """Runs text through the command line: the script round-trips through
    format_script, and it exits 0, 2, 3 or 4 with no traceback."""
    statements = parse_script(text)
    assert parse_script(format_script(statements)) == statements
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", "-"])
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()


@settings(max_examples=150, deadline=None)
@given(session_scripts())
def test_session_scripts_exit_cleanly(text):
    exits_cleanly(text)


@settings(max_examples=100, deadline=None)
@given(session_scripts(m=3))
def test_ternary_session_scripts_exit_cleanly(text):
    exits_cleanly(text)


def test_exit_missing_script(capsys):
    code, _, err = run_cli(["run", "/no/such/file.sel"], capsys)
    assert code == 2
    assert "selfsim:" in err


def test_zeta_unbounded_is_reported_not_fatal(tmp_path, capsys):
    script = write_script(tmp_path, "\n".join([
        "context m=4 K=10 D=10 L=10",
        "gen a = (e, e, e, a^{2}) (1 2 3 4)",
        "zeta a^{2 - x} L=8",
    ]))
    code, out, err = run_cli(["run", script], capsys)
    assert code == 0 and err == ""
    row = rows_of(out)[0]
    assert row["zeta"] is None
    assert row["stabilized_at_least"] == 8


def test_closure_of_one_generator_leaves_other_portraits_alone(tmp_path,
                                                                capsys):
    # the closure certifies words in a only; c*b must print one portrait
    script = write_script(tmp_path, "\n".join([
        "context m=2 K=4 D=4 L=4",
        "gen a = (e, a) (1 2)",
        "gen b = (a, c)",
        "gen c = (e, e) (1 2)",
        "portrait c*b L=3",
        "closure a depth=4",
        "portrait c*b L=3",
    ]))
    code, out, err = run_cli(["run", script], capsys)
    assert code == 0 and err == ""
    first, closure, second = rows_of(out)
    assert closure["report"]["abelian_to_depth"] == 4
    assert first == second


class ClosedPipe(io.StringIO):
    """An output stream whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_141_without_a_traceback(tmp_path, capsys,
                                                     monkeypatch):
    script = write_script(tmp_path, "context m=2\nportrait e L=2\n")
    for argv in (["run", script], ["verify", "ring"]):
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(argv) == 141
        # the rest of the output, and the flush at exit, go to devnull
        assert not isinstance(sys.stdout, ClosedPipe)
        print("dropped")
        sys.stdout.flush()
    assert capsys.readouterr().err == ""


def test_closed_pipe_exits_141_in_a_real_process():
    src = str(pathlib.Path(selfsim.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "selfsim", "run", "-"], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    # the script arrives on stdin only after stdout is closed, so the
    # first write already finds no reader
    proc.stdout.close()
    _, err = proc.communicate(b"context m=2\n" + b"portrait e L=2\n" * 9)
    assert proc.returncode == 141
    assert b"Traceback" not in err and b"Exception" not in err


# ------------------------------------------------------------------ verify

def test_verify_subcommand_passes(capsys):
    code, out, _ = run_cli(["verify", "series-conjugation"], capsys)
    assert code == 0
    row = rows_of(out)[0]
    assert row["suite"] == "series-conjugation"
    assert row["pass"] is True
    assert all(c["pass"] for c in row["criteria"])


def test_verify_pretty_lines(capsys):
    code, out, _ = run_cli(["verify", "ring", "--pretty"], capsys)
    assert code == 0
    assert "[PASS]" in out
    assert "suite ring: PASS" in out


def test_verify_takes_no_context_or_dot_flags(capsys):
    for flag in (["--m", "2"], ["--K", "9"], ["--D", "9"], ["--L", "9"],
                 ["--dot"]):
        with pytest.raises(SystemExit) as info:
            main(["verify", "ring"] + flag)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(["verify", "nosuch"], capsys)
    assert code == 2
    assert "unknown suite" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    def fake(name):
        return {"suite": name, "pass": False, "criteria": [
            {"name": "synthetic", "pass": False,
             "checks": [{"label": "forced failure", "pass": False}]}]}
    monkeypatch.setattr(suites, "run_suite", fake)
    code, out, _ = run_cli(["verify", "series-conjugation"], capsys)
    assert code == 1
    assert rows_of(out)[0]["pass"] is False


def test_verify_inside_script_failure(tmp_path, capsys, monkeypatch):
    def fake(name):
        return {"suite": name, "pass": False, "criteria": []}
    monkeypatch.setattr(suites, "run_suite", fake)
    script = write_script(tmp_path, "verify odometer\n")
    code, out, _ = run_cli(["run", script], capsys)
    assert code == 1
    assert rows_of(out)[0]["pass"] is False


def test_verify_hyphenated_suite_inside_script(tmp_path, capsys, monkeypatch):
    ran = []

    def fake(name):
        ran.append(name)
        return {"suite": name, "pass": True, "criteria": []}
    monkeypatch.setattr(suites, "run_suite", fake)
    text = "verify series-conjugation  # a hyphenated suite name\n"
    (stmt,) = parse_script(text)
    assert stmt["suite"] == "series-conjugation"
    assert format_statement(stmt) == "verify series-conjugation"
    code, out, _ = run_cli(["run", write_script(tmp_path, text)], capsys)
    assert code == 0
    assert ran == ["series-conjugation"]
    assert rows_of(out)[0]["suite"] == "series-conjugation"
    for bad, col in (("verify series-", 14), ("verify -x", 8),
                     ("verify ring x", 13)):
        with pytest.raises(CliParseError) as info:
            parse_statement(1, bad)
        assert info.value.col == col
