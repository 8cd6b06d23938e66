"""Script language and command-line behavior."""

import io
import json

import pytest

from selfsim import suites
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
    assert script[0] == {"kind": "context", "line": 3, "pairs": {"m": 2}}


def test_parse_command_words_and_options():
    stmt = parse_statement(1, "closure a b*c depth=6")
    assert stmt["cmd"] == "closure"
    assert [len(w) for w in stmt["words"]] == [1, 2]
    assert stmt["kv"] == {"depth": 6}


def test_parse_act_vertex():
    stmt = parse_statement(1, "act a^2 1.2.1")
    assert stmt["vertex"] == [1, 2, 1]


def test_parse_reduce_quotes():
    stmt = parse_statement(1, 'reduce "6" r="2 - x"')
    assert stmt["input"] == "6"
    assert stmt["kv"]["r"] == "2 - x"


def test_parse_error_positions():
    with pytest.raises(CliParseError) as info:
        parse_statement(4, "gen a = (e, a) (1 2")
    assert info.value.line == 4
    assert info.value.col == 20
    with pytest.raises(CliParseError) as info:
        parse_statement(2, "portrait a L=x")
    assert info.value.col == 14
    with pytest.raises(CliParseError) as info:
        parse_statement(1, "order a %")
    assert info.value.col == 9
    with pytest.raises(CliParseError):
        parse_statement(1, "frobnicate a")


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


def test_exit_conjugate_depth_reports_requested_depth(tmp_path, capsys):
    script = write_script(tmp_path, "context m=2 L=8\ngen a = (e, a) (1 2)\n"
                          "conjugate a j=1 L=20\n")
    code, _, err = run_cli(["run", script], capsys)
    assert code == 3
    assert "depth 20 exceeds truncation 8" in err


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
