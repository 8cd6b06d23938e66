"""Command-line front end: scripted sessions and verification suites.

A session script is line-oriented; ``#`` starts a comment.  Statements:

    context m=2 K=8 D=8 L=8       declare the arity and truncation depths
    gen a = (e, a^{2}) (1 2)      define a generator by wreath recursion
    let w = a^3*a@1               name a word
    portrait w L=4                decimated portrait
    act w 1.2.1                   image of a vertex and the residual state
    order w L=6                   order of the action on the first levels
    zeta w L=8                    stabilized-levels gauge of the m-th power
    closure a b depth=6           saturate first-level states
    present a b depth=8           module presentation of an abelian closure
    reduce "6" r="2 - x"          canonical digits modulo a relator
    conjugate a j=1 L=8           explicit conjugator onto the adding machine
    represent triple.json         tree representation of a group triple
    verify series-conjugation               run a named verification suite

Words multiply left to right with ``*``; a factor is a name with an
optional integer power (``a^3``), series power (``a^{2 - x}``), and
diagonal shift (``a@2``).  ``e`` is the identity.

Exit codes: 0 success, 1 a verification check failed, 2 parse or name
errors, 3 context errors (arity or depth bounds), 4 arithmetic errors,
141 standard output closed by its reader.
The SELFSIM_CACHE environment variable, a positive integer, bounds
per-system caches.
"""

import argparse
import collections
import functools
import itertools
import json
import os
import re
import sys

from . import suites
from .adic import (ContextMismatch, SeriesSyntaxError, format_series,
                   parse_series, reduce_mod_r)
from .closure import (ZetaUnbounded, _built, _walk, extract_relations,
                      order_to_depth, state_closure, zeta)
from .endo import (
    MalformedTriple, adding_machine_conjugator, phi_rep, triple_from_json,
)
from .tree import (Context, ContextError, FoldSystem, Permutation,
                   ShapeMismatch, System, _env_cache_cap)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_CONTEXT = 3
EXIT_MATH = 4
EXIT_PIPE = 141   # 128 + SIGPIPE: stdout was closed by its reader

_STATE_CAP = 200  # represent: most machine states listed before truncating


# ---------------------------------------------------------------- errors

class CliParseError(Exception):
    """Syntax error with a 1-based line and column."""

    def __init__(self, line, col, message):
        super().__init__(message)
        self.line = line
        self.col = col
        self.message = message


class CliRunError(Exception):
    """Statement failed; carries the exit code class."""

    def __init__(self, line, message, code):
        super().__init__(message)
        self.line = line
        self.message = message
        self.code = code


# ------------------------------------------------------------- tokenizer

_TOKEN_RE = re.compile(r"""
      (?P<string>"[^"]*")
    | (?P<series>\{[^{}]*\})
    | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<int>-?\d+)
    | (?P<sym>[()=,*^@.])
""", re.VERBOSE)


Token = collections.namedtuple("Token", "kind value col")


def _strip_comment(text):
    quoted = False
    for i, ch in enumerate(text):
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            return text[:i]
    return text


def _tokenize(text, line):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        hit = _TOKEN_RE.match(text, pos)
        if hit is None:
            raise CliParseError(line, pos + 1,
                                "unexpected character %r" % text[pos])
        kind = hit.lastgroup
        value = hit.group()
        if kind == "string":
            value = value[1:-1]
        elif kind == "series":
            value = value[1:-1].strip()
        tokens.append(Token(kind, value, pos + 1))
        pos = hit.end()
    return tokens


class _LineParser(object):
    """One statement line after its head.  Fields that read the raw text
    (`represent`'s path, `verify`'s suite) start at `start`; the others
    read tokens, which are made on first use."""

    def __init__(self, line, text, start):
        self.line = line
        self.text = text
        self.start = start
        self.i = 1   # tokens[0] is the head

    @functools.cached_property
    def tokens(self):
        return _tokenize(self.text, self.line)

    def peek(self, ahead=0):
        j = self.i + ahead
        return self.tokens[j] if j < len(self.tokens) else None

    def done(self):
        return self.i >= len(self.tokens)

    def error(self, message, token=None):
        col = token.col if token is not None else (
            self.tokens[self.i].col if not self.done() else len(self.text) + 1)
        raise CliParseError(self.line, col, message)

    def next(self, what="more input"):
        if self.done():
            self.error("expected %s" % what)
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, value=None, what=None):
        tok = self.next(what or (value or kind))
        if tok.kind != kind or (value is not None and tok.value != value):
            self.error("expected %s, found %r" % (what or value or kind,
                                                  tok.value), tok)
        return tok

    def at_sym(self, sym, ahead=0):
        tok = self.peek(ahead)
        return tok is not None and tok.kind == "sym" and tok.value == sym


# ---------------------------------------------------------------- fields

def _parse_factor(p):
    tok = p.expect("name", what="a generator name")
    factor = {"name": tok.value, "power": None, "series": None, "shift": None}
    if p.at_sym("^"):
        p.next()
        tok = p.next("an integer or {series} after '^'")
        if tok.kind == "int":
            factor["power"] = int(tok.value)
        elif tok.kind == "series":
            factor["series"] = tok.value
        else:
            p.error("expected an integer or {series} after '^'", tok)
    if p.at_sym("@"):
        p.next()
        tok = p.expect("int", what="a shift after '@'")
        shift = int(tok.value)
        if shift < 0:
            p.error("shift must not be negative", tok)
        factor["shift"] = shift
    return factor


def _parse_word(p):
    factors = [_parse_factor(p)]
    while p.at_sym("*"):
        p.next()
        factors.append(_parse_factor(p))
    return factors


def _parse_words(p, at_most=None):
    """Words up to the first option (a name followed by '=')."""
    words = []
    while not p.done() and not (p.peek().kind == "name" and p.at_sym("=", 1)):
        words.append(_parse_word(p))
        if at_most is not None and len(words) > at_most:
            p.error("too many words (at most %d)" % at_most)
    if not words:
        p.error("expected a word")
    return words


def _parse_vertex(p):
    letters = []
    while True:
        tok = p.expect("int", what="a vertex letter")
        if int(tok.value) < 1:
            p.error("vertex letters count from 1", tok)
        letters.append(int(tok.value))
        if not p.at_sym("."):
            return letters
        p.next()


def _parse_kv(p, allowed):
    pairs = {}
    while not p.done():
        key_tok = p.expect("name", what="an option name")
        if key_tok.value not in allowed:
            p.error("unknown option %r (allowed: %s)"
                    % (key_tok.value, ", ".join(sorted(allowed))), key_tok)
        if key_tok.value in pairs:
            p.error("option %r given twice" % key_tok.value, key_tok)
        p.expect("sym", "=")
        typ = allowed[key_tok.value]
        val_tok = (p.expect("int", what="an integer value") if typ is int
                   else p.expect("string", what="a quoted value"))
        pairs[key_tok.value] = typ(val_tok.value)
    return pairs


def _parse_entries(p, _):
    p.expect("sym", "(")
    entries = []
    while True:
        tok = p.peek()
        if tok is None:
            p.error("unterminated entry list")
        if tok.kind == "name" and tok.value == "e" and (
                p.at_sym(",", 1) or p.at_sym(")", 1)):
            p.next()
            entries.append(None)
        else:
            entries.append(_parse_word(p))
        tok = p.next("',' or ')'")
        if tok.kind != "sym" or tok.value not in (",", ")"):
            p.error("expected ',' or ')'", tok)
        if tok.value == ")":
            return entries


def _parse_cycles(p, _):
    cycles = []
    while p.at_sym("("):
        p.next()
        cycle = []
        while not p.at_sym(")"):
            cycle.append(int(p.expect("int", what="a letter or ')'").value))
        p.next()
        if not cycle:
            p.error("empty cycle")
        cycles.append(cycle)
    return cycles


def _parse_end(p, what):
    if not p.done():
        p.error("unexpected input after " + what)


def _parse_path(p, _):
    path = p.text[p.start:].strip()
    if not path:
        raise CliParseError(p.line, len(p.text) + 1, "expected a file path")
    return path


# suite names are names that may also contain inner hyphens
_SUITE_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*(?:-[A-Za-z_0-9]+)*)")


def _parse_suite(p, _):
    hit = _SUITE_RE.match(p.text, p.start)
    rest = p.text[hit.end() if hit else p.start:]
    if hit is None or rest.strip():
        col = len(p.text) - len(rest.lstrip()) + 1
        raise CliParseError(p.line, col, "unexpected input after the suite "
                            "name" if hit else "expected a suite name")
    return hit.group(1)


def format_factor(factor):
    out = factor["name"]
    if factor["power"] is not None:
        out += "^%d" % factor["power"]
    if factor["series"] is not None:
        out += "^{%s}" % factor["series"]
    if factor["shift"] is not None:
        out += "@%d" % factor["shift"]
    return out


def format_word(word):
    return "*".join(format_factor(f) for f in word)


def _format_vertex(letters):
    return ".".join(str(a) for a in letters)


# field kind -> (parse(p, arg), render(value)).  arg is the "expected ..."
# text of a name or a quoted string, or what an end check follows; a field
# that renders "" writes nothing.
_FIELDS = {
    "word": (lambda p, _: _parse_word(p), format_word),
    "words": (lambda p, _: _parse_words(p),
              lambda words: " ".join(format_word(w) for w in words)),
    "one word": (lambda p, _: _parse_words(p, at_most=1)[0], format_word),
    "vertex": (lambda p, _: _parse_vertex(p), _format_vertex),
    "name": (lambda p, what: p.expect("name", what=what).value, str),
    "quoted": (lambda p, what: p.expect("string", what=what).value,
               '"{}"'.format),
    "=": (lambda p, _: p.expect("sym", "="), lambda _: "="),
    "end": (_parse_end, lambda _: ""),
    "entries": (_parse_entries, lambda entries: "(%s)" % ", ".join(
        "e" if w is None else format_word(w) for w in entries)),
    "cycles": (_parse_cycles, lambda cycles: "".join(
        "(%s)" % " ".join(str(a) for a in c) for c in cycles)),
    "path": (_parse_path, str),
    "suite": (_parse_suite, str),
}


# ---------------------------------------------------------- pretty rows

def _indent_portrait_lines(portrait):
    lines = []

    def walk(node, path):
        lines.append("  %-12s %s" % (path or "*", repr(node.root)))
        for letter, child in enumerate(node.children, start=1):
            walk(child, path + ("." if path else "") + str(letter))

    walk(portrait, "")
    return lines


def _pretty_closure(row, _):
    rep = row["report"]
    lines = ["closure of %s: %d states (%d nontrivial), %s, "
             "abelian to depth %d, recurrence %s"
             % (" ".join(row["words"]), rep["state_count"],
                rep["nontrivial_states"],
                "transitive" if rep["transitive"] else
                "orbits " + repr(rep["orbits"]),
                rep["abelian_to_depth"],
                "witnessed" if rep["recurrent_witnessed"] else
                "not witnessed")]
    return lines + ["  %s" % s for s in rep["states"]]


def _pretty_represent(row, _):
    lines = ["representation of %s on %d letters%s"
             % (row["group"], row["index"],
                " (truncated)" if row["truncated"] else "")]
    return lines + ["  %s = (%s) %s" % (
        state["name"], ", ".join(state["children"]), state["root"])
        for state in row["states"]]


def _pretty_verify(row, _):
    lines = []
    for criterion in row["criteria"]:
        for check in criterion["checks"]:
            lines.append("  [%s] %s" % (
                "PASS" if check["pass"] else "FAIL", check["label"]))
        lines.append("criterion %s: %s" % (
            criterion["name"], "PASS" if criterion["pass"] else "FAIL"))
    lines.append("suite %s: %s" % (
        row["suite"], "PASS" if row["pass"] else "FAIL"))
    return lines


# ------------------------------------------------------- statement table

# head -> its fields in order, each (key in the statement, field kind,
# arg); its options (name -> int or str, in canonical order); the one
# required option and its placeholder; and its --pretty formatter
# (row, portrait) -> lines, None for statements that print no row.
# Session runs a statement with its method _cmd_<head>.
_Statement = collections.namedtuple("_Statement",
                                    "fields options required pretty")
_EQUALS = (None, "=", None)
_ONE_WORD = (("word", "one word", None),)
_WORDS = (("words", "words", None),)

_STATEMENTS = {
    "context": _Statement(
        (), {"m": int, "K": int, "D": int, "L": int}, ("m", "<arity>"), None),
    "gen": _Statement(
        (("name", "name", "a generator name"), _EQUALS,
         ("entries", "entries", None), ("cycles", "cycles", None),
         (None, "end", "the generator definition")), {}, None, None),
    "let": _Statement(
        (("name", "name", "a name"), _EQUALS, ("word", "word", None),
         (None, "end", "the word")), {}, None, None),
    "portrait": _Statement(
        _ONE_WORD, {"L": int}, None,
        lambda row, portrait: ["portrait %(word)s depth=%(depth)d" % row]
        + _indent_portrait_lines(portrait)),
    "act": _Statement(
        (("word", "word", None), ("vertex", "vertex", None),
         (None, "end", "the vertex")), {}, None,
        lambda row, _: [
            "act %(word)s: %(vertex)s -> %(image)s   state %(state)s" % row]),
    "order": _Statement(
        _ONE_WORD, {"L": int}, None,
        lambda row, _: ["order %(word)s depth=%(depth)d: %(order)d" % row]),
    "zeta": _Statement(
        _ONE_WORD, {"L": int}, None,
        lambda row, _: ["zeta %(word)s: still trivial after "
                        "%(stabilized_at_least)d levels" % row
                        if row["zeta"] is None else
                        "zeta %(word)s = %(zeta)d" % row]),
    "closure": _Statement(_WORDS, {"depth": int}, None, _pretty_closure),
    "present": _Statement(
        _WORDS, {"depth": int}, None,
        lambda row, _: ["presentation of %s: orders %s" % (
            " ".join(row["words"]), row["orders"]),
            "  relator: %(relator)s" % row]),
    "reduce": _Statement(
        (("input", "quoted", "a quoted series"),), {"r": str},
        ("r", '"<relator series>"'),
        lambda row, _: ["%(input)s mod (%(relator)s) = %(normal_form)s   "
                        "digits %(digits)s (exact below degree "
                        "%(exact_zone)d)" % row]),
    "conjugate": _Statement(
        (("name", "name", "a generator name"),), {"j": int, "L": int},
        ("j", "<shift>"),
        lambda row, _: ["conjugate %(generator)s with j=%(j)d: %(status)s "
                        "to depth %(depth)d in %(stages)d stages" % dict(
                            row, status="verified" if row["verified"]
                            else "NOT VERIFIED")]),
    "represent": _Statement(
        (("path", "path", None),), {}, None, _pretty_represent),
    "verify": _Statement(
        (("suite", "suite", None),), {}, None, _pretty_verify),
}


# ---------------------------------------------------------------- parser

def parse_statement(line, text):
    """Parse one script line; returns a statement dict or None for blanks."""
    text = _strip_comment(text).rstrip()
    if not text.strip():
        return None
    head_match = re.match(r"\s*([A-Za-z_][A-Za-z_0-9]*)", text)
    if head_match is None:
        raise CliParseError(line, len(text) - len(text.lstrip()) + 1,
                            "expected a statement")
    head = head_match.group(1)
    row = _STATEMENTS.get(head)
    if row is None:
        _tokenize(text, line)   # a bad character is reported first
        raise CliParseError(line, head_match.start(1) + 1,
                            "unknown statement %r" % head)
    p = _LineParser(line, text, head_match.end())
    stmt = {"kind": head, "line": line}
    for key, kind, arg in row.fields:
        value = _FIELDS[kind][0](p, arg)
        if key is not None:
            stmt[key] = value
    if row.options:
        kv = stmt["kv"] = _parse_kv(p, row.options)
        if row.required and row.required[0] not in kv:
            p.error("%s needs %s=%s" % ((head,) + row.required))
    return stmt


def parse_script(text):
    """Parse a whole script; returns the statement list."""
    statements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stmt = parse_statement(lineno, raw)
        if stmt is not None:
            statements.append(stmt)
    return statements


def format_statement(stmt):
    """Render a parsed statement back to canonical script text."""
    row = _STATEMENTS[stmt["kind"]]
    parts = [stmt["kind"]]
    parts.extend(_FIELDS[kind][1](stmt.get(key))
                 for key, kind, _ in row.fields)
    for key, typ in row.options.items():
        if key in stmt["kv"]:
            parts.append(('%s="%s"' if typ is str else "%s=%d")
                         % (key, stmt["kv"][key]))
    return " ".join(part for part in parts if part)


def format_script(statements):
    return "\n".join(format_statement(s) for s in statements) + "\n"


# -------------------------------------------------------------- session

class Session(object):
    """Executes parsed statements and accumulates output rows."""

    def __init__(self, defaults, emit):
        self.defaults = defaults  # dict with m (maybe None), K, D, L
        self.emit = emit          # callback(row dict)
        self.ctx = None
        self.system = None
        self.lets = {}
        self.gens = set()
        self.check_failed = False

    # -- plumbing

    def ensure_ctx(self, line):
        if self.ctx is not None:
            return
        if self.defaults.get("m") is None:
            raise CliRunError(line, "no context declared "
                              "(add a context statement or pass --m)",
                              EXIT_CONTEXT)
        self._make_ctx(line, {"m": self.defaults["m"]})

    def _make_ctx(self, line, pairs):
        kwargs = {k: pairs.get(k, self.defaults[k]) for k in ("K", "D", "L")}
        self.ctx = Context(pairs["m"], **kwargs)
        self.system = System(self.ctx)

    def depth_arg(self, kv):
        return kv.get("L", self.ctx.L)

    def eval_word(self, word, line, allow_forward=False):
        self.ensure_ctx(line)
        expr = self.system.identity()
        for factor in word:
            name = factor["name"]
            if name == "e":
                base = self.system.identity()
            elif name in self.lets:
                base = self.lets[name]
            elif allow_forward or name in self.gens:
                base = self.system.gen(name)
            else:
                raise CliRunError(line, "undefined name %r" % name,
                                  EXIT_PARSE)
            if factor["power"] is not None:
                base = base ** factor["power"]
            if factor["series"] is not None:
                series = parse_series(factor["series"], self.ctx.mod,
                                      self.ctx.D)
                base = base.pow_series(series)
            if factor["shift"]:
                base = base.diagonal(factor["shift"])
            expr = expr * base
        return expr

    # -- statements, one _cmd_<head> method per head

    def execute(self, stmt):
        getattr(self, "_cmd_" + stmt["kind"])(stmt)

    def _cmd_context(self, stmt):
        if self.ctx is not None:
            raise CliRunError(stmt["line"], "context already declared",
                              EXIT_CONTEXT)
        self._make_ctx(stmt["line"], stmt["kv"])

    def _check_fresh(self, name, line):
        if name == "e" or name in self.lets or name in self.gens:
            raise CliRunError(line, "name %r already in use" % name,
                              EXIT_PARSE)

    def _cmd_gen(self, stmt):
        line = stmt["line"]
        self.ensure_ctx(line)
        name = stmt["name"]
        self._check_fresh(name, line)
        entries = ["e" if w is None else self.eval_word(w, line,
                                                        allow_forward=True)
                   for w in stmt["entries"]]
        try:
            root = (Permutation.from_cycles(stmt["cycles"], self.ctx.m)
                    if stmt["cycles"] else Permutation.identity(self.ctx.m))
            self.system.define(name, root, entries)
        except (ShapeMismatch, ValueError) as exc:
            raise CliRunError(line, str(exc), EXIT_PARSE)
        self.gens.add(name)

    def _cmd_let(self, stmt):
        self._check_fresh(stmt["name"], stmt["line"])
        self.lets[stmt["name"]] = self.eval_word(stmt["word"], stmt["line"])

    def _word_at_depth(self, stmt):
        """A one-word statement's value, its depth and its row so far."""
        expr = self.eval_word(stmt["word"], stmt["line"])
        depth = self.depth_arg(stmt["kv"])
        return expr, depth, {"command": stmt["kind"], "depth": depth,
                             "word": format_word(stmt["word"])}

    def _cmd_portrait(self, stmt):
        expr, depth, row = self._word_at_depth(stmt)
        portrait = expr.portrait(depth)
        self.emit(dict(row, portrait=portrait.to_json()), portrait=portrait)

    def _cmd_act(self, stmt):
        expr = self.eval_word(stmt["word"], stmt["line"])
        image, state = expr.act(stmt["vertex"])
        self.emit({"command": "act", "word": format_word(stmt["word"]),
                   "vertex": _format_vertex(stmt["vertex"]),
                   "image": _format_vertex(image),
                   "state": repr(state)})

    def _cmd_order(self, stmt):
        expr, depth, row = self._word_at_depth(stmt)
        self.emit(dict(row, order=order_to_depth(expr, depth)))

    def _cmd_zeta(self, stmt):
        expr, depth, row = self._word_at_depth(stmt)
        try:
            row["zeta"] = zeta(expr, depth)
        except ZetaUnbounded as exc:
            row["zeta"] = None
            row["stabilized_at_least"] = exc.bound
        self.emit(row)

    def _cmd_closure(self, stmt):
        exprs = [self.eval_word(w, stmt["line"]) for w in stmt["words"]]
        report = state_closure(exprs, depth=stmt["kv"].get("depth"))
        self.emit({"command": "closure",
                   "words": [format_word(w) for w in stmt["words"]],
                   "report": report.to_json()})

    def _cmd_present(self, stmt):
        exprs = [self.eval_word(w, stmt["line"]) for w in stmt["words"]]
        pres = extract_relations(exprs, depth=stmt["kv"].get("depth"))
        self.emit({"command": "present",
                   "words": [format_word(w) for w in stmt["words"]],
                   "presentation": pres.to_json(),
                   "relator": format_series(pres.relator),
                   "orders": list(pres.orders)})

    def _cmd_reduce(self, stmt):
        self.ensure_ctx(stmt["line"])
        relator = parse_series(stmt["kv"]["r"], self.ctx.mod, self.ctx.D)
        text = stmt["input"].strip()
        try:
            value = int(text)
        except ValueError:
            value = parse_series(text, self.ctx.mod, self.ctx.D).lifts()
        element = reduce_mod_r(value, relator)
        self.emit({"command": "reduce", "input": stmt["input"],
                   "relator": stmt["kv"]["r"],
                   "digits": list(element.digits),
                   "normal_form": format_series(element.as_series()),
                   "exact_zone": element.exact_zone()})

    def _cmd_conjugate(self, stmt):
        line = stmt["line"]
        self.ensure_ctx(line)
        name = stmt["name"]
        if name not in self.gens:
            raise CliRunError(line, "undefined name %r" % name, EXIT_PARSE)
        try:
            fold = FoldSystem.from_definition(self.system, name)
        except ShapeMismatch:
            raise CliRunError(
                line, "conjugate needs a single self-recursion generator "
                "with a full-cycle root", EXIT_MATH)
        depth = self.depth_arg(stmt["kv"])
        result = adding_machine_conjugator(fold.generator(), stmt["kv"]["j"],
                                           depth=depth)
        self.emit({"command": "conjugate", "generator": name,
                   "j": result.j, "depth": result.depth,
                   "stages": len(result.factors),
                   "relabel": list(result.relabel.images),
                   "verified": result.verified()},
                  portrait=result.conjugator)

    def _cmd_represent(self, stmt):
        line = stmt["line"]
        try:
            with open(stmt["path"], "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise CliRunError(line, str(exc), EXIT_PARSE)
        except json.JSONDecodeError as exc:
            raise CliRunError(line, "bad JSON: %s" % exc, EXIT_PARSE)
        try:
            endo, transversal = triple_from_json(data)
        except KeyError as exc:
            raise CliRunError(line, "missing key %s" % exc, EXIT_PARSE)
        except MalformedTriple as exc:
            raise CliRunError(line, str(exc), EXIT_PARSE)
        ctx = Context(endo.index,
                      **{k: self.defaults[k] for k in ("K", "D", "L")})
        machine = phi_rep(endo, transversal, ctx=ctx)
        rows, truncated = self._machine_states(machine)
        self.emit({"command": "represent", "file": stmt["path"],
                   "group": repr(endo.group), "index": endo.index,
                   "states": rows, "truncated": truncated})

    @staticmethod
    def _machine_states(machine):
        """Rows for the first _STATE_CAP machine states, breadth-first from
        the basis, and whether there are more."""
        system = machine.system

        def names(exprs):
            return [e.word[0][0] for e in exprs if e.word]

        seeds = names(map(machine.of, machine.endo.group.basis()))
        found = list(itertools.islice(_walk(
            seeds, lambda name: _built(names(system.definition(name).entries))),
            _STATE_CAP + 1))
        rows = []
        for name in found[:_STATE_CAP]:
            definition = system.definition(name)
            rows.append({"name": name, "root": repr(definition.root),
                         "children": [e.word[0][0] if e.word else "e"
                                      for e in definition.entries]})
        return rows, len(found) > _STATE_CAP

    def _cmd_verify(self, stmt):
        try:
            report = suites.run_suite(stmt["suite"])
        except KeyError as exc:
            raise CliRunError(stmt["line"], str(exc.args[0]), EXIT_PARSE)
        if not report["pass"]:
            self.check_failed = True
        self.emit({"command": "verify", **report})


# ------------------------------------------------------------- printing

def _pretty_lines(row, portrait=None):
    return _STATEMENTS[row["command"]].pretty(row, portrait)


class _Emitter(object):
    def __init__(self, pretty, dot, out):
        self.pretty = pretty
        self.dot = dot
        self.out = out

    def __call__(self, row, portrait=None):
        if self.dot and portrait is not None:
            print(portrait.to_dot(), file=self.out)
            return
        if self.pretty:
            for line in _pretty_lines(row, portrait):
                print(line, file=self.out)
            return
        print(json.dumps(row, sort_keys=True), file=self.out)


# ----------------------------------------------------------------- main

def _add_output_flags(parser):
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--pretty", action="store_true",
                      help="human-readable output")
    mode.add_argument("--json", action="store_true",
                      help="one JSON object per line (the default)")


@functools.cache
def build_parser():
    """The command-line parser, built on first use and kept per process.

    It is static configuration: parse_args returns a fresh Namespace, and
    argparse reads the output streams and terminal width only when it
    prints usage or help.
    """
    parser = argparse.ArgumentParser(
        prog="selfsim",
        description="Exact sessions with self-similar tree automorphisms.",
        epilog="Set SELFSIM_CACHE to bound the per-system caches.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a session script",
                         description=__doc__,
                         formatter_class=argparse.RawDescriptionHelpFormatter)
    run.add_argument("script", help="script path, or - for standard input")
    run.add_argument("--m", type=int, default=None,
                     help="default arity when no context is declared")
    run.add_argument("--K", type=int, default=None,
                     help="scalar precision (digits base m, default 8)")
    run.add_argument("--D", type=int, default=None,
                     help="series truncation degree (default 8)")
    run.add_argument("--L", type=int, default=None,
                     help="tree observation depth (default 8)")
    _add_output_flags(run)
    run.add_argument("--dot", action="store_true",
                     help="print DOT graphs for portrait-valued results")
    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite",
                        help="one of: %s" % ", ".join(sorted(suites.SUITES)))
    _add_output_flags(verify)
    return parser


def _defaults_from(args):
    return {"m": args.m, "K": 8 if args.K is None else args.K,
            "D": 8 if args.D is None else args.D,
            "L": 8 if args.L is None else args.L}


def _run_script(args, out, err):
    if args.script == "-":
        text = sys.stdin.read()
        fname = "<stdin>"
    else:
        try:
            with open(args.script, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print("selfsim: %s" % exc, file=err)
            return EXIT_PARSE
        fname = args.script
    try:
        statements = parse_script(text)
    except CliParseError as exc:
        print("%s:%d:%d: %s" % (fname, exc.line, exc.col, exc.message),
              file=err)
        return EXIT_PARSE
    session = Session(_defaults_from(args),
                      _Emitter(args.pretty, args.dot, out))
    for stmt in statements:
        try:
            session.execute(stmt)
        except CliRunError as exc:
            print("%s:%d: %s" % (fname, exc.line, exc.message), file=err)
            return exc.code
        except (ContextError, ContextMismatch) as exc:
            print("%s:%d: %s" % (fname, stmt["line"], exc), file=err)
            return EXIT_CONTEXT
        except (KeyError, SeriesSyntaxError) as exc:
            print("%s:%d: %s" % (fname, stmt["line"], exc.args[0]), file=err)
            return EXIT_PARSE
        except (ArithmeticError, ValueError) as exc:
            print("%s:%d: %s" % (fname, stmt["line"], exc), file=err)
            return EXIT_MATH
    return EXIT_CHECK_FAILED if session.check_failed else EXIT_OK


def _run_verify(args, out, err):
    session = Session({}, _Emitter(args.pretty, False, out))
    try:
        session.execute({"kind": "verify", "line": None, "suite": args.suite})
    except CliRunError as exc:
        print("selfsim: %s" % exc.message, file=err)
        return exc.code
    return EXIT_CHECK_FAILED if session.check_failed else EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _env_cache_cap()   # every command, even one that builds no Context
    except ContextError as exc:
        print("selfsim: %s" % exc, file=sys.stderr)
        return EXIT_CONTEXT
    try:
        if args.command == "verify":
            code = _run_verify(args, sys.stdout, sys.stderr)
        else:
            code = _run_script(args, sys.stdout, sys.stderr)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`selfsim verify all | head -c 10`); send
        # the rest, and the flush at exit, to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):   # a stream with no file descriptor
            sys.stdout = os.fdopen(devnull, "w")
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
