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
errors, 3 context errors (arity or depth bounds), 4 arithmetic errors.
The SELFSIM_CACHE environment variable, a positive integer, bounds
per-system caches.
"""

import argparse
import json
import re
import sys

from . import suites
from .adic import ContextMismatch, format_series, parse_series, reduce_mod_r
from .closure import (ZetaUnbounded, extract_relations, order_to_depth,
                      state_closure, zeta)
from .endo import phi_rep, adding_machine_conjugator, triple_from_json
from .tree import (Context, ContextError, FoldSystem, Permutation,
                   ShapeMismatch, System, _env_cache_cap)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_CONTEXT = 3
EXIT_MATH = 4

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


class Token(object):
    __slots__ = ("kind", "value", "col")

    def __init__(self, kind, value, col):
        self.kind = kind
        self.value = value
        self.col = col

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.value)


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
    def __init__(self, tokens, line, length):
        self.tokens = tokens
        self.line = line
        self.length = length
        self.i = 0

    def peek(self, ahead=0):
        j = self.i + ahead
        return self.tokens[j] if j < len(self.tokens) else None

    def done(self):
        return self.i >= len(self.tokens)

    def error(self, message, token=None):
        col = token.col if token is not None else (
            self.tokens[self.i].col if not self.done() else self.length + 1)
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

    def at_sym(self, sym):
        tok = self.peek()
        return tok is not None and tok.kind == "sym" and tok.value == sym


# ---------------------------------------------------------------- parser

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


def _parse_vertex(p):
    letters = [int(p.expect("int", what="a vertex letter").value)]
    while p.at_sym("."):
        p.next()
        letters.append(int(p.expect("int", what="a vertex letter").value))
    for letter in letters:
        if letter < 1:
            p.error("vertex letters count from 1")
    return letters


def _at_kv(p):
    nxt = p.peek(1)
    return (not p.done() and p.peek().kind == "name"
            and nxt is not None and nxt.kind == "sym" and nxt.value == "=")


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
        if allowed[key_tok.value] is int:
            val_tok = p.expect("int", what="an integer value")
            pairs[key_tok.value] = int(val_tok.value)
        else:
            val_tok = p.expect("string", what="a quoted value")
            pairs[key_tok.value] = val_tok.value
    return pairs


def _parse_words_then_kv(p, kv_spec, at_least=1, at_most=None):
    words = []
    while not p.done() and not _at_kv(p):
        words.append(_parse_word(p))
        if at_most is not None and len(words) > at_most:
            p.error("too many words (at most %d)" % at_most)
    if len(words) < at_least:
        p.error("expected a word")
    return words, _parse_kv(p, kv_spec)


def _parse_gen(p):
    name = p.expect("name", what="a generator name").value
    p.expect("sym", "=")
    p.expect("sym", "(")
    entries = []
    while True:
        tok = p.peek()
        if tok is None:
            p.error("unterminated entry list")
        if tok.kind == "name" and tok.value == "e" and (
                p.peek(1) is not None and p.peek(1).kind == "sym"
                and p.peek(1).value in (",", ")")):
            p.next()
            entries.append(None)
        else:
            entries.append(_parse_word(p))
        tok = p.next("',' or ')'")
        if tok.kind != "sym" or tok.value not in (",", ")"):
            p.error("expected ',' or ')'", tok)
        if tok.value == ")":
            break
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
    if not p.done():
        p.error("unexpected input after the generator definition")
    return {"kind": "gen", "name": name, "entries": entries, "cycles": cycles}


_CONTEXT_KEYS = ("m", "K", "D", "L")
# suite names are names that may also contain inner hyphens
_SUITE_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*(?:-[A-Za-z_0-9]+)*)")


def _parse_verify(line, text, pos):
    hit = _SUITE_RE.match(text, pos)
    rest = text[hit.end() if hit else pos:]
    if hit is None or rest.strip():
        col = len(text) - len(rest.lstrip()) + 1
        raise CliParseError(line, col, "unexpected input after the suite name"
                            if hit else "expected a suite name")
    return {"kind": "command", "cmd": "verify", "line": line,
            "suite": hit.group(1)}


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
    if head == "represent":
        path = text[head_match.end():].strip()
        if not path:
            raise CliParseError(line, len(text) + 1, "expected a file path")
        return {"kind": "command", "cmd": "represent", "line": line,
                "path": path}
    if head == "verify":
        return _parse_verify(line, text, head_match.end())
    tokens = _tokenize(text, line)
    p = _LineParser(tokens, line, len(text))
    p.next()  # the head name
    if head == "context":
        pairs = _parse_kv(p, {k: int for k in _CONTEXT_KEYS})
        if "m" not in pairs:
            p.error("context needs m=<arity>")
        return {"kind": "context", "line": line, "pairs": pairs}
    if head == "gen":
        stmt = _parse_gen(p)
        stmt["line"] = line
        return stmt
    if head == "let":
        name = p.expect("name", what="a name").value
        p.expect("sym", "=")
        word = _parse_word(p)
        if not p.done():
            p.error("unexpected input after the word")
        return {"kind": "let", "line": line, "name": name, "word": word}
    if head in ("portrait", "order", "zeta"):
        words, kv = _parse_words_then_kv(p, {"L": int}, at_most=1)
        return {"kind": "command", "cmd": head, "line": line,
                "word": words[0], "kv": kv}
    if head == "act":
        word = _parse_word(p)
        vertex = _parse_vertex(p)
        if not p.done():
            p.error("unexpected input after the vertex")
        return {"kind": "command", "cmd": "act", "line": line,
                "word": word, "vertex": vertex}
    if head in ("closure", "present"):
        words, kv = _parse_words_then_kv(p, {"depth": int})
        return {"kind": "command", "cmd": head, "line": line,
                "words": words, "kv": kv}
    if head == "reduce":
        value = p.expect("string", what="a quoted series").value
        kv = _parse_kv(p, {"r": str})
        if "r" not in kv:
            p.error("reduce needs r=\"<relator series>\"")
        return {"kind": "command", "cmd": "reduce", "line": line,
                "input": value, "kv": kv}
    if head == "conjugate":
        name = p.expect("name", what="a generator name").value
        kv = _parse_kv(p, {"j": int, "L": int})
        if "j" not in kv:
            p.error("conjugate needs j=<shift>")
        return {"kind": "command", "cmd": "conjugate", "line": line,
                "name": name, "kv": kv}
    raise CliParseError(line, head_match.start(1) + 1,
                        "unknown statement %r" % head)


def parse_script(text):
    """Parse a whole script; returns the statement list."""
    statements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stmt = parse_statement(lineno, raw)
        if stmt is not None:
            statements.append(stmt)
    return statements


# ------------------------------------------------------------ formatting

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


def format_statement(stmt):
    """Render a parsed statement back to canonical script text."""
    kind = stmt["kind"]
    if kind == "context":
        pairs = stmt["pairs"]
        return "context " + " ".join(
            "%s=%d" % (k, pairs[k]) for k in _CONTEXT_KEYS if k in pairs)
    if kind == "gen":
        entries = ", ".join(
            "e" if w is None else format_word(w) for w in stmt["entries"])
        cycles = "".join(
            "(%s)" % " ".join(str(a) for a in c) for c in stmt["cycles"])
        out = "gen %s = (%s)" % (stmt["name"], entries)
        return out + (" " + cycles if cycles else "")
    if kind == "let":
        return "let %s = %s" % (stmt["name"], format_word(stmt["word"]))
    cmd = stmt["cmd"]
    parts = [cmd]
    if cmd == "represent":
        parts.append(stmt["path"])
    elif cmd == "verify":
        parts.append(stmt["suite"])
    elif cmd == "reduce":
        parts.append('"%s"' % stmt["input"])
    elif cmd == "conjugate":
        parts.append(stmt["name"])
    elif cmd == "act":
        parts.append(format_word(stmt["word"]))
        parts.append(".".join(str(a) for a in stmt["vertex"]))
    elif "word" in stmt:
        parts.append(format_word(stmt["word"]))
    else:
        parts.extend(format_word(w) for w in stmt["words"])
    for key in sorted(stmt.get("kv", ())):
        val = stmt["kv"][key]
        parts.append('%s="%s"' % (key, val) if isinstance(val, str)
                     else "%s=%d" % (key, val))
    return " ".join(parts)


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
        kwargs = {k: pairs.get(k, self.defaults.get(k) or 8)
                  for k in ("K", "D", "L")}
        self.ctx = Context(pairs["m"], **kwargs)
        self.system = System(self.ctx)

    def depth_arg(self, kv, key="L"):
        return kv.get(key, self.ctx.L if self.ctx else None)

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

    # -- statement dispatch

    def execute(self, stmt):
        kind = stmt["kind"]
        if kind == "context":
            self._do_context(stmt)
        elif kind == "gen":
            self._do_gen(stmt)
        elif kind == "let":
            self._do_let(stmt)
        else:
            getattr(self, "_cmd_" + stmt["cmd"])(stmt)

    def _do_context(self, stmt):
        if self.ctx is not None:
            raise CliRunError(stmt["line"], "context already declared",
                              EXIT_CONTEXT)
        self._make_ctx(stmt["line"], stmt["pairs"])

    def _check_fresh(self, name, line):
        if name == "e" or name in self.lets or name in self.gens:
            raise CliRunError(line, "name %r already in use" % name,
                              EXIT_PARSE)

    def _do_gen(self, stmt):
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

    def _do_let(self, stmt):
        self._check_fresh(stmt["name"], stmt["line"])
        self.lets[stmt["name"]] = self.eval_word(stmt["word"], stmt["line"])

    # -- commands

    def _cmd_portrait(self, stmt):
        expr = self.eval_word(stmt["word"], stmt["line"])
        depth = self.depth_arg(stmt["kv"])
        portrait = expr.portrait(depth)
        self.emit({"command": "portrait", "word": format_word(stmt["word"]),
                   "depth": depth, "portrait": portrait.to_json()},
                  portrait=portrait)

    def _cmd_act(self, stmt):
        expr = self.eval_word(stmt["word"], stmt["line"])
        image, state = expr.act(stmt["vertex"])
        self.emit({"command": "act", "word": format_word(stmt["word"]),
                   "vertex": ".".join(str(a) for a in stmt["vertex"]),
                   "image": ".".join(str(a) for a in image),
                   "state": repr(state)})

    def _cmd_order(self, stmt):
        expr = self.eval_word(stmt["word"], stmt["line"])
        depth = self.depth_arg(stmt["kv"])
        self.emit({"command": "order", "word": format_word(stmt["word"]),
                   "depth": depth, "order": order_to_depth(expr, depth)})

    def _cmd_zeta(self, stmt):
        expr = self.eval_word(stmt["word"], stmt["line"])
        depth = self.depth_arg(stmt["kv"])
        row = {"command": "zeta", "word": format_word(stmt["word"]),
               "depth": depth}
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
        depth = stmt["kv"].get("L", self.ctx.L)
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
        ctx = Context(endo.index,
                      **{k: self.defaults.get(k) or 8 for k in ("K", "D", "L")})
        machine = phi_rep(endo, transversal, ctx=ctx)
        rows, truncated = self._machine_states(machine)
        self.emit({"command": "represent", "file": stmt["path"],
                   "group": repr(endo.group), "index": endo.index,
                   "states": rows, "truncated": truncated})

    @staticmethod
    def _machine_states(machine):
        queue = []
        for vec in machine.endo.group.basis():
            expr = machine.of(vec)
            if expr.word:
                queue.append(expr.word[0][0])
        seen = set()
        rows = []
        truncated = False
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            if len(seen) >= _STATE_CAP:
                truncated = True
                break
            seen.add(name)
            definition = machine.system.definition(name)
            children = []
            for entry in definition.entries:
                if entry.word:
                    child = entry.word[0][0]
                    children.append(child)
                    queue.append(child)
                else:
                    children.append("e")
            rows.append({"name": name, "root": repr(definition.root),
                         "children": children})
        return rows, truncated

    def _cmd_verify(self, stmt):
        try:
            report = suites.run_suite(stmt["suite"])
        except KeyError as exc:
            raise CliRunError(stmt["line"], str(exc.args[0]), EXIT_PARSE)
        if not report["pass"]:
            self.check_failed = True
        self.emit({"command": "verify", **report})


# ------------------------------------------------------------- printing

def _indent_portrait_lines(portrait):
    lines = []

    def walk(node, path):
        lines.append("  %-12s %s" % (path or "*", repr(node.root)))
        for letter, child in enumerate(node.children, start=1):
            walk(child, path + ("." if path else "") + str(letter))

    walk(portrait, "")
    return lines


def _pretty_lines(row):
    cmd = row["command"]
    if cmd == "portrait":
        head = "portrait %s depth=%d" % (row["word"], row["depth"])
        return [head]  # tree lines are appended by the caller
    if cmd == "act":
        return ["act %s: %s -> %s   state %s"
                % (row["word"], row["vertex"], row["image"], row["state"])]
    if cmd == "order":
        return ["order %s depth=%d: %d" % (row["word"], row["depth"],
                                           row["order"])]
    if cmd == "zeta":
        if row["zeta"] is None:
            return ["zeta %s: still trivial after %d levels"
                    % (row["word"], row["stabilized_at_least"])]
        return ["zeta %s = %d" % (row["word"], row["zeta"])]
    if cmd == "closure":
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
        lines.extend("  %s" % s for s in rep["states"])
        return lines
    if cmd == "present":
        lines = ["presentation of %s: orders %s"
                 % (" ".join(row["words"]), row["orders"])]
        lines.append("  relator: %s" % row["relator"])
        return lines
    if cmd == "reduce":
        return ["%s mod (%s) = %s   digits %s (exact below degree %d)"
                % (row["input"], row["relator"], row["normal_form"],
                   row["digits"], row["exact_zone"])]
    if cmd == "conjugate":
        return ["conjugate %s with j=%d: %s to depth %d in %d stages"
                % (row["generator"], row["j"],
                   "verified" if row["verified"] else "NOT VERIFIED",
                   row["depth"], row["stages"])]
    if cmd == "represent":
        lines = ["representation of %s on %d letters%s"
                 % (row["group"], row["index"],
                    " (truncated)" if row["truncated"] else "")]
        for state in row["states"]:
            lines.append("  %s = (%s) %s" % (
                state["name"], ", ".join(state["children"]), state["root"]))
        return lines
    if cmd == "verify":
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
    return [json.dumps(row, sort_keys=True)]


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
            lines = _pretty_lines(row)
            if row["command"] == "portrait" and portrait is not None:
                lines.extend(_indent_portrait_lines(portrait))
            for line in lines:
                print(line, file=self.out)
            return
        print(json.dumps(row, sort_keys=True), file=self.out)


# ----------------------------------------------------------------- main

def _add_common_flags(parser):
    parser.add_argument("--m", type=int, default=None,
                        help="default arity when no context is declared")
    parser.add_argument("--K", type=int, default=None,
                        help="scalar precision (digits base m, default 8)")
    parser.add_argument("--D", type=int, default=None,
                        help="series truncation degree (default 8)")
    parser.add_argument("--L", type=int, default=None,
                        help="tree observation depth (default 8)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--pretty", action="store_true",
                      help="human-readable output")
    mode.add_argument("--json", action="store_true",
                      help="one JSON object per line (the default)")
    parser.add_argument("--dot", action="store_true",
                        help="print DOT graphs for portrait-valued results")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="selfsim",
        description="Exact sessions with self-similar tree automorphisms.",
        epilog="Set SELFSIM_CACHE to bound the per-system caches.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a session script",
                         description=__doc__,
                         formatter_class=argparse.RawDescriptionHelpFormatter)
    run.add_argument("script", help="script path, or - for standard input")
    _add_common_flags(run)
    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite",
                        help="one of: %s" % ", ".join(sorted(suites.SUITES)))
    _add_common_flags(verify)
    return parser


def _defaults_from(args):
    return {"m": args.m, "K": args.K or 8, "D": args.D or 8, "L": args.L or 8}


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
        except (ArithmeticError, ValueError) as exc:
            print("%s:%d: %s" % (fname, stmt["line"], exc), file=err)
            return EXIT_MATH
        except KeyError as exc:
            print("%s:%d: undefined generator %s" % (fname, stmt["line"],
                                                     exc), file=err)
            return EXIT_PARSE
    return EXIT_CHECK_FAILED if session.check_failed else EXIT_OK


def _run_verify(args, out, err):
    try:
        report = suites.run_suite(args.suite)
    except KeyError as exc:
        print("selfsim: %s" % exc.args[0], file=err)
        return EXIT_PARSE
    except ContextError as exc:
        print("selfsim: %s" % exc, file=err)
        return EXIT_CONTEXT
    row = {"command": "verify", **report}
    if args.pretty:
        for line in _pretty_lines(row):
            print(line, file=out)
    else:
        print(json.dumps(row, sort_keys=True), file=out)
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _env_cache_cap()   # every command, even one that builds no Context
    except ContextError as exc:
        print("selfsim: %s" % exc, file=sys.stderr)
        return EXIT_CONTEXT
    if args.command == "verify":
        return _run_verify(args, sys.stdout, sys.stderr)
    return _run_script(args, sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
