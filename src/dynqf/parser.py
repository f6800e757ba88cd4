"""Parsers for the .dynp program format, modification scripts, and formulas.

Hand-rolled recursive descent over a list of token strings.  `tokenize`
reads them with one `re.findall`, after skipping the blanks, newlines and
'#' comments at the start.  Each match takes one token, then skips the
blanks, newlines and comments after it.  A token is the punctuation `:=`
`!=` `->` or one of `{}(),/=!&|:;`, an identifier [A-Za-z][A-Za-z0-9_]*, an
integer [0-9]+, or the empty string that ends every list; its kind follows
from its first character.  At any other character, non-ASCII letters and
digits included, the match takes the rest of the text.  So a bad character
can only start the last token before the end, and `tokenize` raises a
ParseError for it.  Tokens carry no position: a ParseError finds the line
and column of its token by scanning the text again up to that token's index.
Operator precedence in formulas: '!' over '&' over '|'.
"""
from __future__ import annotations

import re
from itertools import islice

from .errors import ParseError
from .formulas import (And, App, Const, Eq, Formula, Ite, Not, Or, RelAtom,
                       Term, TRUE, FALSE, Var)
from .program import (DynamicProgram, InitSpec, UpdateRule, encode_table,
                      frame_rule, validate_program)
from .records import Record
from .schema import Role, Schema, make_schema
from .state import DEL, INS, Modification

_BLANKS = r"(?:[ \t\r\n]|#[^\n]*)*"  # blanks, newlines and comments
_SKIP = re.compile(_BLANKS)
_TOKEN = re.compile(r"(:=|!=|->|[{}(),/=!&|:;]|[A-Za-z][A-Za-z0-9_]*|[0-9]+|\Z|(?s:.+))" + _BLANKS)
_FIRST = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789{}(),/=!&|:;")
_SECTIONS = ("input", "aux", "builtin", "const", "query", "init")


def tokenize(text: str, filename: str = "<input>") -> list[str]:
    """The token strings of text, ending with the empty string."""
    tokens = _TOKEN.findall(text, _SKIP.match(text).end())
    # a bad character starts the last token before the end; '-' starts only '->'
    if len(tokens) > 1 and tokens[-2][0] not in _FIRST and tokens[-2] != "->":
        raise ParseError(f"unexpected character {tokens[-2][0]!r}",
                         *position(text, len(tokens) - 2), filename)
    return tokens


def position(text: str, index: int) -> tuple[int, int]:
    """The line and column where token number `index` of text starts; the
    end of input is past the last character."""
    start = next(islice(_TOKEN.finditer(text, _SKIP.match(text).end()), index, None)).start()
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


class TokenStream:
    """A cursor over the tokens of `text`.  `accept`, `expect` and `at`
    compare token strings only: no punctuation is a word, and no word or
    punctuation is an integer."""

    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.tokens = tokenize(text, filename)
        self.pos = 0
        self.cur = self.tokens[0]

    def error(self, message: str, at: int | None = None):
        """A ParseError at the token at index `at`, by default the current one."""
        line, col = position(self.text, self.pos if at is None else at)
        raise ParseError(message, line, col, self.filename)

    def advance(self) -> str:
        tok = self.cur
        if tok:
            self.pos += 1
            self.cur = self.tokens[self.pos]
        return tok

    def at(self, *values: str) -> bool:
        return self.cur in values

    def at_ident(self) -> bool:
        return self.cur[:1].isalpha()

    def accept(self, value: str) -> bool:
        if self.cur == value:
            self.advance()
            return True
        return False

    def expect(self, value: str) -> str:
        if self.cur == value:
            return self.advance()
        self.error(f"expected {value!r}, found {self.cur!r}")

    def expect_ident(self) -> str:
        if self.cur[:1].isalpha():
            return self.advance()
        self.error(f"expected identifier, found {self.cur!r}")

    def expect_int(self) -> int:
        tok = self.cur
        if not tok[:1].isdigit():
            self.error(f"expected integer, found {tok!r}")
        try:
            value = int(tok)
        except ValueError:  # longer than sys.get_int_max_str_digits() allows
            self.error(f"integer of {len(tok)} digits is too long")
        self.advance()
        return value

    def items(self, read) -> list:
        """A parenthesised, comma-separated list of what read() reads."""
        self.expect("(")
        if self.accept(")"):
            return []
        out = [read()]
        while self.accept(","):
            out.append(read())
        self.expect(")")
        return out


# -- formulas and terms --------------------------------------------------------

class FormulaParser:
    """Schema-aware formula/term parsing: identifiers resolve to relation
    atoms, function applications, constants, or in-scope variables."""

    def __init__(self, ts: TokenStream, schema: Schema, vars: set[str]):
        self.ts = ts
        self.schema = schema
        self.vars = vars

    def formula(self) -> Formula:
        left = self._and()
        while self.ts.accept("|"):
            left = Or(left, self._and())
        return left

    def _and(self) -> Formula:
        left = self._not()
        while self.ts.accept("&"):
            left = And(left, self._not())
        return left

    def _not(self) -> Formula:
        if self.ts.accept("!"):
            return Not(self._not())
        return self._primary()

    def _primary(self) -> Formula:
        ts = self.ts
        if ts.accept("("):
            f = self.formula()
            ts.expect(")")
            return f
        if ts.accept("true"):
            return TRUE
        if ts.accept("false"):
            return FALSE
        tok, at = ts.cur, ts.pos
        if not tok[:1].isalnum():
            ts.error(f"expected a formula, found {tok!r}")
        # relation atom, or a term followed by = / !=
        if tok in self.schema.relations:
            name = ts.advance()
            args = ts.items(self.term)
            if len(args) != self.schema.arity(name):
                ts.error(f"relation {name!r} expects {self.schema.arity(name)} arguments", at)
            return RelAtom(name, tuple(args))
        left = self.term()
        if ts.accept("="):
            return Eq(left, self.term())
        if ts.accept("!="):
            return Not(Eq(left, self.term()))
        ts.error("expected '=' or '!=' after a term", at)

    def term(self) -> Term:
        ts = self.ts
        at = ts.pos
        if ts.accept("ite"):
            ts.expect("(")
            cond = self.formula()
            ts.expect(",")
            then = self.term()
            ts.expect(",")
            other = self.term()
            ts.expect(")")
            return Ite(cond, then, other)
        name = ts.expect_ident()
        if name in self.schema.functions:
            args = ts.items(self.term) if ts.at("(") else []
            if len(args) != self.schema.arity(name):
                ts.error(f"function {name!r} expects {self.schema.arity(name)} arguments", at)
            return App(name, tuple(args))
        if name in self.schema.constants:
            return Const(name)
        if name in self.vars:
            return Var(name)
        ts.error(f"unknown identifier {name!r} (not a variable, constant or symbol here)", at)


def parse_formula(text: str, schema: Schema, vars: set[str] | None = None) -> Formula:
    return _parse_whole(text, "<formula>", schema, vars, FormulaParser.formula)


def parse_term(text: str, schema: Schema, vars: set[str] | None = None) -> Term:
    return _parse_whole(text, "<term>", schema, vars, FormulaParser.term)


def _parse_whole(text: str, filename: str, schema: Schema, vars: set[str] | None, read):
    """What read, a FormulaParser method, reads from all of text."""
    ts = TokenStream(text, filename)
    out = read(FormulaParser(ts, schema, vars or set()))
    if ts.cur:
        ts.error(f"trailing input {ts.cur!r}")
    return out


# -- programs --------------------------------------------------------------------

def parse_program(text: str, filename: str = "<program>") -> DynamicProgram:
    ts = TokenStream(text, filename)
    ts.expect("program")
    name = ts.expect_ident()

    input_rels: dict[str, int] = {}
    aux_rels: dict[str, int] = {}
    aux_funs: dict[str, int] = {}
    bi_rels: dict[str, int] = {}
    bi_funs: dict[str, int] = {}
    constants: list[str] = []
    query: str | None = None
    init, rows = InitSpec("empty"), None
    default_frame = False

    def parse_symbol_block(rels: dict[str, int], funs: dict[str, int] | None):
        ts.expect("{")
        while True:
            is_fun = ts.accept("fun")
            sym = ts.expect_ident()
            ts.expect("/")
            ar = ts.expect_int()
            if is_fun:
                if funs is None:
                    ts.error("function symbols are not allowed in this section")
                funs[sym] = ar
            else:
                rels[sym] = ar
            if not ts.accept(","):
                break
        ts.expect("}")

    while ts.at(*_SECTIONS):
        section = ts.advance()
        if section == "input":
            parse_symbol_block(input_rels, None)
        elif section == "aux":
            parse_symbol_block(aux_rels, aux_funs)
        elif section == "builtin":
            parse_symbol_block(bi_rels, bi_funs)
        elif section == "const":
            constants.append(ts.expect_ident())
            while ts.accept(","):
                constants.append(ts.expect_ident())
        elif section == "query":
            query = ts.expect_ident()
        elif section == "init":
            init, rows = _parse_init(ts)

    schema = make_schema(input_rels, aux_rels, aux_funs, bi_rels, bi_funs, tuple(constants))
    if query is None:
        ts.error("missing 'query' section")
    if rows is not None:
        init = InitSpec("table", table=_table(ts, rows, schema))

    rules: dict[tuple[str, str, str], UpdateRule] = {}
    while ts.at("on", "default"):
        if ts.accept("default"):
            ts.expect("frame")
            default_frame = True
            continue
        ts.expect("on")
        if ts.accept("insert"):
            kind = INS
        elif ts.accept("delete"):
            kind = DEL
        else:
            ts.error("expected 'insert' or 'delete'")
        trig_at = ts.pos
        trigger = ts.expect_ident()
        if trigger not in input_rels:
            ts.error(f"{trigger!r} is not an input relation", trig_at)
        params = ts.items(ts.expect_ident)
        if len(params) != input_rels[trigger]:
            ts.error(f"trigger {trigger!r} expects {input_rels[trigger]} parameters", trig_at)
        ts.expect(":")
        while ts.at_ident() and not ts.at("on", "default") and ts.tokens[ts.pos + 1] == "(":
            target_at = ts.pos
            target = ts.expect_ident()
            if schema.roles.get(target) is not Role.AUX:
                ts.error(f"{target!r} is not an auxiliary symbol", target_at)
            tparams = ts.items(ts.expect_ident)
            if len(tparams) != schema.arity(target):
                ts.error(f"{target!r} expects {schema.arity(target)} parameters", target_at)
            fp = FormulaParser(ts, schema, set(params) | set(tparams))
            if ts.accept(":="):
                if target not in schema.functions:
                    ts.error(f"':=' defines a function update, but {target!r} is a relation", target_at)
                body: Formula | Term = fp.term()
            else:
                ts.expect(":")
                if target not in schema.relations:
                    ts.error(f"':' defines a relation update, but {target!r} is a function", target_at)
                body = fp.formula()
            rule = UpdateRule(target, kind, trigger, tuple(params), tuple(tparams), body)
            if rule.key in rules:
                ts.error(f"duplicate rule for {target!r} under {kind} {trigger!r}", target_at)
            rules[rule.key] = rule

    if ts.cur:
        ts.error(f"unexpected {ts.cur!r}")

    if default_frame:
        for target in schema.aux_symbols:
            for kind in (INS, DEL):
                for trigger in schema.input_relations:
                    key = (target, kind, trigger)
                    if key not in rules:
                        rules[key] = frame_rule(schema, target, kind, trigger)

    program = DynamicProgram(name, schema, rules, query, init)
    validate_program(program)
    return program


def _parse_init(ts: TokenStream):
    """The InitSpec of an `init` section and, for a table, its rows, each
    (symbol, index of its token, entries), an entry being (tuple, index of
    the token after it, the value after `->` or None).  The rows are
    resolved once the schema is known."""
    if ts.at("empty", "oracle"):
        kind = ts.advance()
        base = ts.advance() if ts.at_ident() and not ts.at(*_SECTIONS, "on", "default") else None
        return InitSpec(kind, base=base), None
    if not ts.accept("table"):
        ts.error("expected one of: empty, oracle, table")
    ts.expect("{")
    rows = []
    while not ts.accept("}"):
        if not ts.cur:
            ts.error("unterminated table initializer")
        sym_at, sym = ts.pos, ts.expect_ident()
        ts.expect("=")
        entries = []
        while ts.at("("):
            tup = tuple(ts.items(ts.expect_int))
            entries.append((tup, ts.pos, ts.expect_int() if ts.accept("->") else None))
        rows.append((sym, sym_at, entries))
        ts.accept(";")
    return InitSpec("table"), rows


def _table(ts: TokenStream, rows: list, schema: Schema) -> tuple:
    """The encoded table of the rows: a relation row lists tuples, and a
    function row maps each tuple `->` a value."""
    relations: dict[str, list[tuple[int, ...]]] = {}
    functions: dict[str, dict[tuple[int, ...], int]] = {}
    for sym, sym_at, entries in rows:
        if sym in schema.relations:
            tuples = relations.setdefault(sym, [])
            for tup, at, value in entries:
                if value is not None:
                    ts.error(f"'->' gives a function value, but {sym!r} is a relation", at)
                tuples.append(tup)
        elif sym in schema.functions:
            table = functions.setdefault(sym, {})
            for tup, at, value in entries:
                if value is None:
                    ts.error(f"expected '->', found {ts.tokens[at]!r}", at)
                table[tup] = value
        else:
            ts.error(f"unknown symbol {sym!r} in table", sym_at)
    return encode_table(relations, functions)


# -- modification scripts -----------------------------------------------------------

class Script(Record):
    __slots__ = ("domain", "relations", "constants", "modifications")

    def __init__(self, domain: int, relations: dict[str, set[tuple[int, ...]]] | None = None,
                 constants: dict[str, int] | None = None, modifications: list[Modification] | None = None):
        self._set_fields(domain, {} if relations is None else relations,
                         {} if constants is None else constants,
                         [] if modifications is None else modifications)


def parse_script(text: str, schema: Schema, filename: str = "<script>") -> Script:
    """A script: optional `domain`, `graph { ... }` or `db { ... }` literal,
    `elem` aliases, then `ins R(...)` / `del R(...)` lines."""
    ts = TokenStream(text, filename)
    domain: int | None = None
    relations: dict[str, set[tuple[int, ...]]] = {}
    constants: dict[str, int] = {}
    aliases: dict[str, int] = {}

    def element() -> int:
        if ts.cur[:1].isdigit():
            return ts.expect_int()
        name_at = ts.pos
        name = ts.expect_ident()
        if name in aliases:
            return aliases[name]
        if name in constants:
            return constants[name]
        ts.error(f"unknown element name {name!r} (declare it with 'elem {name} = <id>')", name_at)

    mods: list[Modification] = []
    while ts.cur:
        if ts.accept("domain"):
            domain = ts.expect_int()
        elif ts.accept("graph"):
            ts.expect("{")
            while not ts.accept("}"):
                if ts.accept("nodes"):
                    domain = ts.expect_int()
                elif ts.accept("const"):
                    while ts.at_ident():
                        cname = ts.expect_ident()
                        ts.expect("=")
                        constants[cname] = ts.expect_int()
                elif ts.at("edges"):
                    if "E" not in schema.input_relations or schema.arity("E") != 2:
                        ts.error("graph literals need a binary input relation E")
                    ts.advance()
                    edges = relations.setdefault("E", set())
                    while ts.accept("("):
                        u = element()
                        ts.expect(",")
                        v = element()
                        ts.expect(")")
                        edges.add((u, v))
                elif ts.accept(";"):
                    continue
                else:
                    ts.error(f"unexpected {ts.cur!r} in graph literal")
        elif ts.accept("db"):
            ts.expect("{")
            while not ts.accept("}"):
                if ts.accept(";"):
                    continue
                sym_at = ts.pos
                sym = ts.expect_ident()
                if sym not in schema.relations:
                    ts.error(f"unknown relation {sym!r} in db literal", sym_at)
                if sym not in schema.input_relations:
                    ts.error(f"{sym!r} is not an input relation", sym_at)
                ts.expect(":")
                tuples = relations.setdefault(sym, set())
                while ts.at("("):
                    tup = ts.items(element)
                    if len(tup) != schema.arity(sym):
                        ts.error(f"{sym!r} expects {schema.arity(sym)} components", sym_at)
                    tuples.add(tuple(tup))
        elif ts.accept("elem"):
            name = ts.expect_ident()
            ts.expect("=")
            aliases[name] = ts.expect_int()
        elif ts.at("ins", "del"):
            kind = INS if ts.advance() == "ins" else DEL
            rel_at = ts.pos
            rel = ts.expect_ident()
            if rel not in schema.relations:
                ts.error(f"unknown relation {rel!r}", rel_at)
            tup = ts.items(element)
            if len(tup) != schema.arity(rel):
                ts.error(f"{rel!r} expects {schema.arity(rel)} components", rel_at)
            mods.append(Modification(rel, tuple(tup), kind))
        else:
            ts.error(f"unexpected {ts.cur!r}")

    if domain is None:
        used = [e for m in mods for e in m.tuple]
        used += [e for ts_ in relations.values() for t in ts_ for e in t]
        used += list(constants.values())
        domain = max(used, default=-1) + 1
    return Script(domain, relations, constants, mods)
