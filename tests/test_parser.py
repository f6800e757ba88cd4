import hashlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from dynqf.corpus import _SPECS, _STRAWMEN, builtin_program, corpus_names, corpus_source
from dynqf.errors import DynqfError, ParseError, ProgramError
from dynqf.formulas import And, App, Eq, Ite, Not, Or, RelAtom, Var
from dynqf.parser import parse_formula, parse_program, parse_script, parse_term, position, tokenize
from dynqf.printer import print_formula, print_program
from dynqf.program import decode_table
from dynqf.schema import make_schema

SCHEMA = make_schema(input_relations={"E": 2, "U": 1},
                     builtin_functions={"f": 1}, constants=("s",))


def test_precedence_not_over_and_over_or():
    f = parse_formula("!U(x) & U(y) | U(x)", SCHEMA, {"x", "y"})
    assert isinstance(f, Or) and isinstance(f.left, And) and isinstance(f.left.left, Not)


def test_parentheses_override():
    f = parse_formula("!(U(x) & U(y))", SCHEMA, {"x", "y"})
    assert isinstance(f, Not) and isinstance(f.sub, And)


def test_neq_sugar():
    f = parse_formula("x != s", SCHEMA, {"x"})
    assert isinstance(f, Not) and isinstance(f.sub, Eq)


def test_function_terms_and_ite():
    t = parse_term("ite(U(f(x)), x, f(x))", SCHEMA, {"x"})
    assert isinstance(t, Ite) and isinstance(t.then, Var)
    f = parse_formula("E(x, f(x))", SCHEMA, {"x"})
    assert isinstance(f.args[1], App)


def test_unknown_identifier_has_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("U(zebra)", SCHEMA, {"x"})
    assert "zebra" in str(exc.value) and ":1:" in str(exc.value)


def test_relation_arity_checked():
    with pytest.raises(ParseError):
        parse_formula("E(x)", SCHEMA, {"x"})


def test_formula_print_parse_roundtrip():
    texts = [
        "U(x) & !U(y) | x = s",
        "!(U(x) | U(y)) & E(x, y)",
        "E(f(x), f(f(y))) | x != y",
        "true & (false | U(x))",
    ]
    for text in texts:
        f = parse_formula(text, SCHEMA, {"x", "y"})
        assert parse_formula(print_formula(f), SCHEMA, {"x", "y"}) == f


def test_corpus_files_roundtrip():
    for name in corpus_names():
        program = builtin_program(name).program
        assert parse_program(print_program(program)) == program


def test_reference_grammar_shape_parses():
    # the documented format, feature-complete: two input relations, mixed
    # relation/function aux symbols, builtins, constants, every init form
    # trigger, and a default frame filling the uncovered pairs
    src = """
program sketch
input    { R/2, U/1 }
aux      { Q/0, List/2, fun Succ/1 }
builtin  { fun Pred/1 }          # optional
const    s, t                    # optional
query    Q
init     oracle
on insert R(u,v):
  Q():        true
  List(x,y):  List(x,y) | (x = u & y = v)
  Succ(x) :=  ite(Q(), Pred(x), x)
on delete R(u,v):
  Q():        Q()
  List(x,y):  List(x,y) & !(x = u & y = v)
  Succ(x) :=  Succ(x)
default frame                    # optional
"""
    p = parse_program(src)
    assert set(p.schema.input_relations) == {"R", "U"}
    # the U-triggered rules came from the frame
    assert p.rule("Q", "ins", "U").body == RelAtom("Q", ())
    assert parse_program(print_program(p)) == p


def test_program_missing_rule_is_an_error():
    src = """
program broken
input { U/1 }
aux   { Q/0 }
query Q
on insert U(a):
  Q(): true
"""
    with pytest.raises(ProgramError) as exc:
        parse_program(src)
    assert "missing" in str(exc.value)


def test_default_frame_fills_missing_rules():
    src = """
program framed
input { U/1 }
aux   { Q/0, A/1 }
query Q
init  empty
on insert U(a):
  Q(): true
default frame
"""
    p = parse_program(src)
    rule = p.rule("A", "del", "U")
    assert rule.body == RelAtom("A", (Var("y1"),))


def test_function_rule_uses_walrus_arrow():
    src = """
program funs
input { U/1 }
aux   { Q/0, fun g/1 }
query Q
init  empty
on insert U(a):
  Q(): true
  g(x) := ite(Q(), x, g(x))
on delete U(a):
  Q(): false
  g(x) := g(x)
"""
    p = parse_program(src)
    assert isinstance(p.rule("g", "ins", "U").body, Ite)
    with pytest.raises(ParseError):
        parse_program(src.replace("g(x) := ite(Q(), x, g(x))", "g(x) : true"))


def test_table_init_parses_and_prints():
    src = """
program tabled
input { U/1 }
aux   { Q/0, A/1, fun g/1 }
query Q
init  table { A = (0) (2); Q = (); g = (0)->1 (1)->1 (2)->0 }
on insert U(a):
  Q(): true
  A(x): A(x)
  g(x) := g(x)
on delete U(a):
  Q(): Q()
  A(x): A(x)
  g(x) := g(x)
"""
    p = parse_program(src)
    rels, funs = decode_table(p.init.table)
    assert rels["A"] == {(0,), (2,)}
    assert rels["Q"] == {()}
    assert funs["g"] == {(0,): 1, (1,): 1, (2,): 0}
    assert parse_program(print_program(p)) == p


def test_script_graph_literal_and_aliases():
    script = parse_script(
        """
        graph { nodes 5; const s=0 t=4; edges (0,1) (1,4) }
        elem a = 2
        ins E(s, a)
        del E(0, 1)
        """,
        make_schema(input_relations={"E": 2}, constants=("s", "t")),
    )
    assert script.domain == 5
    assert script.constants == {"s": 0, "t": 4}
    assert script.relations["E"] == {(0, 1), (1, 4)}
    assert [str(m) for m in script.modifications] == ["ins E(0,2)", "del E(0,1)"]


def test_script_unknown_element_errors():
    with pytest.raises(ParseError):
        parse_script("domain 3\nins U(q)", make_schema(input_relations={"U": 1}))


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_program("program x\ninput { U/1 }\naux { Q/0 }\nquery Q\non insert U(a):\n  Q(): U(")
    assert exc.value.line >= 6


@pytest.mark.parametrize("text, line, col, fragment", [
    ("program x\ninput { U/1 } $", 2, 15, "unexpected character '$'"),
    ("program x\n# a comment\ninput { U/1 }\n  @ query Q", 4, 3, "unexpected character '@'"),
    ("program x\n\tinput\t{ U/1 } ?", 2, 16, "unexpected character '?'"),
    ("program x\ninput { U/1", 2, 12, "expected '}', found ''"),
    ("program x\ninput { U/1 } # the end", 2, 24, "missing 'query' section"),
    ("program x\ninput { U/\u00b9 }", 2, 11, "unexpected character '\u00b9'"),
    ("program x\ninput { \u00e9/1 }", 2, 9, "unexpected character '\u00e9'"),
    ("program x\ninput { U/1 }\r\nquery \u0663", 3, 7, "unexpected character '\u0663'"),
    ("program x\u00e9", 1, 10, "unexpected character '\u00e9'"),
    ("program x\ninput { U/1\u0663 }", 2, 12, "unexpected character '\u0663'"),
    ("program _x", 1, 9, "unexpected character '_'"),
])
def test_parse_errors_carry_line_and_column(text, line, col, fragment):
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert (exc.value.line, exc.value.column) == (line, col)
    assert str(exc.value) == f"<program>:{line}:{col}: {fragment}"


def test_an_integer_too_long_to_convert_is_a_parse_error():
    with pytest.raises(ParseError, match=r"^<program>:2:11: integer of 5000 digits is too long$"):
        parse_program("program x\ninput { U/" + "9" * 5000 + " }")


def test_end_of_input_after_a_trailing_comment_is_past_the_comment():
    # the end-of-input token sits after the last character of its line,
    # comment characters included
    assert kinds_and_positions("x # note") == [("ident", 1, 1), ("eof", 1, 9)]
    assert kinds_and_positions("x # note\n") == [("ident", 1, 1), ("eof", 2, 1)]


def token_kind(token):
    """A token's kind, by its first character."""
    if not token:
        return "eof"
    return "ident" if token[0].isalpha() else "int" if token[0].isdigit() else "punct"


def kinds_and_positions(text):
    return [(token_kind(t), *position(text, i)) for i, t in enumerate(tokenize(text))]


def test_parsed_rules_are_pinned():
    # the rules of every shipped source, and of its printed form read back
    reprs = []
    for filename in [spec[0] for spec in _SPECS.values()] + list(_STRAWMEN.values()):
        program = parse_program(corpus_source(filename), filename)
        reprs.append(repr(program.rules))
        reprs.append(repr(parse_program(print_program(program)).rules))
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert (len(reprs), digest) == (14, "ac71c487dd569e9fbbf389308d85b730adaee1408605dbc72f367e56f789a29f")


_HEAD = "program x\ninput { E/2 }\naux { Q/0 }\nquery Q\n"
_RULES = "on insert E(a, b):\n  Q(): true\non delete E(a, b):\n  Q(): false\n"
_LONG = "9" * 5000
_ERROR_SCHEMA = make_schema(input_relations={"E": 2, "U": 1}, constants=("s",))
_ERROR_CASES = [
    ("program", "program x\n$input { E/2 }", "<program>:2:1: unexpected character '$'"),
    ("program", "program x\ninput { E$/2 }", "<program>:2:10: unexpected character '$'"),
    ("program", "program x\ninput { E/2 }$\nquery Q", "<program>:2:14: unexpected character '$'"),
    ("program", "program x é\ninput { E/2 }", "<program>:1:11: unexpected character 'é'"),
    ("program", "program x # café\ninput { E/2 } $", "<program>:2:15: unexpected character '$'"),
    ("program", "program x\ninput { E/" + _LONG + " }", "<program>:2:11: integer of 5000 digits is too long"),
    ("program", _HEAD + "init table { E = (0, 1)\n", "<program>:6:1: unterminated table initializer"),
    ("program", _HEAD + "init table { E = (0, 1)", "<program>:5:24: unterminated table initializer"),
    ("program", _HEAD + "init table {\n  E = (0, 1)\n  Q = (x)\n}\n" + _RULES,
     "<program>:7:8: expected integer, found 'x'"),
    ("program", _HEAD + "init table { E = (0, 1); F = (0) }\n" + _RULES,
     "<program>:5:26: unknown symbol 'F' in table"),
    ("program", _HEAD + "init table { E = (0, " + _LONG + ") }\n" + _RULES,
     "<program>:5:22: integer of 5000 digits is too long"),
    ("program", _HEAD + "init table { E = (0, 1) -> 1 }\n" + _RULES,
     "<program>:5:25: '->' gives a function value, but 'E' is a relation"),
    ("program", _HEAD.replace("Q/0", "Q/0, fun f/1") + "init table { f = (0) -> 1 (1); E = (0, 1) }\n",
     "<program>:5:30: expected '->', found ';'"),
    ("program", _HEAD + _RULES + "Q(): true\n", "<program>:9:1: duplicate rule for 'Q' under del 'E'"),
    ("program", _HEAD + _RULES + "  }", "<program>:9:3: unexpected '}'"),
    ("program", _HEAD + _RULES + "  foo", "<program>:9:3: unexpected 'foo'"),
    ("program", _HEAD + "on insert E(a, b):\n  Q(): E(a,", "<program>:6:12: expected identifier, found ''"),
    ("program", _HEAD + "on insert E(a, b):\n  Q(): E(a,\n", "<program>:7:1: expected identifier, found ''"),
    ("program", _HEAD + "on insert E(a, b):\n  Q(): E(a, b) & # end", "<program>:6:23: expected a formula, found ''"),
    ("script", "domain 3\nins E(0, 1)\n$", "<script>:3:1: unexpected character '$'"),
    ("script", "domain 3\n  ins E(0, é)", "<script>:2:12: unexpected character 'é'"),
    ("script", "# café\ndomain 3\nins E(0, q)",
     "<script>:3:10: unknown element name 'q' (declare it with 'elem q = <id>')"),
    ("script", "domain " + _LONG, "<script>:1:8: integer of 5000 digits is too long"),
    ("script", "domain 3\nins E(0, 1) 7", "<script>:2:13: unexpected '7'"),
    ("script", "domain 3\nins E(0,", "<script>:2:9: expected identifier, found ''"),
    ("script", "domain 3\nins E(0,\n", "<script>:3:1: expected identifier, found ''"),
    ("script", "db { U: (0) (1) ; E: (0, 1, 2) }", "<script>:1:19: 'E' expects 2 components"),
    ("formula", "E(x, s) s", "<formula>:1:9: trailing input 's'"),
    ("formula", "E(x, s) |", "<formula>:1:10: expected a formula, found ''"),
    ("formula", "E(x, $)", "<formula>:1:6: unexpected character '$'"),
]


@pytest.mark.parametrize("kind, text, message", _ERROR_CASES, ids=[
    "bad-char-line-start", "bad-char-mid-line", "bad-char-line-end", "non-ascii-outside-comment",
    "non-ascii-in-comment", "long-int", "unterminated-table-newline", "unterminated-table-eof",
    "table-entry", "table-unknown-symbol", "table-long-int", "table-relation-arrow",
    "table-function-no-arrow", "duplicate-rule", "trailing-brace",
    "trailing-ident", "eof-no-newline", "eof-newline", "eof-after-comment", "script-bad-char",
    "script-non-ascii", "script-non-ascii-in-comment", "script-long-int", "script-trailing",
    "script-eof-no-newline", "script-eof-newline", "script-db-arity", "formula-trailing",
    "formula-eof", "formula-bad-char",
])
def test_parse_error_strings_are_pinned(kind, text, message):
    with pytest.raises(ParseError) as exc:
        if kind == "program":
            parse_program(text)
        elif kind == "script":
            parse_script(text, _ERROR_SCHEMA)
        else:
            parse_formula(text, _ERROR_SCHEMA, {"x"})
    assert str(exc.value) == message


_REFERENCE_TOKEN = re.compile(r"(?P<newline>\n)|(?P<punct>:=|!=|->|[{}(),/=!&|:;])"
                              r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<int>[0-9]+)|[ \t\r]+|#.*|(?P<bad>.)")


def reference_tokens(text):
    """(kind, value, line, col) of each token, eof last, by counting lines
    match by match: the reading `tokenize` and `position` must agree with."""
    tokens, line, line_start = [], 1, 0
    for m in _REFERENCE_TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, m.start() - line_start + 1)
        elif kind:
            tokens.append((kind, m.group(), line, m.start() - line_start + 1))
    return tokens + [("eof", "", line, len(text) - line_start + 1)]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="aZ9_0 \t\r\n#(){},:;=!&|/->$\u00e9\u00b2\u0663", max_size=30))
def test_tokens_and_positions_match_a_line_counting_reference(text):
    try:
        expected = reference_tokens(text)
    except ParseError as e:
        with pytest.raises(ParseError) as exc:
            tokenize(text)
        assert str(exc.value) == str(e)
        return
    tokens = tokenize(text)
    assert [(token_kind(t), t, *position(text, i)) for i, t in enumerate(tokens)] == expected


CORPUS_SOURCES = ([corpus_source(spec[0]) for spec in _SPECS.values()]
                  + [corpus_source(path) for path in _STRAWMEN.values()])
TOKEN = re.compile(r"\w+|\S")


@st.composite
def corpus_mutants(draw):
    """A corpus source after one to three deletions, insertions or swaps of
    characters or tokens."""
    text = draw(st.sampled_from(CORPUS_SOURCES))
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            spans = [(i, i + 1) for i in range(len(text))]
        else:
            spans = [m.span() for m in TOKEN.finditer(text)]
        if not spans:
            break
        (a0, a1), (b0, b1) = sorted((draw(st.sampled_from(spans)), draw(st.sampled_from(spans))))
        op = draw(st.sampled_from(("delete", "insert", "swap")))
        if op == "delete":
            text = text[:a0] + text[a1:]
        elif op == "insert":
            piece = draw(st.sampled_from((text[b0:b1] + " ", *"(){},:=!&|/#\n0sxEé²٣")))
            text = text[:a0] + piece + text[a0:]
        elif a1 <= b0:
            text = text[:a0] + text[b0:b1] + text[a1:b0] + text[a0:a1] + text[b1:]
    return text


@settings(max_examples=300, deadline=None)
@given(corpus_mutants())
def test_mutated_corpus_sources_fail_cleanly_or_roundtrip(text):
    # every DynqfError is a one-line error with exit code 2 on the CLI
    try:
        program = parse_program(text)
    except DynqfError:
        return
    assert parse_program(print_program(program)) == program
