"""Quantifier-free formula and update-term ASTs, evaluation, and measures.

The formula class is quantifier-free by construction: there simply are no
quantifier nodes.  Terms include a conditional (ite) whose condition is again
a quantifier-free formula.
"""
from __future__ import annotations

import itertools
from operator import attrgetter, is_
from typing import Iterator, Mapping, Sequence

from .errors import EvalError, ResourceLimitError, SchemaError
from .records import Frozen, setfield
from .schema import Schema
from .state import State


# -- AST -----------------------------------------------------------------------

_LABELS = ("name", "symbol")  # fields that name a node rather than hold a part of it


class Node(Frozen):
    """A term or formula.  Its parts are in the fields other than `name` and
    `symbol`: one part per field, or, in a class whose only such field is
    `args` (after `symbol`), the tuple of parts there.  `children` and
    `rebuild` read them, so a walk over rule bodies needs no case per class."""

    __slots__ = ()
    _label: str | None = None  # the field that names the node, if any
    _args = False              # the parts are the tuple `args`
    _parts = staticmethod(lambda node: ())  # node -> its parts, as a tuple

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._label = next((name for name in cls._fields if name in _LABELS), None)
        fields = [name for name in cls._fields if name not in _LABELS]
        cls._args = fields == ["args"]
        if cls._args:
            cls._parts = staticmethod(attrgetter("args"))
        elif len(fields) == 1:
            cls._parts = staticmethod(lambda node, get=attrgetter(fields[0]): (get(node),))
        elif fields:
            cls._parts = staticmethod(attrgetter(*fields))


class Term(Node):
    __slots__ = ()


class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        setfield(self, "name", name)


class Const(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        setfield(self, "name", name)


class App(Term):
    __slots__ = ("symbol", "args")

    def __init__(self, symbol: str, args: tuple[Term, ...]):
        setfield(self, "symbol", symbol)
        setfield(self, "args", args)


class Ite(Term):
    __slots__ = ("cond", "then", "other")

    def __init__(self, cond: "Formula", then: Term, other: Term):
        setfield(self, "cond", cond)
        setfield(self, "then", then)
        setfield(self, "other", other)


class Formula(Node):
    __slots__ = ()


class TrueConst(Formula):
    __slots__ = ()


class FalseConst(Formula):
    __slots__ = ()


class RelAtom(Formula):
    __slots__ = ("symbol", "args")

    def __init__(self, symbol: str, args: tuple[Term, ...]):
        setfield(self, "symbol", symbol)
        setfield(self, "args", args)


class Eq(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        setfield(self, "left", left)
        setfield(self, "right", right)


class Not(Formula):
    __slots__ = ("sub",)

    def __init__(self, sub: Formula):
        setfield(self, "sub", sub)


class And(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        setfield(self, "left", left)
        setfield(self, "right", right)


class Or(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        setfield(self, "left", left)
        setfield(self, "right", right)


TRUE = TrueConst()
FALSE = FalseConst()


def atom(symbol: str, *args: Term | str) -> RelAtom:
    return RelAtom(symbol, tuple(Var(a) if isinstance(a, str) else a for a in args))


def eq(left: Term | str, right: Term | str) -> Eq:
    wrap = lambda t: Var(t) if isinstance(t, str) else t
    return Eq(wrap(left), wrap(right))


# -- evaluation (reference semantics) -------------------------------------------

def eval_term(t: Term, s: State, asg: Mapping[str, int]) -> int:
    if isinstance(t, Var):
        try:
            return asg[t.name]
        except KeyError:
            raise EvalError(f"unbound variable {t.name!r}") from None
    if isinstance(t, Const):
        try:
            return s.constants[t.name]
        except KeyError:
            raise EvalError(f"unknown constant {t.name!r}") from None
    if isinstance(t, App):
        if t.symbol not in s.functions:
            raise EvalError(f"unknown function {t.symbol!r}")
        args = tuple(eval_term(a, s, asg) for a in t.args)
        return s.functions[t.symbol][args]
    if isinstance(t, Ite):
        # only the chosen branch is evaluated
        if eval_formula(t.cond, s, asg):
            return eval_term(t.then, s, asg)
        return eval_term(t.other, s, asg)
    raise EvalError(f"not a term: {t!r}")


def eval_formula(f: Formula, s: State, asg: Mapping[str, int]) -> bool:
    if isinstance(f, TrueConst):
        return True
    if isinstance(f, FalseConst):
        return False
    if isinstance(f, RelAtom):
        if f.symbol not in s.relations:
            raise EvalError(f"unknown relation {f.symbol!r}")
        if len(f.args) != s.schema.arity(f.symbol):
            raise SchemaError(f"arity mismatch in atom {f.symbol!r}")
        return tuple(eval_term(a, s, asg) for a in f.args) in s.relations[f.symbol]
    if isinstance(f, Eq):
        return eval_term(f.left, s, asg) == eval_term(f.right, s, asg)
    if isinstance(f, Not):
        return not eval_formula(f.sub, s, asg)
    if isinstance(f, And):
        return eval_formula(f.left, s, asg) and eval_formula(f.right, s, asg)
    if isinstance(f, Or):
        return eval_formula(f.left, s, asg) or eval_formula(f.right, s, asg)
    raise EvalError(f"not a formula: {f!r}")


# -- walks ----------------------------------------------------------------------

def children(node) -> tuple:
    """The direct parts of node, in field order."""
    if not isinstance(node, Node):
        raise EvalError(f"not a term or formula: {node!r}")
    return node._parts(node)


def rebuild(node, fn):
    """node with each direct part k replaced by fn(k); node itself when each
    fn(k) is k, as for a leaf."""
    old = children(node)
    new = [fn(k) for k in old]
    if all(map(is_, new, old)):
        return node
    if node._args:
        return node.__class__(node.symbol, tuple(new))
    return node.__class__(*new)


def walk(node) -> Iterator:
    """node and its parts, theirs and so on, depth first in field order."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(children(n)))


def vars_and_symbols(node) -> tuple[set[str], set[str]]:
    """The variable names in node, and the relation and function symbols, in one walk."""
    names, symbols = set(), set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, Var):
            names.add(n.name)
        elif isinstance(n, (RelAtom, App)):
            symbols.add(n.symbol)
        stack.extend(children(n))
    return names, symbols


def rel_atoms(node) -> list[RelAtom]:
    return [n for n in walk(node) if isinstance(n, RelAtom)]


def symbols_used(node) -> set[str]:
    return {n.symbol for n in walk(node) if isinstance(n, (RelAtom, App))}


def subst(node, mapping: Mapping[str, Term]):
    """Replace free variables by terms, structurally."""
    if isinstance(node, Var):
        return mapping.get(node.name, node)
    return rebuild(node, lambda k: subst(k, mapping))


def map_atoms(node, fn):
    """node with each relational atom a replaced by fn(a), inside terms too
    (an ite condition holds atoms); an atom's arguments are mapped first."""
    out = rebuild(node, lambda k: map_atoms(k, fn))
    return fn(out) if isinstance(out, RelAtom) else out


# -- measures and classifiers ----------------------------------------------------

def nesting_depth(node) -> int:
    """Function-application nesting: variables and constants are 0, an
    application is one more than its deepest argument, and any other node
    is its deepest part."""
    depth = max([nesting_depth(k) for k in children(node)], default=0)
    return depth + 1 if isinstance(node, App) else depth


def repeats_var(a: RelAtom) -> bool:
    """Does some variable occur twice among the atom's arguments?"""
    names = [t.name for t in a.args if isinstance(t, Var)]
    return len(names) != len(set(names))


class SyntaxFlags(Frozen):
    __slots__ = ("negation_free", "conjunctive", "repeated_vars_in_atom")

    def __init__(self, negation_free: bool, conjunctive: bool, repeated_vars_in_atom: bool):
        self._set_fields(negation_free, conjunctive, repeated_vars_in_atom)


def _is_literal(f: Formula) -> bool:
    if isinstance(f, Not):
        f = f.sub
    return isinstance(f, (RelAtom, Eq, TrueConst, FalseConst))


def _is_conjunctive(f: Formula) -> bool:
    if isinstance(f, And):
        return _is_conjunctive(f.left) and _is_conjunctive(f.right)
    return _is_literal(f)


def classify_syntax(f: Formula) -> SyntaxFlags:
    negation_free = not any(isinstance(n, Not) for n in walk(f))
    repeated = any(repeats_var(a) for a in rel_atoms(f))
    return SyntaxFlags(negation_free, _is_conjunctive(f), repeated)


# -- equality types ---------------------------------------------------------------

class EqualityType(Frozen):
    """A partition of positions 0..n-1; blocks sorted, ordered by least member."""

    __slots__ = ("size", "blocks")

    def __init__(self, size: int, blocks: tuple[tuple[int, ...], ...]):
        if sorted(p for b in blocks for p in b) != list(range(size)):
            raise EvalError("blocks do not partition the positions")
        self._set_fields(size, blocks)

    @staticmethod
    def from_key(items: Sequence) -> "EqualityType":
        """The partition of positions induced by equality of the items."""
        groups: dict[object, list[int]] = {}
        for i, item in enumerate(items):
            groups.setdefault(item, []).append(i)
        blocks = tuple(sorted((tuple(sorted(g)) for g in groups.values()), key=lambda b: b[0]))
        return EqualityType(len(items), blocks)

    def representative(self, position: int) -> int:
        for b in self.blocks:
            if position in b:
                return b[0]
        raise EvalError(f"position {position} outside partition")

    def __str__(self):
        return "{" + ", ".join("{" + ",".join(str(p + 1) for p in b) + "}" for b in self.blocks) + "}"


# -- plain-term enumeration ---------------------------------------------------------

def _term_sort_key(t: Term, var_order: dict[str, int]):
    if isinstance(t, Var):
        return (0, var_order[t.name])
    if isinstance(t, Const):
        return (1, t.name)
    if isinstance(t, App):
        return (2, t.symbol, tuple(_term_sort_key(a, var_order) for a in t.args))
    raise EvalError(f"not a plain term: {t!r}")


def count_terms_up_to_depth(schema: Schema, k: int, num_vars: int) -> int:
    """How many plain terms of nesting depth <= k exist, without building them."""
    base = num_vars + len(schema.constants)
    upto = [base]
    for d in range(1, k + 1):
        prev = upto[d - 1]
        before = upto[d - 2] if d >= 2 else 0
        exact = 0
        for ar in schema.functions.values():
            if ar == 0:
                exact += 1 if d == 1 else 0
            else:
                exact += prev ** ar - before ** ar
        upto.append(upto[d - 1] + exact)
    return upto[k]


def terms_up_to_depth(
    schema: Schema,
    k: int,
    vars: Sequence[str],
    cap: int = 20000,
) -> list[Term]:
    """All plain terms (no ite) of nesting depth <= k over the given variables
    and the schema's constant and function symbols, in the canonical order:
    by depth, then lexicographically by symbol name and argument order.
    """
    total = count_terms_up_to_depth(schema, k, len(vars))
    if total > cap:
        raise ResourceLimitError(f"term enumeration exceeds cap {cap}", total)
    var_order = {name: i for i, name in enumerate(vars)}
    level: list[list[Term]] = []
    base: list[Term] = [Var(v) for v in vars] + [Const(c) for c in sorted(schema.constants)]
    level.append(base)
    for d in range(1, k + 1):
        upto_prev = [t for lvl in level for t in lvl]
        prev_exact = set(level[d - 1])
        exact: list[Term] = []
        for name in sorted(schema.functions):
            ar = schema.functions[name]
            if ar == 0:
                if d == 1:
                    exact.append(App(name, ()))
                continue
            for args in itertools.product(upto_prev, repeat=ar):
                if any(a in prev_exact for a in args):
                    exact.append(App(name, tuple(args)))
        exact.sort(key=lambda t: _term_sort_key(t, var_order))
        level.append(exact)
    out: list[Term] = []
    for lvl in level:
        out.extend(sorted(lvl, key=lambda t: _term_sort_key(t, var_order)))
    return out
