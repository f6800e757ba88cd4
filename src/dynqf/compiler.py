"""Compilation of update programs to plain Python for the hot paths.

The reference semantics lives in formulas.eval_formula / program._reference_apply;
this module compiles one code object per (program, kind, trigger), once per
program, and is cross-checked against the reference by the test suite.  The
code names n, the constants and the built-ins (`_n`, `_C_s`, `_B_Le`, ...);
a LeanContext executes it in an environment that binds them to those of one
state layout (see state.py).  Each applier is planned like a delta query
over the old state:
  - hoist: a compound subformula or term over the trigger parameters alone
    is computed once per call, in a local shared by all rules of the applier;
  - a relational rule body goes to DNF, its trigger-only parts and negations
    opaque; in each disjunct, trigger-only literals guard, `x = t` binds x,
    a positive aux atom generates, other variables scan the domain, and the
    remaining literals filter as soon as their variables are bound;
  - frame: a disjunct R(x̄) for the target R makes the result R ∪ Δ, and an
    unchanged relation stays the old frozenset object;
  - past _DNF_CAP disjuncts, a scan of the domain tests the whole body.
In the hot loops a state travels as its payload alone, the lean pair
(rels, funs) that the appliers read and return; `to_lean` and `from_lean`
take it out of a State and wrap it in one.
"""
from __future__ import annotations

import linecache
import weakref
from typing import Mapping

from .errors import DynqfError
from .formulas import (And, App, Const, Eq, FalseConst, Ite, Not, Or, RelAtom,
                       TrueConst, Var)
from .schema import Role
from .state import DEL, INS, Layout, Modification, State, flatten, layout_of, payload_order

LeanState = tuple[tuple, tuple]  # (rel frozensets, fun value vectors)


class LeanContext:
    """The compiled appliers of one program on the states of one layout."""

    def __init__(self, program, layout: Layout):
        self.program = program
        self.layout = layout
        self.rel_index = layout.rel_index
        self.query_index = layout.rel_index[program.query_symbol]
        sch = program.schema
        env = {"_dom": layout.domain, "_n": layout.n, "_T_": _TRUE_REL, "_E_": _EMPTY_REL}
        env.update((f"_C_{name}", v) for name, v in layout.constants.items())
        env.update((f"_B_{name}", rel) for name, rel in layout.builtin_rels.items())
        env.update((f"_G_{name}", flatten(table, layout.n, sch.arity(name)))
                   for name, table in layout.builtin_funs.items())
        self._appliers = {}
        for trigger in sch.input_relations:
            for kind in (INS, DEL):
                exec(_applier_code(program, kind, trigger), env)
                self._appliers[(kind, trigger)] = env.pop("_applier")

    # -- states and their payloads ------------------------------------------------

    def to_lean(self, s: State) -> LeanState:
        return s.rels, s.funs

    def from_lean(self, lean: LeanState) -> State:
        return State(self.layout, *lean)

    def input_state(self, lean: LeanState) -> State:
        """The input part of a lean state; equal to from_lean(lean).input_part()."""
        return self.layout.input_state(lean[0])

    # -- operations on lean states ----------------------------------------------

    def apply(self, lean: LeanState, m: Modification) -> LeanState:
        return self._appliers[(m.kind, m.relation)](lean, m.tuple)

    def query(self, lean: LeanState) -> bool:
        return () in lean[0][self.query_index]

    def is_honest(self, lean: LeanState, m: Modification) -> bool:
        """Insertion of an absent tuple, or deletion of a present one."""
        present = m.tuple in lean[0][self.rel_index[m.relation]]
        return not present if m.kind == INS else present


# -- code generation ----------------------------------------------------------------

_TRUE_REL = frozenset({()})
_EMPTY_REL = frozenset()
_DNF_CAP = 16  # disjuncts per relational rule; past it, the rule scans the domain
_CODE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_LEAVES = (Var, Const, TrueConst, FalseConst)
_HOIST = -1  # in _Planner.parents: hoist this node
_OR, _AND, _NOT, _CMP, _ATOM = range(5)  # precedence of generated expressions


def _applier_code(program, kind: str, trigger: str):
    """The code object defining `_applier` for (kind, trigger), compiled once
    per program; its source is registered with linecache for tracebacks."""
    codes = _CODE_CACHE.setdefault(program, {})
    code = codes.get((kind, trigger))
    if code is None:
        src = _Planner(program, kind, trigger).source()
        filename = _register_source("<applier %s:%s %s>" % (program.name, kind, trigger), src)
        code = codes[(kind, trigger)] = compile(src, filename, "exec")
    return code


def _register_source(filename: str, src: str) -> str:
    """Put src in linecache under filename, numbered apart from another source."""
    lines = src.splitlines(True)
    name, k = filename, 1
    while name in linecache.cache and linecache.cache[name][2] != lines:
        k += 1
        name = "%s #%d>" % (filename[:-1], k)
    linecache.cache[name] = (len(src), None, lines, name)
    return name


def _tup(items: list[str]) -> str:
    """A tuple display of the code items."""
    return "(" + items[0] + ",)" if len(items) == 1 else "(" + ", ".join(items) + ")"


class _Node:
    """A rule-body node with its variables renamed; equal subtrees of one
    applier are one node.  `name` is the variable, constant or symbol name,
    and `trig` says that the node reads no variable but the trigger parameters."""

    __slots__ = ("id", "kind", "name", "kids", "trig", "fv")

    def is_atom(self, symbol: str, tvars: tuple[str, ...]) -> bool:
        """Is this node symbol(tvars), the target's own old value?"""
        return (self.name == symbol and self.kind in (RelAtom, App)
                and tuple(k.name if k.kind is Var else None for k in self.kids) == tvars)


class _Planner:
    """Source of the applier for all aux rules of a program under (kind, trigger).

    Rule variables are renamed apart, to m<i> for the modified tuple and t<j>
    for the updated one.  A node is trigger-only (`trig`) when it reads no
    variable but the m<i>.
    """

    def __init__(self, program, kind: str, trigger: str):
        self.program = program
        self.schema = program.schema
        self.kind = kind
        self.trigger = trigger
        self.mvars = tuple("m%d" % i for i in range(self.schema.arity(trigger)))
        self.nodes: dict[tuple, _Node] = {}  # (kind, name, kid ids) -> node
        # id of a trigger-only compound node -> the id of its one trigger-only
        # parent, or _HOIST once it also has another parent or is a rule root
        self.parents: dict[int, int] = {}
        self.code: dict[int, tuple[str, int]] = {}  # trigger-only node id -> code or local, precedence
        self.alias: dict[str, str] = {}  # variable -> the name it is bound to, in one disjunct
        self.pre: list[str] = []        # the hoisted assignments
        self.lines: list[str] = []      # the rules

    # -- analysis and expressions ----------------------------------------------------

    def _intern(self, node, rename: Mapping[str, str]) -> _Node:
        """The one node of this applier equal to node, its variables renamed."""
        kind, name, kids = type(node), None, ()
        if kind is And or kind is Or or kind is Eq:
            kids = (self._intern(node.left, rename), self._intern(node.right, rename))
        elif kind is Not:
            kids = (self._intern(node.sub, rename),)
        elif kind is RelAtom or kind is App:
            name, kids = node.symbol, tuple([self._intern(a, rename) for a in node.args])
        elif kind is Ite:
            kids = (self._intern(node.cond, rename), self._intern(node.then, rename),
                    self._intern(node.other, rename))
        elif kind is Var:
            name = rename[node.name]
        elif kind is Const:
            name = node.name
        elif kind is not TrueConst and kind is not FalseConst:
            raise DynqfError("cannot compile %r" % (node,))
        key = (kind, name, *[k.id for k in kids])
        n = self.nodes.get(key)
        if n is None:
            n = self.nodes[key] = _Node()
            n.id, n.kind, n.name, n.kids, n.fv = len(self.nodes), kind, name, kids, None
            n.trig = name in self.mvars if kind is Var else all([k.trig for k in kids])
            for k in kids:
                if k.trig and k.kind not in _LEAVES:
                    self._parent(k.id, n.id if n.trig else _HOIST)
        return n

    def _parent(self, nid: int, parent: int) -> None:
        if self.parents.setdefault(nid, parent) != parent:
            self.parents[nid] = _HOIST

    def _free(self, node: _Node) -> set[str]:
        """The variables of node that are not trigger parameters."""
        if node.fv is None:
            node.fv = ({node.name} if node.kind is Var
                       else set().union(*[self._free(k) for k in node.kids if not k.trig]))
        return node.fv

    def _bound(self, node: _Node, bound: set) -> bool:
        return node.trig or self._free(node) <= bound

    def _render(self, node: _Node, negate: bool = False) -> tuple[str, int]:
        """Code for node and its precedence, parenthesized only where needed."""
        kind, name, kids = node.kind, node.name, node.kids
        if kind is Not and kids[0].kind in (Eq, RelAtom) and not self._hoists(kids[0]):
            return self._render(kids[0], negate=True)
        if kind is Var:
            return self.alias.get(name, name), _ATOM
        if kind is Const:
            return "_C_" + name, _ATOM
        if kind is TrueConst or kind is FalseConst:
            return str(kind is TrueConst), _ATOM
        if kind is Not:
            return "not " + self._expr(kids[0], _NOT), _NOT
        if kind is And or kind is Or:
            prec, op = (_AND, " and ") if kind is And else (_OR, " or ")
            return self._expr(kids[0], prec) + op + self._expr(kids[1], prec), prec
        args = [self._expr(k, _ATOM) for k in kids]
        builtin = name is not None and self.schema.role(name) is Role.BUILTIN
        if kind is App:
            idx = args[0] if args else "0"
            for a in args[1:]:
                idx = "(" + idx + ")*_n+" + a
            return ("_G_" if builtin else "_F_") + name + "[" + idx + "]", _ATOM
        if kind is RelAtom:
            op = " not in " if negate else " in "
            return _tup(args) + op + ("_B_" if builtin else "_R_") + name, _CMP
        if kind is Eq:
            return args[0] + (" != " if negate else " == ") + args[1], _CMP
        return "(%s if %s else %s)" % (args[1], args[0], args[2]), _ATOM  # Ite

    def _hoists(self, node: _Node) -> bool:
        """Is node trigger-only and a literal of its rule, or shared by two
        different parents?"""
        return self.parents.get(node.id) == _HOIST

    def _expr(self, node: _Node, prec: int = _OR) -> str:
        """Code for node, or the local that it is hoisted to, parenthesized
        if it binds looser than prec."""
        entry = self.code.get(node.id) if node.trig else self._render(node)
        if entry is None:
            entry = self._render(node)
            if self._hoists(node):
                local = "_h%d" % len(self.pre)
                self.pre.append("    " + local + " = " + entry[0])
                entry = (local, _ATOM)
            self.code[node.id] = entry
        code, own = entry
        return code if own >= prec else "(" + code + ")"

    # -- planning ------------------------------------------------------------------------

    def _dnf(self, f: _Node) -> list[list[_Node]] | None:
        """The disjuncts of f, lists of opaque literals; None past _DNF_CAP."""
        kind = f.kind
        if kind is TrueConst:
            return [[]]
        if kind is FalseConst:
            return []
        if f.trig or not (kind is And or (kind is Or and self._drives(f))):
            return [[f]]
        left, right = self._dnf(f.kids[0]), self._dnf(f.kids[1])
        if left is None or right is None:
            return None
        out = left + right if kind is Or else [a + b for a in left for b in right]
        return out if len(out) <= _DNF_CAP else None

    def _drives(self, f: _Node) -> bool:
        """Could a disjunct of f bind or generate a variable?  A disjunction
        that could not stays one filter."""
        if f.trig:
            return False
        if f.kind is And or f.kind is Or:
            return self._drives(f.kids[0]) or self._drives(f.kids[1])
        if f.kind is Eq or (f.kind is RelAtom and self.schema.role(f.name) is Role.AUX):
            return any(k.kind is Var and not k.trig for k in f.kids)
        return False

    def _disjunct(self, lits: list[_Node], tvars: tuple[str, ...]) -> None:
        """Add to `_s` the tuples satisfying a conjunction of literals: guard,
        then bind, generate or scan until every variable is bound, filtering
        as soon as a literal's variables are bound."""
        conds = [self._expr(lit, _AND) for lit in lits if lit.trig]  # for the next `if`
        rest = [lit for lit in lits if not lit.trig]
        bound, free, ind, temps = set(self.mvars), list(tvars), "    ", 0
        while True:
            waiting = []
            for lit in rest:
                if self._bound(lit, bound):
                    conds.append(self._expr(lit, _AND))
                else:
                    waiting.append(lit)
            rest = waiting
            if not free:
                break
            binding = gen = None
            for lit in rest:
                if lit.kind is Eq:
                    binding = self._binding(lit, bound)
                    if binding:
                        break
                elif gen is None and self._generates(lit, bound):
                    gen = lit
            if binding:
                lit, var, term = binding
                rest.remove(lit)
                bound.add(var)
                free.remove(var)
                code = self._expr(term)
                if code.isidentifier():
                    self.alias[var] = code
                else:
                    ind = self._if(ind, conds)
                    self.lines.append(ind + var + " = " + code)
                continue
            ind = self._if(ind, conds)
            if gen is None:
                var = free.pop(0)
                self.lines.append(ind + "for " + var + " in _dom:")
                bound.add(var)
            else:
                rest.remove(gen)
                targets = []
                for a in gen.kids:
                    if a.kind is Var and a.name not in bound:
                        targets.append(a.name)
                        bound.add(a.name)
                        free.remove(a.name)
                    else:
                        targets.append("_k%d" % temps)
                        conds.append("_k%d == %s" % (temps, self._expr(a, _ATOM)))
                        temps += 1
                self.lines.append(ind + "for " + _tup(targets) + " in _R_" + gen.name + ":")
            ind += "    "
        ind = self._if(ind, conds)
        self.lines.append(ind + "_s.add(" + _tup([self.alias.get(v, v) for v in tvars]) + ")")
        self.alias = {}

    def _if(self, ind: str, conds: list[str]) -> str:
        """Open one `if` for the pending conditions; the indent inside it."""
        if not conds:
            return ind
        self.lines.append(ind + "if " + " and ".join(conds) + ":")
        conds.clear()
        return ind + "    "

    def _binding(self, lit: _Node, bound: set):
        """(lit, x, t) when lit is `x = t` or `t = x`, x unbound and t bound."""
        left, right = lit.kids
        for var, term in ((left, right), (right, left)):
            if var.kind is Var and var.name not in bound and self._bound(term, bound):
                return lit, var.name, term
        return None

    def _generates(self, lit: _Node, bound: set) -> bool:
        """Can lit, a positive aux atom, enumerate an unbound variable?"""
        if lit.kind is not RelAtom or self.schema.role(lit.name) is not Role.AUX:
            return False
        return (any(a.kind is Var and a.name not in bound for a in lit.kids)
                and all(a.kind is Var or self._bound(a, bound) for a in lit.kids))

    # -- rules -------------------------------------------------------------------------

    def _relation(self, target: str, tvars: tuple[str, ...], body: _Node) -> None:
        new, old, lines = "_N_" + target, "_R_" + target, self.lines
        if not tvars:
            lines.append("    %s = _T_ if %s else _E_" % (new, self._expr(body)))
            return
        disjuncts = self._dnf(body)
        if disjuncts is None:  # past the cap, the body is one literal: the domain is scanned
            disjuncts = [[body]]
        frame = [d for d in disjuncts if len(d) == 1 and d[0].is_atom(target, tvars)]
        delta = [d for d in disjuncts if d not in frame]
        if frame and not delta:
            lines.append("    %s = %s" % (new, old))
            return
        lines.append("    _s = set()")
        for d in delta:
            self._disjunct(d, tvars)
        if frame:  # R ∪ Δ
            lines.append("    %s = %s if _s <= %s else %s | _s" % (new, old, old, old))
        else:
            lines.append("    %s = %s if _s == %s else frozenset(_s)" % (new, old, old))

    def _function(self, target: str, tvars: tuple[str, ...], body: _Node) -> None:
        new, lines = "_NF_" + target, self.lines
        if body.is_atom(target, tvars):
            lines.append("    %s = _F_%s" % (new, target))
        elif not tvars:
            lines.append("    %s = (%s,)" % (new, self._expr(body)))
        else:
            lines.append("    _l = []")
            for j, v in enumerate(tvars):
                lines.append("    " * (j + 1) + "for " + v + " in _dom:")
            lines.append("    " * (len(tvars) + 1) + "_l.append(" + self._expr(body) + ")")
            lines.append("    %s = tuple(_l)" % new)

    def source(self) -> str:
        sch, trigger, mvars = self.schema, self.trigger, self.mvars
        rules = []
        for target in sch.aux_symbols:
            rule = self.program.rule(target, self.kind, trigger)
            tvars = tuple("t%d" % j for j in range(sch.arity(target)))
            body = self._intern(rule.body, dict(zip(rule.params + rule.target_params, mvars + tvars)))
            if body.trig and body.kind not in _LEAVES:
                self.parents[body.id] = _HOIST
            rules.append((target, tvars, body))
        for target, tvars, body in rules:
            if target in sch.relations:
                self._relation(target, tvars, body)
            else:
                self._function(target, tvars, body)
        rels, funs = payload_order(sch)
        head = ["def _applier(_state, _m):", "    %s = _state[0]" % _tup(["_R_" + n for n in rels])]
        if funs:
            head.append("    %s = _state[1]" % _tup(["_F_" + n for n in funs]))
        if mvars:
            head.append("    %s = _m" % _tup(list(mvars)))
        old = "_R_" + trigger
        update = (old + " if _m in " + old + " else " + old + " | {_m}" if self.kind == INS
                  else old + " - {_m} if _m in " + old + " else " + old)
        head.append("    _N_" + trigger + " = " + update)
        new = _tup(["_N_" + n if sch.role(n) is Role.AUX or n == trigger else "_R_" + n for n in rels])
        tail = ["    return %s, %s" % (new, _tup(["_NF_" + n for n in funs]))]
        return "\n".join(head + self.pre + self.lines + tail) + "\n"


_CTX_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()  # program -> {layout: context}


def lean_context(program, n: int, constants: Mapping[str, int],
                 builtin_rels: Mapping[str, frozenset], builtin_funs: Mapping[str, Mapping]) -> LeanContext:
    """The context of program on its states over 0..n-1 with these constants
    and built-in interpretations."""
    lay = layout_of(program.schema, n, constants, builtin_rels, builtin_funs)
    contexts = _CTX_CACHE.setdefault(program, {})
    ctx = contexts.get(lay)
    if ctx is None:
        ctx = contexts[lay] = LeanContext(program, lay)
    return ctx


def context_for_state(program, s: State) -> LeanContext:
    ctx = _CTX_CACHE.get(program, {}).get(s.layout)
    if ctx is None:
        lay = s.layout
        ctx = lean_context(program, lay.n, lay.constants, lay.builtin_rels, lay.builtin_funs)
    return ctx
