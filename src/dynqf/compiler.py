"""Compilation of update programs to plain Python for the hot paths.

The reference semantics lives in formulas.eval_formula / program._reference_apply;
this module compiles one code object per (program, kind, trigger), once per
program, and is cross-checked against the reference by the test suite.  The
code names n, the constants and the built-ins (`_n`, `_C_s`, `_B_Le`, ...);
a LeanContext executes it in an environment that binds them to those of one
state layout (see state.py).  Each applier is planned like a delta query
over the old state:
  - simplify while interning: `t = t` folds to true, and true and false are
    carried through Not, And, Or and Ite;
  - hoist: a compound subformula or term over the trigger parameters alone
    is computed once per call, in a local shared by all rules of the
    applier, when it is a rule body, a part of two different nodes of the
    rule bodies, or read as a part of a node that reads a variable.  Parents
    are recorded from the interned bodies before planning, so a node that
    planning builds to try a rewrite and drops changes no source;
  - a relational rule body goes to DNF, its trigger-only parts and negations
    opaque, and a disjunct holding !(l1 & ... & lk) and every li is dropped;
  - union: a rule's Δ, or a set G below, is a union of disjuncts, each with
    its bindings `x = t` to a trigger term substituted and its guard, the
    And of its trigger-only literals, tested first; disjuncts with equal
    other literals are one, under the Or of their guards.  Guards are nodes,
    so true and false fold and a false one drops its disjunct.  Then `x = t`
    binds x (putting t in place of x when t is a trigger term or a
    variable), a positive aux atom generates, other variables scan the
    domain, and the remaining literals filter once their variables are bound;
  - frame: a disjunct R(x̄) for the target R, alone or under trigger-only
    guards, makes the result R ∪ Δ while a guard holds.  Δ is built only
    while some disjunct's wake holds, its guard and what its other literals
    imply of the trigger alone (the literal if trigger-only, And and Or of
    that of its parts), and a lone wake is not tested again.  An unchanged
    relation stays the old frozenset object.  A filter L | g beside R(x̄),
    g trigger-only, splits the disjunct into R(x̄) & g, a guarded frame, and
    R(x̄) & L & !g, so that R is scanned only while g is false.  With no
    such frame, a disjunct R(x̄) & !G, where each disjunct of G binds all
    of x̄, makes the result (R − G) ∪ Δ, G planned like a delta query into a
    set of its tuples once per applier.  Such a G, or a Δ beside an
    unguarded frame, that is one trigger tuple t is a membership test on t,
    without a set, and on the old R the test is the local of R(t) when that
    atom is hoisted.  Other filters stay in the loops;
  - past _DNF_CAP disjuncts, a scan of the domain tests the whole body;
  - a tuple of trigger terms is hoisted like a compound term, and the
    trigger parameters in order are `_m` itself; `not` of a hoisted local is
    written at its uses; a scan that adds the scanned tuple unchanged adds
    it, `_t`, itself.
In the hot loops a state travels as its payload alone, the flat tuple of
relations and then function vectors that a State holds and the appliers read
and return; `to_lean` takes it out of a State and `from_lean` wraps it in one.
"""
from __future__ import annotations

import linecache
from typing import Mapping, Sequence

from .formulas import (And, App, Const, Eq, FalseConst, Ite, Not, Or, RelAtom,
                       TrueConst, Var, children)
from .schema import Role
from .state import DEL, INS, Layout, Modification, State, flatten, layout_of, payload_order

LeanState = tuple  # a State's payload: rel frozensets, then fun value vectors


class LeanContext:
    """The compiled appliers of one program on the states of one layout."""

    def __init__(self, program, layout: Layout):
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
        return s.payload

    def from_lean(self, lean: LeanState) -> State:
        return State(self.layout, lean)

    # -- operations on payloads --------------------------------------------------

    def apply(self, lean: LeanState, m: Modification) -> LeanState:
        return self._appliers[(m.kind, m.relation)](lean, m.tuple)

    def query(self, lean: LeanState) -> bool:
        return () in lean[self.query_index]


# -- code generation ----------------------------------------------------------------

_TRUE_REL = frozenset({()})
_EMPTY_REL = frozenset()
_DNF_CAP = 16  # disjuncts per relational rule; past it, the rule scans the domain
_LEAVES = (Var, Const, TrueConst, FalseConst)
_BOOLS = (TrueConst, FalseConst)
_HOIST = -1  # in _Planner.parents: hoist this node
_OR, _AND, _NOT, _CMP, _ATOM = range(5)  # precedence of generated expressions


def _applier_code(program, kind: str, trigger: str):
    """The code object defining `_applier` for (kind, trigger), compiled once
    per program, on the program; its source is registered with linecache."""
    codes = program._compiled
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


def _tup(items: Sequence[str]) -> str:
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
        # id of a trigger-only compound node of the rule bodies -> the id of its
        # one trigger-only parent there, or _HOIST once it also has another
        # parent or is a rule body; and _HOIST for any such node once it is
        # read as a part of a node that reads a variable
        self.parents: dict[int, int] = {}
        self.code: dict[int, str] = {}  # hoisted node id -> its local
        self.pre: list[str] = []        # the hoisted assignments
        self.tuples: dict[str, str] = {}  # code of a tuple of trigger terms -> its local
        self.lines: list[str] = []      # the rules
        self.sets: dict[int, str] = {}  # node id -> the local holding its tuples
        self.alias: dict[str, str] = {}  # variable -> its item of the scanned tuple `_t`

    # -- analysis and expressions ----------------------------------------------------

    def _intern(self, node, rename: Mapping[str, str]) -> _Node:
        """The one node of this applier equal to node, its variables renamed."""
        kind = type(node)
        if kind is Var:
            return self._node(kind, rename[node.name])
        kids = tuple([self._intern(k, rename) for k in children(node)])
        return self._node(kind, node._label and getattr(node, node._label), kids)

    def _node(self, kind, name=None, kids=()) -> _Node:
        """The one node of this applier for (kind, name, kids), with `t = t`
        folded to true and true and false carried through Not, And, Or, Ite."""
        if kind is Eq and kids[0] is kids[1]:
            return self._node(TrueConst)
        if kind is Not and kids[0].kind in _BOOLS:
            return self._node(FalseConst if kids[0].kind is TrueConst else TrueConst)
        if kind is And or kind is Or:
            unit = TrueConst if kind is And else FalseConst
            for a, b in (kids, kids[::-1]):
                if a.kind is unit:
                    return b
                if a.kind in _BOOLS:  # the other constant absorbs
                    return a
        if kind is Ite and kids[0].kind in _BOOLS:
            return kids[1] if kids[0].kind is TrueConst else kids[2]
        key = (kind, name, *[k.id for k in kids])
        n = self.nodes.get(key)
        if n is None:
            n = self.nodes[key] = _Node()
            n.id, n.kind, n.name, n.kids, n.fv = len(self.nodes), kind, name, kids, None
            n.trig = name in self.mvars if kind is Var else all([k.trig for k in kids])
        return n

    def _record_parents(self, node: _Node, seen: set[int]) -> None:
        """Record the parent of each trigger-only compound part of node, a
        rule body, and of its parts, visiting each node once."""
        if node.id in seen:
            return
        seen.add(node.id)
        for k in node.kids:
            if k.trig and k.kind not in _LEAVES:
                parent = node.id if node.trig else _HOIST
                if self.parents.setdefault(k.id, parent) != parent:
                    self.parents[k.id] = _HOIST
            self._record_parents(k, seen)

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
        expr = self._expr if node.trig else self._part
        if kind is Not:
            return "not " + expr(kids[0], _NOT), _NOT
        if kind is And or kind is Or:
            prec, op = (_AND, " and ") if kind is And else (_OR, " or ")
            return expr(kids[0], prec) + op + expr(kids[1], prec), prec
        args = [expr(k, _ATOM) for k in kids]
        builtin = name is not None and self.schema.role(name) is Role.BUILTIN
        if kind is App:
            idx = args[0] if args else "0"
            for a in args[1:]:
                idx = "(" + idx + ")*_n+" + a
            return ("_G_" if builtin else "_F_") + name + "[" + idx + "]", _ATOM
        if kind is RelAtom:
            op = " not in " if negate else " in "
            return self._tuple(args, node.trig) + op + ("_B_" if builtin else "_R_") + name, _CMP
        if kind is Eq:
            return args[0] + (" != " if negate else " == ") + args[1], _CMP
        return "(%s if %s else %s)" % (args[1], args[0], args[2]), _ATOM  # Ite

    def _hoists(self, node: _Node) -> bool:
        """Is node trigger-only and compound, and a rule body, a part of two
        different nodes of the bodies, or read as a part of a node that
        reads a variable?"""
        return self.parents.get(node.id) == _HOIST

    def _expr(self, node: _Node, prec: int = _OR) -> str:
        """Code for node, or the local that it is hoisted to, parenthesized
        if it binds looser than prec.  `not` of a local is not hoisted again."""
        if node.id in self.code:
            return self.code[node.id]
        code, own = self._render(node)
        if self._hoists(node) and not (node.kind is Not and self._hoists(node.kids[0])):
            code, own = self._hoist(code), _ATOM
            self.code[node.id] = code
        return code if own >= prec else "(" + code + ")"

    def _part(self, node: _Node, prec: int = _ATOM) -> str:
        """Code for node as a part of a node that reads a variable, and so
        is computed once per tuple: a trigger-only compound node is hoisted."""
        if node.trig and node.kind not in _LEAVES:
            self.parents[node.id] = _HOIST
        return self._expr(node, prec)

    def _hoist(self, code: str) -> str:
        """A new local holding code, computed before the rules."""
        local = "_h%d" % len(self.pre)
        self.pre.append("    " + local + " = " + code)
        return local

    def _tuple(self, items: list[str], trig: bool = True) -> str:
        """Code for a tuple of the code items: `_m` or `_t` when they are the
        trigger parameters or the items of the scanned tuple in order, and
        for other trigger terms one local per distinct tuple."""
        if items == list(self.mvars):
            return "_m"
        if self.alias and items == list(self.alias.values()):
            return "_t"
        code = _tup(items)
        if not (trig and items):
            return code
        local = self.tuples.get(code)
        if local is None:
            local = self.tuples[code] = self._hoist(code)
        return local

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
        out = left + right if kind is Or else [a + b for a in left for b in right
                                               if not self._contradicts(a + b)]
        return out if len(out) <= _DNF_CAP else None

    def _holds(self, f: _Node, lits: list[_Node]) -> bool:
        """Is f one of the literals, or a conjunction of them?"""
        return f in lits or (f.kind is And and all([self._holds(k, lits) for k in f.kids]))

    def _contradicts(self, lits: list[_Node]) -> bool:
        """Do the literals include some !(l1 & ... & lk) together with every
        li?  Nodes are interned, so each test is one of identity."""
        return any(lit.kind is Not and self._holds(lit.kids[0], lits) for lit in lits)

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

    def _disjunct(self, guard: _Node, rest: list[_Node], tvars: tuple[str, ...], ind: str = "    ",
                  out: str = "_s") -> None:
        """Add to the set `out` the tuples satisfying the guard and the other
        literals: test the guard, then bind, generate or scan until every
        variable is bound, filtering as soon as a literal's variables are bound."""
        conds = [] if guard.kind is TrueConst else [self._expr(guard, _AND)]  # for the next `if`
        bound, free, temps = set(self.mvars), list(tvars), 0
        subst: dict[str, _Node] = {}  # variable -> the trigger term or variable it equals
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
                if term.trig or term.kind is Var:
                    subst[var] = term
                    rest = [self._renamed(lit, subst) for lit in rest]
                else:
                    ind = self._if(ind, conds)
                    self.lines.append(ind + var + " = " + self._expr(term))
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
                        conds.append("_k%d == %s" % (temps, self._part(a)))
                        temps += 1
                if targets == list(tvars):  # the scanned tuple is the one to add
                    self.alias = {v: "_t[%d]" % j for j, v in enumerate(tvars)}
                loop = "_t" if self.alias else _tup(targets)
                self.lines.append(ind + "for " + loop + " in _R_" + gen.name + ":")
            ind += "    "
        ind = self._if(ind, conds)
        trig = all([v in subst and subst[v].trig for v in tvars])
        read = self._expr if trig else self._part
        items = [read(subst[v], _ATOM) if v in subst else self.alias.get(v, v) for v in tvars]
        self.lines.append(ind + out + ".add(" + self._tuple(items, trig) + ")")
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

    def _negated_set(self, lit: _Node, tvars: tuple[str, ...]) -> bool:
        """Is lit = !G, where each disjunct of G binds all of tvars?"""
        if lit.trig or lit.kind is not Not:
            return False
        dnf = self._dnf(lit.kids[0])
        return dnf is not None and all([set(tvars) <= self._bind(d)[1].keys() for d in dnf])

    def _renamed(self, node: _Node, names: Mapping[str, _Node]) -> _Node:
        if node.trig or not (node.kids or node.kind is Var):
            return node
        if node.kind is Var:
            return names.get(node.name, node)
        return self._node(node.kind, node.name, tuple([self._renamed(k, names) for k in node.kids]))

    def _set(self, gamma: _Node, tvars: tuple[str, ...]) -> str:
        """The local holding the tuples over tvars that satisfy gamma, planned
        like a delta query once per applier."""
        local = self.sets.get(gamma.id)
        if local is None:
            local = self.sets[gamma.id] = "_g%d" % len(self.sets)
            self.lines.append("    %s = set()" % local)
            for guard, lits, _ in self._union(self._dnf(gamma)):
                self._disjunct(guard, lits, tvars, out=local)
        return local

    def _join(self, kind, nodes: list[_Node]) -> _Node:
        """The And (or Or) of the distinct nodes: true (false) if none."""
        out = self._node(TrueConst if kind is And else FalseConst)
        for node in dict.fromkeys(nodes):
            out = self._node(kind, None, (out, node))
        return out

    def _guard(self, lits: list[_Node]) -> _Node:
        """The conjunction of the trigger-only literals."""
        return self._join(And, [lit for lit in lits if lit.trig])

    def _need(self, f: _Node) -> _Node:
        """What f implies of the trigger alone: f itself when f is
        trigger-only, And and Or of that of its parts, and else true."""
        if f.trig or not (f.kind is And or f.kind is Or):
            return f if f.trig else self._node(TrueConst)
        return self._node(f.kind, None, (self._need(f.kids[0]), self._need(f.kids[1])))

    def _union(self, disjuncts: list[list[_Node]]) -> list[tuple[_Node, list[_Node], _Node]]:
        """The disjuncts as (guard, other literals, wake), bindings x = t
        substituted, merged and dropped as the module docstring says."""
        merged: dict[tuple, list] = {}
        for d in disjuncts:
            lits = self._bind(d)[0]
            rest = list(dict.fromkeys([lit for lit in lits if not lit.trig]))
            entry = merged.setdefault(tuple(rest), [self._node(FalseConst), rest])
            entry[0] = self._join(Or, [entry[0], self._guard(d + lits)])
        entries = [(g, rest, self._join(And, [g] + [self._need(lit) for lit in rest])) for g, rest in merged.values()]
        return [e for e in entries if e[2].kind is not FalseConst]

    def _relation(self, target: str, tvars: tuple[str, ...], body: _Node) -> None:
        new, old, lines = "_N_" + target, "_R_" + target, self.lines
        if not tvars:
            lines.append("    %s = _T_ if %s else _E_" % (new, self._expr(body)))
            return
        disjuncts = self._dnf(body)
        if disjuncts is None:  # past the cap, the body is one literal: the domain is scanned
            disjuncts = [[body]]
        # frame: R(x̄) under trigger-only guards keeps R when one of them holds
        guards, delta, minus = [], [], False
        for d in disjuncts:
            rest, f = [lit for lit in d if not lit.trig], self._beside(d, target, tvars)
            g = f and f.kind is Or and next((k for k in f.kids if k.trig), None)
            if g:  # R(x̄) & (L | g), g trigger-only, is R(x̄) & g or R(x̄) & L & !g
                d = [lit for lit in d if lit is not f]
                lhs = f.kids[1] if f.kids[0] is g else f.kids[0]
                not_g = g.kids[0] if g.kind is Not else self._node(Not, None, (g,))
                guards.append(self._guard(d + [g]))
                delta.append(d + [lhs, not_g])
            elif len(rest) == 1 and rest[0].is_atom(target, tvars):
                guards.append(self._guard(d))
            else:
                delta.append(d)
        for d in [] if guards else delta:  # R(x̄) & !G, each disjunct of G binding x̄, keeps R − G
            f = self._beside(d, target, tvars)
            if f and self._negated_set(f, tvars):
                delta.remove(d)
                guards.append(self._guard(d))
                lines.append("    %s = %s" % (new, self._minus(target, f, tvars) or old))
                minus = True
                break
        base = new if minus else old
        union = "%s if _s <= %s else %s | _s" % (base, base, base)
        fresh = "%s if _s == %s else frozenset(_s)" % (old, old)
        frame = self._join(Or, guards)
        if frame.kind is TrueConst:
            with_s, without_s = union, base
        elif frame.kind is FalseConst:
            with_s, without_s = fresh, "_E_"
        else:
            keep = self._expr(frame)
            with_s, without_s = "(%s) if %s else (%s)" % (union, keep, fresh), base + " if " + keep + " else _E_"
        delta = self._union(delta)
        wake = self._join(Or, [w for _, _, w in delta])
        one = frame.kind is TrueConst and len(delta) == 1 and self._one_tuple(delta[0], tvars, target, not minus, False)
        if one:  # Δ is one trigger tuple: a membership test, and no set
            tup, test = one
            lines.append("    %s = %s | {%s} if %s else %s" % (new, base, tup, test, base))
            return
        if wake.kind is not TrueConst and not (minus and frame.kind is TrueConst):
            lines.append("    %s = %s" % (new, without_s))  # the result unless Δ is built
        if delta:  # Δ is built only when some disjunct's wake holds
            ind = "    "
            if wake.kind is not TrueConst:
                lines.append("    if %s:" % self._expr(wake))
                ind = "        "
            lines.append(ind + "_s = set()")
            for guard, lits, w in delta:  # the wake is not tested again
                self._disjunct(self._node(TrueConst) if w is wake else guard, lits, tvars, ind)
            lines.append("%s%s = %s" % (ind, new, with_s))

    def _beside(self, d: list[_Node], target: str, tvars: tuple[str, ...]):
        """The literal beside R(x̄), the target's old value, when these two are
        the literals of the disjunct d that are not trigger-only; else None."""
        rest = [lit for lit in d if not lit.trig]
        if len(rest) == 2:
            for atom, lit in (rest, rest[::-1]):
                if atom.is_atom(target, tvars):
                    return lit
        return None

    def _minus(self, target: str, lit: _Node, tvars: tuple[str, ...]) -> str | None:
        """Code for the old target relation less G, for lit = !G where each
        disjunct of G binds all of tvars: one trigger tuple is removed after a
        membership test, and any other G is planned into a set.  None when
        every disjunct of G is dropped, so nothing is subtracted."""
        base = "_R_" + target
        gamma = self._union(self._dnf(lit.kids[0]))
        if not gamma:
            return None
        one = len(gamma) == 1 and self._one_tuple(gamma[0], tvars, target, True, True)
        if one:
            tup, test = one
            return "%s - {%s} if %s else %s" % (base, tup, test, base)
        local = self._set(lit.kids[0], tvars)
        return "%s - %s if %s and not %s.isdisjoint(%s) else %s" % (base, local, local, base, local, base)

    def _bind(self, lits: list[_Node]) -> tuple[list[_Node], dict[str, _Node]]:
        """The literals with each variable that an equation x = t binds to a
        trigger term t replaced by t in the others, those made true dropped,
        and those variables with their terms.  The equations themselves stay,
        and bindings chain: once x is replaced, y = u(x) binds y."""
        done, terms, bound = set(), {}, set(self.mvars)
        while True:
            for lit in lits:
                binding = lit.kind is Eq and lit not in done and self._binding(lit, bound)
                if binding:
                    break
            else:
                return [lit for lit in lits if lit.kind is not TrueConst], terms
            done.add(lit)
            terms[binding[1]] = binding[2]
            lits = [k if k is lit else self._renamed(k, {binding[1]: binding[2]}) for k in lits]

    def _one_tuple(self, entry: tuple, tvars: tuple[str, ...], target: str, old: bool, present: bool):
        """When the rest of a `_union` entry only binds every variable of
        tvars to a trigger term: code for the tuple, and for the guard and the
        test that the tuple is (present) or is not in the old (or new) target
        relation, where on the old one the local of a hoisted atom R(t̄) is
        the test.  None otherwise."""
        guard, lits, _ = entry
        terms = self._bind(lits)[1]
        if terms.keys() != set(tvars) or len(lits) > len(terms):
            return None
        test = "" if guard.kind is TrueConst else self._expr(guard, _AND) + " and "
        terms = tuple([terms[v] for v in tvars])
        tup = self._tuple([self._expr(t, _ATOM) for t in terms])
        atom = self._node(RelAtom, target, terms)
        if old and self._hoists(atom):
            return tup, test + ("" if present else "not ") + self._expr(atom, _NOT)
        return tup, test + tup + (" in " if present else " not in ") + ("_R_" if old else "_N_") + target

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
        rules, seen = [], set()
        for target in sch.aux_symbols:
            rule = self.program.rule(target, self.kind, trigger)
            tvars = tuple("t%d" % j for j in range(sch.arity(target)))
            body = self._intern(rule.body, dict(zip(rule.params + rule.target_params, mvars + tvars)))
            if body.trig and body.kind not in _LEAVES:
                self.parents[body.id] = _HOIST
            self._record_parents(body, seen)
            rules.append((target, tvars, body))
        for target, tvars, body in rules:
            if target in sch.relations:
                self._relation(target, tvars, body)
            else:
                self._function(target, tvars, body)
        rels, funs = payload_order(sch)
        payload = _tup(["_R_" + n for n in rels] + ["_F_" + n for n in funs])
        head = ["def _applier(_state, _m):", "    %s = _state" % payload]
        if mvars:
            head.append("    %s = _m" % _tup(list(mvars)))
        old = "_R_" + trigger
        update = (old + " if _m in " + old + " else " + old + " | {_m}" if self.kind == INS
                  else old + " - {_m} if _m in " + old + " else " + old)
        head.append("    _N_" + trigger + " = " + update)
        new = ["_N_" + n if sch.role(n) is Role.AUX or n == trigger else "_R_" + n for n in rels]
        tail = ["    return " + _tup(new + ["_NF_" + n for n in funs])]
        return "\n".join(head + self.pre + self.lines + tail) + "\n"


def lean_context(program, n: int, constants: Mapping[str, int],
                 builtin_rels: Mapping[str, frozenset], builtin_funs: Mapping[str, Mapping]) -> LeanContext:
    """The context of program on its states over 0..n-1 with these constants
    and built-in interpretations."""
    return _context(program, layout_of(program.schema, n, constants, builtin_rels, builtin_funs))


def context_for_state(program, s: State) -> LeanContext:
    return _context(program, s.layout)


def _context(program, lay: Layout) -> LeanContext:
    contexts = program._compiled  # by layout, beside the code objects
    ctx = contexts.get(lay)
    if ctx is None:
        ctx = contexts[lay] = LeanContext(program, lay)
    return ctx
