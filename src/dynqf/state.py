"""Finite program states, input modifications, restriction and isomorphism."""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import DomainError, DynqfError, NotClosedError, SchemaError
from .schema import Role, Schema


@dataclass(frozen=True)
class State:
    """A structure: finite domain plus interpretations of every schema symbol.

    Domains are contiguous 0..n-1 so that deterministic search orders are
    reproducible.  All interpretations are total; instances are immutable and
    hash structurally.  The canonical sorted key behind hashing and equality
    is built on first use, so a state that is only read costs no sorting.
    """

    schema: Schema
    domain: tuple[int, ...]
    relations: dict[str, frozenset[tuple[int, ...]]]
    functions: dict[str, dict[tuple[int, ...], int]]
    constants: dict[str, int]
    _key: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_key", None)

    def _canonical(self) -> tuple:
        if self._key is None:
            object.__setattr__(self, "_key", (
                self.domain,
                tuple(sorted((n, tuple(sorted(ts))) for n, ts in self.relations.items())),
                tuple(sorted((n, tuple(sorted(m.items()))) for n, m in self.functions.items())),
                tuple(sorted(self.constants.items())),
            ))
        return self._key

    def __hash__(self):
        return hash(self._canonical())

    def __eq__(self, other):
        return (isinstance(other, State) and self.schema == other.schema
                and self._canonical() == other._canonical())

    @property
    def n(self) -> int:
        return len(self.domain)

    def rel(self, name: str) -> frozenset[tuple[int, ...]]:
        return self.relations[name]

    def fun(self, name: str) -> dict[tuple[int, ...], int]:
        return self.functions[name]

    def const(self, name: str) -> int:
        return self.constants[name]

    def query_value(self, symbol: str):
        """Value of a 0-ary query symbol as a bool, else the relation itself."""
        r = self.relations[symbol]
        if self.schema.arity(symbol) == 0:
            return () in r
        return r

    def input_part(self) -> "State":
        """The state restricted to input relations plus constants."""
        sub = self.schema.input_only()
        return State(
            sub,
            self.domain,
            {n: self.relations[n] for n in sub.relations},
            {},
            dict(self.constants),
        )


def validate_state(s: State) -> None:
    dom = set(s.domain)
    if list(s.domain) != list(range(len(s.domain))):
        raise DomainError("domain must be contiguous 0..n-1")
    if set(s.relations) != set(s.schema.relations):
        raise SchemaError("relation interpretations do not match schema")
    if set(s.functions) != set(s.schema.functions):
        raise SchemaError("function interpretations do not match schema")
    if set(s.constants) != set(s.schema.constants):
        raise SchemaError("constant interpretations do not match schema")
    for name, tuples in s.relations.items():
        ar = s.schema.arity(name)
        for t in tuples:
            if len(t) != ar:
                raise SchemaError(f"tuple {t} has wrong arity for {name!r}")
            if any(e not in dom for e in t):
                raise DomainError(f"tuple {t} of {name!r} leaves the domain")
    for name, table in s.functions.items():
        ar = s.schema.arity(name)
        expect = len(s.domain) ** ar
        if len(table) != expect:
            raise SchemaError(f"function {name!r} is not total ({len(table)} of {expect} entries)")
        for args, val in table.items():
            if len(args) != ar or any(e not in dom for e in args) or val not in dom:
                raise DomainError(f"function {name!r} entry {args}->{val} leaves the domain")
    for name, val in s.constants.items():
        if val not in dom:
            raise DomainError(f"constant {name!r} = {val} leaves the domain")


def make_state(
    schema: Schema,
    n: int,
    relations: Mapping[str, Iterable[tuple[int, ...]]] | None = None,
    functions: Mapping[str, Mapping[tuple[int, ...], int]] | None = None,
    constants: Mapping[str, int] | None = None,
    check: bool = True,
) -> State:
    """Build a state over domain 0..n-1; unnamed relations default to empty.

    Unnamed k-ary functions default to projection onto the first argument
    (0-ary ones to element 0), the same canonical choice empty initialization
    uses.
    """
    rels = {name: frozenset(map(tuple, (relations or {}).get(name, ()))) for name in schema.relations}
    funs: dict[str, dict[tuple[int, ...], int]] = {}
    for name, ar in schema.functions.items():
        if functions is not None and name in functions:
            funs[name] = dict(functions[name])
        else:
            funs[name] = default_function(n, ar)
    consts = dict(constants or {})
    missing = set(schema.constants) - set(consts)
    if missing:
        raise SchemaError(f"missing constant interpretations: {sorted(missing)}")
    s = State(schema, tuple(range(n)), rels, funs, consts)
    if check:
        validate_state(s)
    return s


def default_function(n: int, arity: int) -> dict[tuple[int, ...], int]:
    """Projection onto the first argument; least element for arity 0."""
    if arity == 0:
        return {(): 0}
    return {args: args[0] for args in itertools.product(range(n), repeat=arity)}


# -- modifications ------------------------------------------------------------

INS = "ins"
DEL = "del"


@dataclass(frozen=True, order=True)
class Modification:
    """Insert or delete one concrete tuple of an input relation.

    Field order gives the canonical ordering used for deterministic
    enumeration and lexicographic tie-breaks: by relation, then tuple,
    then kind ("del" before "ins", plain string order).
    """

    relation: str
    tuple: tuple[int, ...]
    kind: str  # INS | DEL

    def __post_init__(self):
        if self.kind not in (INS, DEL):
            raise DynqfError(f"bad modification kind {self.kind!r}")

    def __str__(self):
        args = ",".join(map(str, self.tuple))
        return f"{self.kind} {self.relation}({args})"


def ins(relation: str, *elements: int) -> Modification:
    return Modification(relation, tuple(elements), INS)


def delete(relation: str, *elements: int) -> Modification:
    return Modification(relation, tuple(elements), DEL)


def check_modification(schema: Schema, domain_size: int, m: Modification) -> None:
    if m.relation not in schema.relations:
        raise SchemaError(f"unknown relation {m.relation!r}")
    if schema.role(m.relation) is not Role.INPUT:
        raise SchemaError(f"{m.relation!r} is not an input relation")
    if len(m.tuple) != schema.arity(m.relation):
        raise SchemaError(f"arity mismatch for {m.relation!r}: {m.tuple}")
    if any(e < 0 or e >= domain_size for e in m.tuple):
        raise DomainError(f"tuple {m.tuple} outside domain of size {domain_size}")


def is_honest(s: State, m: Modification) -> bool:
    """Insertion of an absent tuple, or deletion of a present one."""
    present = m.tuple in s.relations[m.relation]
    return not present if m.kind == INS else present


def apply_input_modification(s: State, m: Modification) -> State:
    """Apply one modification to the input relation; everything else unchanged."""
    check_modification(s.schema, s.n, m)
    old = s.relations[m.relation]
    new = old | {m.tuple} if m.kind == INS else old - {m.tuple}
    rels = dict(s.relations)
    rels[m.relation] = new
    return State(s.schema, s.domain, rels, s.functions, s.constants)


# -- restriction and isomorphism ----------------------------------------------

def restrict(s: State, subset: Iterable[int], relations_only: bool = False) -> State:
    """The substructure induced by `subset` (which must contain all constants).

    Function interpretations are restricted as well; a function value escaping
    the subset raises NotClosedError unless relations_only is set, in which
    case function symbols are dropped from the result.
    """
    sub = sorted(set(subset))
    if any(e not in set(s.domain) for e in sub):
        raise DomainError("subset leaves the domain")
    for name, val in s.constants.items():
        if val not in sub:
            raise DomainError(f"subset misses constant {name!r} = {val}")
    # relabel to a contiguous 0..m-1 domain, preserving element order
    index = {e: i for i, e in enumerate(sub)}
    rels = {
        name: frozenset(tuple(index[e] for e in t) for t in tuples if all(e in index for e in t))
        for name, tuples in s.relations.items()
    }
    consts = {name: index[val] for name, val in s.constants.items()}
    if relations_only:
        sch = s.schema
        if sch.functions:
            sch = Schema(dict(sch.relations), {}, sch.constants,
                         {n: r for n, r in sch.roles.items() if n in sch.relations})
        return State(sch, tuple(range(len(sub))), rels, {}, consts)
    funs: dict[str, dict[tuple[int, ...], int]] = {}
    for name, table in s.functions.items():
        new_table = {}
        for args in itertools.product(sub, repeat=s.schema.arity(name)):
            val = table[args]
            if val not in index:
                raise NotClosedError(f"{name}{args} = {val} escapes the subset")
            new_table[tuple(index[e] for e in args)] = index[val]
        funs[name] = new_table
    return State(s.schema, tuple(range(len(sub))), rels, funs, consts)


def check_isomorphism(s: State, t: State, pi: Mapping[int, int]) -> bool:
    """Is `pi` an isomorphism s -> t?

    Preserves every relation in both directions, maps constants to constants,
    and commutes with every function symbol.  Raises on schema mismatch or a
    non-bijective map.
    """
    if s.schema != t.schema:
        raise SchemaError("states do not share a schema")
    if set(pi) != set(s.domain) or sorted(pi.values()) != sorted(t.domain):
        raise DynqfError("pi is not a bijection between the two domains")
    for name, val in s.constants.items():
        if pi[val] != t.constants[name]:
            return False
    for name, tuples in s.relations.items():
        mapped = {tuple(pi[e] for e in tup) for tup in tuples}
        if mapped != set(t.relations[name]):
            return False
    for name, table in s.functions.items():
        other = t.functions[name]
        for args, val in table.items():
            if other[tuple(pi[e] for e in args)] != pi[val]:
                return False
    return True


def transport(s: State, pi: Mapping[int, int]) -> State:
    """The image of `s` under a permutation of its domain."""
    if sorted(pi) != list(s.domain) or sorted(pi.values()) != list(s.domain):
        raise DynqfError("pi is not a permutation of the domain")
    rels = {name: frozenset(tuple(pi[e] for e in t) for t in tuples)
            for name, tuples in s.relations.items()}
    funs = {name: {tuple(pi[e] for e in args): pi[val] for args, val in table.items()}
            for name, table in s.functions.items()}
    consts = {name: pi[val] for name, val in s.constants.items()}
    return State(s.schema, s.domain, rels, funs, consts)
