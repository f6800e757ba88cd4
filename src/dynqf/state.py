"""Finite program states, input modifications and permutation images.

A `State` is a layout plus a payload.  The layout is what every state of one
shape shares: the schema, the domain 0..n-1, the constants, the built-in
interpretations and the order of the payload's symbols.  Equal layouts are
one object.  The payload is what modifications change, one flat tuple: the
input and aux relations as frozensets, then the aux functions as value
vectors in mixed-radix argument order, each in layout order.  The compiled
appliers read and return payloads directly.  `relations` and `functions`
are dicts over every symbol, derived from it; both are built only when
read, and `rel` reads one relation without building `relations`.
`make_state` builds a state from dicts.
"""
from __future__ import annotations

import itertools
import weakref
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, DynqfError, SchemaError
from .records import Frozen, Record, setfield
from .schema import Role, Schema


def payload_order(schema: Schema) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The symbols of a payload: the relations that are not built-in, then
    the aux functions, each sorted by name."""
    return (tuple(name for name in sorted(schema.relations) if schema.role(name) is not Role.BUILTIN),
            tuple(name for name in sorted(schema.functions) if schema.role(name) is Role.AUX))


def flatten(table: Mapping[tuple, int], n: int, arity: int) -> tuple:
    """A function table as its value vector, arguments in mixed-radix order."""
    return tuple(table[args] for args in itertools.product(range(n), repeat=arity))


def unflatten(vec: tuple, n: int, arity: int) -> dict:
    return dict(zip(itertools.product(range(n), repeat=arity), vec))


class Layout:
    """What the states of one shape share.  Built by `layout_of` only."""

    __slots__ = ("schema", "n", "domain", "constants", "builtin_rels", "builtin_funs",
                 "rel_names", "fun_names", "rel_index", "_input", "__weakref__")

    def __init__(self, schema: Schema, n: int, constants: Mapping[str, int],
                 builtin_rels: Mapping[str, frozenset], builtin_funs: Mapping[str, dict]):
        self.schema, self.n, self.domain = schema, n, tuple(range(n))
        self.constants = dict(constants)
        self.builtin_rels = dict(builtin_rels)
        self.builtin_funs = dict(builtin_funs)
        self.rel_names, self.fun_names = payload_order(schema)
        self.rel_index = {name: i for i, name in enumerate(self.rel_names)}
        self._input = None  # (layout of the input part, the function selecting its relations)

    def input_state(self, payload: tuple) -> "State":
        """The input part of the state of this layout with this payload."""
        if self._input is None:
            sch = self.schema
            positions = [i for i, name in enumerate(self.rel_names) if sch.role(name) is Role.INPUT]
            if len(positions) > 1:
                select = itemgetter(*positions)
            else:  # an itemgetter of one position returns the relation, not a tuple
                select = (lambda pl, i=positions[0]: (pl[i],)) if positions else (lambda pl: ())
            self._input = (layout_of(sch.input_only(), self.n, self.constants, {}, {}), select)
        lay, select = self._input
        return State(lay, select(payload))


_LAYOUTS: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


def layout_of(schema: Schema, n: int, constants: Mapping[str, int],
              builtin_rels: Mapping[str, frozenset], builtin_funs: Mapping[str, dict]) -> Layout:
    """The one layout with these parts; built-in functions are total tables."""
    key = (schema, n, frozenset(constants.items()), frozenset(builtin_rels.items()),
           frozenset((name, flatten(t, n, schema.arity(name))) for name, t in builtin_funs.items()))
    lay = _LAYOUTS.get(key)
    if lay is None:
        lay = _LAYOUTS[key] = Layout(schema, n, constants, builtin_rels, builtin_funs)
    return lay


class State(Record):
    """A structure: finite domain plus interpretations of every schema symbol.

    Domains are contiguous 0..n-1 so that deterministic search orders are
    reproducible.  All interpretations are total.  States are never changed
    after construction; they compare and hash by layout and payload.
    """

    __slots__ = ("layout", "payload", "schema", "domain", "constants", "_relations", "_functions")
    _fields = ("layout", "payload")

    def __init__(self, layout: Layout, payload: tuple):
        self.layout, self.payload = layout, payload
        self.__post_init__()

    def __post_init__(self):
        """The fields derived from the layout; a method of its own, which
        tools may wrap to count and time state construction."""
        lay = self.layout
        self.schema, self.domain, self.constants = lay.schema, lay.domain, lay.constants
        self._relations = self._functions = None

    def __hash__(self):
        return hash((self.layout, self.payload))

    def __eq__(self, other):
        return (isinstance(other, State) and self.layout is other.layout
                and self.payload == other.payload)

    @property
    def relations(self) -> dict[str, frozenset[tuple[int, ...]]]:
        if self._relations is None:
            lay = self.layout
            self._relations = dict(zip(lay.rel_names, self.payload), **lay.builtin_rels)
        return self._relations

    @property
    def functions(self) -> dict[str, dict[tuple[int, ...], int]]:
        if self._functions is None:
            lay = self.layout
            self._functions = {name: unflatten(vec, lay.n, self.schema.arity(name))
                               for name, vec in zip(lay.fun_names, self.payload[len(lay.rel_names):])}
            self._functions.update(lay.builtin_funs)
        return self._functions

    @property
    def n(self) -> int:
        return self.layout.n

    def rel(self, name: str) -> frozenset[tuple[int, ...]]:
        """The relation `name`, input, aux or built-in; a KeyError for any
        other name."""
        i = self.layout.rel_index.get(name)
        return self.layout.builtin_rels[name] if i is None else self.payload[i]

    def fun(self, name: str) -> dict[tuple[int, ...], int]:
        return self.functions[name]

    def query_value(self, symbol: str) -> bool:
        """The value of a 0-ary relation, such as a program's query symbol."""
        return () in self.rel(symbol)

    def input_part(self) -> "State":
        """The state restricted to input relations plus constants."""
        return self.layout.input_state(self.payload)


# The largest domain a state may have, and the largest function table, that
# of a binary function over it: tests, demos and the benchmark use at most 300
# elements, and a k-ary function table has n^k entries, so anything larger is
# an input error, not a job.
MAX_DOMAIN = 1000
MAX_TABLE = MAX_DOMAIN ** 2


def check_domain_size(n: int) -> None:
    """A DomainError when a domain of n elements is negative or exceeds MAX_DOMAIN."""
    if n < 0:
        raise DomainError(f"domain size must not be negative, got {n}")
    if n > MAX_DOMAIN:
        raise DomainError(f"domain of size {n} exceeds the limit of {MAX_DOMAIN} elements")


def check_table_size(name: str, n: int, arity: int) -> None:
    """A DomainError when the table of `name` over n elements would exceed MAX_TABLE entries."""
    if n ** arity > MAX_TABLE:
        raise DomainError(f"function {name!r} of arity {arity} over a domain of size {n} has "
                          f"{n ** arity} entries, above the limit of {MAX_TABLE}")


def _validate(schema: Schema, n: int, relations: Mapping[str, frozenset],
              functions: Mapping[str, Mapping], constants: Mapping[str, int]) -> None:
    dom = set(range(n))
    if set(constants) != set(schema.constants):
        raise SchemaError("constant interpretations do not match schema")
    for name, tuples in relations.items():
        ar = schema.arity(name)
        for t in tuples:
            if len(t) != ar:
                raise SchemaError(f"tuple {t} has wrong arity for {name!r}")
            if any(e not in dom for e in t):
                raise DomainError(f"tuple {t} of {name!r} leaves the domain")
    for name, table in functions.items():
        ar = schema.arity(name)
        expect = n ** ar
        if len(table) != expect:
            raise SchemaError(f"function {name!r} is not total ({len(table)} of {expect} entries)")
        for args, val in table.items():
            if len(args) != ar or any(e not in dom for e in args) or val not in dom:
                raise DomainError(f"function {name!r} entry {args}->{val} leaves the domain")
    for name, val in constants.items():
        if val not in dom:
            raise DomainError(f"constant {name!r} = {val} leaves the domain")


def make_state(
    schema: Schema,
    n: int,
    relations: Mapping[str, Iterable[tuple[int, ...]]] | None = None,
    functions: Mapping[str, Mapping[tuple[int, ...], int]] | None = None,
    constants: Mapping[str, int] | None = None,
) -> State:
    """Build a state over domain 0..n-1; unnamed relations default to empty.

    Unnamed k-ary functions default to projection onto the first argument
    (0-ary ones to element 0), the same canonical choice empty initialization
    uses.  A domain above MAX_DOMAIN, or a function table above MAX_TABLE
    entries, is a DomainError, raised before anything of that size is built.
    """
    check_domain_size(n)
    for name, ar in schema.functions.items():
        check_table_size(name, n, ar)
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
    _validate(schema, n, rels, funs, consts)
    builtin = {name for name, role in schema.roles.items() if role is Role.BUILTIN}
    lay = layout_of(schema, n, consts, {k: v for k, v in rels.items() if k in builtin},
                    {k: v for k, v in funs.items() if k in builtin})
    return State(lay, (*[rels[name] for name in lay.rel_names],
                       *[flatten(funs[name], n, schema.arity(name)) for name in lay.fun_names]))


def default_function(n: int, arity: int) -> dict[tuple[int, ...], int]:
    """Projection onto the first argument; least element for arity 0."""
    if arity == 0:
        return {(): 0}
    return {args: args[0] for args in itertools.product(range(n), repeat=arity)}


# -- modifications ------------------------------------------------------------

INS = "ins"
DEL = "del"


class Modification(Frozen):
    """Insert or delete one concrete tuple of an input relation.

    Field order gives the canonical ordering used for deterministic
    enumeration and lexicographic tie-breaks: by relation, then tuple,
    then kind ("del" before "ins", plain string order).  Numbering a run's
    moves looks modifications up in a dict and searches sort them, so the
    comparisons are written out.
    """

    __slots__ = ("relation", "tuple", "kind")

    def __init__(self, relation: str, tuple: tuple[int, ...], kind: str):  # INS | DEL
        if kind not in (INS, DEL):
            raise DynqfError(f"bad modification kind {kind!r}")
        setfield(self, "relation", relation)
        setfield(self, "tuple", tuple)
        setfield(self, "kind", kind)

    def _values(self) -> tuple:
        return (self.relation, self.tuple, self.kind)

    def __hash__(self):
        return hash((self.relation, self.tuple, self.kind))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.relation, self.tuple, self.kind) == (other.relation, other.tuple, other.kind)
        return NotImplemented

    def __lt__(self, other):
        return self._values() < other._values() if other.__class__ is self.__class__ else NotImplemented

    def __le__(self, other):
        return self._values() <= other._values() if other.__class__ is self.__class__ else NotImplemented

    def __gt__(self, other):
        return self._values() > other._values() if other.__class__ is self.__class__ else NotImplemented

    def __ge__(self, other):
        return self._values() >= other._values() if other.__class__ is self.__class__ else NotImplemented

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
    present = m.tuple in s.rel(m.relation)
    return not present if m.kind == INS else present


def remap_index(p: Sequence[int], arity: int) -> list[int]:
    """Entry i is the mixed-radix index of the image under the permutation p
    of 0..n-1 of the i-th argument tuple of that arity."""
    n, index = len(p), [0]
    for _ in range(arity):
        index = [j * n + e for j in index for e in p]
    return index


def image_vector(vec: tuple, p: Sequence[int], arity: int) -> tuple:
    """The value vector of a function's image under the permutation p of
    0..n-1: the value at the i-th argument tuple, mapped by p, belongs at the
    index of that tuple's image."""
    out = [0] * len(vec)
    for j, v in zip(remap_index(p, arity), vec):
        out[j] = p[v]
    return tuple(out)


def transport(s: State, pi: Mapping[int, int]) -> State:
    """The image of `s` under a permutation of its domain."""
    if sorted(pi) != list(s.domain) or sorted(pi.values()) != list(s.domain):
        raise DynqfError("pi is not a permutation of the domain")
    lay, p = s.layout, [pi[e] for e in s.domain]

    def image(tuples):
        return frozenset([tuple([p[e] for e in t]) for t in tuples])

    sch = s.schema
    image_lay = layout_of(sch, lay.n, {name: p[v] for name, v in lay.constants.items()},
                          {name: image(r) for name, r in lay.builtin_rels.items()},
                          {name: {tuple([p[e] for e in args]): p[v] for args, v in table.items()}
                           for name, table in lay.builtin_funs.items()})
    funs = [image_vector(v, p, sch.arity(f)) for f, v in zip(lay.fun_names, s.payload[len(lay.rel_names):])]
    return State(image_lay, (*[image(r) for r in s.payload[:len(lay.rel_names)]], *funs))
