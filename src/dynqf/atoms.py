"""Atomic types of tuples, homogeneous sets, and homogeneous-subset search."""
from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

from .errors import DomainError, DynqfError
from .records import Frozen
from .state import State

# A type term is a placeholder ("v", i) for position i of the tuple, or a
# constant symbol ("c", name).  Both sort deterministically.
TypeTerm = tuple[str, object]


def _terms_for(arity: int, state: State) -> list[TypeTerm]:
    terms: list[TypeTerm] = [("v", i) for i in range(arity)]
    terms += [("c", name) for name in sorted(state.constants)]
    return terms


class AtomicType(Frozen):
    """The set of atomic facts a tuple satisfies in a structure.

    Relation atoms range over placeholders x1..xk and constant symbols.
    Equality atoms record coincidences among placeholders and constants;
    they are stored with canonically ordered sides, which makes the type
    closed under symmetry of equality up to that normal form.
    """

    __slots__ = ("arity", "rel_atoms", "eq_atoms")

    def __init__(self, arity: int, rel_atoms: frozenset[tuple[str, tuple[TypeTerm, ...]]],
                 eq_atoms: frozenset[tuple[TypeTerm, TypeTerm]]):
        self._set_fields(arity, rel_atoms, eq_atoms)

    def holds_eq(self, a: TypeTerm, b: TypeTerm) -> bool:
        return a == b or (a, b) in self.eq_atoms or (b, a) in self.eq_atoms

    def __str__(self):
        def term(t):
            return f"x{t[1] + 1}" if t[0] == "v" else str(t[1])
        rels = sorted(f"{name}({','.join(term(t) for t in ts)})" for name, ts in self.rel_atoms)
        eqs = sorted(f"{term(a)}={term(b)}" for a, b in self.eq_atoms)
        return "{" + ", ".join(rels + eqs) + "}"


def atomic_type(s: State, tup: Sequence[int], sigma: Iterable[str] | None = None) -> AtomicType:
    """The sigma-type of `tup` in `s`.

    `sigma` restricts the relation symbols considered (default: all of them);
    constants are always available as atom arguments, and equality atoms are
    always recorded.
    """
    tup = tuple(tup)
    dom = set(s.domain)
    if any(e not in dom for e in tup):
        raise DomainError(f"tuple {tup} outside domain")
    symbols = sorted(sigma) if sigma is not None else sorted(s.relations)
    for name in symbols:
        if name not in s.relations:
            raise DynqfError(f"sigma contains unknown relation {name!r}")
    terms = _terms_for(len(tup), s)

    def value(t: TypeTerm) -> int:
        return tup[t[1]] if t[0] == "v" else s.constants[t[1]]

    rel_atoms = set()
    for name in symbols:
        ar = s.schema.arity(name)
        interp = s.relations[name]
        for args in itertools.product(terms, repeat=ar):
            if tuple(value(t) for t in args) in interp:
                rel_atoms.add((name, args))
    eq_atoms = set()
    for a, b in itertools.combinations(terms, 2):
        if value(a) == value(b):
            eq_atoms.add((min(a, b), max(a, b)))
    return AtomicType(len(tup), frozenset(rel_atoms), frozenset(eq_atoms))


def _one_type_per_length(s: State, tuples: Callable[[int], Iterable[tuple]], up_to_arity: int,
                         anchor: tuple = (), sigma: Iterable[str] | None = None) -> bool:
    """Do all tuples of `tuples(l)`, each extended by the anchor, share one
    atomic type, for every l <= up_to_arity?"""
    for l in range(1, up_to_arity + 1):
        types = (atomic_type(s, tup + anchor, sigma) for tup in tuples(l))
        first = next(types, None)
        if any(t != first for t in types):
            return False
    return True


def is_homogeneous(
    s: State,
    order: Sequence[int],
    subset: Iterable[int],
    up_to_arity: int,
    anchor: Sequence[int] = (),
    sigma: Iterable[str] | None = None,
) -> bool:
    """Do all order-respecting l-tuples over `subset` share one atomic type,
    for every l <= up_to_arity?

    With a non-empty `anchor`, each tuple is extended by the anchor before
    typing, which folds the anchor into the comparison.  Checking up to the
    maximal schema arity suffices for full homogeneity.
    """
    subset = set(subset)
    pos = {e: i for i, e in enumerate(order)}
    if not subset <= set(pos):
        raise DynqfError("order does not cover the subset")
    ordered = sorted(subset, key=pos.__getitem__)
    return _one_type_per_length(s, lambda l: itertools.combinations(ordered, l), up_to_arity,
                                tuple(anchor), sigma)


def find_homogeneous_subset(
    s: State,
    order: Sequence[int],
    n: int,
    anchor: Sequence[int] = (),
    sigma: Iterable[str] | None = None,
) -> set[int] | None:
    """Search for a size-n subset disjoint from `anchor` that is homogeneous
    (with the anchor folded into every type) up to the maximal schema arity.

    Bounded depth-first search with incremental type checking; returns the
    lexicographically least witness in the given order, or None.  This is a
    witness finder, not a bound computation: n larger than the domain simply
    yields None.
    """
    anchor = tuple(anchor)
    if n == 0:
        return set()
    candidates = [e for e in order if e not in anchor]
    if n > len(candidates):
        return None
    max_ar = max(s.schema.max_relation_arity(), 1)

    # reference[l] is the common type of ordered (l+anchor)-tuples, fixed by
    # the first tuple of that length that appears during the search.
    def extend(chosen: list[int], start: int, reference: dict[int, AtomicType]) -> list[int] | None:
        if len(chosen) == n:
            return chosen
        for idx in range(start, len(candidates)):
            e = candidates[idx]
            new_ref = dict(reference)
            ok = True
            # only tuples containing e are new; e is the largest chosen so far
            for l in range(1, min(len(chosen) + 1, max_ar) + 1):
                for prefix in itertools.combinations(chosen, l - 1):
                    t = atomic_type(s, prefix + (e,) + anchor, sigma)
                    if l not in new_ref:
                        new_ref[l] = t
                    elif t != new_ref[l]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                result = extend(chosen + [e], idx + 1, new_ref)
                if result is not None:
                    return result
        return None

    found = extend([], 0, {})
    return set(found) if found is not None else None


def diverse_tuples(elements: Iterable[int], arity: int):
    """All tuples over `elements` with pairwise distinct components."""
    return itertools.permutations(sorted(elements), arity)


def diverse_tuples_share_type(s: State, subset: Iterable[int], up_to_arity: int) -> bool:
    """Do all diverse l-tuples over `subset` share one atomic type, for every
    l <= up_to_arity?  The shape of state an invariant initialization must
    produce on inputs whose subset elements are pairwise swappable."""
    subset = sorted(set(subset))
    return _one_type_per_length(s, lambda l: diverse_tuples(subset, l), up_to_arity)
