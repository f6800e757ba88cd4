"""Canonical JSON forms for states, traces, verdicts and counterexamples.

All documents carry `"format": 1`.  States serialize with sorted tuple
lists, sorted function tables and sorted constants, so equal states have
byte-identical serializations; the trace digest is a sha256 over that form.
"""
from __future__ import annotations

import json
from typing import Sequence

from .errors import DynqfError
from .schema import Schema
from .state import Modification, State, make_state
from .verify import Counterexample, Verdict

FORMAT = 1


def state_to_dict(s: State) -> dict:
    return {
        "format": FORMAT,
        "domain": s.n,
        "relations": {name: sorted(map(list, tuples)) for name, tuples in sorted(s.relations.items())},
        "functions": {name: [[list(args), val] for args, val in sorted(table.items())]
                      for name, table in sorted(s.functions.items())},
        "constants": dict(sorted(s.constants.items())),
    }


def _ints(values, what: str) -> tuple:
    """`values` as a tuple; a DynqfError unless each is a plain int, not a
    bool or a float that JSON would carry as well."""
    values = tuple(values)
    if not all([type(x) is int for x in values]):
        raise DynqfError(f"{what} must be integers, got {list(values)!r}")
    return values


def state_from_dict(d: dict, schema: Schema) -> State:
    relations, functions = d.get("relations", {}), d.get("functions", {})
    constants = d.get("constants", {})
    unknown = sorted(set(relations) - set(schema.relations)) + sorted(set(functions) - set(schema.functions))
    if unknown:
        raise DynqfError(f"symbols outside the schema: {unknown}")
    n = d["domain"]
    if type(n) is not int:
        raise DynqfError(f"domain must be an integer, got {n!r}")
    _ints(constants.values(), "constants")
    funs = {name: {_ints(args, "function arguments"): val for args, val in entries}
            for name, entries in functions.items()}
    for table in funs.values():
        _ints(table.values(), "function values")
    return make_state(
        schema,
        n,
        {name: {_ints(t, "tuple elements") for t in tuples} for name, tuples in relations.items()},
        funs or None,
        constants,
    )


def modification_to_list(m: Modification) -> list:
    return [m.kind, m.relation, list(m.tuple)]


def modification_from_list(entry: Sequence) -> Modification:
    kind, relation, tup = entry
    if type(relation) is not str:
        raise DynqfError(f"relation must be a name, got {relation!r}")
    return Modification(relation, _ints(tup, "tuple elements"), kind)


def trace_to_dict(trace: Sequence[State]) -> dict:
    return {"format": FORMAT, "states": [state_to_dict(s) for s in trace]}


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def trace_digest(trace: Sequence[State]) -> str:
    import hashlib  # here, so that a process that digests no trace never loads OpenSSL
    return hashlib.sha256(canonical_json(trace_to_dict(trace)).encode()).hexdigest()


def counterexample_to_dict(c: Counterexample) -> dict:
    return {
        "format": FORMAT,
        "program": c.program_name,
        "initial": state_to_dict(c.initial),
        "sequence": [modification_to_list(m) for m in c.sequence],
        "step": c.step,
        "expected": c.expected,
        "produced": c.produced,
        "seed": c.seed,
        "trace_digest": c.trace_digest,
    }


def counterexample_from_dict(d: dict, input_schema: Schema) -> Counterexample:
    if d.get("format") != FORMAT:
        raise DynqfError(f"unsupported counterexample format {d.get('format')!r}")
    program, initial = d["program"], state_from_dict(d["initial"], input_schema)
    sequence = tuple(modification_from_list(e) for e in d["sequence"])
    step = d["step"]
    if type(step) is not int or not 0 <= step <= len(sequence):
        raise DynqfError(f"step must be an integer in 0..{len(sequence)}, got {step!r}")
    for name in ("expected", "produced"):
        if type(d[name]) is not bool:
            raise DynqfError(f"{name} must be true or false, got {d[name]!r}")
    return Counterexample(program, initial, sequence, step, d["expected"], d["produced"],
                          d.get("seed"), d.get("trace_digest", ""))


def verdict_to_dict(v: Verdict) -> dict:
    return {
        "format": FORMAT,
        "status": v.status,
        "bounds": v.bounds,
        "checked_states": v.checked_states,
        "checked_steps": v.checked_steps,
        "seed": v.seed,
        "notes": v.notes,
        "counterexample": counterexample_to_dict(v.counterexample) if v.counterexample else None,
        "exit_code": v.exit_code,
    }
