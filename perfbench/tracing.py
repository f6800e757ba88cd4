"""Span tracing of dynqf from outside the package.

`install` wraps the public entry points of the dynqf layers in spans and
rebinds every reference the package holds to them:

- module globals, because modules import names directly
  (`from .formulas import eval_term`);
- values of module-level dicts and the tuples inside them (`ORACLES`,
  `corpus._SPECS`);
- default arguments (`attack_star_deletion(..., oracle=oracle_st_reach)`).

Rebinding every reference keeps identity tests such as
`oracle is ORACLES["st-twopath"]` true, so a traced run takes the same code
paths as an untraced one.  `uninstall` restores the originals.

A span records its name, start, end, parent span and job id.  A call that
would open a span of the same name as the innermost open one records
nothing, so recursive functions such as `eval_term` count only their
outermost call.  Spans stay in memory in flat arrays; `aggregate` and
`write_spans` run when the process ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from array import array
from collections import defaultdict
from statistics import median
from typing import Callable, NamedTuple

from workloads import WORKLOADS as ALL

MARK = "__perfbench_entry__"

LEAN = ("exhaustive-twopath", "random-ternary")
LOWER = ("lower-bound-suite",)
STATE_PATH = ("lower-bound-suite", "cli-batch")


class Tracer:
    """Spans and counters of one process, kept in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.job_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.stack = [-1]        # indices of open spans
        self.stack_names = [-1]  # their name ids
        self.job = -1            # -1 while setting up
        self.counters: dict[str, int] = defaultdict(int)
        self.entry_spans: dict[str, int] = defaultdict(int)
        self._undo: list[Callable[[], None]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller, such as an import."""
        self.name_col.append(self.name_id(name))
        self.parent_col.append(self.stack[-1])
        self.job_col.append(self.job)
        self.start_col.append(start)
        self.end_col.append(end)

    def wrap(self, key: str, fn: Callable, span, after=None) -> Callable:
        """`fn` recording one span per outermost call; `span` is a name or
        a function of the call's arguments returning one."""
        namer = span if callable(span) else None
        fixed = -1 if namer else self.name_id(span)
        stack, stack_names = self.stack, self.stack_names
        names, parents, jobs = self.name_col, self.parent_col, self.job_col
        starts, ends = self.start_col, self.end_col
        entry_spans = self.entry_spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if namer is None else self.name_id(namer(*args))
            if stack_names[-1] == nid:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(self.job)
            ends.append(0.0)
            stack.append(i)
            stack_names.append(nid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                stack_names.pop()
            entry_spans[key] += 1
            if after is not None:
                after(self, result, args)
            return result

        setattr(wrapper, MARK, key)
        return wrapper


# -- entry points ------------------------------------------------------------------


def _apply_span(ctx, lean, m, *rest) -> str:
    return f"compiler.apply.{m.kind}.{m.relation}"


def _code_bytes(code: types.CodeType) -> int:
    return len(code.co_code) + sum(_code_bytes(c) for c in code.co_consts
                                   if isinstance(c, types.CodeType))


def _after_build(tracer: Tracer, result, args) -> None:
    fns = []
    for v in vars(args[0]).values():
        if isinstance(v, types.FunctionType):
            fns.append(v)
        elif isinstance(v, dict):
            fns += [f for f in v.values() if isinstance(f, types.FunctionType)]
    tracer.counters["compiler.applier_bytecode_bytes"] += sum(_code_bytes(f.__code__) for f in fns)


def _after_check(tracer: Tracer, verdict, args) -> None:
    tracer.counters["verify.checked_states"] += verdict.checked_states
    tracer.counters["verify.checked_steps"] += verdict.checked_steps


def _after_property(tracer: Tracer, report, args) -> None:
    tracer.counters["verify.property.samples"] += report.samples
    tracer.counters["verify.property.skipped"] += report.skipped


class EntryPoint(NamedTuple):
    key: str
    module: str
    attrs: tuple[str, ...]  # names in the module, "Class.method" for methods
    span: object            # span name, or a function of the call's arguments
    users: tuple[str, ...]  # workloads on which each call records a span
    after: Callable | None = None


ORACLE_FUNCTIONS = ("oracle_st_reach", "oracle_nonemptyset", "oracle_st_twopath",
                    "oracle_s_twopath", "oracle_k_clique", "oracle_k_colorability")

ENTRY_POINTS = (
    EntryPoint("parser.parse_program", "dynqf.parser", ("parse_program",), "parser.parse", ALL),
    EntryPoint("compiler.build", "dynqf.compiler", ("LeanContext.__init__",), "compiler.build",
               ALL, _after_build),
    EntryPoint("compiler.context_lookup", "dynqf.compiler", ("context_for_state", "lean_context"),
               "compiler.context_lookup", ALL),
    EntryPoint("compiler.apply", "dynqf.compiler", ("LeanContext.apply",), _apply_span, ALL),
    EntryPoint("compiler.convert", "dynqf.compiler", ("LeanContext.to_lean", "LeanContext.from_lean"),
               "compiler.convert", ALL),
    EntryPoint("queries.oracle", "dynqf.queries", ORACLE_FUNCTIONS, "queries.oracle", STATE_PATH),
    # the lean oracles are built per search; their calls are oracle spans too
    EntryPoint("queries.lean_oracle", "dynqf.verify", ("_lean_oracle",), "queries.oracle",
               LEAN + ("cli-batch",)),
    EntryPoint("verify.check_maintenance", "dynqf.verify", ("check_maintenance",),
               "verify.check_maintenance", LEAN + ("cli-batch",), _after_check),
    EntryPoint("verify.cex_finish", "dynqf.verify", ("_finish_counterexample",), "verify.cex_finish",
               STATE_PATH),
    EntryPoint("verify.validate", "dynqf.verify", ("validate_counterexample",), "verify.validate",
               STATE_PATH),
    EntryPoint("verify.property", "dynqf.verify", ("substructure_property",), "verify.property",
               LOWER, _after_property),
    EntryPoint("verify.k_similar", "dynqf.verify", ("k_similar",), "verify.k_similar", LOWER),
    EntryPoint("verify.restriction_iso", "dynqf.verify", ("_restriction_isomorphism",),
               "verify.restriction_iso", LOWER),
    EntryPoint("verify.attack", "dynqf.verify",
               ("attack_star_deletion", "attack_subset_gadget", "cq_adversary"), "verify.attack",
               STATE_PATH),
    EntryPoint("program.apply", "dynqf.program", ("apply",), "program.apply", STATE_PATH),
    EntryPoint("program.run", "dynqf.program", ("run",), "program.run", STATE_PATH),
    EntryPoint("program.init_state", "dynqf.program", ("init_state",), "program.init_state", ALL),
    EntryPoint("state.construct", "dynqf.state", ("State.__post_init__",), "state.construct", ALL),
    EntryPoint("state.transport", "dynqf.state", ("transport",), "state.transport", LOWER),
    EntryPoint("formulas.terms_up_to_depth", "dynqf.formulas", ("terms_up_to_depth",),
               "formulas.terms_up_to_depth", LOWER),
    EntryPoint("formulas.eval_term", "dynqf.formulas", ("eval_term",), "formulas.eval_term", LOWER),
    EntryPoint("atoms.atomic_type", "dynqf.atoms", ("atomic_type",), "atoms.atomic_type", STATE_PATH),
    EntryPoint("atoms.homogeneous_search", "dynqf.atoms", ("find_homogeneous_subset",),
               "atoms.homogeneous_search", STATE_PATH),
    EntryPoint("serialize.trace_digest", "dynqf.serialize", ("trace_digest",),
               "serialize.trace_digest", STATE_PATH),
    EntryPoint("serialize.json", "dynqf.serialize",
               ("counterexample_to_dict", "counterexample_from_dict", "verdict_to_dict"),
               "serialize.json", ("cli-batch",)),
    EntryPoint("transforms.transform", "dynqf.transforms",
               ("eliminate_repeated_variables", "relations_to_functions", "deletion_depth",
                "dependency_graph"), "transforms.transform", STATE_PATH),
    EntryPoint("cli.main", "dynqf.cli", ("main",), "cli.main", ("cli-batch",)),
)


def _lean_oracle_wrapper(tracer: Tracer, ep: EntryPoint, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.wrap(ep.key, fn(*args, **kwargs), ep.span)

    setattr(wrapper, MARK, ep.key)
    return wrapper


def _dynqf_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dynqf" or name.startswith("dynqf."))]


def install(tracer: Tracer) -> list[str]:
    """Wrap every entry point; returns the keys of those not found."""
    missing = []
    functions: dict[int, tuple[Callable, Callable]] = {}  # id(original) -> (original, wrapper)
    for ep in ENTRY_POINTS:
        try:
            mod = importlib.import_module(ep.module)
        except ImportError:
            missing.append(ep.key)
            continue
        for attr in ep.attrs:
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            fn = getattr(owner, name, None)
            if fn is None:
                missing.append(f"{ep.key}:{attr}")
                continue
            if ep.key == "queries.lean_oracle":
                wrapper = _lean_oracle_wrapper(tracer, ep, fn)
            else:
                wrapper = tracer.wrap(ep.key, fn, ep.span, ep.after)
            if owner_name:
                setattr(owner, name, wrapper)
                tracer._undo.append(functools.partial(setattr, owner, name, fn))
            else:
                functions[id(fn)] = (fn, wrapper)
    _rebind(tracer, functions)
    return missing


def _swap(tracer: Tracer, container, key, new) -> None:
    old = container[key]
    container[key] = new

    def undo():
        container[key] = old
    tracer._undo.append(undo)


def _rebind(tracer: Tracer, functions: dict[int, tuple[Callable, Callable]]) -> None:
    def sub(value):
        hit = functions.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else value

    for mod in _dynqf_modules():
        space = vars(mod)
        for attr, value in list(space.items()):
            if isinstance(value, types.FunctionType) and value.__defaults__:
                defaults = tuple(sub(d) for d in value.__defaults__)
                if defaults != value.__defaults__:
                    old = value.__defaults__
                    value.__defaults__ = defaults
                    tracer._undo.append(functools.partial(setattr, value, "__defaults__", old))
            if sub(value) is not value:
                _swap(tracer, space, attr, sub(value))
            elif type(value) is dict:
                for k, v in list(value.items()):
                    if sub(v) is not v:
                        _swap(tracer, value, k, sub(v))
                    elif type(v) is tuple and any(sub(x) is not x for x in v):
                        _swap(tracer, value, k, tuple(sub(x) for x in v))


def uninstall(tracer: Tracer) -> None:
    """Restore every reference `install` replaced.  Objects built while the
    wrappers were installed, such as cached corpus entries, keep theirs."""
    while tracer._undo:
        tracer._undo.pop()()


def installed_wrappers() -> list[str]:
    """Every perfbench wrapper reachable from the loaded dynqf modules."""
    found = []

    def check(where: str, value) -> None:
        if hasattr(value, MARK):
            found.append(where)

    for mod in _dynqf_modules():
        for attr, value in vars(mod).items():
            where = f"{mod.__name__}.{attr}"
            check(where, value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for name, member in vars(value).items():
                    check(f"{where}.{name}", member)
            elif type(value) is dict:
                for k, v in value.items():
                    check(f"{where}[{k!r}]", v)
                    if type(v) is tuple:
                        for x in v:
                            check(f"{where}[{k!r}]", x)
            elif isinstance(value, types.FunctionType):
                for d in value.__defaults__ or ():
                    check(f"{where} default", d)
    return found


# -- aggregation ---------------------------------------------------------------------


def aggregate(tracer: Tracer) -> dict:
    """Per span name: [count, total seconds, self seconds]; plus the
    counters, the spans per entry point and the context-cache hits."""
    n = len(tracer.start_col)
    starts, ends, parents, names = tracer.start_col, tracer.end_col, tracer.parent_col, tracer.name_col
    dur = [ends[i] - starts[i] for i in range(n)]
    child = [0.0] * n
    build = tracer._ids.get("compiler.build", -2)
    built_in = set()
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += dur[i]
            if names[i] == build:
                built_in.add(p)
    spans: dict[str, list] = {}
    for i in range(n):
        rec = spans.setdefault(tracer.names[names[i]], [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += dur[i]
        rec[2] += dur[i] - child[i]
    lookup = tracer._ids.get("compiler.context_lookup", -2)
    counters = dict(tracer.counters)
    counters["compiler.context_hits"] = sum(1 for i in range(n)
                                            if names[i] == lookup and i not in built_in)
    return {"spans": spans, "counters": counters, "entry_spans": dict(tracer.entry_spans)}


def merge(aggs: list[dict]) -> dict:
    """The sum of aggregates recorded by several processes."""
    out = {"spans": {}, "counters": defaultdict(int), "entry_spans": defaultdict(int)}
    for agg in aggs:
        for name, rec in agg["spans"].items():
            cur = out["spans"].setdefault(name, [0, 0.0, 0.0])
            for j in range(3):
                cur[j] += rec[j]
        for part in ("counters", "entry_spans"):
            for k, v in agg[part].items():
                out[part][k] += v
    return {"spans": out["spans"], "counters": dict(out["counters"]),
            "entry_spans": dict(out["entry_spans"])}


def layer_metrics(agg: dict) -> dict[str, tuple[float | None, str]]:
    """Every per-layer metric as (value, unit).  The value is None when the
    workload never entered the layer: absent, not zero."""
    spans, counters = agg["spans"], agg["counters"]

    def calls(*names):
        return sum(spans[n][0] for n in names if n in spans)

    def total(*names):
        return sum(spans[n][1] for n in names if n in spans) if calls(*names) else None

    def self_s(name):
        return spans[name][2] if calls(name) else None

    def ratio(a, b):
        return a / b if b else None

    def counted(name, value):
        return value if calls(name) else None

    def us_per_call(name):
        return total(name) / calls(name) * 1e6 if calls(name) else None

    apply_names = sorted(n for n in spans if n.startswith("compiler.apply."))
    lookups = calls("compiler.context_lookup")
    states = counters.get("verify.checked_states", 0)
    steps = counters.get("verify.checked_steps", 0)
    search = total("verify.check_maintenance")
    samples = counters.get("verify.property.samples", 0)
    skipped = counters.get("verify.property.skipped", 0)
    m = {
        "parser.calls": (calls("parser.parse"), "count"),
        "parser.parse_s": (total("parser.parse"), "s"),
        "compiler.contexts_built": (calls("compiler.build"), "count"),
        "compiler.build_s": (total("compiler.build"), "s"),
        "compiler.applier_bytecode_bytes":
            (counted("compiler.build", counters.get("compiler.applier_bytecode_bytes", 0)), "bytes"),
        "compiler.context_lookups": (lookups, "count"),
        "compiler.cache_hit_ratio": (ratio(counters.get("compiler.context_hits", 0), lookups), "ratio"),
        "compiler.context_lookup_s": (self_s("compiler.context_lookup"), "s"),
        "compiler.apply.calls": (calls(*apply_names), "count"),
        "compiler.apply_s": (total(*apply_names), "s"),
    }
    for name in apply_names:
        kind_trigger = name[len("compiler.apply."):]
        m[f"compiler.apply.us_per_call.{kind_trigger}"] = (us_per_call(name), "us")
    m.update({
        "compiler.convert.calls": (calls("compiler.convert"), "count"),
        "compiler.convert_s": (total("compiler.convert"), "s"),
        "queries.oracle.calls": (calls("queries.oracle"), "count"),
        "queries.oracle_s": (total("queries.oracle"), "s"),
        "queries.oracle.us_per_call": (us_per_call("queries.oracle"), "us"),
        "verify.checked_states": (counted("verify.check_maintenance", states), "count"),
        "verify.checked_steps": (counted("verify.check_maintenance", steps), "count"),
        # random mode walks without dedup and counts no states
        "verify.new_state_ratio": (ratio(states, steps) if states else None, "ratio"),
        "verify.states_per_s": (ratio(states, search) if states else None, "1/s"),
        "verify.steps_per_s": (ratio(steps, search), "1/s"),
        "verify.search.self_s": (self_s("verify.check_maintenance"), "s"),
        "verify.cex_finish_s": (total("verify.cex_finish"), "s"),
        "serialize.trace_digest.calls": (calls("serialize.trace_digest"), "count"),
        "serialize.trace_digest_s": (total("serialize.trace_digest"), "s"),
        "verify.property.skip_ratio": (ratio(skipped, samples + skipped), "ratio"),
        "verify.k_similar_s": (total("verify.k_similar"), "s"),
        "verify.restriction_iso_s": (total("verify.restriction_iso"), "s"),
        "formulas.terms_up_to_depth_s": (total("formulas.terms_up_to_depth"), "s"),
        "formulas.eval_term.calls": (calls("formulas.eval_term"), "count"),
        "formulas.eval_term_s": (total("formulas.eval_term"), "s"),
        "atoms.atomic_type_s": (total("atoms.atomic_type"), "s"),
        "atoms.homogeneous_search_s": (total("atoms.homogeneous_search"), "s"),
        "program.apply.calls": (calls("program.apply"), "count"),
        "program.apply.us_per_call": (us_per_call("program.apply"), "us"),
        "program.init_state_s": (total("program.init_state"), "s"),
        "state.constructed": (calls("state.construct"), "count"),
        "state.construct_s": (total("state.construct"), "s"),
        "state.transport_s": (total("state.transport"), "s"),
        "transforms.transform_s": (total("transforms.transform"), "s"),
        "cli.import_s": (total("cli.import"), "s"),
        "cli.main_s": (total("cli.main"), "s"),
    })
    # a count of zero means the layer was never entered
    return {k: (None if v == 0 and u == "count" else v, u) for k, (v, u) in m.items()}


def combine_reps(per_rep: list[dict]) -> tuple[dict, list[str]]:
    """Metrics over repetitions of the same job list: counts must repeat
    exactly and are reported once; everything else is the median.  Returns
    the metrics and the names of counts that differed between repetitions."""
    out, unstable = {}, []
    for name in per_rep[0]:
        unit = per_rep[0][name][1]
        values = [rep.get(name, (None, unit))[0] for rep in per_rep]
        present = [v for v in values if v is not None]
        if len(present) != len(values):
            value = None if not present else median(present)
            if present:
                unstable.append(name)
        elif unit in ("count", "bytes"):
            value = values[0]
            if any(v != value for v in values):
                unstable.append(name)
        else:
            value = median(values)
        out[name] = {"value": value, "unit": unit, "samples": len(present)}
    return out, unstable


# -- raw spans ------------------------------------------------------------------------


_COLUMNS = ("name_col", "parent_col", "job_col", "start_col", "end_col")


def write_spans(tracer: Tracer, path) -> None:
    """One JSON header line, then the five columns as native arrays."""
    header = {"names": tracer.names, "count": len(tracer.start_col),
              "columns": [[c, getattr(tracer, c).typecode] for c in _COLUMNS]}
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode() + b"\n")
        for c in _COLUMNS:
            getattr(tracer, c).tofile(f)


def read_spans(path) -> list[dict]:
    """The spans written by `write_spans`, as dicts."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        cols = {}
        for c, code in header["columns"]:
            cols[c] = array(code)
            cols[c].fromfile(f, header["count"])
    return [{"name": header["names"][cols["name_col"][i]], "parent": cols["parent_col"][i],
             "job": cols["job_col"][i], "start": cols["start_col"][i], "end": cols["end_col"][i]}
            for i in range(header["count"])]
