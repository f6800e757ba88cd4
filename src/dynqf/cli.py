"""Command-line front end: run programs on scripts, verify against oracles,
drive lower-bound attacks, transform and analyze programs, browse the corpus.

Exit codes for verify/attack: 0 = consistent up to the bounds, 1 = a
counterexample was found, 2 = inconclusive or resource-limited.  Bad input
(a missing file, a malformed document, an out-of-range bound) gets a
one-line error on stderr and exit code 2.  A closed output pipe (say, into
`head`) ends the command quietly with exit code 141, 128 + SIGPIPE, as a
shell reports a process that the signal ended.  All randomness is seeded;
the seed is echoed in the output.

The commands that need the lower-bound drivers, the transformations or the
printer import them themselves, so a `verify` or `replay` process never
loads them.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .corpus import GUARDS, builtin_program, corpus_names, corpus_source, _SPECS
from .errors import DynqfError, ParseError
from .formulas import classify_syntax
from .parser import parse_program, parse_script
from .program import DynamicProgram, empty_input_db, init_state, run
from .queries import ORACLES, oracle_k_clique, oracle_k_colorability
from .schema import Role
from .serialize import (counterexample_from_dict, counterexample_to_dict,
                        verdict_to_dict)
from .state import State, make_state
from .verify import CheckConfig, Counterexample, check_maintenance, validate_counterexample


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise DynqfError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def _load_program(path: str) -> DynamicProgram:
    return parse_program(_read_text(path), path)


def _catalogue(p: DynamicProgram):
    """(oracle, oracle name, guard) of a corpus program, from the catalogue
    rather than from a second parse of its shipped copy; None otherwise."""
    spec = _SPECS.get(p.name.replace("_", "-"))
    return None if spec is None else (spec[1], spec[2], GUARDS[spec[3]])


def _require_at_least(args, **minimums: int) -> None:
    for name, least in minimums.items():
        value = getattr(args, name)
        if value is not None and value < least:
            raise DynqfError(f"--{name} must be at least {least}, got {value}")


def _load_counterexample(path: str, input_schema) -> Counterexample:
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise DynqfError(f"{path}: invalid JSON: {e}") from None
    if isinstance(doc, dict) and "status" in doc:  # a verdict, as `verify --json` writes it
        if doc.get("counterexample") is None:
            raise DynqfError(f"{path}: verdict {doc['status']!r} holds no counterexample")
        doc = doc["counterexample"]
    if not isinstance(doc, dict):
        raise DynqfError(f"{path}: expected a JSON object")
    try:
        return counterexample_from_dict(doc, input_schema)
    except KeyError as e:
        raise DynqfError(f"{path}: malformed counterexample: missing field {e}") from None
    except (AttributeError, TypeError, ValueError, DynqfError) as e:
        raise DynqfError(f"{path}: malformed counterexample: {e}") from None


def _script_state(p: DynamicProgram, script) -> State:
    """The script's input database, with the default layout of the constants it leaves out."""
    db = empty_input_db(p, script.domain, script.constants)
    rels = {name: script.relations.get(name, set()) for name in db.schema.relations}
    return make_state(db.schema, db.n, rels, {}, db.constants)


def _resolve_oracle(name: str):
    if name in ORACLES:
        return ORACLES[name]
    if "=" in name:
        base, _, arg = name.partition("=")
        try:
            k = int(arg)
        except ValueError:
            raise DynqfError(f"oracle {name!r}: k must be an integer, got {arg!r}") from None
        if base == "k-clique":
            return functools.partial(oracle_k_clique, k=k)
        if base == "k-colorability":
            return functools.partial(oracle_k_colorability, k=k)
    raise DynqfError(f"unknown oracle {name!r}; have {sorted(ORACLES)} "
                     f"plus k-clique=<k> and k-colorability=<k>")


def cmd_run(args) -> int:
    p = _load_program(args.program)
    script = parse_script(_read_text(args.script), p.schema, args.script)
    db = _script_state(p, script)
    trace = run(p, init_state(p, db), script.modifications, honest_only=args.honest)
    if args.json:
        from .serialize import trace_to_dict
        doc = trace_to_dict(trace)
        doc["query"] = [s.query_value(p.query_symbol) for s in trace]
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    for i, state in enumerate(trace):
        label = "init" if i == 0 else f"step {i} [{script.modifications[i-1]}]"
        print(f"{label}: {p.query_symbol} = {state.query_value(p.query_symbol)}")
        if args.dump_aux:
            for name in p.schema.aux_symbols:
                if name in state.relations:
                    print(f"    {name} = {sorted(state.relations[name])}")
                else:
                    print(f"    {name} = {sorted(state.functions[name].items())}")
    return 0


def cmd_verify(args) -> int:
    _require_at_least(args, domain=1, maxlen=0, random=1)
    p = _load_program(args.program)
    oracle_name = args.oracle
    guard = GUARDS.get(args.guard) if args.guard else None
    if args.guard and guard is None:
        raise DynqfError(f"unknown guard {args.guard!r}; have {sorted(GUARDS)}")
    spec = _catalogue(p)
    if spec is not None:
        oracle_name = oracle_name or spec[1]
        if guard is None and not args.no_guard:
            guard = spec[2]
    if oracle_name is None:
        raise DynqfError("no oracle given and the program is not a corpus entry")
    oracle = _resolve_oracle(oracle_name)
    cfg = CheckConfig(domain_size=args.domain, max_len=args.maxlen,
                      mode="exhaustive" if args.exhaustive or not args.random else "random",
                      samples=args.random or 1000, seed=args.seed, honest_only=args.honest, guard=guard)
    if args.override_cap:
        cfg.state_cap = None
    verdict = check_maintenance(p, oracle, cfg)
    if args.json:
        print(json.dumps(verdict_to_dict(verdict), indent=2, sort_keys=True))
    else:
        print(f"verdict: {verdict.status} (oracle {oracle_name}, seed {verdict.seed}, "
              f"{verdict.checked_states} states / {verdict.checked_steps} steps)")
        for note in verdict.notes:
            print(f"note: {note}")
        if verdict.counterexample:
            c = verdict.counterexample
            print(f"counterexample at step {c.step}: expected {c.expected}, produced {c.produced}")
            for m in c.sequence:
                print(f"  {m}")
    return verdict.exit_code


def cmd_attack(args) -> int:
    from .lower_bounds import attack_star_deletion, attack_subset_gadget, cq_adversary
    _require_at_least(args, n=1, bound=0)
    p = _load_program(args.program)
    if args.driver == "star-deletion":
        cex = attack_star_deletion(p, args.n)
    elif args.driver == "subset-gadget":
        cex = attack_subset_gadget(p, args.n)
    elif args.driver == "cq-adversary":
        cex = cq_adversary(p, bound=args.bound)
    else:
        raise DynqfError(f"unknown driver {args.driver!r}")
    if cex is None:
        print(f"no witness at this scale (driver {args.driver}); try a larger size")
        return 2
    if args.json:
        print(json.dumps(counterexample_to_dict(cex), indent=2, sort_keys=True))
    else:
        print(f"witness found: divergence at step {cex.step} of {len(cex.sequence)} "
              f"(expected {cex.expected}, produced {cex.produced})")
        for m in cex.sequence:
            print(f"  {m}")
        # the drivers return only witnesses that _finish_counterexample has replayed
        print("self-validation: True")
    return 1


def cmd_transform(args) -> int:
    from .printer import print_program
    from .transforms import eliminate_repeated_variables, relations_to_functions
    _require_at_least(args, domain=1, maxlen=0)
    p = _load_program(args.program)
    if args.transform_pass == "dedup-vars":
        out = eliminate_repeated_variables(p)
    elif args.transform_pass == "rel2fun":
        out = relations_to_functions(p)
    else:
        raise DynqfError(f"unknown pass {args.transform_pass!r}")
    if out is p:
        print(f"note: {args.transform_pass} found nothing to rewrite; passing through")
    text = print_program(out)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    if args.check:
        spec = _catalogue(p)
        if spec is not None:
            oracle, _, guard = spec
            cfg = CheckConfig(domain_size=args.domain, max_len=args.maxlen,
                              honest_only=True, guard=guard)
            v1 = check_maintenance(p, oracle, cfg)
            v2 = check_maintenance(out, oracle, cfg)
            agree = v1.status == v2.status == "ok"
            print(f"differential check: original {v1.status}, transformed {v2.status}")
            return 0 if agree else 1
        print("differential check skipped: not a corpus program")
    return 0


def cmd_analyze(args) -> int:
    from .transforms import dependency_graph, deletion_depth
    p = _load_program(args.program)
    sch = p.schema
    flags = [classify_syntax(r.body) for r in p.rules.values() if r.target in sch.relations]
    depth = p.nesting_depth()
    bi_funs = [f for f in sch.functions if sch.role(f) is Role.BUILTIN]
    print(f"program {p.name}")
    print(f"  max aux arity: {sch.max_aux_arity()}")
    if bi_funs:
        arities = sorted({sch.arity(f) for f in bi_funs})
        kinds = "unary" if arities == [1] else ",".join(map(str, arities))
        print(f"  builtin functions: {kinds} ({', '.join(sorted(bi_funs))})")
    print(f"  nesting depth: {depth}")
    print(f"  negation-free: {all(f.negation_free for f in flags)}")
    print(f"  conjunctive: {all(f.conjunctive for f in flags)}")
    print(f"  repeated-variable atoms: {any(f.repeated_vars_in_atom for f in flags)}")
    deps = dependency_graph(p)
    del_deps = dependency_graph(p, deletions_only=True)
    depths = deletion_depth(p)
    print("  dependency graph:")
    for sym in sorted(deps):
        print(f"    {sym} -> {sorted(deps[sym])}")
    print("  deletion depths:")
    for sym in sorted(depths):
        d = depths[sym]
        print(f"    {sym}: {'unreachable' if d is None else d}")
    if args.dot:
        print("digraph deletion_deps {")
        for sym in sorted(del_deps):
            for succ in sorted(del_deps[sym]):
                print(f'  "{sym}" -> "{succ}";')
        print("}")
    return 0


def cmd_corpus(args) -> int:
    if args.action == "list":
        for name in corpus_names():
            entry = builtin_program(name)
            tags = entry.class_tags
            print(f"{name}: classes={','.join(tags.classes)} arity={tags.arity} "
                  f"oracle={entry.oracle_name} guard={entry.guard_name}")
        return 0
    if args.name is None:
        raise DynqfError(f"corpus show needs a program name; have {corpus_names()}")
    entry = builtin_program(args.name)
    print(corpus_source(_SPECS[entry.name][0]), end="")
    return 0


def cmd_replay(args) -> int:
    p = _load_program(args.program)
    cex = _load_counterexample(args.counterexample, p.schema.input_only())
    spec = _catalogue(p)
    if args.oracle:
        oracle = _resolve_oracle(args.oracle)
    elif spec is None:
        raise DynqfError(f"unknown corpus program {p.name.replace('_', '-')!r}; "
                         f"have {corpus_names()}")
    else:
        oracle = spec[0]
    ok = validate_counterexample(p, oracle, cex)
    print(f"replay: divergence at step {cex.step} "
          f"{'reproduced' if ok else 'DID NOT reproduce'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dynqf", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a program on a modification script")
    runp.add_argument("program")
    runp.add_argument("script")
    runp.add_argument("--dump-aux", action="store_true")
    runp.add_argument("--json", action="store_true")
    runp.add_argument("--honest", action="store_true")
    runp.set_defaults(fn=cmd_run)

    ver = sub.add_parser("verify", help="check maintenance against an oracle")
    ver.add_argument("program")
    ver.add_argument("--oracle")
    ver.add_argument("--domain", type=int, default=4)
    ver.add_argument("--maxlen", type=int, default=5)
    ver.add_argument("--exhaustive", action="store_true")
    ver.add_argument("--random", type=int, metavar="SAMPLES")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--honest", action="store_true", default=True)
    ver.add_argument("--dishonest", dest="honest", action="store_false")
    ver.add_argument("--guard")
    ver.add_argument("--no-guard", action="store_true")
    ver.add_argument("--override-cap", action="store_true",
                     help="search with no state cap and no pre-estimate")
    ver.add_argument("--json", action="store_true")
    ver.set_defaults(fn=cmd_verify)

    att = sub.add_parser("attack", help="run a lower-bound attack driver")
    att.add_argument("program")
    att.add_argument("--driver", required=True,
                     choices=["star-deletion", "subset-gadget", "cq-adversary"])
    att.add_argument("--n", type=int, default=6)
    att.add_argument("--bound", type=int, default=8)
    att.add_argument("--json", action="store_true")
    att.set_defaults(fn=cmd_attack)

    tr = sub.add_parser("transform", help="apply a program transformation")
    tr.add_argument("program")
    tr.add_argument("--pass", dest="transform_pass", required=True,
                    choices=["dedup-vars", "rel2fun"])
    tr.add_argument("-o", "--output")
    tr.add_argument("--check", action="store_true")
    tr.add_argument("--domain", type=int, default=3)
    tr.add_argument("--maxlen", type=int, default=4)
    tr.set_defaults(fn=cmd_transform)

    an = sub.add_parser("analyze", help="print class tags and dependency analysis")
    an.add_argument("program")
    an.add_argument("--dot", action="store_true")
    an.set_defaults(fn=cmd_analyze)

    co = sub.add_parser("corpus", help="list or show the shipped programs")
    co.add_argument("action", choices=["list", "show"])
    co.add_argument("name", nargs="?")
    co.set_defaults(fn=cmd_corpus)

    rp = sub.add_parser("replay", help="replay a serialized counterexample or the one in a verdict")
    rp.add_argument("counterexample")
    rp.add_argument("program")
    rp.add_argument("--oracle")
    rp.set_defaults(fn=cmd_replay)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # interpreter's own flush at exit reports nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (DynqfError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
