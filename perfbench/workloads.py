"""The benchmark's workloads: seeded job lists, each job with its known answer.

Each workload is a closed loop with one client: its jobs run one after
another in a single process, with no threads.  The seed reaches dynqf only
through `CheckConfig` (search seeds and constant layouts) or through the
generated inputs.  dynqf is imported inside the functions that make the job
lists, so that this module loads without it.
"""
from __future__ import annotations

import functools
import json
import random
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

WORKLOADS = ("exhaustive-twopath", "random-ternary", "lower-bound-suite", "cli-batch")

DOMAIN = 5
TWOPATH_MAX_LEN = 4
TERNARY_MAX_LEN = 12
TERNARY_SAMPLES = 4000
SUITE_SAMPLES = 200       # per relational program, at the shape of criterion 05
SIMILARITY_SAMPLES = 60   # reach-1layer-qf, at the shape of criterion 06
# The suites' own seeds are those of criteria 05 and 06.  The cost of a suite
# varies by a tenth from one seed to another, far more than the timing
# noise, so a run's seed orders the jobs instead of reseeding the suites.
SUITE_SEED, SIMILARITY_SEED = 501, 601


class Job(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the outcome is the known answer


def attempt(job: Job) -> str | None:
    """Run one job; the error, if its outcome is not the known answer."""
    try:
        return job.check(job.run())
    except Exception as e:  # a raising job is one failed job, never the end of the run
        return f"{type(e).__name__}: {e}\n" + "".join(traceback.format_tb(e.__traceback__, limit=-3))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _first_context(program, n: int, constants=None) -> None:
    from dynqf import empty_input_db, init_state
    from dynqf.compiler import context_for_state
    context_for_state(program, init_state(program, empty_input_db(program, n, constants)))


def _expect_ok(verdict) -> str | None:
    return None if verdict.status == "ok" else f"verdict {verdict.status}, expected ok"


def _expect_samples(samples: int):
    def check(report) -> str | None:
        if report.status != "ok" or report.samples != samples:
            return f"property suite {report.status} with {report.samples}/{samples} samples"
        return None
    return check


def _replay_problem(program, oracle, cex) -> str | None:
    """A counterexample must replay, and its trace digest must recompute to
    the recorded value."""
    from dynqf import init_state, run, validate_counterexample
    from dynqf.serialize import trace_digest
    if not validate_counterexample(program, oracle, cex):
        return "witness does not replay"
    replayed = trace_digest(run(program, init_state(program, cex.initial), cex.sequence[:cex.step]))
    return None if replayed == cex.trace_digest else "trace digest differs on replay"


def _expect_witness(program, oracle, expected: bool):
    def check(cex) -> str | None:
        if cex is None:
            return "no witness, expected one" if expected else None
        if not expected:
            return "witness found, expected none"
        return _replay_problem(program, oracle, cex)
    return check


# -- library workloads --------------------------------------------------------------


def exhaustive_twopath(seed: int) -> tuple[dict, list[Job]]:
    from dynqf import CheckConfig, builtin_program, check_maintenance
    entry = builtin_program("st-twopath-binary")
    s, t = _rng("exhaustive-twopath", seed).sample(range(DOMAIN), 2)
    cfg = CheckConfig(domain_size=DOMAIN, max_len=TWOPATH_MAX_LEN, honest_only=True,
                      constants={"s": s, "t": t})
    _first_context(entry.program, DOMAIN, cfg.constants)
    bounds = {"program": entry.name, "mode": "exhaustive", "domain_size": DOMAIN,
              "max_len": TWOPATH_MAX_LEN, "constants": cfg.constants}
    job = Job("bfs st-twopath-binary",
              functools.partial(check_maintenance, entry.program, entry.oracle, cfg), _expect_ok)
    return bounds, [job]


def random_ternary(seed: int) -> tuple[dict, list[Job]]:
    from dynqf import CheckConfig, builtin_program, check_maintenance
    entry = builtin_program("s-twopath-ternary")
    rng = _rng("random-ternary", seed)
    cfg = CheckConfig(domain_size=DOMAIN, max_len=TERNARY_MAX_LEN, mode="random",
                      samples=TERNARY_SAMPLES, seed=rng.randrange(2**31), honest_only=True,
                      constants={"s": rng.randrange(DOMAIN)})
    _first_context(entry.program, DOMAIN, cfg.constants)
    bounds = {"program": entry.name, "mode": "random", "domain_size": DOMAIN,
              "max_len": TERNARY_MAX_LEN, "samples": TERNARY_SAMPLES, "check_seed": cfg.seed,
              "constants": cfg.constants}
    job = Job("random s-twopath-ternary",
              functools.partial(check_maintenance, entry.program, entry.oracle, cfg), _expect_ok)
    return bounds, [job]


def lower_bound_suite(seed: int) -> tuple[dict, list[Job]]:
    from dynqf import (CheckConfig, attack_star_deletion, attack_subset_gadget, builtin_program,
                       cq_adversary, substructure_property)
    from dynqf.corpus import strawman_program
    from dynqf.queries import oracle_nonemptyset, oracle_st_reach
    jobs = []
    for name in ("non-empty-set", "st-twopath-binary", "s-twopath-ternary"):
        entry = builtin_program(name)
        _first_context(entry.program, DOMAIN)
        guard = entry.instance_guard if entry.guard_name != "any" else None
        cfg = CheckConfig(domain_size=DOMAIN, max_len=4, seed=SUITE_SEED,
                          samples=SUITE_SAMPLES, honest_only=True, guard=guard)
        jobs.append(Job(f"substructure {name}", functools.partial(substructure_property, entry.program, cfg),
                        _expect_samples(SUITE_SAMPLES)))
    reach = builtin_program("reach-1layer-qf")
    _first_context(reach.program, 7)
    cfg = CheckConfig(domain_size=7, max_len=4, seed=SIMILARITY_SEED, samples=SIMILARITY_SAMPLES,
                      honest_only=True, guard=reach.instance_guard)
    k = reach.program.nesting_depth()
    jobs.append(Job("similarity reach-1layer-qf",
                    functools.partial(substructure_property, reach.program, cfg, with_functions=True,
                                      similarity_depth=cfg.max_len * k + k),
                    _expect_samples(SIMILARITY_SAMPLES)))
    unary = strawman_program("unary-twopath-naive")
    for n in range(1, 9):
        jobs.append(Job(f"star-deletion n={n}", functools.partial(attack_star_deletion, unary, n),
                        _expect_witness(unary, oracle_st_reach, n >= 2)))
    gadget = strawman_program("binary-reach2-naive")
    for n2 in range(1, 5):
        jobs.append(Job(f"subset-gadget n2={n2}", functools.partial(attack_subset_gadget, gadget, n2),
                        _expect_witness(gadget, oracle_st_reach, n2 >= 2)))
    cq = strawman_program("cq-nonemptyset-naive")
    jobs.append(Job("cq-adversary bound=4", functools.partial(cq_adversary, cq, bound=4),
                    _expect_witness(cq, oracle_nonemptyset, True)))
    _rng("lower-bound-suite", seed).shuffle(jobs)
    bounds = {"substructure": {"domain_size": DOMAIN, "max_len": 4, "samples": SUITE_SAMPLES,
                               "seed": SUITE_SEED},
              "similarity": {"domain_size": 7, "max_len": 4, "samples": SIMILARITY_SAMPLES,
                             "depth": cfg.max_len * k + k, "seed": SIMILARITY_SEED},
              "star_deletion_n": [1, 8], "subset_gadget_n2": [1, 4], "cq_adversary_bound": 4,
              "job_order": [job.name for job in jobs]}
    return bounds, jobs


LIBRARY = {
    "exhaustive-twopath": exhaustive_twopath,
    "random-ternary": random_ternary,
    "lower-bound-suite": lower_bound_suite,
}


# -- cli-batch ------------------------------------------------------------------------


class Invocation(NamedTuple):
    name: str
    args: list[str]          # arguments to `dynqf`
    exit_code: int           # the known answer
    check: Callable[[str], str | None]  # on standard output
    save_cex: str | None = None  # file to write the emitted counterexample document to


CORPUS = ("non-empty-set", "st-twopath-binary", "s-twopath-ternary", "reach-1layer-qf")
# strawman -> (oracle for verify, attack driver arguments, oracle of that driver)
STRAWMEN = {
    "unary-twopath-naive": ("st-twopath", ["--driver", "star-deletion", "--n", "6"], "st-reach"),
    "binary-reach2-naive": ("st-reach", ["--driver", "subset-gadget", "--n", "3"], "st-reach"),
    "cq-nonemptyset-naive": ("non-empty-set", ["--driver", "cq-adversary", "--bound", "8"], "non-empty-set"),
}
VERIFY_BOUNDS = {  # program -> (domain, max_len, random samples or None)
    "non-empty-set": (4, 4, None),
    "st-twopath-binary": (4, 3, None),
    "s-twopath-ternary": (4, 6, 300),
    "reach-1layer-qf": (5, 3, None),
    "unary-twopath-naive": (4, 4, None),
    "binary-reach2-naive": (4, 4, None),
    "cq-nonemptyset-naive": (4, 4, None),
}


def _verdict_doc(status: str):
    def check(out: str) -> str | None:
        doc = json.loads(out)
        if doc.get("format") != 1 or doc.get("status") != status:
            return f"verdict document {doc.get('status')!r} format {doc.get('format')!r}"
        if status == "counterexample" and not doc.get("counterexample"):
            return "verdict has no counterexample"
        return None
    return check


def _cex_doc(out: str) -> str | None:
    doc = json.loads(out)
    return None if doc.get("format") == 1 and doc.get("sequence") else "not a format-1 counterexample"


def _contains(text: str):
    return lambda out: None if text in out else f"output lacks {text!r}"


def cli_batch(seed: int, work: Path) -> tuple[dict, list[Invocation], dict]:
    """The invocations, run in order, and for each saved counterexample the
    program and oracle to check it against.  Writes the program files."""
    from dynqf import builtin_program, print_program
    from dynqf.corpus import strawman_program
    rng = _rng("cli-batch", seed)
    files = {}
    for name in CORPUS:
        files[name] = work / f"{name}.dynp"
        files[name].write_text(print_program(builtin_program(name).program))
    for name in STRAWMEN:
        files[name] = work / f"{name}.dynp"
        files[name].write_text(print_program(strawman_program(name)))
    seeds = {}
    invocations, saved = [], {}
    for name in CORPUS + tuple(STRAWMEN):
        domain, max_len, samples = VERIFY_BOUNDS[name]
        args = ["verify", str(files[name]), "--json", "--domain", str(domain), "--maxlen", str(max_len)]
        if samples:
            seeds[name] = rng.randrange(2**31)
            args += ["--random", str(samples), "--seed", str(seeds[name])]
        if name in STRAWMEN:
            args += ["--oracle", STRAWMEN[name][0]]
            cex = work / f"{name}.verify.json"
            saved[cex] = (files[name], STRAWMEN[name][0])
            invocations.append(Invocation(f"verify {name}", args, 1, _verdict_doc("counterexample"), str(cex)))
        else:
            invocations.append(Invocation(f"verify {name}", args, 0, _verdict_doc("ok")))
    for name, (_, driver, oracle) in STRAWMEN.items():
        cex = work / f"{name}.attack.json"
        saved[cex] = (files[name], oracle)
        invocations.append(Invocation(f"attack {name}", ["attack", str(files[name]), *driver, "--json"],
                                      1, _cex_doc, str(cex)))
    for cex, (program, oracle) in saved.items():
        invocations.append(Invocation(f"replay {cex.name}", ["replay", str(cex), str(program), "--oracle", oracle],
                                      0, _contains("reproduced")))
    invocations.append(Invocation("transform st-twopath-binary --pass rel2fun --check",
                                  ["transform", str(files["st-twopath-binary"]), "--pass", "rel2fun", "--check"],
                                  0, _contains("original ok, transformed ok")))
    bounds = {"verify": {k: {"domain": d, "maxlen": m, "random": s} for k, (d, m, s) in VERIFY_BOUNDS.items()},
              "verify_seeds": seeds, "attacks": {k: v[1] for k, v in STRAWMEN.items()},
              "invocations": len(invocations)}
    return bounds, invocations, saved


def check_saved_counterexample(path: Path, program_file: Path, oracle_name: str) -> str | None:
    """A counterexample document emitted by the CLI must replay, with the
    trace digest it records."""
    from dynqf import parse_program
    from dynqf.queries import ORACLES
    from dynqf.serialize import counterexample_from_dict
    program = parse_program(program_file.read_text(), str(program_file))
    cex = counterexample_from_dict(json.loads(path.read_text()), program.schema.input_only())
    problem = _replay_problem(program, ORACLES[oracle_name], cex)
    return problem and f"{path.name}: {problem}"
