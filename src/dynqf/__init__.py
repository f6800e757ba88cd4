"""Interpreter and verification lab for quantifier-free dynamic programs.

A dynamic program maintains a query over a finite relational database under
tuple insertions and deletions, recomputing auxiliary relations (and, in the
function-extended class, auxiliary functions) through quantifier-free update
formulas that read only the pre-modification state.  This package interprets
such programs, checks them against brute-force oracles, applies the standard
program transformations, and operationalizes the lower-bound proof
constructions (homogeneous-set search, Higman subsequence pairs, adversarial
modification schedules) as desk-scale counterexample finders.

The public names below resolve on first use (PEP 562), so `import dynqf`
loads no submodule and a process loads only the modules whose names it
reads.  A name is looked up in its defining module on every access and never
stored here, so a rebinding of that module's attribute shows through.
"""
import importlib

__version__ = "0.1.0"

# defining module -> the public names it exports through the package
_EXPORTS = {
    "atoms": ("AtomicType", "atomic_type", "diverse_tuples_share_type", "find_homogeneous_subset",
              "is_homogeneous"),
    "errors": ("DynqfError",),
    "formulas": ("And", "App", "Const", "Eq", "EqualityType", "FALSE", "FalseConst", "Formula", "Ite",
                 "Not", "Or", "RelAtom", "TRUE", "Term", "TrueConst", "Var", "classify_syntax",
                 "eval_formula", "eval_term", "nesting_depth", "terms_up_to_depth"),
    "corpus": ("CorpusEntry", "builtin_program", "corpus_names", "strawman_program"),
    "parser": ("parse_formula", "parse_program", "parse_script", "parse_term"),
    "printer": ("print_formula", "print_program", "print_term"),
    "program": ("DynamicProgram", "InitSpec", "UpdateRule", "apply", "assemble_state",
                "empty_input_db", "init_state", "is_invariant_init", "run"),
    "queries": ("Layered", "LayeredSpec", "gen_layered", "graph_state", "is_query", "oracle_k_clique",
                "oracle_k_colorability", "oracle_nonemptyset", "oracle_s_twopath", "oracle_st_reach",
                "oracle_st_twopath", "query", "reduce_identify_st", "reduce_tensor_clique"),
    "schema": ("Role", "Schema", "make_schema"),
    "state": ("Modification", "State", "delete", "ins", "is_honest", "make_state", "transport"),
    "transforms": ("deletion_depth", "dependency_graph", "eliminate_repeated_variables",
                   "relations_to_functions"),
    "verify": ("CheckConfig", "Counterexample", "Verdict", "check_maintenance",
               "validate_counterexample"),
    "lower_bounds": ("attack_star_deletion", "attack_subset_gadget", "cq_adversary",
                     "diverse_saturation", "embedding_positions", "higman_pair", "k_similar",
                     "neighborhood", "subsequence", "substructure_property"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
