"""The package namespace: `dynqf.<name>` resolves each public name in its
defining module on every access and stores nothing, and `dynqf.verify`
still resolves the lower-bound names that the benchmark's tracer reads."""
import importlib

import pytest

import dynqf

# what `dynqf` exported when its `__init__` imported every module eagerly,
# by defining module, without the names deleted since and with
# `assemble_state`, added since
FORMER_EXPORTS = {
    "atoms": ("AtomicType", "atomic_type", "diverse_tuples_share_type", "find_homogeneous_subset",
              "is_homogeneous"),
    "errors": ("DynqfError",),
    "formulas": ("And", "App", "Const", "Eq", "EqualityType", "FALSE", "FalseConst", "Formula", "Ite",
                 "Not", "Or", "RelAtom", "TRUE", "Term", "TrueConst", "Var", "classify_syntax",
                 "eval_formula", "eval_term", "nesting_depth", "terms_up_to_depth"),
    "corpus": ("CorpusEntry", "builtin_program", "corpus_names", "strawman_program"),
    "parser": ("parse_formula", "parse_program", "parse_script", "parse_term"),
    "printer": ("print_formula", "print_program", "print_term"),
    "program": ("DynamicProgram", "InitSpec", "UpdateRule", "apply", "assemble_state", "empty_input_db",
                "init_state", "is_invariant_init", "run"),
    "queries": ("Layered", "LayeredSpec", "gen_layered", "graph_state", "is_query", "oracle_k_clique",
                "oracle_k_colorability", "oracle_nonemptyset", "oracle_s_twopath", "oracle_st_reach",
                "oracle_st_twopath", "query", "reduce_identify_st", "reduce_tensor_clique"),
    "schema": ("Role", "Schema", "make_schema"),
    "state": ("Modification", "State", "delete", "ins", "is_honest", "make_state", "transport"),
    "transforms": ("deletion_depth", "dependency_graph", "eliminate_repeated_variables",
                   "relations_to_functions"),
    "verify": ("CheckConfig", "Counterexample", "Verdict", "check_maintenance", "validate_counterexample"),
    "lower_bounds": ("attack_star_deletion", "attack_subset_gadget", "cq_adversary", "diverse_saturation",
                     "embedding_positions", "higman_pair", "k_similar", "neighborhood",
                     "subsequence", "substructure_property"),
}
FORMER = [(module, name) for module, names in FORMER_EXPORTS.items() for name in names]

# the names perfbench/tracing.py and perfbench/test_perfbench.py read as
# `dynqf.verify.<name>`, with the module that defines or imports each
PERFBENCH_VERIFY_NAMES = {
    "check_maintenance": "verify", "_lean_oracle": "verify", "_finish_counterexample": "verify",
    "validate_counterexample": "verify", "substructure_property": "lower_bounds",
    "k_similar": "lower_bounds", "_restriction_isomorphism": "lower_bounds",
    "attack_star_deletion": "lower_bounds", "attack_subset_gadget": "lower_bounds",
    "cq_adversary": "lower_bounds", "oracle_st_reach": "lower_bounds",
}


def test_every_former_export_is_listed_and_in_dir():
    listed = dir(dynqf)
    assert [name for _, name in FORMER if name not in dynqf.__all__ or name not in listed] == []
    assert len(dynqf.__all__) == len(set(dynqf.__all__)) == len(FORMER)


@pytest.mark.parametrize("module,name", FORMER)
def test_each_export_is_its_defining_modules_object(module, name):
    assert getattr(dynqf, name) is getattr(importlib.import_module(f"dynqf.{module}"), name)


def test_star_import_binds_every_export():
    space = {}
    exec("from dynqf import *", space)
    assert [name for _, name in FORMER if space.get(name) is not getattr(dynqf, name)] == []


def test_unknown_and_deleted_names_raise_attribute_error():
    for name in ("no_such_name", "restrict", "check_isomorphism", "apply_input_modification",
                 "type_word", "TypeWord", "is_closed", "Initializer", "ProgramInit", "SchemaInit",
                 "EmptyInit", "CopyInputInit", "FixedElementInit", "ConstFunctionInit",
                 "neighborhood_vector", "equality_type_of"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(dynqf, name)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        dynqf.verify.no_such_name


def test_a_resolved_name_is_not_stored_so_a_rebinding_shows_through(monkeypatch):
    import dynqf.lower_bounds
    import dynqf.verify
    original = dynqf.check_maintenance
    assert "check_maintenance" not in vars(dynqf)

    def replacement(*args):
        return original(*args)

    monkeypatch.setattr(dynqf.verify, "check_maintenance", replacement)
    assert dynqf.check_maintenance is replacement
    monkeypatch.setattr(dynqf.lower_bounds, "k_similar", replacement)
    assert dynqf.k_similar is replacement and dynqf.verify.k_similar is replacement
    assert "k_similar" not in vars(dynqf.verify)


@pytest.mark.parametrize("name", sorted(PERFBENCH_VERIFY_NAMES))
def test_every_name_perfbench_reads_from_verify_resolves(name):
    import dynqf.verify
    module = importlib.import_module(f"dynqf.{PERFBENCH_VERIFY_NAMES[name]}")
    assert callable(getattr(dynqf.verify, name))
    assert getattr(dynqf.verify, name) is vars(module)[name]
