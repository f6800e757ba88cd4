"""Interpreter and verification lab for quantifier-free dynamic programs.

A dynamic program maintains a query over a finite relational database under
tuple insertions and deletions, recomputing auxiliary relations (and, in the
function-extended class, auxiliary functions) through quantifier-free update
formulas that read only the pre-modification state.  This package interprets
such programs, checks them against brute-force oracles, applies the standard
program transformations, and operationalizes the lower-bound proof
constructions (homogeneous-set search, Higman subsequence pairs, adversarial
modification schedules) as desk-scale counterexample finders.
"""

from .atoms import (AtomicType, atomic_type, diverse_tuples_share_type,
                    find_homogeneous_subset, is_homogeneous)
from .errors import DynqfError
from .formulas import (And, App, Const, Eq, EqualityType, FALSE, FalseConst,
                       Formula, Ite, Not, Or, RelAtom, TRUE, Term, TrueConst,
                       Var, classify_syntax, equality_type_of, eval_formula,
                       eval_term, nesting_depth, terms_up_to_depth)
from .corpus import CorpusEntry, builtin_program, corpus_names, strawman_program
from .parser import parse_formula, parse_program, parse_script, parse_term
from .printer import print_formula, print_program, print_term
from .program import (ConstFunctionInit, CopyInputInit, DynamicProgram,
                      EmptyInit, FixedElementInit, InitSpec, Initializer,
                      ProgramInit, UpdateRule, apply, empty_input_db,
                      init_state, is_invariant_init, run)
from .queries import (Layered, LayeredSpec, gen_layered, graph_state,
                      is_query, oracle_k_clique, oracle_k_colorability,
                      oracle_nonemptyset, oracle_s_twopath, oracle_st_reach,
                      oracle_st_twopath, query, reduce_identify_st,
                      reduce_tensor_clique)
from .schema import Role, Schema, make_schema
from .state import (Modification, State, apply_input_modification,
                    check_isomorphism, delete, ins, is_honest, make_state,
                    restrict, transport)
from .transforms import (deletion_depth, dependency_graph,
                         eliminate_repeated_variables, relations_to_functions)
from .verify import (CheckConfig, Counterexample, TypeWord, Verdict,
                     attack_star_deletion, attack_subset_gadget,
                     check_maintenance, cq_adversary, diverse_saturation,
                     embedding_positions, higman_pair, is_closed, k_similar,
                     neighborhood, neighborhood_vector, subsequence,
                     substructure_property, type_word,
                     validate_counterexample)

__version__ = "0.1.0"
