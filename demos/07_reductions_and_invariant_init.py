"""Graph reductions and the invariant-initialization experiments.

Identifying t with s turns s-t-paths of a 2-layered graph into triangles;
tensoring with complete graphs shifts clique sizes.  Invariant
initializations (those commuting with every permutation) are checked
extensionally, and on fully symmetric inputs their output must give all
diverse layer tuples one atomic type and keep auxiliary function values off
swappable elements.
"""
from dynqf import (LayeredSpec, assemble_state, diverse_tuples_share_type,
                   gen_layered, is_invariant_init, make_schema, make_state,
                   oracle_k_clique, oracle_k_colorability, oracle_st_reach,
                   reduce_identify_st, reduce_tensor_clique)

g = gen_layered(LayeredSpec((2, 2)), [(0, 1), (1, 3), (3, 5), (4, 5)])
reduced = reduce_identify_st(g)
print("2-layered graph, edges", sorted(g.state.rel("E")))
print("  s-t-reachable:", oracle_st_reach(g.state))
print("  after identify-s-t: 3-clique =", oracle_k_clique(reduced, 3),
      "| 2-colorable =", oracle_k_colorability(reduced, 2))

bigger = reduce_tensor_clique(reduced, 1)
print("  tensored with one extra fully-connected node: 4-clique =",
      oracle_k_clique(bigger, 4), "| 3-colorable =", oracle_k_colorability(bigger, 3))

print()
toy = make_schema(input_relations={"U": 1}, aux_relations={"A": 1})
db = make_state(toy.input_only(), 5, {"U": {(1,), (3,)}})
# an initialization is any function from an input database to a state
empty = lambda d: assemble_state(toy, d, {}, {})               # A empty
fixed = lambda d: assemble_state(toy, d, {"A": {(0,)}}, {})    # A marks element 0
print("empty init invariant:        ", is_invariant_init(empty, db))
print("fixed-element init invariant:", is_invariant_init(fixed, db))

sch = make_schema(input_relations={"E": 2}, aux_functions={"g": 1}, constants=("s", "t"))
layer = (1, 2, 3)
edges = {(0, a) for a in layer} | {(a, 4) for a in layer}
gdb = make_state(sch.input_only(), 5, {"E": edges}, constants={"s": 0, "t": 4})
init = lambda d: assemble_state(sch, d, {}, {"g": {(i,): d.constants["s"] for i in range(d.n)}})
state = init(gdb)
print()
print("complete 1-layered input, constant-valued function init:")
print("  invariant:", is_invariant_init(init, gdb))
print("  aux function values:", sorted(set(state.fun("g").values())),
      " (never a swappable layer element)")
print("  diverse layer tuples share one atomic type:",
      diverse_tuples_share_type(state, layer, 2))
