"""Two more attack drivers.

The subset gadget targets binary candidates for s-t-reachability on
2-layered graphs: one layer-A node per subset X of layer B, full B->t
edges, then a Higman pair over binary type words picks two subsets the
candidate conflates; deleting one subset's edges and connecting s to it
separates truth from the candidate's answer.

The conjunctive adversary targets and-of-literals candidates for
non-empty-set: saturation forces every finite-deletion-depth relation to
hold all diverse tuples, so deleting down to the last element leaves the
query bit stuck.
"""
from dynqf import (attack_subset_gadget, cq_adversary, diverse_saturation,
                   deletion_depth, empty_input_db, init_state, ins,
                   oracle_nonemptyset, oracle_st_reach, run,
                   validate_counterexample)
from dynqf.corpus import strawman_program

binary = strawman_program("binary-reach2-naive")
cex = attack_subset_gadget(binary, 2)
print("subset gadget vs", binary.name)
print(f"  witness: {len(cex.sequence)} steps, divergence at step {cex.step}")
print(f"  final step: {cex.sequence[-1]}  (the re-connect edge of the schedule)")
print("  replay validation:", validate_counterexample(binary, oracle_st_reach, cex))

print()
cq = strawman_program("cq-nonemptyset-naive")
depths = deletion_depth(cq)
print("conjunctive adversary vs", cq.name, "| deletion depths:", depths)

# the saturation argument, visible in the candidate's own states
state = run(cq, init_state(cq, empty_input_db(cq, 2)), [ins("U", 0), ins("U", 1)])[-1]
print("  after saturating U = {0,1}: missing diverse tuples =",
      diverse_saturation(state, depths))

cex = cq_adversary(cq, bound=4)
print(f"  witness: {[str(m) for m in cex.sequence]}")
print(f"  at step {cex.step}: oracle {cex.expected}, candidate {cex.produced}")
print("  replay validation:", validate_counterexample(cq, oracle_nonemptyset, cex))
