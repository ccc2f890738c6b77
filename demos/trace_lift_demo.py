"""
Lifting invariants through a partial trace
==========================================

An invariant with a 0 at one site can be evaluated two ways: directly
on the pure state, or by tracing that site out and applying the
mixed-state form to the reduced density matrix.  For a single traced
site the two agree to machine precision, for every placement.

For two or more traced sites they genuinely differ.  Each traced site
carries its own independent Haar pairing, and the cross terms those
pairings generate are not a function of the traced density matrix.
The cleanest witness is a pair of Bell states laid across the cut.
"""

from luinv import generate_state, lifted_invariant_pair, permute_sites, tensor

psi = generate_state("random", 3, seed=21)

print("single traced site, all placements:")
for traced, kept in ((3, "11"), (2, "11"), (1, "11")):
    i_val, j_val = lifted_invariant_pair(psi, (traced,), kept)
    print(f"  trace site {traced}: I = {i_val:.12f}  lifted = {j_val:.12f}")

# theta = 5 on five kept sites: the lift is a finite difference over
# 20 lattice states through the invariant grid, in milliseconds
psi6 = generate_state("random", 6, seed=22)
i_val, j_val = lifted_invariant_pair(psi6, (6,), "11111")
print(f"  6 qubits, trace site 6, theta = 5: I = {i_val:.12f}  lifted = {j_val:.12f}")
print()

# Bell pairs on sites 1,3 and 2,4: the index 1100 splits the product,
# so the pure-state invariant is exactly zero, while the reduced state
# on sites 1,2 is maximally mixed and lifts to 1/16
bell = generate_state("bell", 2)
crossed = permute_sites(tensor(bell, bell), (1, 3, 2, 4))
i_val, j_val = lifted_invariant_pair(crossed, (3, 4), "11")
print("two traced sites on crossed Bell pairs:")
print(f"  I_1100 = {i_val:.12f}")
print(f"  lifted = {j_val:.12f}   (= 1/16; the identity stops at one trace)")
