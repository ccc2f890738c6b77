"""
The trace-norm correlation measure
==================================

The cumulant operator rho_c of a density matrix is the
partition-alternating sum of tensor products of its reduced states.
luinv computes it by the moment-cumulant recursion over subsets,
kappa_S = rho_S - sum_B kappa_B (x) rho_(S-B), instead of the Bell(n)
partitions: on a 2-core VM `zhou_m` on all sites of a random state
takes 0.034 s at n = 7, 0.17 s at n = 8, 1.4 s at n = 9 and 12.9 s at
n = 10.  The table of reduced states, 16 * 5^n bytes, caps it at
n = 11 (invariants.MAX_TABLE_BYTES); n = 12 is refused.
Half its trace norm, M = tr|rho_c| / 2, vanishes exactly on products
and is a genuinely different quantity from the polynomial invariants:
on two qubits it is the function I + sqrt(I) of the single invariant,
but from three qubits on no function of I_111 reproduces it.
"""

import numpy as np

from luinv import AlgebraElement, cumulant_invariant, generate_state, zhou_m

# two qubits: M is a function of the lone invariant
rng = np.random.default_rng(3)
psi = generate_state("random", 2, seed=14)
i11 = cumulant_invariant(psi, "11")
print("M_11:", zhou_m(psi, "11"))
print("I_11 + sqrt(I_11):", i11 + np.sqrt(i11))
print()

# products give exactly zero
prod = generate_state("separable", 3, seed=6)
print("M_111 on a product state:", zhou_m(prod, "111"))

# along a|000> + b|111> both M and I_111 are functions of the mixing
# angle, so one can plot M against I; the arc below is exactly
# 3I sqrt(1-4I) + sqrt(I + I^2 - 4I^3)
print()
print("   t      I_111     M_111")
for t in np.linspace(0.15, np.pi / 2 - 0.15, 5):
    c = np.zeros(8)
    c[0], c[7] = np.cos(t), np.sin(t)
    ghz_line = AlgebraElement(3, 2, c)
    i111 = cumulant_invariant(ghz_line, "111")
    print(f"  {t:.3f}   {i111:.5f}   {zhou_m(ghz_line, '111'):.5f}")
