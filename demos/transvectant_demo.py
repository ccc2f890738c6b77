"""
Covariants, transvectants, and the hyperdeterminant
===================================================

Writing a state as a multilinear form with one binary variable pair
per site opens the classical toolbox: transvection with the Omega
operator builds covariants, the derivative inner product turns them
into invariants, and those invariants line up with the cumulant family
up to exact combinatorial constants.
"""

import numpy as np

from luinv import (
    covariant_norm,
    cumulant_invariant,
    cumulant_poly,
    fundamental_form,
    generate_state,
    hyperdeterminant,
    iota_chain,
    three_tangle,
    transvectant,
)

psi = generate_state("random", 3, seed=8)
f = fundamental_form(psi)

# one transvection at both sites of a two-qubit state gives 2 d_11; on
# three qubits the third site keeps its variables, and the covariant's
# x0^2 coefficient there is 2 d_110.  A covariant is an array with one
# axis per site; entry j at a degree-k site multiplies x0^(k-j) x1^j.
g = transvectant(f, f, (1, 1, 0))
print("(f,f)^110 site degrees:       ", [size - 1 for size in g.shape])
print("(f,f)^110 coefficient of x0^2:", g[0, 0, 0])
print("2 d_110:                      ", 2 * cumulant_poly("110").evaluate(psi))
print()

# the chain's norm is a known multiple of the cumulant invariant:
# 4 ((k-2)!)^k (k!)^(n-k) for the full k-site chain on n sites
for n, k in ((3, 2), (3, 3), (4, 4)):
    state = generate_state("random", n, seed=n * 10 + k)
    ratio = covariant_norm(iota_chain(state, k)) / cumulant_invariant(
        state, "1" * k + "0" * (n - k)
    )
    print(f"n={n} k={k}: norm/invariant = {ratio:.6f}")
print()

# the 2x2x2 hyperdeterminant via the epsilon contraction
ghz = generate_state("ghz", 3)
w = generate_state("w", 3)
print("Det(GHZ) =", np.round(hyperdeterminant(ghz), 12))
print("Det(W)   =", np.round(hyperdeterminant(w), 12))
print("three-tangle of GHZ:", three_tangle(ghz))
