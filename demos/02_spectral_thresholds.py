"""
How close to the threshold do the exceptional graphs sit?
=========================================================

Each eigenvalue condition needs its exception list: there are
non-Hamiltonian (or nontraceable) graphs whose spectral radius clears
the bound, some of them exactly on it.  This script recomputes those
values two ways -- ``rho`` (the top eigenvalue by ``eigvalsh``, same
bits in any stack) and the full spectrum from ``eigen_oracle``, whose
last value is the same bits -- and shows the margins.
"""

import math

import numpy as np

from hamcheck import eigen_oracle, is_hamiltonian, q_radius, rho, star
from hamcheck.families import knn1_plus_edge, make_family, nc_member

# --- bipartite: K_{n,n-1}+e is non-Hamiltonian yet clears the
# rho >= sqrt(n^2 - 2n + 4) threshold, so it must be excepted ---------
for n in range(4, 9):
    b = knn1_plus_edge(n)
    threshold = math.sqrt(n * n - 2 * n + 4)
    radius = rho(b).value
    dense = eigen_oracle(b)[-1]
    assert radius == dense  # one LAPACK driver, so the two routes agree exactly
    print(f"K_{{{n},{n - 1}}}+e : rho = {radius:.10f}  threshold = {threshold:.10f}"
          f"  gap = {radius - threshold:+.2e}")
    assert is_hamiltonian(b.to_graph()) is None

print()

# --- signless Laplacian: the tight family for q >= 2n - 5 + 3/(n-1) --
for index, label in [(2, "K3 v 4K1 (n=7)"), (8, "K2 v 3K1 (n=5)")]:
    g = make_family(nc_member(index))
    n = g.n
    threshold = 2 * n - 5 + 3 / (n - 1)
    q = q_radius(g).value
    print(f"{label:16s}: q = {q:.6f}  threshold = {threshold:.6f}"
          f"  margin = {q - threshold:+.4f}")

print()

# --- a boundary case: K_{1,4} has q = 5 = 2n - 5 exactly -------------
g = star(5)
q = q_radius(g).value
print(f"K_1,4          : q = {q:.10f}  threshold = {2 * 5 - 5}  (exact boundary)")
print("so the traceability bound q >= 2n - 5 cannot be weakened at all.")
