"""
Checking one graph against the sufficient conditions
====================================================

The library answers a simple question: given a graph, which of the
known degree / edge-count / spectral sufficient conditions certify
that it has a Hamiltonian cycle or path?
"""

from hamcheck import check_theorem, cycle, is_hamiltonian, q_radius, rho

# The 5-cycle: connected, 2-regular, obviously Hamiltonian -- but which
# of the sufficient conditions can *prove* that without searching?
g = cycle(5)

print(f"C5: n={g.n}, m={g.edge_count()}")
print(f"adjacency spectral radius  rho = {rho(g).value:.6f}")
print(f"signless Laplacian radius  q   = {q_radius(g).value:.6f}")
print()

# Each theorem is named by its id, as `hamcheck verify --theorem list`
# prints them; check_theorem applies it to one graph.
checks = [
    ("chvatal", check_theorem("chvatal", g)),
    ("edge bound (cycle)", check_theorem("lemma-3.4", g)),
    ("edge bound (path)", check_theorem("lemma-3.6", g)),
    ("q tight (cycle)", check_theorem("tight-q-hamiltonian", g)),
    ("q tight (path)", check_theorem("tight-q-traceable", g)),
    ("complement q (cycle)", check_theorem("zhou-complement-hamiltonian", g)),
    ("complement q (path)", check_theorem("zhou-complement-traceable", g)),
]
for name, v in checks:
    cert = dict(v.certificate)
    extra = f"margin {cert['margin']:+.4f}" if "margin" in cert else ""
    print(f"{name:22s} -> {v.status.name:12s} {extra}")

# C5 is too sparse for the eigenvalue conditions aimed at nearly-complete
# graphs; the complement condition lands exactly on its threshold
# (q(C5-complement) = 4 = n - 1), and the library never promotes a
# boundary case to Guaranteed.  The exact oracle settles it:
print()
print(f"oracle: Hamiltonian cycle = {is_hamiltonian(g)}")
