"""Sufficient conditions for Hamiltonicity and traceability, with receipts.

Spectral, degree-sequence, and edge-count checkers return Verdicts with
numeric certificates; an exact small-graph oracle and exhaustive labeled
scans back every theorem the package implements.
"""

from .conditions import (
    HAMILTONIAN,
    TRACEABLE,
    Status,
    Verdict,
    check_theorem,
    ec_ep_membership,
    nc_np_membership,
    recognize_family,
)
from .families import FamilyId, FamilyTag, NC_NAMES, NP_NAMES, make_family, nc_member, np_member
from .graph6 import Graph6Error, parse_graph6, write_graph6
from .graphs import (
    BipartiteGraph,
    Graph,
    bipartite_from_edges,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    from_edges,
    join,
    path,
    quasi_complement,
    star,
)
from .oracle import HamWitness, backtrack_oracle, is_hamiltonian, is_traceable
from .spectral import SpectralEstimate, eigen_oracle, q_radius, rho
from .verify import (
    SoundnessReport,
    soundness,
    table1_report,
    theorem_ids,
    tightness_search,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph",
    "FamilyId",
    "FamilyTag",
    "Graph",
    "Graph6Error",
    "HAMILTONIAN",
    "HamWitness",
    "NC_NAMES",
    "NP_NAMES",
    "SoundnessReport",
    "SpectralEstimate",
    "Status",
    "TRACEABLE",
    "Verdict",
    "backtrack_oracle",
    "bipartite_from_edges",
    "check_theorem",
    "complement",
    "complete",
    "complete_bipartite",
    "cycle",
    "disjoint_union",
    "ec_ep_membership",
    "eigen_oracle",
    "from_edges",
    "is_hamiltonian",
    "is_traceable",
    "join",
    "make_family",
    "nc_member",
    "nc_np_membership",
    "np_member",
    "parse_graph6",
    "path",
    "q_radius",
    "quasi_complement",
    "recognize_family",
    "rho",
    "soundness",
    "star",
    "table1_report",
    "theorem_ids",
    "tightness_search",
    "write_graph6",
]
