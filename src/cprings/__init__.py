"""Exact symbolic Toeplitz and Cuntz-Pimsner rings over finitely presented R-systems.

The package is layered bottom-up:

- exactlin: exact linear algebra over Q whose kernels skip zero entries (RREF, subspaces, quotients)
- rsystem: structure-constant presentations of rings, bimodules, pairings
- tensorpow: balanced tensor powers of the module legs and the iterated pairing
- finrank: one theta table per system feeding F_P(Q), (FS) and Delta^-1(F), each computed once per system
- toeplitz: the graded Toeplitz ring, its product, and the Fock representation
- cpring: relative Cuntz-Pimsner quotients, exact relation-ideal membership from Fock blocks, covariance of representations
- ideals: T-pairs, quotient systems, the graded-ideal correspondence
- graphalg: finite graphs, Leavitt path algebra normal forms (closed-form backend)
- crossedprod: skew Laurent / crossed product backend for automorphism systems
- cli: the `cpr` command line front end
"""

from . import exactlin, rsystem, tensorpow, finrank, toeplitz, cpring, ideals
from . import graphalg, crossedprod

__all__ = [
    "exactlin",
    "rsystem",
    "tensorpow",
    "finrank",
    "toeplitz",
    "cpring",
    "ideals",
    "graphalg",
    "crossedprod",
]

__version__ = "0.1.0"
