"""Size bounds and sampling parameters.

Associativity is the one check that falls back to seeded sampling beyond
its bound; every other check is exhaustive, and the constructions that
materialize large objects (the natural order, all bisections, the symmetric
inverse monoid) refuse outright beyond theirs.  The defaults suit
desk-scale objects; callers can pass a custom ``Limits`` to any
constructor that takes one.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Limits:
    assoc_exhaustive: int = 256       # full n^3 associativity scan up to this size
    assoc_samples: int = 1_000_000    # Monte-Carlo triples above the bound
    order_bound: int = 4096           # refuse to build the natural order beyond this
    bisection_bound: int = 16         # |G| cap for materializing every bisection
    symmetric_bound: int = 5          # |X| cap for the symmetric inverse monoid
    seed: int = 0


DEFAULT_LIMITS = Limits()
