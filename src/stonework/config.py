"""Size bounds.

Every axiom check is exact at every size, and none of them samples.  The
bounds cap only the constructions that materialize large objects (the natural
order, all bisections, the symmetric inverse monoid), which refuse beyond
them.  The defaults suit desk-scale objects; callers can pass a custom
``Limits`` to any constructor that takes one.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Limits:
    order_bound: int = 4096           # refuse to build the natural order beyond this
    bisection_bound: int = 16         # |G| cap for materializing every bisection
    symmetric_bound: int = 5          # |X| cap for the symmetric inverse monoid


DEFAULT_LIMITS = Limits()
