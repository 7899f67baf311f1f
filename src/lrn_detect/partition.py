"""Ring tripartitions A | C1 | B | C2 sized for a circuit depth.

The separated intervals A and B carry the mutual information; the two
arcs of C = C1 u C2 isolate them.  For depth D the builder starts A at
site 0 and gives A and B 2D+2 sites each, and C1 and C2 the rest, each
at least 2D+2 sites: enough that boundary effects of a depth-D brickwork
circuit reach across no region.  ``Partition`` itself accepts any four
contiguous arcs in order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PartitionTooSmall


@dataclass(frozen=True)
class Partition:
    """Four disjoint contiguous arcs covering the ring, in order A,C1,B,C2."""

    n_sites: int
    a: tuple[int, ...]
    c1: tuple[int, ...]
    b: tuple[int, ...]
    c2: tuple[int, ...]

    def __post_init__(self):
        ring = list(self.a) + list(self.c1) + list(self.b) + list(self.c2)
        if sorted(ring) != list(range(self.n_sites)):
            raise PartitionTooSmall("regions must cover the ring exactly once")
        for k in range(len(ring)):
            if (ring[k] + 1) % self.n_sites != ring[(k + 1) % len(ring)]:
                raise PartitionTooSmall(
                    "regions must be contiguous arcs in the order A, C1, B, C2"
                )
        if not (self.a and self.c1 and self.b and self.c2):
            raise PartitionTooSmall("all four regions must be nonempty")

    @property
    def ab(self) -> tuple[int, ...]:
        return self.a + self.b

    def min_region(self) -> int:
        return min(len(self.a), len(self.c1), len(self.b), len(self.c2))

    def to_json(self) -> dict:
        return {"a": list(self.a), "c1": list(self.c1), "b": list(self.b), "c2": list(self.c2)}


def build_partition(n: int, depth: int) -> Partition:
    """The least partition of an ``n``-site ring for a depth-``depth`` circuit.

    A starts at site 0, and |A| = |B| = 2 * depth + 2.  C gets the remaining
    sites split symmetrically; C1 takes the odd one out.  Every region must
    reach 2 * depth + 2 sites.

    Raises:
        PartitionTooSmall: if the ring cannot host four big-enough regions.
    """
    if depth < 0:
        raise PartitionTooSmall("depth must be nonnegative")
    half = 2 * depth + 2
    rem = n - 2 * half
    c1 = (rem + 1) // 2
    c2 = rem - c1
    if c2 < half:  # C2 is the smaller arc of C
        raise PartitionTooSmall(f"n={n} cannot host four regions of at least {half} sites")
    return Partition(
        n_sites=n,
        a=tuple(range(half)),
        c1=tuple(range(half, half + c1)),
        b=tuple(range(half + c1, 2 * half + c1)),
        c2=tuple(range(2 * half + c1, n)),
    )
