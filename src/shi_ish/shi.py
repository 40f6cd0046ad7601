"""Ceiling diagrams for regions of Shi arrangements.

The Shi arrangement of a graph G on [n] adds the hyperplanes x_i - x_j = 1
(one per edge i < j) to the Coxeter arrangement.  Each region is encoded by
a permutation pi, giving the coordinate order on the region, together with a
nonnesting partition of [n] recording which added hyperplanes span facets on
the origin side.  Valid diagrams have pi increasing along every block, with
consecutive block values joined by edges of G.

The translation to and from parking functions realizes the standard labeling
of Shi regions by parking functions and is the calculation engine behind
every region statistic here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

from .core import (
    Graph,
    Permutation,
    SetPartition,
    Word,
    apply_permutation,
    arcs,
    check_partition_of,
    check_permutation,
    connected_components,
    identity_permutation,
    is_nonnesting,
    nonnesting_from_block_specs,
    partition_from_blocks,
    strict_int,
)
from .parking import is_parking_function, parking_functions


@dataclass(frozen=True)
class ShiCeilingDiagram:
    """Region of a Shi arrangement: coordinate order ``pi`` and nonnesting
    ceiling-recording ``partition``."""

    pi: Permutation
    partition: SetPartition

    def __post_init__(self) -> None:
        check_permutation(self.pi)
        check_partition_of(self.partition, len(self.pi))

    @property
    def n(self) -> int:
        return len(self.pi)

    def to_json(self) -> dict:
        return {"pi": list(self.pi), "partition": [list(b) for b in self.partition]}

    @classmethod
    def from_json(cls, data: dict) -> "ShiCeilingDiagram":
        return cls(
            pi=tuple(strict_int(x) for x in data["pi"]),
            partition=partition_from_blocks(
                [strict_int(x) for x in block] for block in data["partition"]
            ),
        )


def is_valid_shi(diagram: ShiCeilingDiagram, graph: Graph) -> bool:
    """Check the diagram conditions for the Shi arrangement of ``graph``:
    partition nonnesting, pi increasing along blocks, consecutive block
    values joined by edges.

    >>> is_valid_shi(ShiCeilingDiagram((1, 3, 2), ((1,), (2, 3))), Graph.complete(3))
    False
    """
    if graph.n != diagram.n:
        return False
    if not is_nonnesting(diagram.partition):
        return False
    for block in diagram.partition:
        values = [diagram.pi[b - 1] for b in block]
        if values != sorted(values):
            return False
        for a, b in zip(values, values[1:]):
            if (a, b) not in graph.edges:
                return False
    return True


def _check_coherent(diagram: ShiCeilingDiagram) -> None:
    # validity against the complete graph = validity against some graph
    if not is_valid_shi(diagram, Graph.complete(diagram.n)):
        raise ValueError(f"{diagram!r} is not a Shi ceiling diagram")


class ShiStatistics(NamedTuple):
    ceiling_partition: SetPartition
    dof: int
    dominant: bool

    @property
    def relatively_bounded(self) -> bool:
        """One degree of freedom: bounded up to translation along (1, ..., 1)."""
        return self.dof == 1


def shi_statistics(diagram: ShiCeilingDiagram) -> ShiStatistics:
    """Ceiling partition, degrees of freedom, and dominance of a region.

    The ceiling partition is the diagram partition pushed forward along pi;
    the degrees of freedom of the region (dimension of its recession cone)
    is the number of connected components of the partition; dominant regions
    are those with pi the identity.
    """
    _check_coherent(diagram)
    return ShiStatistics(
        ceiling_partition=apply_permutation(diagram.pi, diagram.partition),
        dof=len(connected_components(diagram.partition)),
        dominant=diagram.pi == identity_permutation(diagram.n),
    )


def ceiling_hyperplane_tags(diagram: ShiCeilingDiagram) -> frozenset[tuple[int, int]]:
    """The ceilings of the region, as (i, j) tags of hyperplanes
    x_i - x_j = 1: one per arc of the diagram partition."""
    _check_coherent(diagram)
    return frozenset(
        (diagram.pi[a - 1], diagram.pi[b - 1]) for a, b in arcs(diagram.partition)
    )


def parking_to_shi_diagram(word: Sequence[int]) -> ShiCeilingDiagram:
    """Encode a parking function as a Shi ceiling diagram.

    The letter values with their multiplicities are the block minima and
    sizes of the diagram partition (welded nonnesting by the
    first-in-first-out rule), and within the block with minimum c the
    positions of letter c in the word, taken increasingly, define pi.

    >>> parking_to_shi_diagram((3, 2, 3, 7, 1, 2, 7, 2)).pi
    (5, 2, 1, 6, 3, 8, 4, 7)
    """
    if not is_parking_function(word):
        raise ValueError(f"{word!r} is not a parking function")
    n = len(word)
    positions: dict[int, list[int]] = {}
    for pos, letter in enumerate(word, start=1):
        positions.setdefault(letter, []).append(pos)
    specs = [(letter, len(hits)) for letter, hits in positions.items()]
    partition = nonnesting_from_block_specs(specs, n)
    pi = [0] * n
    for block in partition:
        for b, pos in zip(block, positions[block[0]]):
            pi[b - 1] = pos
    return ShiCeilingDiagram(pi=tuple(pi), partition=partition)


def shi_diagram_to_parking(diagram: ShiCeilingDiagram) -> Word:
    """Decode a Shi ceiling diagram back to its parking function.

    Position pi_b of the word carries the minimum of the block containing b.

    >>> shi_diagram_to_parking(parking_to_shi_diagram((3, 2, 3, 7, 1, 2, 7, 2)))
    (3, 2, 3, 7, 1, 2, 7, 2)
    """
    _check_coherent(diagram)
    word = [0] * diagram.n
    for block in diagram.partition:
        for b in block:
            word[diagram.pi[b - 1] - 1] = block[0]
    return tuple(word)


def shi_diagrams(n: int, graph: Optional[Graph] = None) -> Iterator[ShiCeilingDiagram]:
    """All regions of the Shi arrangement of ``graph`` (default complete),
    one diagram each, in the lexicographic order of their parking functions.
    """
    graph = Graph.complete(n) if graph is None else graph
    for word in parking_functions(n, graph):
        yield parking_to_shi_diagram(word)
