"""Shi regions: parking words, and ceiling diagrams as their view.

The Shi arrangement of a graph G on [n] adds the hyperplanes x_i - x_j = 1
(one per edge i < j) to the Coxeter arrangement.  Its regions are labeled by
the parking functions of size n whose position partition has every arc among
the edges of G, and that word is the region wherever regions are counted:
:func:`shi_word_statistics` reads the ceiling partition, the degrees of
freedom and dominance straight off it, in one scan of the word, into the
:class:`~shi_ish.core.RegionStatistics` that Ish regions share.

A ceiling diagram is the geometric view of the same region: a permutation pi,
giving the coordinate order on the region, together with a nonnesting
partition of [n] recording which added hyperplanes span facets on the origin
side.  Valid diagrams have pi increasing along every block, with consecutive
block values joined by edges of G.  Diagrams are built from words only where
a region is printed, mapped or matched against the geometry;
:func:`parking_to_shi_diagram` and :func:`shi_diagram_to_parking` translate
between the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import (
    Graph,
    Permutation,
    RegionStatistics,
    SetPartition,
    Word,
    _check_int_entries,
    _check_int_letters,
    _region_scan,
    check_partition_of,
    check_permutation,
    is_nonnesting,
    nonnesting_from_block_specs,
    partition_from_blocks,
    strict_int,
)
from .parking import _diagonal_touches


@dataclass(frozen=True)
class ShiCeilingDiagram:
    """Region of a Shi arrangement: coordinate order ``pi`` and nonnesting
    ceiling-recording ``partition``."""

    pi: Permutation
    partition: SetPartition

    def __post_init__(self) -> None:
        _check_int_entries(pi=self.pi, partition=(x for block in self.partition for x in block))
        check_permutation(self.pi)
        check_partition_of(self.partition, len(self.pi))

    @classmethod
    def _unchecked(cls, pi: Permutation, partition: SetPartition) -> "ShiCeilingDiagram":
        """The diagram (pi, partition) without the checks of ``__post_init__``,
        for a caller that has built both from a checked parking word."""
        diagram = object.__new__(cls)
        object.__setattr__(diagram, "pi", pi)
        object.__setattr__(diagram, "partition", partition)
        return diagram

    @property
    def n(self) -> int:
        return len(self.pi)

    def to_json(self) -> dict:
        return {"pi": list(self.pi), "partition": [list(b) for b in self.partition]}

    @classmethod
    def from_json(cls, data: dict) -> "ShiCeilingDiagram":
        if not isinstance(data["pi"], list):
            raise ValueError("'pi' must be a list of integers")
        if not (isinstance(data["partition"], list) and all(isinstance(b, list) for b in data["partition"])):
            raise ValueError("'partition' must be a list of lists of integers")
        return cls(
            pi=tuple(strict_int(x) for x in data["pi"]),
            partition=partition_from_blocks(
                [strict_int(x) for x in block] for block in data["partition"]
            ),
        )


def is_valid_shi(diagram: ShiCeilingDiagram, graph: Graph) -> bool:
    """Whether the diagram is a region of the Shi arrangement of ``graph``:
    it is coherent and every ceiling is an edge.

    >>> is_valid_shi(ShiCeilingDiagram((1, 3, 2), ((1,), (2, 3))), Graph.complete(3))
    False
    """
    try:
        return graph.n == diagram.n and ceiling_hyperplane_tags(diagram) <= graph.edges
    except ValueError:
        return False


def shi_statistics(diagram: ShiCeilingDiagram) -> RegionStatistics:
    """Ceiling partition, degrees of freedom, and dominance of a region:
    the statistics of its parking word (:func:`shi_word_statistics`).

    ValueError unless the diagram is coherent, as for
    :func:`ceiling_hyperplane_tags`.
    """
    return shi_word_statistics(shi_diagram_to_parking(diagram))


def parking_dof(word: Sequence[int]) -> int:
    """Degrees of freedom of the Shi region labeled by the parking function
    ``word``: its diagonal touches, the k with exactly k letters at most k
    (:func:`~shi_ish.parking._diagonal_touches`).  ValueError unless
    ``word`` is a parking function; a letter that is not an int raises as
    in :func:`~shi_ish.parking.is_parking_function`.

    >>> parking_dof((3, 2, 3, 7, 1, 2, 7, 2))
    3
    """
    _check_int_letters(word)
    dof = _diagonal_touches(_region_scan(word, None)[0], len(word))
    if dof is None:
        raise ValueError(f"{word!r} is not a parking function")
    return dof


def shi_word_statistics(word: Sequence[int]) -> RegionStatistics:
    """Statistics of the Shi region labeled by the parking function ``word``,
    read off the word itself by :func:`_word_statistics`.

    The ceiling partition is the word's position partition; the degrees of
    freedom are those of :func:`parking_dof`; the region is dominant when
    the position partition is nonnesting and every block holds the letter
    equal to its minimum (then the diagram partition is the position
    partition and pi is the identity).  Letters are refused as in
    :func:`parking_dof`.

    >>> shi_word_statistics((3, 2, 3, 7, 1, 2, 7, 2))
    RegionStatistics(ceiling_partition=((1, 3), (2, 6, 8), (4, 7), (5,)), dof=3, dominant=False)
    >>> shi_word_statistics((1, 2, 1))
    RegionStatistics(ceiling_partition=((1, 3), (2,)), dof=1, dominant=True)
    """
    _check_int_letters(word)
    stats = _word_statistics(word, None)
    if stats is None:
        raise ValueError(f"{word!r} is not a parking function")
    return stats


def region_word_statistics(word: Sequence[int], graph: Graph) -> Optional[RegionStatistics]:
    """Statistics of the region of Shi(G) labeled by ``word``, or None when
    the word labels no region: it must have n letters, be a parking
    function, and every arc of its position partition (the ceilings) must be
    an edge of G.  The statistics are those of :func:`shi_word_statistics`.
    A letter that is not an int raises as in
    :func:`~shi_ish.parking.is_parking_function`.

    >>> region_word_statistics((1, 2, 1), Graph.complete(3)).dof
    1
    >>> region_word_statistics((1, 2, 1), Graph.path(3)) is None
    True
    """
    _check_int_letters(word)
    return _word_statistics(word, graph.edges) if len(word) == graph.n else None


def _word_statistics(word: Sequence[int], edges: Optional[frozenset[tuple[int, int]]]) -> Optional[RegionStatistics]:
    """The statistics of a parking word of int letters with every arc in
    ``edges`` (None: any arc), else None, without the float test: the
    blocks of one :func:`~shi_ish.core._region_scan` give the parking test
    and the diagonal touches."""
    scan = _region_scan(word, edges)
    dof = None if scan is None else _diagonal_touches(scan[0], len(word))
    return None if dof is None else RegionStatistics(tuple(map(tuple, scan[0].values())), dof, scan[1])


def ceiling_hyperplane_tags(diagram: ShiCeilingDiagram) -> frozenset[tuple[int, int]]:
    """The ceilings of the region, as (i, j) tags of hyperplanes
    x_i - x_j = 1: one per arc of the diagram partition, carried along pi.
    ValueError unless the partition is nonnesting and pi increases along every block."""
    blocks = [tuple([diagram.pi[b - 1] for b in block]) for block in diagram.partition]
    if any(block != tuple(sorted(block)) for block in blocks) or not is_nonnesting(diagram.partition):
        raise ValueError(f"{diagram!r} is not a Shi ceiling diagram")
    return frozenset(pair for block in blocks for pair in zip(block, block[1:]))


def parking_to_shi_diagram(word: Sequence[int]) -> ShiCeilingDiagram:
    """Encode a parking function as a Shi ceiling diagram.

    The letter values with their multiplicities are the block minima and
    sizes of the diagram partition (welded nonnesting by the
    first-in-first-out rule), and within the block with minimum c the
    positions of letter c in the word, taken increasingly, define pi.

    Only the word is checked, here; a caller holding a word that its
    region stream has checked calls :func:`_shi_diagram` itself.
    ``ShiCeilingDiagram(pi, partition)`` and
    :meth:`ShiCeilingDiagram.from_json` keep the constructor's checks.

    >>> parking_to_shi_diagram((3, 2, 3, 7, 1, 2, 7, 2)).pi
    (5, 2, 1, 6, 3, 8, 4, 7)
    """
    _check_int_letters(word)
    blocks = _region_scan(word, None)[0]
    if _diagonal_touches(blocks, len(word)) is None:
        raise ValueError(f"{word!r} is not a parking function")
    return _shi_diagram(word, blocks.values())


def _shi_diagram(word: Sequence[int], partition: Iterable[Sequence[int]]) -> ShiCeilingDiagram:
    """:func:`parking_to_shi_diagram` of a checked parking word and its
    position partition (its ceiling partition).  Then pi is a permutation
    and the partition a canonical partition of [n] by construction, so the
    diagram is built without the constructor's checks."""
    n = len(word)
    positions = {word[block[0] - 1]: block for block in partition}
    specs = [(letter, len(hits)) for letter, hits in positions.items()]
    diagram_partition = nonnesting_from_block_specs(specs, n)
    pi = [0] * n
    for block in diagram_partition:
        for b, pos in zip(block, positions[block[0]]):
            pi[b - 1] = pos
    return ShiCeilingDiagram._unchecked(tuple(pi), diagram_partition)


def shi_diagram_to_parking(diagram: ShiCeilingDiagram) -> Word:
    """Decode a Shi ceiling diagram back to its parking function.

    Position pi_b of the word carries the minimum of the block containing b.

    >>> shi_diagram_to_parking(parking_to_shi_diagram((3, 2, 3, 7, 1, 2, 7, 2)))
    (3, 2, 3, 7, 1, 2, 7, 2)
    """
    ceiling_hyperplane_tags(diagram)
    word = [0] * diagram.n
    for block in diagram.partition:
        for b in block:
            word[diagram.pi[b - 1] - 1] = block[0]
    return tuple(word)
