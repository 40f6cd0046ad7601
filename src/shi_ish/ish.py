"""Ceiling diagrams, their rook-word codec, and counting for Ish arrangements.

The Ish arrangement of a graph G on [n] adds the hyperplanes x_1 - x_j = i
(one per edge i < j) to the Coxeter arrangement.  A region is encoded by a
pair (pi, eps): pi in S_n is the coordinate order and eps records, above each
position, how far the region sits from the origin across the added
hyperplanes.  Valid diagrams have the positive eps entries strictly
increasing, occurring only to the right of the position of the letter 1,
with eps_i < pi_i and (eps_i, pi_i) an edge of G.

Where regions are counted or the bijection theorems are checked, a region is
its rook word, as a Shi region is its parking word:
:func:`~shi_ish.rookwords.rook_words` with a graph generates them, and
:func:`region_rook_word_statistics` reads the statistics off the word, into
the :class:`~shi_ish.core.RegionStatistics` that Shi regions share.  A
diagram's statistics are those of its rook word too
(:func:`ish_statistics`); the paper's rules on (pi, eps) are the tests'
reference.  The diagram is decoded by :func:`_decode_rook_word` only where a
region is printed, named in a failure or matched against the geometry.

Diagrams correspond to rook placements on a staircase board whose column i
has n + i - 1 squares; rows above n exist only where G has the matching
edge.  Two laser constructions translate placements to words: rightward
lasers give the parking-function side, downward lasers give rook words.
A coherent diagram's placement has one rook per column, so the codec here
holds it as a list of rows, read off (pi, eps) or off the rook word, and
the bijections run both lasers on those rows.  The placements on the board
and the checked codecs are the paper's construction as it states it; they
live in the tests' reference module, which holds this codec to them.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from math import comb, factorial
from typing import Callable, Optional, Sequence

from .core import (
    Graph,
    Permutation,
    RegionStatistics,
    SetPartition,
    Word,
    _check_int_entries,
    _check_int_letters,
    _region_scan,
    check_permutation,
    check_word,
    cyclic_shift,
    set_partitions,
    strict_int,
)
from .rookwords import _rook_tail_dof
from .rookwords import orbit_certificate  # noqa: F401 - perfbench's tracer test patches this binding


@dataclass(frozen=True)
class IshCeilingDiagram:
    """Region of an Ish arrangement: coordinate order ``pi`` and dot counts
    ``eps`` (eps_i = 0 means position i is undotted)."""

    pi: Permutation
    eps: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_int_entries(pi=self.pi, eps=self.eps)
        check_permutation(self.pi)
        if len(self.eps) != len(self.pi):
            raise ValueError("eps must have one entry per position")
        if any(e < 0 for e in self.eps):
            raise ValueError("eps entries must be nonnegative")

    @classmethod
    def _unchecked(cls, pi: Permutation, eps: tuple[int, ...]) -> "IshCeilingDiagram":
        """(pi, eps) without the checks of ``__post_init__``, for a diagram
        decoded from a checked rook word."""
        diagram = object.__new__(cls)
        object.__setattr__(diagram, "pi", pi)
        object.__setattr__(diagram, "eps", eps)
        return diagram

    @property
    def n(self) -> int:
        return len(self.pi)

    def to_json(self) -> dict:
        return {"pi": list(self.pi), "eps": list(self.eps)}

    @classmethod
    def from_json(cls, data: dict) -> "IshCeilingDiagram":
        for key in ("pi", "eps"):
            if not isinstance(data[key], list):
                raise ValueError(f"{key!r} must be a list of integers")
        return cls(
            pi=tuple(strict_int(x) for x in data["pi"]),
            eps=tuple(strict_int(x) for x in data["eps"]),
        )


def is_valid_ish(diagram: IshCeilingDiagram, graph: Graph) -> bool:
    """Whether the diagram is a region of the Ish arrangement of ``graph``:
    it is coherent and every ceiling is an edge.

    >>> d = IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0))
    >>> is_valid_ish(d, Graph.complete(8))
    True
    """
    try:
        return graph.n == diagram.n and ish_ceiling_pairs(diagram) <= graph.edges
    except ValueError:
        return False


def ish_ceiling_pairs(diagram: IshCeilingDiagram) -> frozenset[tuple[int, int]]:
    """The ceilings of the region, as (i, j) tags of hyperplanes
    x_1 - x_j = i: one pair (eps_i, pi_i) per dotted position.  ValueError
    unless the diagram is coherent: the dotted positions lie right of the
    letter 1, their dot counts strictly increase, each below its letter."""
    one_at = diagram.pi.index(1) + 1
    pairs: list[tuple[int, int]] = []
    for i, (p, e) in enumerate(zip(diagram.pi, diagram.eps), start=1):
        if e > 0:
            if i <= one_at or e >= p or (pairs and e <= pairs[-1][0]):
                raise ValueError(f"{diagram!r} is not an Ish ceiling diagram")
            pairs.append((e, p))
    return frozenset(pairs)


def ish_statistics(diagram: IshCeilingDiagram) -> RegionStatistics:
    """Ceiling partition, degrees of freedom, and dominance of a region:
    the statistics of its rook word (:func:`region_rook_word_statistics`),
    as :func:`~shi_ish.shi.shi_statistics` reads the parking word.

    ValueError unless the diagram is coherent, as for
    :func:`ish_ceiling_pairs`.

    >>> ish_statistics(IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0)))
    RegionStatistics(ceiling_partition=((1, 7), (2, 3, 5, 6), (4,), (8,)), dof=3, dominant=False)
    """
    stats = _rook_word_statistics(_encode_rook_word(diagram), None)
    if stats is None:
        raise AssertionError(f"{diagram!r} encodes to a word that is not a rook word")
    return stats


def region_rook_word_statistics(word: Sequence[int], graph: Graph) -> Optional[RegionStatistics]:
    """Statistics of the region of Ish(G) labeled by ``word``, or None when
    the word labels no region: it must have n letters, be a rook word, and
    every arc of its position partition must be an edge of G.  A letter
    that is not an int raises as in :func:`~shi_ish.rookwords.is_rook_word`.

    The word is the region's downward-laser rook word.  Its position
    partition is the ceiling partition, the degrees of freedom are those of
    :func:`~shi_ish.rookwords.tail_and_dof`, and the region is dominant by
    the rule of :func:`~shi_ish.shi.shi_word_statistics`.

    >>> region_rook_word_statistics((2, 8, 8, 1, 8, 8, 2, 5), Graph.complete(8)).dof
    3
    """
    _check_int_letters(word)
    return _rook_word_statistics(word, graph.edges) if len(word) == graph.n else None


def _rook_word_statistics(word: Sequence[int], edges: Optional[frozenset[tuple[int, int]]]) -> Optional[RegionStatistics]:
    """:func:`region_rook_word_statistics` of a word of n int letters with
    every arc in ``edges`` (None: any arc), without the float test: the
    keys of the blocks of one :func:`~shi_ish.core._region_scan` give the
    rook test and the tail."""
    scan = _region_scan(word, edges)
    dof = None if scan is None else _rook_tail_dof(scan[0], word[0], len(word))
    return None if dof is None else RegionStatistics(tuple(map(tuple, scan[0].values())), dof, scan[1])


# ---------------------------------------------------------------------------
# both lasers on (pi, eps) directly: the placement is a list of rows
#
# A coherent diagram's placement has one rook per column, so it is the list
# ``rows`` with rows[c - 1] the row of column c's rook.  Every placement the
# lasers produce is valid on the full board of the complete graph, so the
# codec checks coherence on the diagrams at both ends and nothing between.
# Each helper is one step of the placement construction, named after the
# function of the tests' reference module that takes that step on a board.


def _rook_rows(diagram: IshCeilingDiagram) -> list[int]:
    """The rows of ``ish_diagram_to_placement``: letter p sits at its
    position if undotted, at n plus its dot count if dotted."""
    ish_ceiling_pairs(diagram)
    n = diagram.n
    rows = [0] * n
    for position, (value, e) in enumerate(zip(diagram.pi, diagram.eps), start=1):
        rows[value - 1] = n + e if e else position
    return rows


def _diagram_from_rows(rows: Sequence[int], build: Callable = IshCeilingDiagram) -> IshCeilingDiagram:
    """The diagram of ``placement_to_ish_diagram``: rows up to n pin their
    column's letter to that position; the rows above the bar, by increasing
    height, fill the remaining positions left to right.  ``build`` makes it
    from (pi, eps); its coherence is checked."""
    n = len(rows)
    pi = [0] * n
    eps = [0] * n
    above = []
    for col, row in enumerate(rows, start=1):
        if row <= n:
            pi[row - 1] = col
        else:
            above.append((row - n, col))
    free = [i for i in range(n) if not pi[i]]
    for i, (e, value) in zip(free, sorted(above)):
        pi[i] = value
        eps[i] = e
    diagram = build(tuple(pi), tuple(eps))
    ish_ceiling_pairs(diagram)
    return diagram


def _encode_rook_word(diagram: IshCeilingDiagram) -> Word:
    """The downward-laser rook word of a region, in O(n): letter p at
    position i reads i if undotted, and otherwise the letter already read for
    its dot count eps_i < p.  ValueError unless the diagram is coherent; the
    word is not tested again, so a caller certifies it itself.

    >>> _encode_rook_word(IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0)))
    (2, 8, 8, 1, 8, 8, 2, 5)
    """
    return _rows_to_rook_word(_rook_rows(diagram))


def _rows_to_rook_word(rows: Sequence[int]) -> Word:
    """The downward-laser word of a placement given as rows: a rook at row
    r <= n reads r, a rook at row n + e reads the letter of column e."""
    n = len(rows)
    word: list[int] = []
    for row in rows:
        word.append(row if row <= n else word[row - n - 1])
    return tuple(word)


def _decode_rook_word(word: Sequence[int]) -> IshCeilingDiagram:
    """The region of a word already known to be a rook word.  The first
    occurrence of letter a, at position q, puts q at position a; the
    repeats, as (previous position, position) pairs in increasing order,
    fill the positions of the missing letters left to right as dotted
    letters.  Its rows are distinct, so pi is a permutation and eps is
    nonnegative by construction: the diagram is built without the
    constructor's checks, and its coherence is still checked.

    >>> _decode_rook_word((2, 8, 8, 1, 8, 8, 2, 5))
    IshCeilingDiagram(pi=(4, 1, 7, 3, 8, 5, 6, 2), eps=(0, 0, 1, 2, 0, 3, 5, 0))
    """
    return _diagram_from_rows(_rook_word_rows(word), IshCeilingDiagram._unchecked)


def _rook_word_rows(word: Sequence[int]) -> list[int]:
    """The rows of ``rook_word_to_placement``: the first occurrence of
    letter a sits in row a, a repeat in row n plus the position of the
    letter's previous occurrence.  A float equal to an integer passes the
    rook test; it is refused here, where it fails as a list index."""
    n = len(word)
    rows = []
    last_at = [0] * (n + 1)  # latest position of each letter, 0 if none yet
    try:
        for pos, letter in enumerate(word, start=1):
            before = last_at[letter]
            rows.append(n + before if before else letter)
            last_at[letter] = pos
    except TypeError:
        check_word(word, n)  # names the letter
        raise
    return rows


def _laser_word(rows: Sequence[int]) -> Word:
    """The rightward-laser word of a placement given as rows, once its first
    column is dropped: each rook reads its row less the rooks below it to
    its left."""
    word = [1]
    left: list[int] = []  # rows of the rooks left of the column, sorted
    for h in rows[1:]:
        word.append(h - bisect.bisect_left(left, h))
        bisect.insort(left, h)
    return tuple(word)


def _laser_rows(word: Sequence[int]) -> list[int]:
    """The rows of the placement that ``laser_word_to_ish_diagram``
    decodes, a valid placement on the complete graph's board."""
    if not word:
        raise ValueError("a laser word has at least one letter")
    n = len(word)
    v = cyclic_shift(word, 1 - word[0], n + 1)
    # the unused rows, in order: a letter is at most n + 1 and at most n - 2
    # rows are taken before each pop, so the k-th is at most 2n - 1
    free = list(range(1, 2 * n))
    rows = [free.pop(k - 1) for k in v[1:]]
    return [free[0]] + rows


# ---------------------------------------------------------------------------
# counting


def _block_counts(graph: Graph) -> list[int]:
    """Entry k: the set partitions of [n] into k blocks with every arc an
    edge of the graph, tallied in one walk over all set partitions."""
    counts = [0] * (graph.n + 1)
    for partition in set_partitions(graph.n):
        if graph.admits(partition):
            counts[len(partition)] += 1
    return counts


def ish_region_count(graph: Graph) -> int:
    """Region count of the Ish (equivalently Shi) arrangement of the graph:
    sum over k of stir(G, n-k) * n!/(k+1)!.

    >>> ish_region_count(Graph.complete(3))
    16
    """
    n = graph.n
    counts = _block_counts(graph)
    return sum(counts[n - k] * factorial(n) // factorial(k + 1) for k in range(n))


def ceiling_partition_count(graph: Graph, partition: SetPartition) -> int:
    """Regions of the arrangement with the given ceiling partition: with
    n - k blocks, exactly n!/(k+1)! of them, for Shi and Ish alike."""
    n = graph.n
    if not graph.admits(partition):
        raise ValueError("partition has an arc outside the graph")
    k = n - len(partition)
    return factorial(n) // factorial(k + 1)


def rook_number(graph: Graph, m: int) -> int:
    """Placements of m non-attacking rooks on the restricted board of the
    graph.  Splitting on the number k of above-bar rooks (arc sets of
    partitions with n-k blocks) gives
    sum_k stir(G, n-k) * C(n-k-1, m-k) * n!/(n-m+k)!.

    >>> rook_number(Graph.complete(3), 2)
    16
    """
    n = graph.n
    if not 0 <= m <= n - 1:
        raise ValueError(f"rook count {m} out of range for n = {n}")
    counts = _block_counts(graph)
    return sum(
        counts[n - k]
        * comb(n - k - 1, m - k)
        * factorial(n)
        // factorial(n - m + k)
        for k in range(m + 1)
    )


def poly_mul(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def poly_add(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    size = max(len(p), len(q))
    return tuple(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
        for i in range(size)
    )


def poly_eval(p: Sequence[int], x: int) -> int:
    value = 0
    for coeff in reversed(p):
        value = value * x + coeff
    return value


def ish_char_poly(graph: Graph) -> tuple[int, ...]:
    """Characteristic polynomial of the Ish arrangement, as coefficients in
    increasing degree:

        chi(p) = p * sum_k (-1)^k stir(G, n-k) (p-k-1)(p-k-2)...(p-n+1).

    Under Zaslavsky's theorem, (-1)^n chi(-1) recovers the region count.

    >>> ish_char_poly(Graph.complete(3))   # p(p - 3)^2
    (0, 9, -6, 1)
    """
    n = graph.n
    counts = _block_counts(graph)
    total: tuple[int, ...] = (0,)
    for k in range(n):
        term: tuple[int, ...] = (1,)
        for j in range(k + 1, n):
            term = poly_mul(term, (-j, 1))
        coeff = (-1) ** k * counts[n - k]
        total = poly_add(total, tuple(coeff * c for c in term))
    return poly_mul((0, 1), total)
