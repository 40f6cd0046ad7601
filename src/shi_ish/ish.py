"""Ceiling diagrams, rook boards, and counting for Ish arrangements.

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
:func:`region_rook_word_statistics` reads the statistics off the word.  The
diagram is decoded by :func:`rook_word_to_ish_diagram` only where a region is
printed, named in a failure or matched against the geometry.

Diagrams correspond to rook placements on a staircase board whose column i
has n + i - 1 squares; rows above n exist only where G has the matching
edge.  Two laser constructions translate placements to words: rightward
lasers give the parking-function side, downward lasers give rook words.
The placements are the documented construction; the bijections run both
lasers on the rows of the board-free codec at the end of the laser
sections, read off (pi, eps) or off the rook word.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from math import comb, factorial
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .core import (
    Graph,
    Permutation,
    SetPartition,
    Word,
    _check_int_letters,
    _region_scan,
    arcs,
    check_permutation,
    check_word,
    cyclic_shift,
    identity_permutation,
    partition_from_pairs,
    set_partitions,
    strict_int,
)
from .parking import is_parking_function
from .rookwords import _rook_tail_dof, is_rook_word, orbit_certificate


@dataclass(frozen=True)
class IshCeilingDiagram:
    """Region of an Ish arrangement: coordinate order ``pi`` and dot counts
    ``eps`` (eps_i = 0 means position i is undotted)."""

    pi: Permutation
    eps: tuple[int, ...]

    def __post_init__(self) -> None:
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

    def dotted_positions(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.eps, start=1) if e > 0)

    def to_json(self) -> dict:
        return {"pi": list(self.pi), "eps": list(self.eps)}

    @classmethod
    def from_json(cls, data: dict) -> "IshCeilingDiagram":
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


class IshStatistics(NamedTuple):
    ceiling_partition: SetPartition
    dof: int
    dominant: bool
    relatively_bounded: bool


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


def ish_statistics(diagram: IshCeilingDiagram) -> IshStatistics:
    """Ceiling partition, degrees of freedom, dominance, and relative
    boundedness of a region.

    The ceiling partition is generated by joining eps_i with pi_i at every
    dotted position.  With k the last dotted position (the position of the
    letter 1 if no dots), the region has n - k + pi^{-1}(1) degrees of
    freedom.  A region is relatively bounded when it has one degree of
    freedom: it is bounded up to translation along (1, ..., 1).
    """
    pairs = ish_ceiling_pairs(diagram)
    n = diagram.n
    one_at = diagram.pi.index(1) + 1
    last = max(diagram.dotted_positions(), default=one_at)
    dof = n - last + one_at
    return IshStatistics(
        ceiling_partition=partition_from_pairs(n, pairs),
        dof=dof,
        dominant=diagram.pi == identity_permutation(n),
        relatively_bounded=dof == 1,
    )


def region_rook_word_statistics(word: Sequence[int], graph: Graph) -> Optional[IshStatistics]:
    """Statistics of the region of Ish(G) labeled by ``word``, or None when
    the word labels no region: it must have n letters, be a rook word, and
    every arc of its position partition must be an edge of G.  A letter
    that is not an int raises as in :func:`~shi_ish.rookwords.is_rook_word`.

    The word is the region's :func:`ish_diagram_to_rook_word`.  Its position
    partition is the ceiling partition, the degrees of freedom are those of
    :func:`~shi_ish.rookwords.tail_and_dof`, and the region is dominant by
    the rule of :func:`~shi_ish.shi.shi_word_statistics`.

    >>> region_rook_word_statistics((2, 8, 8, 1, 8, 8, 2, 5), Graph.complete(8)).dof
    3
    """
    _check_int_letters(word)
    return _rook_word_statistics(word, graph.edges) if len(word) == graph.n else None


def _rook_word_statistics(word: Sequence[int], edges: frozenset[tuple[int, int]]) -> Optional[IshStatistics]:
    """:func:`region_rook_word_statistics` of a word of n int letters,
    without the float test: the keys of the blocks of one
    :func:`~shi_ish.core._region_scan` give the rook test and the tail."""
    scan = _region_scan(word, edges)
    dof = None if scan is None else _rook_tail_dof(scan[0], word[0], len(word))
    return None if dof is None else IshStatistics(tuple(map(tuple, scan[0].values())), dof, scan[1], dof == 1)


def ish_diagrams(n: int, graph: Optional[Graph] = None) -> Iterator[IshCeilingDiagram]:
    """All regions of the Ish arrangement of ``graph`` (default complete),
    permutations in lexicographic order, dot patterns nested within."""
    graph = Graph.complete(n) if graph is None else graph
    if graph.n != n:
        raise ValueError("graph order does not match n")
    for pi in itertools.permutations(range(1, n + 1)):
        one_at = pi.index(1) + 1
        eps = [0] * n

        def assign(i: int, last: int) -> Iterator[IshCeilingDiagram]:
            if i > n:
                yield IshCeilingDiagram(pi=pi, eps=tuple(eps))
                return
            yield from assign(i + 1, last)
            for v in range(last + 1, pi[i - 1]):
                if (v, pi[i - 1]) in graph.edges:
                    eps[i - 1] = v
                    yield from assign(i + 1, v)
                    eps[i - 1] = 0

        yield from assign(one_at + 1, 0)


# ---------------------------------------------------------------------------
# boards and rook placements


@dataclass(frozen=True)
class Board:
    """Staircase rook board: column i carries squares (i, 1..n+i-1).

    The full board has columns 1..n; the restricted board drops column 1.
    Squares above the bar (rows n+1 and up) are kept only where the graph
    has the matching edge: (j, n+i) needs the edge (i, j).
    """

    n: int
    hatted: bool
    graph: Graph

    def __post_init__(self) -> None:
        if self.graph.n != self.n:
            raise ValueError("board graph must live on [1, n]")

    def columns(self) -> range:
        return range(1 if self.hatted else 2, self.n + 1)

    def contains(self, col: int, row: int) -> bool:
        if col not in self.columns() or not 1 <= row <= self.n + col - 1:
            return False
        if row > self.n:
            return (row - self.n, col) in self.graph.edges
        return True

    def squares(self) -> Iterator[tuple[int, int]]:
        for col in self.columns():
            for row in range(1, self.n + col):
                if self.contains(col, row):
                    yield (col, row)


@dataclass(frozen=True)
class RookPlacement:
    """Non-attacking rooks on a staircase board, stored as (column, row)
    pairs with absolute rows (above-bar rows exceed n)."""

    board: Board
    rooks: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rooks", frozenset(self.rooks))
        cols = [c for c, _ in self.rooks]
        rows = [r for _, r in self.rooks]
        if len(set(cols)) != len(cols) or len(set(rows)) != len(rows):
            raise ValueError("rooks attack each other")
        for col, row in self.rooks:
            if not self.board.contains(col, row):
                raise ValueError(f"square ({col}, {row}) is not on the board")

    def row_of(self, col: int) -> int:
        for c, r in self.rooks:
            if c == col:
                return r
        raise KeyError(f"no rook in column {col}")

    def sorted_rooks(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.rooks))


def is_maximal_placement(placement: RookPlacement) -> bool:
    """On the restricted board, maximal placements have one rook in every
    column 2..n (a free below-bar row always exists, so nothing smaller is
    maximal)."""
    board = placement.board
    if board.hatted:
        return False
    return sorted(c for c, _ in placement.rooks) == list(board.columns())


def is_valid_hatted_placement(placement: RookPlacement) -> bool:
    """On the full board, valid placements have one rook per column and every
    row below the column-1 rook occupied."""
    board = placement.board
    if not board.hatted:
        return False
    if sorted(c for c, _ in placement.rooks) != list(board.columns()):
        return False
    first_row = placement.row_of(1)
    occupied = {r for _, r in placement.rooks}
    return all(r in occupied for r in range(1, first_row))


def ish_diagram_to_placement(diagram: IshCeilingDiagram) -> RookPlacement:
    """Place one rook per letter: undotted letters below the bar in the row
    of their position, dotted letters above the bar at the height given by
    their dot count.

    >>> d = IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0))
    >>> sorted(ish_diagram_to_placement(d).rooks)[:3]
    [(1, 2), (2, 8), (3, 10)]
    """
    ish_ceiling_pairs(diagram)
    n = diagram.n
    rooks = set()
    for position, (value, e) in enumerate(zip(diagram.pi, diagram.eps), start=1):
        if e == 0:
            rooks.add((value, position))
        else:
            rooks.add((value, n + e))
    placement = RookPlacement(Board(n, True, Graph.complete(n)), frozenset(rooks))
    if not is_valid_hatted_placement(placement):
        raise AssertionError("placement is not a valid hatted placement")
    return placement


def restrict_placement(placement: RookPlacement) -> RookPlacement:
    """Drop the column-1 rook, landing on the restricted board."""
    if not is_valid_hatted_placement(placement):
        raise ValueError("expected a valid placement on the full board")
    board = Board(placement.board.n, False, placement.board.graph)
    return RookPlacement(board, frozenset(r for r in placement.rooks if r[0] != 1))


def complete_placement(placement: RookPlacement) -> RookPlacement:
    """Re-insert the column-1 rook at the lowest row no below-bar rook uses.

    Rows below that one are all occupied, which is exactly the validity
    condition on the full board, so this inverts :func:`restrict_placement`
    on maximal placements.
    """
    if not is_maximal_placement(placement):
        raise ValueError("expected a maximal placement on the restricted board")
    n = placement.board.n
    used = {r for _, r in placement.rooks if r <= n}
    row = min(r for r in range(1, n + 1) if r not in used)
    board = Board(n, True, placement.board.graph)
    return RookPlacement(board, placement.rooks | {(1, row)})


def placement_to_ish_diagram(placement: RookPlacement) -> IshCeilingDiagram:
    """Read a diagram off a valid placement on the full board.

    Below-bar rooks pin their letter to their row; above-bar rooks, taken by
    increasing height, fill the remaining positions left to right.
    """
    if not is_valid_hatted_placement(placement):
        raise ValueError("expected a valid placement on the full board")
    n = placement.board.n
    pi = [0] * n
    eps = [0] * n
    above = []
    for col, row in placement.rooks:
        if row <= n:
            pi[row - 1] = col
        else:
            above.append((row - n, col))
    free = [i for i in range(1, n + 1) if pi[i - 1] == 0]
    for position, (e, value) in zip(free, sorted(above)):
        pi[position - 1] = value
        eps[position - 1] = e
    diagram = IshCeilingDiagram(pi=tuple(pi), eps=tuple(eps))
    ish_ceiling_pairs(diagram)
    return diagram


# ---------------------------------------------------------------------------
# rightward lasers: placements <-> parking functions


def placement_laser_word(placement: RookPlacement) -> Word:
    """The raw rightward-laser word of a maximal placement.

    Lasers shoot rightward from every rook; letter i counts the laser-free
    squares in column i weakly below its rook (the rook's own square
    counts), with a fixed 1 in front for the missing first column.

    >>> d = IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0))
    >>> placement_laser_word(restrict_placement(ish_diagram_to_placement(d)))
    (1, 8, 9, 1, 8, 9, 7, 4)
    """
    if not is_maximal_placement(placement):
        raise ValueError("expected a maximal placement on the restricted board")
    n = placement.board.n
    heights = dict(placement.rooks)
    word = [1]
    left: list[int] = []  # heights of the rooks left of col, sorted
    for col in range(2, n + 1):
        h = heights[col]
        lasered = bisect.bisect_left(left, h)
        bisect.insort(left, h)
        word.append(h - lasered)
    return tuple(word)


def placement_to_parking(placement: RookPlacement) -> Word:
    """The parking function of a maximal placement: the unique parking
    function in the cyclic orbit over [n+1] of the rightward-laser word.

    >>> d = IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0))
    >>> placement_to_parking(restrict_placement(ish_diagram_to_placement(d)))
    (4, 2, 3, 4, 2, 3, 1, 7)
    """
    word = placement_laser_word(placement)
    return orbit_certificate(word).parking


def parking_to_placement(word: Sequence[int]) -> RookPlacement:
    """Inverse rightward-laser construction.

    Shift the parking function cyclically over [n+1] so the first letter is
    1; then column i's rook goes in the v_i-th row not used by an earlier
    rook, counting from the bottom.
    """
    if not is_parking_function(word):
        raise ValueError(f"{word!r} is not a parking function")
    n = len(word)
    v = cyclic_shift(word, 1 - word[0], n + 1)
    if v[0] != 1:
        raise AssertionError("shifted word does not start with 1")
    rooks = set()
    used: list[int] = []
    for col in range(2, n + 1):
        free_seen = 0
        row = 0
        while free_seen < v[col - 1]:
            row += 1
            if row not in used:
                free_seen += 1
        used.append(row)
        rooks.add((col, row))
    return RookPlacement(Board(n, False, Graph.complete(n)), frozenset(rooks))


# ---------------------------------------------------------------------------
# downward lasers: placements <-> rook words


def placement_to_rook_word(placement: RookPlacement) -> Word:
    """Shoot lasers downward from the above-bar rooks.

    The laser from the rook at height n + i stops at the row of rook i
    (chasing that rook's own laser if it, too, sits above the bar).  Letter
    j is the height of column j's rook, or of its laser endpoint when the
    rook is above the bar.

    >>> d = IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0))
    >>> placement_to_rook_word(ish_diagram_to_placement(d))
    (2, 8, 8, 1, 8, 8, 2, 5)
    """
    if not is_valid_hatted_placement(placement):
        raise ValueError("expected a valid placement on the full board")
    n = placement.board.n
    rows = dict(placement.rooks)
    word = [0] * n
    for col in range(1, n + 1):
        row = rows[col]
        if row <= n:
            word[col - 1] = row
        else:
            # columns left of col are already resolved since row - n < col
            word[col - 1] = word[row - n - 1]
    if not is_rook_word(word):
        raise AssertionError(f"{tuple(word)} is not a rook word")
    return tuple(word)


def rook_word_to_placement(word: Sequence[int]) -> RookPlacement:
    """Inverse downward-laser construction: first occurrences sit below the
    bar at their letter's height, repeats sit above the bar at height n plus
    the previous position of the same letter."""
    if not is_rook_word(word):
        raise ValueError(f"{word!r} is not a rook word")
    n = len(word)
    rooks = set()
    last_at: dict[int, int] = {}
    for pos, letter in enumerate(word, start=1):
        if letter in last_at:
            rooks.add((pos, n + last_at[letter]))
        else:
            rooks.add((pos, letter))
        last_at[letter] = pos
    placement = RookPlacement(Board(n, True, Graph.complete(n)), frozenset(rooks))
    if not is_valid_hatted_placement(placement):
        raise AssertionError("placement is not a valid hatted placement")
    return placement


# ---------------------------------------------------------------------------
# both lasers on (pi, eps) directly: the placement is a list of rows
#
# A coherent diagram's placement has one rook per column, so it is the list
# ``rows`` with rows[c - 1] the row of column c's rook.  Every placement the
# lasers produce is valid on the full board of the complete graph, so the
# codec checks coherence on the diagrams at both ends and nothing between.


def _rook_rows(diagram: IshCeilingDiagram) -> list[int]:
    """The rows of :func:`ish_diagram_to_placement`: letter p sits at its
    position if undotted, at n plus its dot count if dotted."""
    ish_ceiling_pairs(diagram)
    n = diagram.n
    rows = [0] * n
    for position, (value, e) in enumerate(zip(diagram.pi, diagram.eps), start=1):
        rows[value - 1] = n + e if e else position
    return rows


def _diagram_from_rows(rows: Sequence[int], build: Callable = IshCeilingDiagram) -> IshCeilingDiagram:
    """The diagram of :func:`placement_to_ish_diagram`: rows up to n pin their
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


def ish_diagram_to_rook_word(diagram: IshCeilingDiagram) -> Word:
    """The downward-laser rook word of a region, in O(n):
    ``placement_to_rook_word(ish_diagram_to_placement(diagram))``.

    Letter p at position i reads i if undotted, and otherwise the letter
    already read for its dot count eps_i < p.

    >>> d = IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0))
    >>> ish_diagram_to_rook_word(d)
    (2, 8, 8, 1, 8, 8, 2, 5)
    """
    word = _encode_rook_word(diagram)
    if not is_rook_word(word):
        raise AssertionError(f"{word} is not a rook word")
    return word


def _encode_rook_word(diagram: IshCeilingDiagram) -> Word:
    """:func:`ish_diagram_to_rook_word` without the closing rook-word check,
    for callers that certify the word themselves."""
    return _rows_to_rook_word(_rook_rows(diagram))


def _rows_to_rook_word(rows: Sequence[int]) -> Word:
    """The downward-laser word of a placement given as rows: a rook at row
    r <= n reads r, a rook at row n + e reads the letter of column e."""
    n = len(rows)
    word: list[int] = []
    for row in rows:
        word.append(row if row <= n else word[row - n - 1])
    return tuple(word)


def rook_word_to_ish_diagram(word: Sequence[int]) -> IshCeilingDiagram:
    """Inverse of :func:`ish_diagram_to_rook_word`:
    ``placement_to_ish_diagram(rook_word_to_placement(word))``.

    The first occurrence of letter a, at position q, puts q at position a.
    The repeats, as (previous position, position) pairs in increasing
    order, fill the positions of the missing letters left to right as
    dotted letters.

    >>> rook_word_to_ish_diagram((2, 8, 8, 1, 8, 8, 2, 5))
    IshCeilingDiagram(pi=(4, 1, 7, 3, 8, 5, 6, 2), eps=(0, 0, 1, 2, 0, 3, 5, 0))
    """
    if not is_rook_word(word):
        raise ValueError(f"{word!r} is not a rook word")
    return _decode_rook_word(word)


def _decode_rook_word(word: Sequence[int]) -> IshCeilingDiagram:
    """:func:`rook_word_to_ish_diagram` of a word already known to be a rook
    word.  Its rows are distinct, so pi is a permutation and eps is
    nonnegative by construction: the diagram is built without the
    constructor's checks, and its coherence is still checked."""
    return _diagram_from_rows(_rook_word_rows(word), IshCeilingDiagram._unchecked)


def _rook_word_rows(word: Sequence[int]) -> list[int]:
    """The rows of :func:`rook_word_to_placement`: the first occurrence of
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


def ish_diagram_to_laser_word(diagram: IshCeilingDiagram) -> Word:
    """The raw rightward-laser word of a region, one bisection per letter:
    ``placement_laser_word(restrict_placement(ish_diagram_to_placement(diagram)))``.

    >>> d = IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0))
    >>> ish_diagram_to_laser_word(d)
    (1, 8, 9, 1, 8, 9, 7, 4)
    """
    return _laser_word(_rook_rows(diagram))


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


def laser_word_to_ish_diagram(word: Sequence[int]) -> IshCeilingDiagram:
    """The region whose laser word lies in the cyclic orbit of ``word`` over
    [n+1]: ``placement_to_ish_diagram(complete_placement(parking_to_placement(w)))``
    for the parking function w of that orbit.

    Shifted to start with 1, letter c puts column c's rook in its v_c-th
    row no earlier rook uses; column 1's rook takes the lowest such row.

    >>> laser_word_to_ish_diagram((4, 2, 3, 4, 2, 3, 1, 7))
    IshCeilingDiagram(pi=(4, 1, 7, 3, 8, 5, 6, 2), eps=(0, 0, 1, 2, 0, 3, 5, 0))
    """
    return _diagram_from_rows(_laser_rows(word))


def _laser_rows(word: Sequence[int]) -> list[int]:
    """The rows of the placement that :func:`laser_word_to_ish_diagram`
    decodes, a valid placement on the complete graph's board."""
    if not word:
        raise ValueError("a laser word has at least one letter")
    n = len(word)
    v = cyclic_shift(word, 1 - word[0], n + 1)
    used: list[int] = []  # rows of the rooks placed so far, sorted

    def free_row(k: int) -> int:
        # the k-th unused row is k + j, j the used rows below it: the first j
        # with used[j] - j > k, and used[j] - j never decreases
        row = k + bisect.bisect_right(range(len(used)), k, key=lambda j: used[j] - j)
        bisect.insort(used, row)
        return row

    rows = [free_row(k) for k in v[1:]]
    return [free_row(1)] + rows


# ---------------------------------------------------------------------------
# counting


def _block_counts(graph: Graph) -> list[int]:
    """Entry k: the set partitions of [n] into k blocks with every arc an
    edge of the graph, tallied in one walk over all set partitions."""
    counts = [0] * (graph.n + 1)
    edges = graph.edges
    for partition in set_partitions(graph.n):
        if all(e in edges for e in arcs(partition)):
            counts[len(partition)] += 1
    return counts


def stir(graph: Graph, k: int) -> int:
    """Number of set partitions of [n] into k blocks with every arc an edge
    of the graph.  For the complete graph this is the Stirling partition
    number, for the empty graph it is nonzero only at k = n.
    """
    if not 0 <= k <= graph.n:
        raise ValueError(f"block count {k} out of range for n = {graph.n}")
    return _block_counts(graph)[k]


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
    if any(e not in graph.edges for e in arcs(partition)):
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
