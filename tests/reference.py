"""The reference constructions the tests hold the package to.

No command runs these.  They are the paper's constructions as it states
them, and the slow paths of the geometry, kept so that the fast code in
``shi_ish`` has something independent to agree with:

- the rook placements on the staircase board with their rightward and
  downward lasers, and the checked and laser codecs on ``(pi, eps)``;
- the labeled Dyck paths, their prime components and the shuffle
  factorization of a parking function;
- the diamond words and stage records of the ``freedom`` bijection,
  whose stage views :mod:`freedom_reference` builds;
- the cyclic orbit of a word, the cycle-lemma converters and Pollak's
  circular parking lot;
- the region iterators ``shi_diagrams`` and ``ish_diagrams``;
- the Ish region statistics read off ``(pi, eps)``;
- the solver-based single-region measurements, the brute-force region
  sweep and the simplex optimum as fractions.

Each keeps its doctests, which run under ``--doctest-modules``.
"""

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from shi_ish.core import (
    Block,
    Graph,
    Permutation,
    SetPartition,
    Word,
    _check_int_letters,
    check_partition_of,
    check_permutation,
    cyclic_shift,
    identity_permutation,
    partition_from_blocks,
    partition_from_pairs,
)
from shi_ish.bijections import freedom_parking_to_rook, freedom_rook_to_parking
from shi_ish.exactlp import Row, _arcs_feasible, _optimum, difference_feasible, strict_feasible
from shi_ish.geometry import (
    Arrangement,
    GeomRegion,
    Hyperplane,
    _measure_regions,
    _report,
    _signed_arc,
    _signed_row,
    build_arrangement,
    enumerate_regions,  # the doctests use it
    region_order,
)
from shi_ish.ish import (
    IshCeilingDiagram,
    _block_counts,
    _decode_rook_word,
    _diagram_from_rows,
    _encode_rook_word,
    _laser_rows,
    _laser_word,
    _rook_rows,
    ish_ceiling_pairs,
)
from shi_ish.parking import is_parking_function, is_prime_parking_function, parking_functions
from shi_ish.rookwords import is_prime_rook_word, is_rook_word, orbit_certificate
from shi_ish.shi import ShiCeilingDiagram, parking_to_shi_diagram


# ---------------------------------------------------------------------------
# core: permutations and partitions


def inverse_permutation(perm: Sequence[int]) -> Permutation:
    """One-line notation of the inverse.

    >>> inverse_permutation((2, 3, 1))
    (3, 1, 2)
    """
    perm = check_permutation(perm)
    inv = [0] * len(perm)
    for pos, value in enumerate(perm, start=1):
        inv[value - 1] = pos
    return tuple(inv)


def connected_components(partition: SetPartition) -> tuple[SetPartition, ...]:
    """Split a partition at the gaps no block spans.

    Returns the restrictions of the partition to the maximal intervals of its
    ground set that are unions of blocks, left to right, labels kept.

    >>> connected_components(((1, 3), (2,), (4, 5, 6), (7,)))
    (((1, 3), (2,)), ((4, 5, 6),), ((7,),))
    """
    if not partition:
        return ()
    spans = sorted((block[0], block[-1]) for block in partition)
    intervals: list[list[int]] = [list(spans[0])]
    for lo, hi in spans[1:]:
        if lo <= intervals[-1][1]:
            intervals[-1][1] = max(intervals[-1][1], hi)
        else:
            intervals.append([lo, hi])
    out = []
    for lo, hi in intervals:
        out.append(tuple(sorted(b for b in partition if lo <= b[0] <= hi)))
    return tuple(out)


def apply_permutation(perm: Sequence[int], partition: SetPartition) -> SetPartition:
    """Push a partition of [n] forward along a permutation of [n].

    >>> apply_permutation((5, 2, 1, 6, 3, 8, 4, 7),
    ...                   ((1,), (2, 4, 6), (3, 5), (7, 8)))
    ((1, 3), (2, 6, 8), (4, 7), (5,))
    """
    perm = check_permutation(perm)
    check_partition_of(tuple(partition), len(perm))
    return partition_from_blocks(
        tuple(perm[x - 1] for x in block) for block in partition
    )


# ---------------------------------------------------------------------------
# parking: labeled Dyck paths


LabeledDyckPath = tuple[tuple[int, ...], ...]


def check_labeled_dyck(columns: Sequence[Sequence[int]]) -> LabeledDyckPath:
    """Validate the column-list form of a labeled Dyck path of size n."""
    path = tuple(tuple(col) for col in columns)
    n = len(path)
    labels = [x for col in path for x in col]
    if sorted(labels) != list(range(1, n + 1)):
        raise ValueError("labels must be exactly 1..n")
    for col in path:
        if list(col) != sorted(col):
            raise ValueError("labels must increase up each column")
    total = 0
    for c, col in enumerate(path, start=1):
        total += len(col)
        if total < c:
            raise ValueError("path dips below the diagonal")
    return path


def word_to_dyck(word: Sequence[int]) -> LabeledDyckPath:
    """Labeled Dyck path of a parking function: label i in column w_i.

    >>> word_to_dyck((3, 7, 3, 8, 2, 2, 7, 1, 2))[:3]
    ((8,), (5, 6, 9), (1, 3))
    """
    if not is_parking_function(word):
        raise ValueError(f"{word!r} is not a parking function")
    return _word_columns(word)


def _word_columns(word: Sequence[int]) -> LabeledDyckPath:
    """The columns of :func:`word_to_dyck` for any word over [len(word)]:
    column c holds the positions of the letter c."""
    cols: list[list[int]] = [[] for _ in word]
    for label, letter in enumerate(word, start=1):
        cols[letter - 1].append(label)
    return tuple(map(tuple, cols))


def dyck_to_word(columns: Sequence[Sequence[int]]) -> Word:
    """Inverse of :func:`word_to_dyck`: w_i = column of label i."""
    path = check_labeled_dyck(columns)
    n = len(path)
    word = [0] * n
    for c, col in enumerate(path, start=1):
        for label in col:
            word[label - 1] = c
    return tuple(word)


@dataclass(frozen=True)
class PrimeComponent:
    """A maximal stretch of a labeled Dyck path strictly above the diagonal.

    ``columns`` keeps the original labels; ``start`` is the 1-based index of
    the component's first column in the parent path.
    """

    columns: LabeledDyckPath
    start: int

    @property
    def size(self) -> int:
        return len(self.columns)

    @property
    def end(self) -> int:
        return self.start + self.size - 1

    def labels(self) -> tuple[int, ...]:
        return tuple(sorted(x for col in self.columns for x in col))


def _returns(path: LabeledDyckPath) -> tuple[int, ...]:
    """:func:`path_returns` of a path already validated."""
    total = 0
    touches = []
    for c, col in enumerate(path[:-1], start=1):
        total += len(col)
        if total == c:
            touches.append(c)
    return tuple(touches)


def path_returns(columns: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Columns after which the path touches the diagonal, final column
    excluded.  ValueError unless ``columns`` is a labeled Dyck path."""
    return _returns(check_labeled_dyck(columns))


def prime_components(columns: Sequence[Sequence[int]]) -> tuple[PrimeComponent, ...]:
    """Split a labeled Dyck path at its diagonal touches.

    The path is validated once, by :func:`check_labeled_dyck` (ValueError
    unless it is a labeled Dyck path), and the touches are read off it.

    >>> [c.size for c in prime_components(word_to_dyck((3, 7, 3, 8, 2, 2, 7, 1, 2)))]
    [1, 5, 3]
    """
    path = check_labeled_dyck(columns)
    cuts = (0,) + _returns(path) + (len(path),)
    return tuple(
        PrimeComponent(columns=path[lo:hi], start=lo + 1)
        for lo, hi in zip(cuts, cuts[1:])
    )


# ---------------------------------------------------------------------------
# parking: shuffles and the prime factorization


def shuffle_compose(
    u: Sequence[int],
    v: Sequence[int],
    positions_u: Sequence[int],
    positions_v: Sequence[int],
) -> Word:
    """Interleave u and a shifted copy of v on the given position sets.

    The result w has w restricted to ``positions_u`` equal to u, and w
    restricted to ``positions_v`` equal to v with every letter increased by
    len(u).  The two position sets must partition [len(u) + len(v)].

    >>> shuffle_compose((1,), (1,), (1,), (2,))
    (1, 2)
    """
    n, m = len(u), len(v)
    pos_u, pos_v = tuple(positions_u), tuple(positions_v)
    if len(pos_u) != n or len(pos_v) != m:
        raise ValueError("position sets must match the word lengths")
    if sorted(pos_u + pos_v) != list(range(1, n + m + 1)):
        raise ValueError("position sets must partition [1, n + m]")
    word = [0] * (n + m)
    for p, letter in zip(sorted(pos_u), u):
        word[p - 1] = letter
    for p, letter in zip(sorted(pos_v), v):
        word[p - 1] = letter + n
    return tuple(word)


def compose_factors(
    blocks: Sequence[Sequence[int]], factors: Sequence[Sequence[int]]
) -> Word:
    """Reassemble a word from an ordered set partition and per-block words.

    Block i receives factor i with its letters shifted up by the total size
    of the earlier blocks.  Inverse of :func:`factorize_parking`.
    """
    if len(blocks) != len(factors):
        raise ValueError("need one factor per block")
    n = sum(len(b) for b in blocks)
    if sorted(x for b in blocks for x in b) != list(range(1, n + 1)):
        raise ValueError("blocks must partition [1, n]")
    word = [0] * n
    offset = 0
    for block, factor in zip(blocks, factors):
        if len(block) != len(factor):
            raise ValueError("factor length must match its block size")
        for p, letter in zip(sorted(block), factor):
            word[p - 1] = letter + offset
        offset += len(block)
    return tuple(word)


def factorize_parking(word: Sequence[int]) -> tuple[tuple[Block, ...], tuple[Word, ...]]:
    """Factor a parking function along the prime components of its path.

    Returns (ordered blocks, prime factors): block i holds the labels of the
    i-th prime component, and factor i is the restriction of the word to that
    block, renormalized to a prime parking function.

    >>> factorize_parking((3, 7, 3, 8, 2, 2, 7, 1, 2))
    (((8,), (1, 3, 5, 6, 9), (2, 4, 7)), ((1,), (2, 2, 1, 1, 1), (1, 2, 1)))
    """
    components = prime_components(word_to_dyck(word))
    blocks = []
    factors = []
    for comp in components:
        block = comp.labels()
        factor = tuple(word[i - 1] - (comp.start - 1) for i in block)
        if not is_prime_parking_function(factor):
            raise AssertionError(f"component factor {factor!r} is not prime")
        blocks.append(block)
        factors.append(factor)
    return tuple(blocks), tuple(factors)


# ---------------------------------------------------------------------------
# rookwords: the cyclic orbit and the cycle-lemma converters


def orbit(word: Sequence[int], alphabet: int) -> tuple[Word, ...]:
    """All ``alphabet`` cyclic shifts of a word, starting with shift 0.

    >>> orbit((1, 3), 3)
    ((1, 3), (2, 1), (3, 2))
    """
    return tuple(cyclic_shift(word, t, alphabet) for t in range(alphabet))


def rook_word_to_parking(word: Sequence[int]) -> Word:
    """The unique parking function in the Z_{n+1}-orbit of a rook word.

    >>> rook_word_to_parking((1, 4, 4, 2, 5))
    (4, 1, 1, 5, 2)
    """
    if not is_rook_word(word):
        raise ValueError(f"{word!r} is not a rook word")
    return orbit_certificate(word).parking


def parking_to_rook_word(word: Sequence[int]) -> Word:
    """The unique rook word in the Z_{n+1}-orbit of a parking function."""
    if not is_parking_function(word):
        raise ValueError(f"{word!r} is not a parking function")
    return orbit_certificate(word).rook


def prime_rook_word_to_parking(word: Sequence[int]) -> Word:
    """The unique prime parking function in the Z_{n-1}-orbit.

    >>> prime_rook_word_to_parking((1, 2, 2))
    (2, 1, 1)
    """
    if not is_prime_rook_word(word):
        raise ValueError(f"{word!r} is not a prime rook word")
    return orbit_certificate(word, prime=True).parking


def prime_parking_to_rook_word(word: Sequence[int]) -> Word:
    """The unique prime rook word in the Z_{n-1}-orbit."""
    if not is_prime_parking_function(word):
        raise ValueError(f"{word!r} is not a prime parking function")
    return orbit_certificate(word, prime=True).rook


def pollak_empty_spot(word: Sequence[int]) -> int:
    """Simulate parking on a circular lot with n+1 spots and return the spot
    left empty.

    Car i starts at its preferred spot w_i and rolls forward (wrapping) to
    the first free spot.  A word is a parking function exactly when the spot
    left empty is n + 1; this simulation is an independent witness for the
    orbit-scan predicates.  A letter that is not an int raises as in
    :func:`is_rook_word`.

    >>> pollak_empty_spot((1, 1, 1))
    4
    >>> pollak_empty_spot((1, 4, 4, 2, 5))
    3
    """
    _check_int_letters(word)
    n = len(word)
    lot = n + 1
    if any(not 1 <= a <= lot for a in word):
        raise ValueError(f"letters must lie in [1, {lot}]")
    taken = [False] * lot
    for pref in word:
        spot = pref - 1
        while taken[spot]:
            spot = (spot + 1) % lot
        taken[spot] = True
    (empty,) = (s + 1 for s in range(lot) if not taken[s])
    return empty


# ---------------------------------------------------------------------------
# shi: the region iterator


def shi_diagrams(n: int, graph: Optional[Graph] = None) -> Iterator[ShiCeilingDiagram]:
    """All regions of the Shi arrangement of ``graph`` (default complete),
    one diagram each, in the lexicographic order of their parking functions.
    """
    graph = Graph.complete(n) if graph is None else graph
    for word in parking_functions(n, graph):
        yield parking_to_shi_diagram(word)


# ---------------------------------------------------------------------------
# ish: the region iterator and the block count


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


def stir(graph: Graph, k: int) -> int:
    """Number of set partitions of [n] into k blocks with every arc an edge
    of the graph.  For the complete graph this is the Stirling partition
    number, for the empty graph it is nonzero only at k = n.
    """
    if not 0 <= k <= graph.n:
        raise ValueError(f"block count {k} out of range for n = {graph.n}")
    return _block_counts(graph)[k]


def reference_ish_statistics(diagram: IshCeilingDiagram) -> tuple[SetPartition, int, bool]:
    """The ceiling partition, degrees of freedom and dominance of a region,
    read off ``(pi, eps)`` as the paper defines them.

    The ceiling partition joins eps_i with pi_i at every dotted position.
    With k the last dotted position (the position of the letter 1 if there
    are no dots), the region has n - k + pi^{-1}(1) degrees of freedom.  It
    is dominant when pi is the identity.

    >>> reference_ish_statistics(IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0)))
    (((1, 7), (2, 3, 5, 6), (4,), (8,)), 3, False)
    """
    n = diagram.n
    one_at = diagram.pi.index(1) + 1
    dotted = [i for i, e in enumerate(diagram.eps, start=1) if e > 0]
    pairs = [(diagram.eps[i - 1], diagram.pi[i - 1]) for i in dotted]
    dof = n - max(dotted, default=one_at) + one_at
    return partition_from_pairs(n, pairs), dof, diagram.pi == identity_permutation(n)


# ---------------------------------------------------------------------------
# ish: boards and rook placements


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
# ish: rightward lasers, placements <-> parking functions


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
# ish: downward lasers, placements <-> rook words


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
# ish: the checked codec and the laser codec on (pi, eps)


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


def ish_diagram_to_laser_word(diagram: IshCeilingDiagram) -> Word:
    """The raw rightward-laser word of a region, one bisection per letter:
    ``placement_laser_word(restrict_placement(ish_diagram_to_placement(diagram)))``.

    >>> d = IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0))
    >>> ish_diagram_to_laser_word(d)
    (1, 8, 9, 1, 8, 9, 7, 4)
    """
    return _laser_word(_rook_rows(diagram))


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


# ---------------------------------------------------------------------------
# bijections: the freedom construction in the paper's terms


class Diamond:
    """Placeholder symbol for a dotted position in a partially built word.

    The class is a singleton; use the :data:`DIAMOND` constant.
    """

    _instance = None

    def __new__(cls) -> "Diamond":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<>"


DIAMOND = Diamond()

DiamondWord = tuple[Union[int, Diamond], ...]


class DyckToIshStages(NamedTuple):
    """Intermediate words of the Dyck-path-to-diagram construction, kept for
    inspection and regression tests."""

    components: tuple[LabeledDyckPath, ...]
    stage_words: tuple[DiamondWord, ...]
    after_prefix_rotation: DiamondWord
    after_global_rotation: DiamondWord
    diagram: IshCeilingDiagram


class IshToDyckStages(NamedTuple):
    """Intermediate state of the diagram-to-Dyck-path construction."""

    diamond_word: DiamondWord
    cycle_index: int
    after_cycling: DiamondWord
    after_prefix_rotation: DiamondWord
    components: tuple[LabeledDyckPath, ...]
    linear_order: tuple[int, ...]
    word: Word


def parking_to_ish_diagram(word: Sequence[int]) -> IshCeilingDiagram:
    """The Ish ceiling diagram attached to a parking function by the prime
    Dyck component construction: :func:`freedom_parking_to_rook`, decoded.

    >>> parking_to_ish_diagram((3, 7, 3, 8, 2, 2, 7, 1, 2)).pi
    (8, 1, 4, 3, 7, 6, 5, 9, 2)
    >>> parking_to_ish_diagram((3, 7, 3, 8, 2, 2, 7, 1, 2)).eps
    (0, 0, 0, 1, 2, 5, 0, 6, 0)
    """
    return _decode_rook_word(freedom_parking_to_rook(word))


def ish_diagram_to_parking(diagram: IshCeilingDiagram) -> Word:
    """The parking function of an Ish region, by prime Dyck components.
    Inverse of :func:`parking_to_ish_diagram`; :func:`freedom_rook_to_parking`
    of the encoded region.

    >>> d = IshCeilingDiagram(
    ...     (8, 1, 4, 3, 7, 6, 5, 9, 2), (0, 0, 0, 1, 2, 5, 0, 6, 0))
    >>> ish_diagram_to_parking(d)
    (3, 7, 3, 8, 2, 2, 7, 1, 2)
    """
    return freedom_rook_to_parking(_encode_rook_word(diagram))


# ---------------------------------------------------------------------------
# geometry: the single-region and brute-force references


def enumerate_regions_sweep(arrangement: Arrangement) -> tuple[GeomRegion, ...]:
    """Regions by brute force over all 2^m sign vectors.

    Exponentially slower than :func:`enumerate_regions`; kept as an
    independent slow path for differential testing on small arrangements.

    >>> len(enumerate_regions_sweep(build_arrangement("cox", 2)))
    2
    """
    hyperplanes = arrangement.hyperplanes
    n = arrangement.n
    regions = []
    for signs in itertools.product((1, -1), repeat=len(hyperplanes)):
        rows = [_signed_row(h, s) for h, s in zip(hyperplanes, signs)]
        probe = strict_feasible(rows, n)
        if probe is not None:
            witness, den = probe
            regions.append(GeomRegion(signs, tuple(Fraction(x, den) for x in witness)))
    return tuple(regions)


def region_dominant(arrangement: Arrangement, region: GeomRegion) -> bool:
    """True when x_1 > x_2 > ... > x_n holds on the region."""
    return region_order(arrangement, region) == identity_permutation(arrangement.n)


def region_ceilings(arrangement: Arrangement, region: GeomRegion) -> tuple[Hyperplane, ...]:
    """The ceilings of a region: affine hyperplanes spanning a facet of the
    region that do not separate it from the origin.

    Every affine member has positive offset, so the origin is strictly on
    the minus side and the separation test is just ``sign == -1``; the facet
    test asks the difference-constraint solver for a point on the hyperplane
    satisfying every other region inequality strictly.  This is the
    single-region entry and the reference for the oracle's read-off, which
    needs no solver: the hyperplanes are pairwise distinct, so such a point
    lies on no other hyperplane and the region across it differs from this
    one in that sign alone, while the segment joining witnesses of two
    regions whose signs differ in one hyperplane crosses only that one, so
    its crossing point lies on a facet of both.

    >>> arr = build_arrangement("shi", 3)
    >>> sorted({len(region_ceilings(arr, r)) for r in enumerate_regions(arr)})
    [0, 1, 2]
    """
    hyperplanes = arrangement.hyperplanes
    n = arrangement.n
    arcs = [_signed_arc(hyp, sign) for hyp, sign in zip(hyperplanes, region.signs)]
    ceilings = []
    for idx, hyp in enumerate(hyperplanes):
        if hyp.offset == 0 or region.signs[idx] != -1:
            continue
        # pin the facet: x_a - x_b = offset as two epsilon-free arcs
        a, b = hyp.normal.index(1), hyp.normal.index(-1)
        pinned = [(b, a, hyp.offset, 0), (a, b, -hyp.offset, 0)]
        if _arcs_feasible(arcs[:idx] + arcs[idx + 1 :] + pinned, n) is not None:
            ceilings.append(hyp)
    return tuple(ceilings)


def region_ceiling_partition(arrangement: Arrangement, region: GeomRegion) -> SetPartition:
    """Partition of [n] generated by i ~ j over the ceiling tags (i, j)."""
    pairs = [(h.tag[1], h.tag[2]) for h in region_ceilings(arrangement, region)]
    return partition_from_pairs(arrangement.n, pairs)


def recession_dimension_lp(arrangement: Arrangement, region: GeomRegion) -> int:
    """Recession-cone dimension with the vanishing test done by probes.

    For each hyperplane, ask the difference solver for a point of the cone
    where its signed form is strictly positive: there is none exactly when
    the form vanishes identically, i.e. its two coordinates are forced
    equal.  The dimension is the number of classes those pairs generate.
    Slow path kept for differential testing against
    :func:`recession_dimension`.
    """
    n = arrangement.n
    cone_rows: list[Row] = [
        (tuple(sign * a for a in hyp.normal), 0, False)
        for sign, hyp in zip(region.signs, arrangement.hyperplanes)
    ]
    vanishing = []
    for sign, hyp in zip(region.signs, arrangement.hyperplanes):
        probe: list[Row] = [(tuple(sign * a for a in hyp.normal), 0, True)]
        probe.extend(cone_rows)
        if difference_feasible(probe, n) is None:
            vanishing.append((hyp.normal.index(1) + 1, hyp.normal.index(-1) + 1))
    return len(partition_from_pairs(n, vanishing))


def oracle_report(kind: str, n: int, graph: Optional[Graph] = None) -> dict:
    """JSON-ready geometric report for one arrangement.

    Lists every region with its signs, exact witness, coordinate order,
    ceiling tags, degrees of freedom and dominance flag, plus summary
    histograms by dof, dominance and ceiling partition.
    """
    arrangement = build_arrangement(kind, n, graph)
    return _report(arrangement, _measure_regions(arrangement))


# ---------------------------------------------------------------------------
# exactlp: the simplex optimum as fractions


def max_slack(
    rows: Sequence[Row], n_vars: int
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Maximize the minimum slack of the strict rows, capped at 1.

    Returns ``(tau, witness)`` where every strict row has slack at least
    ``tau`` at the witness and every weak row is satisfied; both are checked
    by substitution before they are returned.  The system of strict
    inequalities is solvable iff ``tau > 0``.

    >>> tau, x = max_slack([((1, -1), 0, True), ((-1, 1), -3, True)], 2)
    >>> tau
    Fraction(1, 1)
    >>> x[0] - x[1]
    Fraction(1, 1)
    """
    tau, witness, den = _optimum(rows, n_vars)
    return Fraction(tau, den), tuple(Fraction(x, den) for x in witness)
