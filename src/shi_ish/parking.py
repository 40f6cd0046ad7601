"""Parking functions, labeled Dyck paths, and the shuffle factorization.

A parking function of size n is a word w in [n]^n whose increasing
rearrangement a satisfies a_i <= i.  Drawn as a labeled Dyck path, label i
sits in column w_i (column c covers x-coordinate c - 1), and the path stays
weakly above the diagonal.  Paths are stored column-first: a tuple of n
label tuples, each increasing, empty columns included.

Parking functions, with or without a graph, and prime parking functions are
generated in lexicographic order by a depth-first search that only extends
prefixes which can still be completed, so no word outside the family is
ever built.  With a graph the words are the labels of the regions of its
Shi arrangement (see :mod:`shi_ish.shi`).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .core import Block, Graph, Word, _check_int_letters

LabeledDyckPath = tuple[tuple[int, ...], ...]


def is_parking_function(word: Sequence[int]) -> bool:
    """A letter that is not an int, such as a float, a string or None,
    raises the ValueError of :func:`~shi_ish.core.check_word`.

    >>> is_parking_function((3, 1, 1))
    True
    >>> is_parking_function((1, 3, 3))
    False
    """
    if not word:
        return False
    _check_int_letters(word)
    return _is_parking(word)


def _is_parking(word: Sequence[int]) -> bool:
    """:func:`is_parking_function` for a nonempty word of int letters,
    without the float test: the increasing rearrangement a has a_1 >= 1 and
    a_i <= i.  A caller holding the word's blocks reads the same test off
    :func:`_diagonal_touches`."""
    n = len(word)
    # no parking function's letters sum to more than n(n+1)/2: most other
    # words end here, before the sort
    if sum(word) > n * (n + 1) // 2:
        return False
    letters = sorted(word)
    return letters[0] >= 1 and all(map(operator.le, letters, range(1, n + 1)))


def _diagonal_touches(blocks: dict[int, list[int]], n: int) -> Optional[int]:
    """The diagonal touches of a word of size n, counted over its letter ->
    positions blocks (:func:`~shi_ish.core._region_scan`): the k in [1, n]
    with exactly k letters at most k.  None unless every k has at least k,
    that is, unless the word is a parking function."""
    seen = touches = 0  # seen: the letters at most k
    for k in range(1, n + 1):
        block = blocks.get(k)
        if block is not None:
            seen += len(block)
        if seen <= k:
            if seen < k:
                return None
            touches += 1
    return touches or None  # the empty word is no parking function


def is_prime_parking_function(word: Sequence[int]) -> bool:
    """True for parking functions that stay strictly above the diagonal
    before the last step: the increasing rearrangement satisfies a_1 <= 1 and
    a_i <= i - 1 afterwards.

    For n >= 2 this forces every letter into [n-1]; the size-1 word (1,) is
    prime by convention.  Letters are refused as in :func:`is_parking_function`.

    >>> is_prime_parking_function((2, 1, 1))
    True
    >>> is_prime_parking_function((1, 2, 2))
    False
    """
    if not word:
        return False
    _check_int_letters(word)
    return _is_prime_parking(word)


def _is_prime_parking(word: Sequence[int]) -> bool:
    """:func:`is_prime_parking_function` for a nonempty word of int
    letters, without the float test."""
    letters = sorted(word)
    # the bounds max(1, i - 1) for i = 1..n are 1, 1, 2, ..., n - 1
    return letters[0] >= 1 and all(map(operator.le, letters, itertools.chain((1,), range(1, len(word)))))


def parking_functions(n: int, graph: Optional[Graph] = None) -> Iterator[Word]:
    """Parking functions of size n in lexicographic order.

    With a graph, only words whose position partition has all its arcs among
    the graph's edges are produced; those are the words labeling regions of
    the Shi arrangement of the graph.

    >>> list(parking_functions(2))
    [(1, 1), (1, 2), (2, 1)]
    >>> list(parking_functions(3, Graph(3, frozenset({(1, 2)}))))[:4]
    [(1, 1, 2), (1, 1, 3), (1, 2, 3), (1, 3, 2)]
    """
    if n < 1:
        raise ValueError("n must be positive")
    if graph is not None and graph.n != n:
        raise ValueError("graph order does not match n")
    yield from _ballot_words(n, n, None if graph is None else graph.edges)


def prime_parking_functions(n: int) -> Iterator[Word]:
    """Prime parking functions of size n in lexicographic order.

    >>> list(prime_parking_functions(3))
    [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)]
    """
    if n < 1:
        raise ValueError("n must be positive")
    yield from _ballot_words(n, max(1, n - 1), None)


def _ballot_words(
    n: int, alphabet: int, edges: Optional[frozenset[tuple[int, int]]]
) -> Iterator[Word]:
    """Words in [alphabet]^n with at most alphabet - k letters above k, for
    every k, in lexicographic order: the parking functions for alphabet n,
    the prime ones for alphabet n - 1.

    A depth-first search that only extends prefixes which can still be
    completed.  The bound is monotone along a prefix, so letter a fits at the
    next position exactly when every k < a still has room for one more letter
    above it (``room[k] > 0``).  With ``edges``, letter a also fits only when
    the previous position holding a is joined to this one by an edge: the
    arcs of the position partition are exactly those pairs.
    """
    word = [0] * n
    room = [alphabet - k for k in range(alphabet + 1)]
    last = [0] * (alphabet + 1)  # latest position holding each letter, 0 if none

    def extend(pos: int) -> Iterator[Word]:
        for a in range(1, alphabet + 1):
            if a > 1 and not room[a - 1]:
                return
            before = last[a]
            if edges is not None and before and (before, pos) not in edges:
                continue
            word[pos - 1] = a
            if pos == n:
                yield tuple(word)
                continue
            for k in range(1, a):
                room[k] -= 1
            last[a] = pos
            yield from extend(pos + 1)
            last[a] = before
            for k in range(1, a):
                room[k] += 1

    return extend(1)


# ---------------------------------------------------------------------------
# labeled Dyck paths


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
# shuffles and the prime factorization


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
