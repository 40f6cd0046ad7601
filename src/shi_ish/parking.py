"""Parking functions: the tests, the diagonal touches, and the generators.

A parking function of size n is a word w in [n]^n whose increasing
rearrangement a satisfies a_i <= i.  Drawn as a labeled Dyck path, label i
sits in column w_i (column c covers x-coordinate c - 1), and the path stays
weakly above the diagonal; its diagonal touches are the k with exactly k
letters at most k.  The ``freedom`` bijection of :mod:`shi_ish.bijections`
runs the prime-component construction on the path's column sizes alone, so
the labeled paths themselves, their prime components and the shuffle
factorization are kept in the tests' reference module.

Parking functions, with or without a graph, and prime parking functions are
generated in lexicographic order by a depth-first search that only extends
prefixes which can still be completed, so no word outside the family is
ever built.  With a graph the words are the labels of the regions of its
Shi arrangement (see :mod:`shi_ish.shi`).
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator, Optional, Sequence

from .core import Graph, Word, _check_int_letters


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
