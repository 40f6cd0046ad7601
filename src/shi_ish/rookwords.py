"""Rook words and the cycle-lemma bijections onto parking functions.

A rook word of size n is a word in [n]^n such that every value in [1, w_1]
occurs among its letters.  Inside [n+1]^n, each orbit of the cyclic letter
shift contains exactly one parking function and exactly one rook word; the
same holds for the prime variants inside [n-1]^n under the Z_{n-1} action.
Those two uniqueness facts drive every translation in this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Collection, Iterator, Optional, Sequence

from .core import Graph, Word, _check_int_letters, _cyclic_shift, check_word, orbit
from .parking import _is_parking, _is_prime_parking, is_parking_function, is_prime_parking_function


def is_rook_word(word: Sequence[int]) -> bool:
    """A letter that is not an int, such as a float, a string or None,
    raises the ValueError of :func:`~shi_ish.core.check_word`.

    >>> is_rook_word((3, 1, 5, 5, 2))
    True
    >>> is_rook_word((2, 4, 4, 5, 3))
    False
    """
    _check_int_letters(word)
    return _rook_dof(word) is not None


def _rook_dof(word: Sequence[int]) -> Optional[int]:
    """The degrees of freedom of :func:`tail_and_dof`, or None unless
    ``word`` is a rook word.  A letter no integer compares with, such as a
    string or None, raises the ValueError of :func:`~shi_ish.core.check_word`;
    a float is left to :func:`is_rook_word`, so that the word maps and the
    orbit certificate pay no float test."""
    if not word:
        return None
    try:
        return _rook_tail_dof(set(word), word[0], len(word))
    except TypeError:
        check_word(word, len(word))  # names the letter
        raise


def _rook_tail_dof(letters: Collection[int], first: int, n: int) -> Optional[int]:
    """The rook test with its tail on the letters of a word of size n and
    first letter ``first`` (a set, or the keys of its blocks): None unless
    they lie in [1, n] and hold all of [1, first]; else first plus the size
    of the tail [j + 1, n], the longest run of letters down from n above
    first."""
    if min(letters) < 1 or max(letters) > n:
        return None
    for a in range(1, first):  # first itself is a letter
        if a not in letters:
            return None
    j = n
    while j > first and j in letters:
        j -= 1
    return first + n - j


def is_prime_rook_word(word: Sequence[int]) -> bool:
    """Rook words with first letter 1 and letters in [n-1].

    The size-1 word (1,) is prime by convention, mirroring
    :func:`~shi_ish.parking.is_prime_parking_function`.  Letters are
    refused as in :func:`is_rook_word`.

    >>> is_prime_rook_word((1, 2, 2))
    True
    >>> is_prime_rook_word((2, 1, 1))
    False
    """
    if not word:
        return False
    _check_int_letters(word)
    return _is_prime_rook(word)


def _is_prime_rook(word: Sequence[int]) -> bool:
    """:func:`is_prime_rook_word` for a nonempty word of int letters,
    without the float test."""
    top = max(1, len(word) - 1)
    return word[0] == 1 and all(1 <= a <= top for a in word)


def rook_words(n: int, graph: Optional[Graph] = None) -> Iterator[Word]:
    """Rook words of size n in lexicographic order.

    A depth-first search over [n]^n that drops a prefix as soon as the values
    of [1, w_1] it still misses outnumber the positions left to fill.  With a
    graph, it keeps the words labeling the regions of its Ish arrangement,
    pruned by arcs as :func:`~shi_ish.parking.parking_functions` does.

    >>> list(rook_words(2))
    [(1, 1), (1, 2), (2, 1)]
    >>> list(rook_words(3, Graph(3, frozenset({(1, 2)}))))[:4]
    [(1, 1, 2), (1, 1, 3), (1, 2, 3), (1, 3, 2)]
    """
    if n < 1:
        raise ValueError("n must be positive")
    if graph is not None and graph.n != n:
        raise ValueError("graph order does not match n")
    edges = None if graph is None else graph.edges
    word = [0] * n
    last = [0] * (n + 1)  # latest position holding each letter, 0 if none

    def extend(pos: int, missing: int) -> Iterator[Word]:
        # missing: the values of [1, w_1] the prefix does not hold yet
        for a in range(1, n + 1):
            before = last[a]
            rest = a - 1 if pos == 1 else missing - (not before and a <= word[0])
            if rest > n - pos:
                continue
            if edges is not None and before and (before, pos) not in edges:
                continue
            word[pos - 1] = a
            if pos == n:
                yield tuple(word)
                continue
            last[a] = pos
            yield from extend(pos + 1, rest)
            last[a] = before

    yield from extend(1, 0)


def prime_rook_words(n: int) -> Iterator[Word]:
    """Prime rook words of size n in lexicographic order: the letter 1
    followed by every word of [n-1]^(n-1).

    >>> list(prime_rook_words(3))
    [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)]
    """
    if n < 1:
        raise ValueError("n must be positive")
    for rest in itertools.product(range(1, max(1, n - 1) + 1), repeat=n - 1):
        yield (1,) + rest


@dataclass(frozen=True)
class OrbitCertificate:
    """A cyclic-shift orbit together with its two distinguished members.

    ``parking_index`` and ``rook_index`` are the shifts that carry ``word``
    to its orbit's unique parking function and rook word (prime versions
    when ``prime`` is set), and ``parking`` and ``rook`` are those members.
    """

    word: Word
    alphabet: int
    prime: bool
    parking_index: int
    rook_index: int
    parking: Word
    rook: Word

    @property
    def shifts(self) -> tuple[Word, ...]:
        """The whole orbit: ``shifts[t]`` is the shift of ``word`` by t."""
        return orbit(self.word, self.alphabet)


def _parking_shifts(counts: Sequence[int], bar: int) -> list[int]:
    """The shifts t over [m] whose image has every proper prefix of its
    letter counts ahead of the diagonal by at least ``bar``: for k < m, at
    least k + bar letters at most k (a parking function for bar 0 and m =
    n + 1, a prime one for bar 1 and m = n - 1).

    Shift t sends the value s + 1, s = -t mod m, to 1.  The prefix sums of
    (count - 1) of the shifted word, of lengths 1 to m - 1, are the prefix
    sums of ``counts[v] - 1`` over the doubled sequence at s + 1, ...,
    s + m - 1, less their value at s.  That window is the rest of one
    period, so its minimum is the suffix minimum after s or the prefix
    minimum before s plus the period's total, whichever is smaller.  One
    loop forward takes the levels and tests the prefix minima, one loop
    backward tests the suffix minima.
    """
    m = len(counts)
    total = sum(counts) - m
    levels, heads = [], []
    level, low = 0, math.inf  # low: the least level before s
    for c in counts:
        heads.append(low + total - level >= bar)
        levels.append(level)
        if level < low:
            low = level
        level += c - 1
    shifts = []
    low = math.inf  # the least level after s
    for s in range(m - 1, -1, -1):
        level = levels[s]
        if heads[s] and low - level >= bar:
            shifts.append(-s % m)
        if level < low:
            low = level
    shifts.reverse()
    return shifts


def _rook_shifts(counts: Sequence[int], first: int) -> list[int]:
    """The shifts t over [n+1] whose image is a rook word: t sends an unused
    value u to n + 1, and the run of used values after u reaches the first
    letter, so every value up to the image of the first letter occurs."""
    m = len(counts)
    unused = [v for v in range(m) if counts[v] == 0]
    shifts = []
    for u, following in zip(unused, unused[1:] + unused[:1]):
        run = (following - u - 1) % m + 1  # distance to the next unused value
        if 0 < (first - 1 - u) % m < run:
            shifts.append((m - 1 - u) % m)
    return shifts


def orbit_certificate(word: Sequence[int], prime: bool = False) -> OrbitCertificate:
    """Certify the cycle lemma for the cyclic orbit of a word, from its
    letter counts.

    The alphabet is [n+1] (or [n-1] for the prime variant).  Every parking
    shift and every rook shift is found in O(n): the parking shifts by one
    pass of cycle-lemma prefix sums, the rook shifts by one walk over the
    unused values (the prime rook shift sends the first letter to 1).
    Raises ``ValueError`` unless the orbit holds exactly one of each, and
    checks both members by substitution into the predicates' float-free
    cores.

    >>> cert = orbit_certificate((1, 4, 4, 2, 5))
    >>> cert.parking, cert.rook
    ((4, 1, 1, 5, 2), (1, 4, 4, 2, 5))
    """
    n = len(word)
    m = max(1, n - 1) if prime else n + 1
    word = check_word(word, m)
    park_hits: list[int] = []
    rook_hits: list[int] = []
    if n:
        counts = [0] * m
        for a in word:
            counts[a - 1] += 1
        park_hits = _parking_shifts(counts, 1 if prime else 0)
        rook_hits = [(1 - word[0]) % m] if prime else _rook_shifts(counts, word[0])
    if len(park_hits) != 1 or len(rook_hits) != 1:
        raise ValueError(
            f"orbit of {word!r} over [1, {m}] has {len(park_hits)} parking "
            f"functions and {len(rook_hits)} rook words; expected one of each"
        )
    parking, rook = _cyclic_shift(word, park_hits[0], m), _cyclic_shift(word, rook_hits[0], m)
    # both members are shifts of the checked word: no float test
    if prime:
        members = _is_prime_parking(parking) and _is_prime_rook(rook)
    else:
        members = _is_parking(parking) and _rook_dof(rook) is not None
    if not members:
        raise AssertionError(f"orbit certificate of {word!r} names a wrong member")
    return OrbitCertificate(word, m, prime, park_hits[0], rook_hits[0], parking, rook)


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
    orbit-scan predicates.

    >>> pollak_empty_spot((1, 1, 1))
    4
    >>> pollak_empty_spot((1, 4, 4, 2, 5))
    3
    """
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


def tail_and_dof(word: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Tail interval and degrees of freedom of a rook word.

    The tail is the largest interval [j, n] with j >= w_1 + 1 all of whose
    values occur among the letters (possibly empty); the region encoded by
    the word has w_1 + len(tail) degrees of freedom.

    >>> tail_and_dof((2, 1, 1, 6, 3, 4))
    ((6,), 3)
    """
    dof = _rook_dof(word)
    if dof is None:
        raise ValueError(f"{word!r} is not a rook word")
    n = len(word)
    return tuple(range(n + 1 + word[0] - dof, n + 1)), dof
