"""Rook words and the cycle-lemma bijections onto parking functions.

A rook word of size n is a word in [n]^n such that every value in [1, w_1]
occurs among its letters.  Inside [n+1]^n, each orbit of the cyclic letter
shift contains exactly one parking function and exactly one rook word; the
same holds for the prime variants inside [n-1]^n under the Z_{n-1} action.
Those two uniqueness facts drive every translation in this module.
:func:`orbit_certificate` certifies both members; its halves
``_orbit_parking`` and ``_orbit_rook`` certify one each, for the ``basic``
and ``dominance`` maps.  ``bounded`` (over the prime alphabet, where the
rook shift is one subtraction) and the ``cycle-lemma`` suite keep the whole.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Collection, Iterator, NamedTuple, Optional, Sequence

from .core import Graph, Word, _check_int_letters, _cyclic_shift, check_word, orbit
from .parking import _is_parking, _is_prime_parking


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


def _is_rook(word: Sequence[int]) -> bool:
    """:func:`is_rook_word` without the float test."""
    return _rook_dof(word) is not None


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


class OrbitCertificate(NamedTuple):
    """A cyclic-shift orbit together with its two distinguished members.

    ``parking_index`` and ``rook_index`` are the shifts that carry ``word``
    to its orbit's unique parking function and rook word (prime versions
    when ``prime`` is set), and ``parking`` and ``rook`` are those members.

    >>> orbit_certificate((1, 2, 2), prime=True)
    OrbitCertificate(word=(1, 2, 2), alphabet=2, prime=True, parking_index=1, rook_index=0, parking=(2, 1, 1), rook=(1, 2, 2))
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


def _orbit_counts(word: Sequence[int], prime: bool) -> tuple[Word, int, list[int]]:
    """The word checked over its orbit's alphabet [m], m, and its letter counts."""
    m = max(1, len(word) - 1) if prime else len(word) + 1
    word = check_word(word, m)
    counts = [0] * m
    for a in word:
        counts[a - 1] += 1
    return word, m, counts


def _shifted_member(word: Word, m: int, shift: int, is_member: Callable[[Word], bool]) -> Word:
    """The shift of a checked word to an orbit member, checked by
    substitution into a float-free core."""
    member = _cyclic_shift(word, shift, m)
    if not is_member(member):
        raise AssertionError(f"orbit certificate of {word!r} names a wrong member")
    return member


def _orbit_parking(word: Sequence[int]) -> Word:
    """``orbit_certificate(word).parking``, seeking no rook shift."""
    word, m, counts = _orbit_counts(word, False)
    hits = _parking_shifts(counts, 0) if word else []
    if len(hits) != 1:
        orbit_certificate(word)  # raises the ValueError that counts both kinds
    return _shifted_member(word, m, hits[0], _is_parking)


def _orbit_rook(word: Sequence[int]) -> Word:
    """``orbit_certificate(word).rook``, seeking no parking shift."""
    word, m, counts = _orbit_counts(word, False)
    hits = _rook_shifts(counts, word[0]) if word else []
    if len(hits) != 1:
        orbit_certificate(word)  # raises the ValueError that counts both kinds
    return _shifted_member(word, m, hits[0], _is_rook)


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
    word, m, counts = _orbit_counts(word, prime)
    park_hits: list[int] = []
    rook_hits: list[int] = []
    if word:
        park_hits = _parking_shifts(counts, 1 if prime else 0)
        rook_hits = [(1 - word[0]) % m] if prime else _rook_shifts(counts, word[0])
    if len(park_hits) != 1 or len(rook_hits) != 1:
        raise ValueError(
            f"orbit of {word!r} over [1, {m}] has {len(park_hits)} parking "
            f"functions and {len(rook_hits)} rook words; expected one of each"
        )
    parking = _shifted_member(word, m, park_hits[0], _is_prime_parking if prime else _is_parking)
    rook = _shifted_member(word, m, rook_hits[0], _is_prime_rook if prime else _is_rook)
    return OrbitCertificate(word, m, prime, park_hits[0], rook_hits[0], parking, rook)


def tail_and_dof(word: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Tail interval and degrees of freedom of a rook word.

    The tail is the largest interval [j, n] with j >= w_1 + 1 all of whose
    values occur among the letters (possibly empty); the region encoded by
    the word has w_1 + len(tail) degrees of freedom.  ValueError unless
    ``word`` is a rook word; letters are refused as in :func:`is_rook_word`.

    >>> tail_and_dof((2, 1, 1, 6, 3, 4))
    ((6,), 3)
    """
    _check_int_letters(word)
    dof = _rook_dof(word)
    if dof is None:
        raise ValueError(f"{word!r} is not a rook word")
    n = len(word)
    return tuple(range(n + 1 + word[0] - dof, n + 1)), dof
