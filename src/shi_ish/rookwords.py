"""Rook words and the cycle-lemma bijections onto parking functions.

A rook word of size n is a word in [n]^n such that every value in [1, w_1]
occurs among its letters.  Inside [n+1]^n, each orbit of the cyclic letter
shift contains exactly one parking function and exactly one rook word; the
same holds for the prime variants inside [n-1]^n under the Z_{n-1} action.
Those two uniqueness facts drive every translation in this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import Word, orbit
from .parking import is_parking_function, is_prime_parking_function


def is_rook_word(word: Sequence[int]) -> bool:
    """
    >>> is_rook_word((3, 1, 5, 5, 2))
    True
    >>> is_rook_word((2, 4, 4, 5, 3))
    False
    """
    n = len(word)
    if n == 0:
        return False
    if any(not 1 <= a <= n for a in word):
        return False
    present = set(word)
    return all(v in present for v in range(1, word[0] + 1))


def is_prime_rook_word(word: Sequence[int]) -> bool:
    """Rook words with first letter 1 and letters in [n-1].

    The size-1 word (1,) is prime by convention, mirroring
    :func:`~shi_ish.parking.is_prime_parking_function`.

    >>> is_prime_rook_word((1, 2, 2))
    True
    >>> is_prime_rook_word((2, 1, 1))
    False
    """
    n = len(word)
    if n == 0 or word[0] != 1:
        return False
    return all(1 <= a <= max(1, n - 1) for a in word)


def rook_words(n: int) -> Iterator[Word]:
    """Rook words of size n in lexicographic order.

    A depth-first search over [n]^n that drops a prefix as soon as the values
    of [1, w_1] it still misses outnumber the positions left to fill.

    >>> list(rook_words(2))
    [(1, 1), (1, 2), (2, 1)]
    """
    if n < 1:
        raise ValueError("n must be positive")
    word = [0] * n

    def extend(pos: int, missing: frozenset[int]) -> Iterator[Word]:
        if pos == n:
            yield tuple(word)
            return
        for a in range(1, n + 1):
            rest = (missing if pos else frozenset(range(1, a))) - {a}
            if len(rest) < n - pos:
                word[pos] = a
                yield from extend(pos + 1, rest)

    yield from extend(0, frozenset())


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

    ``shifts[t]`` is the shift of ``word`` by t; ``parking_index`` and
    ``rook_index`` locate the unique parking function and rook word (prime
    versions when ``prime`` is set).
    """

    word: Word
    alphabet: int
    prime: bool
    shifts: tuple[Word, ...]
    parking_index: int
    rook_index: int


def orbit_certificate(word: Sequence[int], prime: bool = False) -> OrbitCertificate:
    """Scan the cyclic orbit of a word and certify the cycle lemma for it.

    The alphabet is [n+1] (or [n-1] for the prime variant); raises if the
    orbit does not contain exactly one parking function and one rook word.
    """
    n = len(word)
    m = max(1, n - 1) if prime else n + 1
    shifts = orbit(word, m)
    is_park = is_prime_parking_function if prime else is_parking_function
    is_rook = is_prime_rook_word if prime else is_rook_word
    park_hits = [t for t, w in enumerate(shifts) if is_park(w)]
    rook_hits = [t for t, w in enumerate(shifts) if is_rook(w)]
    if len(park_hits) != 1 or len(rook_hits) != 1:
        raise ValueError(
            f"orbit of {tuple(word)!r} over [1, {m}] has {len(park_hits)} parking "
            f"functions and {len(rook_hits)} rook words; expected one of each"
        )
    return OrbitCertificate(
        word=tuple(word),
        alphabet=m,
        prime=prime,
        shifts=shifts,
        parking_index=park_hits[0],
        rook_index=rook_hits[0],
    )


def rook_word_to_parking(word: Sequence[int]) -> Word:
    """The unique parking function in the Z_{n+1}-orbit of a rook word.

    >>> rook_word_to_parking((1, 4, 4, 2, 5))
    (4, 1, 1, 5, 2)
    """
    if not is_rook_word(word):
        raise ValueError(f"{word!r} is not a rook word")
    cert = orbit_certificate(word)
    return cert.shifts[cert.parking_index]


def parking_to_rook_word(word: Sequence[int]) -> Word:
    """The unique rook word in the Z_{n+1}-orbit of a parking function."""
    if not is_parking_function(word):
        raise ValueError(f"{word!r} is not a parking function")
    cert = orbit_certificate(word)
    return cert.shifts[cert.rook_index]


def prime_rook_word_to_parking(word: Sequence[int]) -> Word:
    """The unique prime parking function in the Z_{n-1}-orbit.

    >>> prime_rook_word_to_parking((1, 2, 2))
    (2, 1, 1)
    """
    if not is_prime_rook_word(word):
        raise ValueError(f"{word!r} is not a prime rook word")
    cert = orbit_certificate(word, prime=True)
    return cert.shifts[cert.parking_index]


def prime_parking_to_rook_word(word: Sequence[int]) -> Word:
    """The unique prime rook word in the Z_{n-1}-orbit."""
    if not is_prime_parking_function(word):
        raise ValueError(f"{word!r} is not a prime parking function")
    cert = orbit_certificate(word, prime=True)
    return cert.shifts[cert.rook_index]


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
    if not is_rook_word(word):
        raise ValueError(f"{word!r} is not a rook word")
    n = len(word)
    present = set(word)
    j = n + 1
    while j - 1 >= word[0] + 1 and (j - 1) in present:
        j -= 1
    tail = tuple(range(j, n + 1))
    return tail, word[0] + len(tail)
