"""Bijections between regions of the Shi and Ish arrangements.

All four bijections factor through parking functions and rook words:

* ``basic_bijection`` restricts the rook placement of an Ish region, reads a
  word off it with rightward lasers, and parks the result.  It is a bijection
  for the complete graph but preserves no statistics.
* ``dominance_bijection`` reads rook words with downward lasers and converts
  them to parking functions by the cycle lemma.  It preserves ceiling
  partitions and dominance, and so restricts to every subgraph.
* ``bounded_bijection`` is the prime variant of the dominance map.  It
  carries relatively bounded regions to relatively bounded regions and
  preserves ceiling partitions.
* ``freedom_bijection`` goes through labeled Dyck paths, cutting them into
  prime components.  It preserves ceiling partitions and degrees of freedom.

An Ish region is its rook word and a Shi region is its parking word, so each
bijection is implemented once, as a pair of word maps:
``{name}_rook_to_parking`` carries the rook word of an Ish region to the
parking word of its Shi image, and ``{name}_parking_to_rook`` carries it
back.  ``basic`` reads its rook rows off the word, ``dominance`` and
``bounded`` are cycle-lemma orbits of the word, and ``freedom`` renames the
letters through a permutation of the n columns of the labeled Dyck path, so
it keeps the position partition, which is the ceiling partition, by
construction.  The only other layer is the diagram view:
``{name}_bijection`` encodes the Ish region with
``_encode_rook_word`` of :mod:`shi_ish.ish`, runs the word map and builds the
Shi region with :func:`parking_to_shi_diagram`, and
``{name}_bijection_inverse`` reads the Shi region's word with
:func:`shi_diagram_to_parking`, runs the inverse word map and decodes with
``_decode_rook_word``.  The theorem sweeps of :mod:`shi_ish.verify` run the
word maps and ``map`` runs the diagram views.  The rook placements and the
labeled Dyck paths, as the paper states the constructions, are the tests'
reference and live with the tests.  ``basic`` and ``dominance`` certify
only the orbit member they return, ``dominance`` tests its input, the other
member, by substitution, and ``bounded`` keeps the whole certificate (see
:mod:`shi_ish.rookwords`).

The ``freedom`` word maps run the prime-component construction on column
indices and read the word off the positions the columns reach; the tests'
stage views build the same steps on labels, as the paper states them.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from .core import Word, check_word
from .ish import (
    IshCeilingDiagram,
    _decode_rook_word,
    _encode_rook_word,
    _laser_rows,
    _laser_word,
    _rook_word_rows,
    _rows_to_rook_word,
)
from .parking import _is_parking, is_parking_function, is_prime_parking_function
from .rookwords import _orbit_parking, _orbit_rook, _parking_shifts, _rook_dof, orbit_certificate
from .shi import ShiCeilingDiagram, parking_to_shi_diagram, shi_diagram_to_parking


# ---------------------------------------------------------------------------
# the four region bijections: the word maps, then their diagram views (the
# freedom word maps follow them)


def basic_rook_to_parking(word: Sequence[int]) -> Word:
    """The ``basic`` map on words: the rook word's placement, restricted,
    read with rightward lasers and parked.

    >>> basic_rook_to_parking((2, 8, 8, 1, 8, 8, 2, 5))
    (4, 2, 3, 4, 2, 3, 1, 7)
    """
    if _rook_dof(word) is None:
        raise ValueError(f"{word!r} is not a rook word")
    return _basic_rook_to_parking(word)


def _basic_rook_to_parking(word: Word) -> Word:
    """:func:`basic_rook_to_parking` of a word already known to be a rook
    word."""
    return _orbit_parking(_laser_word(_rook_word_rows(word)))


def basic_parking_to_rook(word: Sequence[int]) -> Word:
    """Inverse of :func:`basic_rook_to_parking`: the placement the laser
    word decodes to, read with downward lasers."""
    if not is_parking_function(word):
        raise ValueError(f"{word!r} is not a parking function")
    return _rows_to_rook_word(_laser_rows(word))


def dominance_rook_to_parking(word: Sequence[int]) -> Word:
    """The ``dominance`` map on words: the rook word parked by the cycle
    lemma.

    >>> dominance_rook_to_parking((2, 8, 8, 1, 8, 8, 2, 5))
    (4, 1, 1, 3, 1, 1, 4, 7)
    """
    parking = _orbit_parking(word)  # refuses a letter off [1, n + 1] first
    if _rook_dof(word) is None:
        raise ValueError(f"{word!r} is not a rook word")
    return parking


def dominance_parking_to_rook(word: Sequence[int]) -> Word:
    """Inverse of :func:`dominance_rook_to_parking`: the rook word of the
    parking word's orbit."""
    try:
        rook = _orbit_rook(word)
    except ValueError:
        if is_parking_function(word):
            raise  # parking-shaped, but a letter is no integer: keep that message
        rook = None
    if rook is None or not _is_parking(word):
        raise ValueError(f"{word!r} is not a parking function")
    return rook


def bounded_rook_to_parking(word: Sequence[int]) -> Word:
    """The ``bounded`` map on the rook word of a relatively bounded region
    (one degree of freedom): the word parked by the prime cycle lemma.

    >>> bounded_rook_to_parking((1, 3, 3, 2))
    (2, 1, 1, 3)
    """
    dof = _rook_dof(word)
    if dof is None:
        raise ValueError(f"{word!r} is not a rook word")
    if dof != 1:
        raise ValueError("input region is not relatively bounded")
    cert = orbit_certificate(word, prime=True)
    if cert.rook != cert.word:
        raise ValueError(f"{word!r} is not a prime rook word")
    return cert.parking


def bounded_parking_to_rook(word: Sequence[int]) -> Word:
    """Inverse of :func:`bounded_rook_to_parking`; the certificate checks the
    prime rook word it returns."""
    if not is_prime_parking_function(word):
        raise ValueError("input region is not relatively bounded")
    return orbit_certificate(word, prime=True).rook


def basic_bijection(diagram: IshCeilingDiagram) -> ShiCeilingDiagram:
    """Map an Ish region to a Shi region through rightward lasers.

    A bijection on regions of the complete-graph arrangements; ceiling
    partitions and degrees of freedom are generally not preserved.

    >>> d = IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0))
    >>> basic_bijection(d).pi
    (7, 2, 3, 1, 5, 6, 8, 4)
    """
    return parking_to_shi_diagram(_basic_rook_to_parking(_encode_rook_word(diagram)))


def basic_bijection_inverse(diagram: ShiCeilingDiagram) -> IshCeilingDiagram:
    return _decode_rook_word(basic_parking_to_rook(shi_diagram_to_parking(diagram)))


def dominance_bijection(diagram: IshCeilingDiagram) -> ShiCeilingDiagram:
    """Map an Ish region to a Shi region through downward lasers and the
    cycle lemma.  Preserves ceiling partitions and dominance, hence restricts
    to a bijection for every graph.

    >>> d = IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0))
    >>> dominance_bijection(d).pi
    (2, 3, 4, 1, 5, 7, 8, 6)
    >>> dominance_bijection_inverse(dominance_bijection(d)) == d
    True
    """
    return parking_to_shi_diagram(dominance_rook_to_parking(_encode_rook_word(diagram)))


def dominance_bijection_inverse(diagram: ShiCeilingDiagram) -> IshCeilingDiagram:
    return _decode_rook_word(dominance_parking_to_rook(shi_diagram_to_parking(diagram)))


def bounded_bijection(diagram: IshCeilingDiagram) -> ShiCeilingDiagram:
    """Variant of the dominance map for relatively bounded regions, using the
    prime cycle lemma.  Preserves ceiling partitions.

    >>> bounded_bijection(IshCeilingDiagram((1, 2, 3), (0, 0, 1))).partition
    ((1, 3), (2,))
    >>> bounded_bijection(IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0)))
    Traceback (most recent call last):
    ...
    ValueError: input region is not relatively bounded
    """
    return parking_to_shi_diagram(bounded_rook_to_parking(_encode_rook_word(diagram)))


def bounded_bijection_inverse(diagram: ShiCeilingDiagram) -> IshCeilingDiagram:
    return _decode_rook_word(bounded_parking_to_rook(shi_diagram_to_parking(diagram)))


def freedom_bijection(diagram: IshCeilingDiagram) -> ShiCeilingDiagram:
    """Map an Ish region to a Shi region through labeled Dyck paths.
    Preserves ceiling partitions and degrees of freedom, hence restricts to
    a bijection for every graph."""
    return parking_to_shi_diagram(freedom_rook_to_parking(_encode_rook_word(diagram)))


def freedom_bijection_inverse(diagram: ShiCeilingDiagram) -> IshCeilingDiagram:
    return _decode_rook_word(freedom_parking_to_rook(shi_diagram_to_parking(diagram)))


# ---------------------------------------------------------------------------
# the freedom word maps: the construction on column indices


def _column_sizes(word: Sequence[int]) -> list[int]:
    """The number of labels in each column 0..n-1 of a word over [n]: the
    count of each letter.  A float equal to an integer passes the parking and
    rook tests; it is refused here, where it fails as a list index."""
    size = [0] * len(word)
    try:
        for a in word:
            size[a - 1] += 1
    except TypeError:
        check_word(word, len(word))  # names the letter
        raise
    return size


def freedom_rook_to_parking(word: Sequence[int]) -> Word:
    """The ``freedom`` map on words: the labeled Dyck path of the region,
    built from its prime components on the columns 0..n-1 of the rook word,
    where column c holds the positions of the letter c + 1.

    With d the degrees of freedom, the columns cycle right until the column
    of 1 sits in position d (the cycle index counts the steps), and the first
    d rotate right once.  Components peel off from positions d down to 2,
    each the shortest run holding as many labels as columns; the component
    of 1 is the rest, turned to its one rotation (before its final empty
    column) strictly above the diagonal, which one cycle-lemma pass finds
    (:func:`~shi_ish.rookwords._parking_shifts`).  The component of 1 lands
    in linear position d minus the cycle index, and the parking word
    renames each letter by the position its column reached.

    >>> freedom_rook_to_parking((2, 8, 8, 1, 8, 8, 2, 5))
    (2, 4, 4, 1, 4, 4, 2, 7)
    """
    d = _rook_dof(word)
    if d is None:
        raise ValueError(f"{word!r} is not a rook word")
    n = len(word)
    size = _column_sizes(word)
    home = word[0] - 1  # the column of the label 1
    cycle_index = (d - 1 - home) % n
    if not 0 <= cycle_index < d:
        raise AssertionError(f"cycle index {cycle_index} outside [0, {d})")
    cut = n - cycle_index
    if not all(size[cut:]):
        raise AssertionError("cycling moved an empty column past the end")
    after_cycling = [*range(cut, n), *range(cut)]
    if after_cycling[d - 1] != home:
        raise AssertionError("cycling did not bring 1 to position d")
    working = [home, *after_cycling[: d - 1], *after_cycling[d:]]
    components: dict[int, list[int]] = {}
    for i in range(d, 1, -1):
        end = i - 1
        surplus = size[working[end]] - 1
        while surplus:
            if surplus < 0:
                raise AssertionError("column surplus went negative")
            end += 1
            surplus += size[working[end]] - 1
        components[i] = working[i - 1 : end + 1]
        del working[i - 1 : end + 1]
    if len(working) == 1:
        if working != [home] or size[home] != 1:
            raise AssertionError("the last column holds more than the label 1")
        components[1] = working
    else:
        if working[0] != home or size[working[-1]]:
            raise AssertionError("component of 1 does not start at 1 and end empty")
        body = working[:-1]
        shifts = _parking_shifts([size[c] for c in body], 1)
        if len(shifts) != 1:
            raise AssertionError(f"{len(shifts)} rotations are Dyck paths, expected 1")
        s = -shifts[0] % len(body)
        components[1] = body[s:] + body[:s] + working[-1:]
    order = tuple((m + cycle_index) % d + 1 for m in range(1, d + 1))
    position = [0] * n
    p = total = 0
    for c in (c for i in order for c in components[i]):
        p += 1
        total += size[c]
        if total < p:
            raise AssertionError("the path dips below the diagonal")
        position[c] = p
    return tuple([position[a - 1] for a in word])


def freedom_parking_to_rook(word: Sequence[int]) -> Word:
    """Inverse of :func:`freedom_rook_to_parking`, on the columns 0..n-1 of
    the parking word's labeled Dyck path, where column c holds the labels v
    with ``word[v - 1] == c + 1``.

    The prime components are the column ranges between the diagonal
    touches, listed cyclically from the one holding the label 1.  That one is
    read cyclically from the column of 1, its last column, which is empty,
    moved to the end; each later component i = 2..d is spliced in just after
    position i - 1.  The first d columns rotate left once, and the whole
    arrangement rotates left until only columns of components left of 1
    precede the column of 1.  The rook word renames each letter by the
    position its column reached.
    """
    if not is_parking_function(word):
        raise ValueError(f"{word!r} is not a parking function")
    n = len(word)
    size = _column_sizes(word)
    cuts = [0]  # component k is the columns cuts[k - 1] .. cuts[k] - 1
    total = 0
    for c in range(n - 1):
        total += size[c]
        if total == c + 1:
            cuts.append(c + 1)
    cuts.append(n)
    d = len(cuts) - 1
    home = word[0] - 1  # the column of the label 1
    one_in = bisect_right(cuts, home)  # the rank of its component
    ranges = [(cuts[k - 1], cuts[k]) for k in (*range(one_in, d + 1), *range(1, one_in))]
    lo, hi = ranges[0]
    spliced = [*range(home, hi - 1), *range(lo, home), hi - 1]
    for i, (lo, hi) in enumerate(ranges[1:], start=1):
        spliced[i:i] = range(lo, hi)
    working = spliced[1:d] + spliced[:1] + spliced[d:]
    shift = d - one_in
    working = working[shift:] + working[:shift]
    position = [0] * n
    for p, c in enumerate(working, start=1):
        position[c] = p
    if not all(size[c] for c in working[: position[home] - 1]):
        raise AssertionError(f"an empty column precedes the column of 1 for {word!r}")
    return tuple([position[a - 1] for a in word])
