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
``bounded`` are cycle-lemma orbits of the word, and ``freedom`` builds its
diamond word from the first occurrences of the letters and takes the degrees
of freedom and the ceiling partition from the word.  The only other layer is
the diagram view: ``{name}_bijection`` encodes the Ish region with
``_encode_rook_word`` of :mod:`shi_ish.ish`, runs the word map and builds the
Shi region with :func:`parking_to_shi_diagram`, and
``{name}_bijection_inverse`` reads the Shi region's word with
:func:`shi_diagram_to_parking`, runs the inverse word map and decodes with
``_decode_rook_word``.  The theorem sweeps of :mod:`shi_ish.cli` run the word
maps and ``map`` runs the diagram views; the rook placements of
:mod:`shi_ish.ish` are the documented construction and the tests' reference.

The Dyck-path construction works with partially built words whose dotted
positions are marked by the :data:`DIAMOND` placeholder until the very last
step resolves them into dotted letters.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

from .core import SetPartition, Word, check_partition_of, position_partition
from .ish import (
    IshCeilingDiagram,
    _decode_rook_word,
    _encode_rook_word,
    _laser_rows,
    _laser_word,
    _rook_word_rows,
    _rows_to_rook_word,
)
from .parking import (
    LabeledDyckPath,
    dyck_to_word,
    is_parking_function,
    is_prime_parking_function,
    prime_components,
    word_to_dyck,
)
from .rookwords import OrbitCertificate, _rook_dof, orbit_certificate
from .shi import ShiCeilingDiagram, parking_to_shi_diagram, shi_diagram_to_parking


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


# ---------------------------------------------------------------------------
# the four region bijections: the word maps, then their diagram views


def _certified_rook_orbit(word: Sequence[int], prime: bool = False) -> OrbitCertificate:
    """The orbit certificate of a region's rook word.  The certificate checks
    its (prime) rook member by substitution; that member must be ``word``
    itself, which certifies the input with that one check."""
    cert = orbit_certificate(word, prime=prime)
    if cert.rook != cert.word:
        raise ValueError(f"{word!r} is not a {'prime ' if prime else ''}rook word")
    return cert


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
    return orbit_certificate(_laser_word(_rook_word_rows(word))).parking


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
    return _certified_rook_orbit(word).parking


def dominance_parking_to_rook(word: Sequence[int]) -> Word:
    """Inverse of :func:`dominance_rook_to_parking`.

    The orbit certificate checks its parking member by substitution; that
    member must be ``word`` itself, which certifies the input with that one
    check, as :func:`_certified_rook_orbit` does for rook words.
    """
    try:
        cert = orbit_certificate(word)
    except ValueError:
        if is_parking_function(word):
            raise  # parking-shaped, but a letter is no integer: keep that message
        cert = None
    if cert is None or cert.parking != cert.word:
        raise ValueError(f"{word!r} is not a parking function")
    return cert.rook


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
    return _certified_rook_orbit(word, prime=True).parking


def bounded_parking_to_rook(word: Sequence[int]) -> Word:
    """Inverse of :func:`bounded_rook_to_parking`; the certificate checks the
    prime rook word it returns."""
    if not is_prime_parking_function(word):
        raise ValueError("input region is not relatively bounded")
    return orbit_certificate(word, prime=True).rook


def freedom_rook_to_parking(word: Sequence[int]) -> Word:
    """The ``freedom`` map on words: the labeled Dyck path of the region,
    built from its prime components (:func:`ish_diagram_to_parking_stages`).

    >>> freedom_rook_to_parking((2, 8, 8, 1, 8, 8, 2, 5))
    (2, 4, 4, 1, 4, 4, 2, 7)
    """
    return _rook_word_to_parking_stages(word).word


def freedom_parking_to_rook(word: Sequence[int]) -> Word:
    """Inverse of :func:`freedom_rook_to_parking`
    (:func:`parking_to_ish_diagram_stages`)."""
    *_, after_global = _diamond_stages(word)
    return _resolve_rook_word(after_global, position_partition(word))


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
# parking functions <-> Ish diagrams through prime Dyck components


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


def resolve_diamond_word(
    word: Sequence[Union[int, Diamond]], partition: SetPartition
) -> IshCeilingDiagram:
    """Fill the diamonds of a partial diagram word.

    There is exactly one way to dot the diamond positions so that the
    resulting diagram is valid and has the prescribed ceiling partition: the
    available relations are the arcs of the partition, and sorting them by
    left endpoint is forced by the increasing-dots condition.  The filled
    diagram is the decoded :func:`_resolve_rook_word`; ValueError unless it
    is a coherent diagram with that ceiling partition.
    """
    check_partition_of(partition, len(word))
    return _decode_rook_word(_resolve_rook_word(word, partition))


def _resolve_rook_word(word: Sequence[Union[int, Diamond]], partition: SetPartition) -> Word:
    """The rook word of :func:`resolve_diamond_word`, for a partition of
    [len(word)].

    The letters of ``word`` must be the block minima of ``partition``, one
    diamond per arc.  A block's minimum sits undotted at some position i,
    and each later element hangs from its predecessor in the block by a dot,
    so every element of the block reads i in the rook word.  The dotted
    positions are the letters the rook word misses, so it is a rook word
    exactly when every diamond lies right of the letter 1, which is the
    coherence of the filled diagram.
    """
    if sum(isinstance(s, Diamond) for s in word) != len(word) - len(partition):
        raise ValueError("diamond count does not match the partition arcs")
    at = {s: i for i, s in enumerate(word, start=1) if not isinstance(s, Diamond)}
    rook = [0] * len(word)
    for block in partition:
        position = at.get(block[0])
        if position is None:
            raise ValueError("word letters are inconsistent with the partition")
        for value in block:
            rook[value - 1] = position
    if _rook_dof(rook) is None:
        raise ValueError(f"{tuple(word)!r} has a diamond left of the letter 1")
    return tuple(rook)


def parking_to_ish_diagram_stages(word: Sequence[int]) -> DyckToIshStages:
    """Build the Ish diagram of a parking function, keeping every stage.

    The prime components of the labeled Dyck path are listed cyclically from
    the one containing the label 1.  That component is read cyclically from
    the column of 1, skipping its final empty column, with a diamond appended;
    each later component is read left to right and spliced in just after
    position i-1.  The first d letters then rotate left once, the whole word
    rotates left until only labels of components left of 1 precede the 1, and
    the diamonds resolve against the position partition.  The last step is
    :func:`freedom_parking_to_rook` and the codec's decoding.
    """
    components, stage_words, after_prefix, after_global = _diamond_stages(word)
    rook = _resolve_rook_word(after_global, position_partition(word))
    return DyckToIshStages(
        components=components,
        stage_words=stage_words,
        after_prefix_rotation=after_prefix,
        after_global_rotation=after_global,
        diagram=_decode_rook_word(rook),
    )


def _diamond_stages(
    word: Sequence[int],
) -> tuple[tuple[LabeledDyckPath, ...], tuple[DiamondWord, ...], DiamondWord, DiamondWord]:
    """The components, stage words and both rotations of
    :func:`parking_to_ish_diagram_stages`: everything before the diamonds
    resolve."""
    dyck = word_to_dyck(word)
    comps = prime_components(dyck)
    d = len(comps)
    one_in = next(i for i, c in enumerate(comps, start=1) if 1 in c.labels())
    ordered = comps[one_in - 1 :] + comps[: one_in - 1]

    first = ordered[0].columns
    if len(first) == 1:
        working: list[Union[int, Diamond]] = [1]
    else:
        size = len(first)
        start = next(t for t, col in enumerate(first) if col and col[0] == 1)
        read = [
            first[(start + t) % size]
            for t in range(size)
            if (start + t) % size != size - 1
        ]
        working = [col[0] if col else DIAMOND for col in read]
        working.append(DIAMOND)
    stage_words = [tuple(working)]

    for i in range(2, d + 1):
        piece: list[Union[int, Diamond]] = [
            col[0] if col else DIAMOND for col in ordered[i - 1].columns
        ]
        working = working[: i - 1] + piece + working[i - 1 :]
        stage_words.append(tuple(working))

    working = working[1:d] + [working[0]] + working[d:]
    after_prefix = tuple(working)

    shift = d - one_in
    working = working[shift:] + working[:shift]
    return tuple(c.columns for c in ordered), tuple(stage_words), after_prefix, tuple(working)


def parking_to_ish_diagram(word: Sequence[int]) -> IshCeilingDiagram:
    """The Ish ceiling diagram attached to a parking function by the prime
    Dyck component construction: :func:`freedom_parking_to_rook`, decoded.

    >>> parking_to_ish_diagram((3, 7, 3, 8, 2, 2, 7, 1, 2)).pi
    (8, 1, 4, 3, 7, 6, 5, 9, 2)
    >>> parking_to_ish_diagram((3, 7, 3, 8, 2, 2, 7, 1, 2)).eps
    (0, 0, 0, 1, 2, 5, 0, 6, 0)
    """
    return _decode_rook_word(freedom_parking_to_rook(word))


def ish_diagram_to_parking_stages(diagram: IshCeilingDiagram) -> IshToDyckStages:
    """Recover the parking function of an Ish region, keeping every stage:
    :func:`_rook_word_to_parking_stages` of its rook word."""
    return _rook_word_to_parking_stages(_encode_rook_word(diagram))


def _rook_word_to_parking_stages(word: Sequence[int]) -> IshToDyckStages:
    """The stages of :func:`ish_diagram_to_parking_stages`, read off the
    region's rook word.

    The diamond word is the region's pi with its dotted letters replaced by
    diamonds: the first occurrence of letter a, at position q, puts q at
    position a, and the positions of the missing letters are the diamonds.
    The degrees of freedom are those of the rook word and the ceiling
    partition is its position partition, whose block minima are the letters
    of the diamond word.

    With d the degrees of freedom, the diamond word cycles right until 1 sits
    in position d (the cycle index counts the steps), the first d entries
    rotate right once, and the symbols expand to Dyck-path columns: a letter
    carries its ceiling-partition block, a diamond is an empty column.
    Components peel off left to right from positions d down to 2; the
    component of 1 is the unique cyclic rotation of what remains (after
    dropping the final diamond) that stays strictly above the diagonal.  The
    cycle index then fixes the left-to-right order: the component of 1 lands
    in linear position d minus the cycle index.
    """
    d = _rook_dof(word)
    if d is None:
        raise ValueError(f"{word!r} is not a rook word")
    n = len(word)
    partition = position_partition(word)
    block_of = {block[0]: block for block in partition}

    working: list[Union[int, Diamond]] = [DIAMOND] * n
    for first in block_of:
        working[word[first - 1] - 1] = first
    initial = tuple(working)

    cycle_index = (d - 1 - working.index(1)) % n
    if not 0 <= cycle_index < d:
        raise AssertionError(f"cycle index {cycle_index} outside [0, {d})")
    if cycle_index:
        moved = working[-cycle_index:]
        if any(isinstance(s, Diamond) for s in moved):
            raise AssertionError("cycling moved a diamond past the end")
        working = moved + working[:-cycle_index]
    after_cycling = tuple(working)
    if working[d - 1] != 1:
        raise AssertionError("cycling did not bring 1 to position d")

    working = [working[d - 1]] + working[: d - 1] + working[d:]
    after_prefix = tuple(working)

    cols: list[tuple[int, ...]] = [
        () if isinstance(s, Diamond) else block_of[s] for s in working
    ]

    components: dict[int, LabeledDyckPath] = {}
    for i in range(d, 1, -1):
        start = i - 1
        end = start
        surplus = len(cols[end]) - 1
        while surplus != 0:
            if surplus < 0:
                raise AssertionError("column surplus went negative")
            end += 1
            surplus += len(cols[end]) - 1
        components[i] = tuple(cols[start : end + 1])
        del cols[start : end + 1]

    if len(cols) == 1:
        if cols[0] != (1,):
            raise AssertionError(f"last column is {cols[0]}, not (1,)")
        components[1] = ((1,),)
    else:
        if not (cols[0] and cols[0][0] == 1 and cols[-1] == ()):
            raise AssertionError("component of 1 does not start at 1 and end empty")
        body = cols[:-1]
        good = [
            r
            for r in range(len(body))
            if all(
                sum(len(c) for c in (body[r:] + body[:r])[:s]) > s
                for s in range(1, len(body) + 1)
            )
        ]
        if len(good) != 1:
            raise AssertionError(f"{len(good)} rotations are Dyck paths, expected 1")
        rotated = body[good[0] :] + body[: good[0]]
        components[1] = tuple(rotated) + ((),)

    order = tuple((m + cycle_index) % d + 1 for m in range(1, d + 1))
    columns = [col for i in order for col in components[i]]
    parking = dyck_to_word(columns)
    if position_partition(parking) != partition:
        raise AssertionError("parking word does not keep the ceiling partition")
    return IshToDyckStages(
        diamond_word=initial,
        cycle_index=cycle_index,
        after_cycling=after_cycling,
        after_prefix_rotation=after_prefix,
        components=tuple(components[i] for i in range(1, d + 1)),
        linear_order=order,
        word=parking,
    )


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
