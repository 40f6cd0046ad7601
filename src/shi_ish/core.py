"""Words, permutations, and set partitions over [n], subgraphs of K_n, and
the statistics of a region.

Shared vocabulary for the whole package.  Values are plain immutable tuples:

- a *word* is a tuple of positive integers; where an operation depends on the
  alphabet [m] it takes m as an explicit argument,
- a *permutation* is its one-line notation ``(pi_1, ..., pi_n)``,
- a *set partition* is a tuple of blocks, each block an increasing tuple of
  integers, blocks ordered by their minima.  That canonical form makes
  equality and hashing structural.

A region of a Coxeter, Shi or Ish arrangement has the same three statistics
whatever labels it: its ceiling partition, its degrees of freedom and its
dominance, held in one :class:`RegionStatistics`.

All positions and letters are 1-based.
"""

from __future__ import annotations

import collections
import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

Word = tuple[int, ...]
Permutation = tuple[int, ...]
Block = tuple[int, ...]
SetPartition = tuple[Block, ...]


# ---------------------------------------------------------------------------
# words


def strict_int(value: object) -> int:
    """``value`` itself if it is an int; ValueError for anything else, bools,
    floats and numeric strings included, so that JSON input is never
    silently converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def check_word(letters: Sequence[int], alphabet: int) -> Word:
    """Validate a word over the alphabet [m] and return it as a tuple."""
    if alphabet < 1:
        raise ValueError(f"alphabet size must be positive, got {alphabet}")
    word = tuple(letters)
    for a in word:
        if not isinstance(a, int) or not 1 <= a <= alphabet:
            raise ValueError(f"letter {a!r} outside alphabet [1, {alphabet}]")
    return word


def _check_int_letters(word: Sequence[int]) -> None:
    """The ValueError of :func:`check_word` naming a letter that is not an
    int, if there is one: a float letter makes the sum a float, and a
    string or None makes the sum raise."""
    try:
        if type(sum(word)) is int:
            return
    except TypeError:
        pass
    check_word(word, len(word))  # names the letter


def position_partition(word: Sequence[int]) -> SetPartition:
    """Group the positions of a word by letter value.

    >>> position_partition((1, 3, 3, 1))
    ((1, 4), (2, 3))
    """
    if len(word) == 0:
        raise ValueError("position partition of the empty word is undefined")
    _check_int_letters(word)
    return _position_partition(word)


def _position_partition(word: Sequence[int]) -> SetPartition:
    """:func:`position_partition` of a nonempty word of int letters, without
    the float test, for the package's own words."""
    # filled by increasing position: each block is increasing, and a letter's
    # block enters the dict at its first position, that is, at its minimum
    by_letter: dict[int, list[int]] = {}
    for pos, letter in enumerate(word, start=1):
        by_letter.setdefault(letter, []).append(pos)
    return tuple(map(tuple, by_letter.values()))


def _region_scan(
    word: Sequence[int], edges: Optional[frozenset[tuple[int, int]]]
) -> Optional[tuple[dict[int, list[int]], bool]]:
    """The letter -> positions blocks of a word and its dominance rule, in
    one left-to-right pass; None when ``edges`` is given and misses an arc.

    Each block is filled by increasing position and enters the dict at its
    minimum, so the values are the position partition in canonical form;
    the parking and rook tests read the blocks' sizes and keys.
    Position p closes the arc (previous position of its letter, p), so the
    arcs arrive by increasing right endpoint, and the partition is
    nonnesting exactly when their left endpoints increase too (see
    :func:`is_nonnesting`).  The rule holds when the partition is
    nonnesting and each letter first occurs at its own position.

    >>> _region_scan((1, 2, 1), None)
    ({1: [1, 3], 2: [2]}, True)
    """
    blocks: dict[int, list[int]] = {}
    dominant = True
    left = pos = 0  # left endpoint of the latest arc; position of the letter
    for letter in word:
        pos += 1
        block = blocks.get(letter)
        if block is None:
            blocks[letter] = [pos]
            if letter != pos:
                dominant = False
        else:
            before = block[-1]
            if edges is not None and (before, pos) not in edges:
                return None
            if before < left:  # the arc (before, pos) nests over the latest one
                dominant = False
            left = before
            block.append(pos)
    return blocks, dominant


def cyclic_shift(word: Sequence[int], t: int, alphabet: int) -> Word:
    """Add t to every letter, wrapping around modulo the alphabet size.

    >>> cyclic_shift((1, 4, 4, 2, 5), 3, 6)
    (4, 1, 1, 5, 2)
    """
    return _cyclic_shift(check_word(word, alphabet), t, alphabet)


def _cyclic_shift(word: Word, t: int, alphabet: int) -> Word:
    """:func:`cyclic_shift` of a word already checked over the alphabet."""
    return tuple([(a - 1 + t) % alphabet + 1 for a in word])


def orbit(word: Sequence[int], alphabet: int) -> tuple[Word, ...]:
    """All ``alphabet`` cyclic shifts of a word, starting with shift 0."""
    return tuple(cyclic_shift(word, t, alphabet) for t in range(alphabet))


# ---------------------------------------------------------------------------
# permutations


def is_permutation(seq: Sequence[int]) -> bool:
    return sorted(seq) == list(range(1, len(seq) + 1))


def check_permutation(seq: Sequence[int]) -> Permutation:
    perm = tuple(seq)
    if not is_permutation(perm):
        raise ValueError(f"{seq!r} is not a permutation of [1, {len(seq)}]")
    return perm


def identity_permutation(n: int) -> Permutation:
    return tuple(range(1, n + 1))


# ---------------------------------------------------------------------------
# set partitions


def partition_from_blocks(blocks: Iterable[Iterable[int]]) -> SetPartition:
    """Canonicalize a family of disjoint blocks: sort within blocks, sort
    blocks by minimum."""
    canon = tuple(sorted(tuple(sorted(block)) for block in blocks))
    seen: set[int] = set()
    for block in canon:
        if not block:
            raise ValueError("empty block in set partition")
        for x in block:
            if x in seen:
                raise ValueError(f"element {x} appears in two blocks")
            seen.add(x)
    return canon


def partition_from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> SetPartition:
    """The partition of [n] generated by joining i and j for every pair (i, j).

    >>> partition_from_pairs(5, [(1, 4), (4, 3)])
    ((1, 3, 4), (2,), (5,))
    """
    parent = list(range(n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in pairs:
        parent[find(i)] = find(j)
    # filled by increasing vertex, so already canonical (see position_partition)
    blocks: dict[int, list[int]] = {}
    for v in range(1, n + 1):
        blocks.setdefault(find(v), []).append(v)
    return tuple(map(tuple, blocks.values()))


def partition_str(partition: SetPartition) -> str:
    """Blocks joined by "|", elements within a block by ",".

    >>> partition_str(((1, 3), (2,)))
    '1,3|2'
    """
    return "|".join(",".join(str(v) for v in block) for block in partition)


def check_partition_of(partition: SetPartition, n: int) -> SetPartition:
    """Validate that ``partition`` is a canonical set partition of [n]."""
    canon = partition_from_blocks(partition)
    if canon != tuple(partition):
        raise ValueError(f"{partition!r} is not in canonical form")
    ground = {x for block in canon for x in block}
    if ground != set(range(1, n + 1)):
        raise ValueError(f"{partition!r} is not a partition of [1, {n}]")
    return canon


def arcs(partition: SetPartition) -> tuple[tuple[int, int], ...]:
    """Consecutive pairs inside blocks, as ordered (smaller, larger) pairs.

    >>> arcs(((1, 4, 5), (2, 6), (3,)))
    ((1, 4), (2, 6), (4, 5))
    """
    pairs = []
    for block in partition:
        for a, b in zip(block, block[1:]):
            pairs.append((a, b))
    return tuple(sorted(pairs))


def is_nonnesting(partition: SetPartition) -> bool:
    """True unless some arc strictly nests inside another.

    Nesting means arcs a-d and b-c with a < b < c < d; arcs sharing an
    endpoint never nest.  No two arcs share a left or a right endpoint, so
    the partition is nonnesting exactly when the right endpoints increase
    with the left ones.

    >>> is_nonnesting(((1, 3), (2, 4)))
    True
    >>> is_nonnesting(((1, 4, 5), (2, 6), (3,)))
    False
    """
    rights = [d for _, d in arcs(partition)]
    return all(c < d for c, d in zip(rights, rights[1:]))


def nonnesting_from_block_specs(
    specs: Iterable[tuple[int, int]], n: int
) -> SetPartition:
    """Build the unique nonnesting partition of [n] with the given blocks.

    ``specs`` lists (minimum, size) pairs with distinct minima whose sizes sum
    to n.  Scanning positions 1..n left to right, a declared minimum opens a
    new block; any other position joins the open, still-incomplete block whose
    most recently added element is smallest.  That first-in-first-out rule is
    what keeps the result nonnesting.  Each block is filled by increasing
    position and every position goes to one block, so the blocks are
    increasing and disjoint as built, and sorting them by minimum gives the
    canonical form without another pass of :func:`partition_from_blocks`.

    >>> nonnesting_from_block_specs([(1, 4), (3, 1), (4, 2), (7, 1)], 8)
    ((1, 2, 5, 8), (3,), (4, 6), (7,))
    """
    size_at: dict[int, int] = {}
    for minimum, size in specs:
        if minimum in size_at:
            raise ValueError(f"duplicate block minimum {minimum}")
        if size < 1:
            raise ValueError(f"block size must be positive, got {size}")
        size_at[minimum] = size
    if sum(size_at.values()) != n:
        raise ValueError("block sizes must sum to the ground-set size")
    if size_at and (min(size_at) < 1 or max(size_at) > n):
        raise ValueError("block minimum out of range")

    # still-incomplete blocks, by their last element: a block joins the back
    # when it is opened or extended, so the front was extended least recently
    open_blocks: collections.deque[list[int]] = collections.deque()
    done: list[tuple[int, ...]] = []
    for p in range(1, n + 1):
        if p in size_at:
            block = [p]
        else:
            if not open_blocks:
                raise ValueError(f"unassignable position {p}")
            block = open_blocks.popleft()
            block.append(p)
        if len(block) == size_at[block[0]]:
            done.append(tuple(block))
        else:
            open_blocks.append(block)
    return tuple(sorted(done))


def set_partitions(n: int) -> Iterator[SetPartition]:
    """All set partitions of [n], in a deterministic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def extend(k: int, blocks: list[list[int]]) -> Iterator[SetPartition]:
        if k > n:
            yield partition_from_blocks(blocks)
            return
        for block in blocks:
            block.append(k)
            yield from extend(k + 1, blocks)
            block.pop()
        blocks.append([k])
        yield from extend(k + 1, blocks)
        blocks.pop()

    yield from extend(1, [])


# ---------------------------------------------------------------------------
# region statistics


class RegionStatistics(NamedTuple):
    """Ceiling partition, degrees of freedom and dominance of a region."""

    ceiling_partition: SetPartition
    dof: int
    dominant: bool

    @property
    def relatively_bounded(self) -> bool:
        """One degree of freedom: bounded up to translation along (1, ..., 1)."""
        return self.dof == 1


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class Graph:
    """A graph on the vertex set [n], identified with its set of edges
    (i, j), i < j."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        object.__setattr__(self, "edges", frozenset(self.edges))
        n = self.n  # a local, not an attribute read per edge
        for i, j in self.edges:
            if not (1 <= i < j <= n):
                raise ValueError(f"bad edge ({i}, {j}) on [1, {n}]")

    @classmethod
    def complete(cls, n: int) -> "Graph":
        """K_n.  A Graph is immutable, so every call shares one instance per n;
        a subclass gets a fresh object of its own class."""
        return _complete_graph(n) if cls is Graph else cls(n, _complete_graph(n).edges)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, frozenset())

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, frozenset((i, i + 1) for i in range(1, n)))

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.edges if i < j else (j, i) in self.edges

    def admits(self, partition: SetPartition) -> bool:
        """Whether every arc of ``partition`` is an edge of the graph."""
        return self.edges.issuperset(arcs(partition))

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.sorted_edges()]}

    @classmethod
    def from_json(cls, data: dict) -> "Graph":
        """The graph of ``{"n": int, "edges": [[i, j], ...]}``.  A pair of
        exact ints is taken as it is; any other edge goes endpoint by
        endpoint through :func:`strict_int`, so the first bad edge in file
        order is named, or the shape ``edges`` must have if it is no pair."""
        shape = "'edges' must be a list of [i, j] pairs"
        if not isinstance(data["edges"], list):
            raise ValueError(shape)
        try:
            edges = frozenset(
                (i, j) if type(i) is int and type(j) is int else (strict_int(i), strict_int(j))
                for i, j in data["edges"]
            )
        except (TypeError, ValueError):  # the one pass failed: only now find the edge that stopped it
            bad = next(e for e in data["edges"] if not (isinstance(e, list) and len(e) == 2 and type(e[0]) is type(e[1]) is int))
            if not isinstance(bad, list) or len(bad) != 2:
                raise ValueError(shape) from None
            raise
        return cls(strict_int(data["n"]), edges)


@functools.lru_cache(maxsize=16, typed=True)
def _complete_graph(n: int) -> Graph:
    return Graph(n, frozenset(itertools.combinations(range(1, n + 1), 2)))


def all_graphs(n: int) -> Iterator[Graph]:
    """All 2^C(n,2) graphs on [n], smaller edge sets first."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for k in range(len(pairs) + 1):
        for chosen in itertools.combinations(pairs, k):
            yield Graph(n, frozenset(chosen))
