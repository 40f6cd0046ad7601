"""Words, permutations, and set partitions over [n], plus subgraphs of K_n.

Shared vocabulary for the whole package.  Values are plain immutable tuples:

- a *word* is a tuple of positive integers; where an operation depends on the
  alphabet [m] it takes m as an explicit argument,
- a *permutation* is its one-line notation ``(pi_1, ..., pi_n)``,
- a *set partition* is a tuple of blocks, each block an increasing tuple of
  integers, blocks ordered by their minima.  That canonical form makes
  equality and hashing structural.

All positions and letters are 1-based.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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


def position_partition(word: Sequence[int]) -> SetPartition:
    """Group the positions of a word by letter value.

    >>> position_partition((1, 3, 3, 1))
    ((1, 4), (2, 3))
    """
    if len(word) == 0:
        raise ValueError("position partition of the empty word is undefined")
    # filled by increasing position: each block is increasing, and a letter's
    # block enters the dict at its first position, that is, at its minimum
    by_letter: dict[int, list[int]] = {}
    for pos, letter in enumerate(word, start=1):
        by_letter.setdefault(letter, []).append(pos)
    return tuple(map(tuple, by_letter.values()))


def cyclic_shift(word: Sequence[int], t: int, alphabet: int) -> Word:
    """Add t to every letter, wrapping around modulo the alphabet size.

    >>> cyclic_shift((1, 4, 4, 2, 5), 3, 6)
    (4, 1, 1, 5, 2)
    """
    w = check_word(word, alphabet)
    return tuple((a - 1 + t) % alphabet + 1 for a in w)


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


def nonnesting_from_block_specs(
    specs: Iterable[tuple[int, int]], n: int
) -> SetPartition:
    """Build the unique nonnesting partition of [n] with the given blocks.

    ``specs`` lists (minimum, size) pairs with distinct minima whose sizes sum
    to n.  Scanning positions 1..n left to right, a declared minimum opens a
    new block; any other position joins the open, still-incomplete block whose
    most recently added element is smallest.  That first-in-first-out rule is
    what keeps the result nonnesting.

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

    open_blocks: list[list[int]] = []  # still-incomplete blocks
    done: list[tuple[int, ...]] = []
    for p in range(1, n + 1):
        if p in size_at:
            block = [p]
        else:
            if not open_blocks:
                raise ValueError(f"unassignable position {p}")
            block = min(open_blocks, key=lambda b: b[-1])
            open_blocks.remove(block)
            block.append(p)
        if len(block) == size_at[block[0]]:
            done.append(tuple(block))
        else:
            open_blocks.append(block)
    return partition_from_blocks(done)


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
        for i, j in self.edges:
            if not (1 <= i < j <= self.n):
                raise ValueError(f"bad edge ({i}, {j}) on [1, {self.n}]")

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

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.sorted_edges()]}

    @classmethod
    def from_json(cls, data: dict) -> "Graph":
        edges = frozenset((strict_int(i), strict_int(j)) for i, j in data["edges"])
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
