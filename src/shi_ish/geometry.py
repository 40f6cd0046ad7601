"""Exact geometric enumeration of arrangement regions.

The rest of the package describes regions of the Shi and Ish arrangements
combinatorially, by parking words, rook words and ceiling diagrams.  This
module recomputes everything from the raw hyperplanes -- regions as sign
vectors with exact rational interior witnesses, ceilings as facet
hyperplanes on the origin side, degrees of freedom as the dimension of the
recession cone -- so that the combinatorial labellings can be validated
region by region.

All arithmetic is exact.  Every hyperplane is a difference x_a - x_b = c,
so every feasibility question here is a difference-constraint system and
a negative cycle refutes it.  During enumeration each region carries the
shortest-path matrix of its arcs, and a split probe reads one entry of it;
a refutation is certified by walking the recorded arcs and summing the
cycle they close.  The certifying Bellman-Ford solver
:func:`shi_ish.exactlp.difference_feasible` is the probes' reference in the
tests, and it decides the tests' single-region facet test and the
vanishing probes of their slow recession-cone dimension.  The exact simplex
(:func:`shi_ish.exactlp.strict_feasible`) only supplies the interior
witness of each newly found region, and decides the tests' brute-force
sweep over all sign vectors.  During
enumeration witnesses are integer vectors over a denominator; they become
``Fraction``s in the finished regions.  :func:`oracle_pass` enumerates once
and measures every region off that pass with no further solver call:
ceilings from the neighbouring regions' sign vectors, degrees of freedom
from intervals of the region's order.  It builds both the cross-validation
and the report from those measurements.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .core import (
    Graph,
    Permutation,
    SetPartition,
    identity_permutation,
    partition_from_pairs,
    partition_str,
)
from .exactlp import Arc, Row, strict_feasible
from .ish import _decode_rook_word, _rook_word_statistics, ish_ceiling_pairs, ish_region_count
from .parking import parking_functions
from .rookwords import rook_words
from .shi import ShiStatistics, _shi_diagram, _word_statistics, ceiling_hyperplane_tags

#: ("cox", i, j) is x_i - x_j = 0; ("shi", i, j) is x_i - x_j = 1;
#: ("ish", i, j) is x_1 - x_j = i.  Indices are 1-based with i < j.
Tag = tuple[str, int, int]

ARRANGEMENT_KINDS = ("cox", "shi", "ish")


@dataclass(frozen=True)
class Hyperplane:
    """The affine hyperplane ``normal . x = offset`` in R^n."""

    normal: tuple[int, ...]
    offset: int
    tag: Tag

    def value_at(self, point: Sequence[Fraction]) -> Fraction:
        """``normal . point - offset`` (sign tells the side of the plane)."""
        return sum(a * x for a, x in zip(self.normal, point)) - self.offset


@dataclass(frozen=True)
class Arrangement:
    kind: str
    n: int
    graph: Graph
    hyperplanes: tuple[Hyperplane, ...]


def _difference_normal(n: int, i: int, j: int) -> tuple[int, ...]:
    normal = [0] * n
    normal[i - 1] = 1
    normal[j - 1] = -1
    return tuple(normal)


def build_arrangement(kind: str, n: int, graph: Optional[Graph] = None) -> Arrangement:
    """Hyperplanes of Cox(n), Shi(G) or Ish(G).

    The Coxeter part x_i - x_j = 0 (i < j) is always included; "shi" adds
    x_i - x_j = 1 and "ish" adds x_1 - x_j = i for every edge (i, j) of the
    graph.  ``graph=None`` means the complete graph (the empty graph for
    "cox", where the graph is irrelevant).

    >>> len(build_arrangement("shi", 3).hyperplanes)
    6
    >>> len(build_arrangement("cox", 4).hyperplanes)
    6
    >>> [h.tag for h in build_arrangement("ish", 3, Graph(3, frozenset({(1, 2)}))).hyperplanes]
    [('cox', 1, 2), ('cox', 1, 3), ('cox', 2, 3), ('ish', 1, 2)]
    """
    if kind not in ARRANGEMENT_KINDS:
        raise ValueError(f"unknown arrangement kind: {kind!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    if graph is None:
        graph = Graph.empty(n) if kind == "cox" else Graph.complete(n)
    if graph.n != n:
        raise ValueError("graph is on the wrong vertex set")
    hyperplanes = [
        Hyperplane(_difference_normal(n, i, j), 0, ("cox", i, j))
        for i, j in itertools.combinations(range(1, n + 1), 2)
    ]
    if kind == "shi":
        for i, j in graph.sorted_edges():
            hyperplanes.append(Hyperplane(_difference_normal(n, i, j), 1, ("shi", i, j)))
    elif kind == "ish":
        for i, j in graph.sorted_edges():
            hyperplanes.append(Hyperplane(_difference_normal(n, 1, j), i, ("ish", i, j)))
    return Arrangement(kind, n, graph, tuple(hyperplanes))


@dataclass(frozen=True)
class GeomRegion:
    """An open region: one sign per hyperplane plus a rational interior point.

    ``signs[k]`` is +1 or -1 and the witness satisfies
    ``signs[k] * (normal_k . x - offset_k) > 0`` strictly for every k.
    """

    signs: tuple[int, ...]
    witness: tuple[Fraction, ...]


def check_region(arrangement: Arrangement, region: GeomRegion) -> bool:
    """Recheck that the witness strictly satisfies every signed inequality."""
    if len(region.signs) != len(arrangement.hyperplanes):
        return False
    for sign, hyp in zip(region.signs, arrangement.hyperplanes):
        if sign not in (1, -1) or sign * hyp.value_at(region.witness) <= 0:
            return False
    return True


def _signed_row(hyp: Hyperplane, sign: int) -> Row:
    return (tuple(sign * a for a in hyp.normal), sign * hyp.offset, True)


def _signed_arc(hyp: Hyperplane, sign: int) -> Arc:
    """The difference-solver arc of ``_signed_row(hyp, sign)``."""
    a, b = hyp.normal.index(1), hyp.normal.index(-1)
    return (a, b, -hyp.offset, -1) if sign == 1 else (b, a, hyp.offset, -1)


def _nudged_witness(
    pairs: Sequence[tuple[int, int, int]],
    signs: dict[int, int],
    witness: tuple[int, ...],
    den: int,
    idx: int,
    side: int,
) -> tuple[tuple[int, ...], int]:
    """Move a witness ``witness / den`` lying on hyperplane ``idx`` strictly
    to the given side; returns the new witness as integers over a
    denominator.  ``pairs[k]`` is ``(a, b, c)`` for hyperplane k, x_a - x_b = c.

    Walking along ``side * (e_a - e_b)`` increases the new signed value
    while every previously strict inequality stays strict for a small
    enough step: half the least bound ``slack / (den * drift)``.
    """
    a, b, _ = pairs[idx]
    best_slack = best_drift = 0
    for k, sign in signs.items():
        p, q, c = pairs[k]
        drift = -side * sign * ((p == a) - (q == a) - (p == b) + (q == b))
        if drift <= 0:
            continue
        slack = sign * (witness[p] - witness[q] - c * den)
        if not best_drift or slack * best_drift < best_slack * drift:
            best_slack, best_drift = slack, drift
    step, scale = (den, 1) if not best_drift else (best_slack, 2 * best_drift)
    moved = [scale * x for x in witness]
    moved[a] += side * step
    moved[b] -= side * step
    g = math.gcd(scale * den, *moved)
    return tuple(x // g for x in moved), scale * den // g


#: the arcs of :func:`_signed_arc`, keyed by (hyperplane, sign), with the
#: weight ``value * (n + 1) + eps``: a simple path has fewer than n arcs, so
#: these integers compare as the (value, eps) sums do
_Arcs = dict[tuple[int, int], tuple[int, int, int]]
#: a region under construction: its signs so far, its witness X / den, and
#: the shortest-path matrix of its arcs with each entry's last arc (None
#: once every hyperplane is in)
_Partial = tuple[dict[int, int], tuple[int, ...], int, Optional[list], Optional[list]]


def _with_arc(dist: list, pred: list, arcs: _Arcs, key: tuple[int, int]) -> tuple[list, list]:
    """The matrix ``dist`` of shortest-path weights (None: no path) and
    ``pred`` of their last arcs, with the arc ``arcs[key]`` added, in
    O(n^2) (Ausiello, Italiano, Marchetti-Spaccamela and Nanni 1991): a
    shorter path from x to y runs to s, over the new arc s -> t, then on
    to y.  Rows that do not change are shared with the input."""
    s, t, weight = arcs[key]
    onward = [(y, d, pred[t][y] if y != t else key) for y, d in enumerate(dist[t]) if d is not None]
    dist, pred = list(dist), list(pred)
    for x, row in enumerate(dist):
        if row[s] is None:
            continue
        base = row[s] + weight
        new_row = new_pred = None
        for y, d, last in onward:
            if row[y] is None or base + d < row[y]:
                if new_row is None:
                    new_row, new_pred = list(row), list(pred[x])
                new_row[y], new_pred[y] = base + d, last
        if new_row is not None:
            dist[x], pred[x] = new_row, new_pred
    return dist, pred


def _refuted(signs: dict[int, int], dist: list, pred: list, arcs: _Arcs, key: tuple[int, int]) -> bool:
    """True when the side ``key`` of the region ``signs`` is empty: its arc
    u -> v of weight w closes a negative cycle exactly when dist[v][u] + w
    < 0.  The recorded arcs from u back to v certify it first: each must be
    a signed arc of the region ending where the walk stands, and their
    weights plus w must sum below 0, or ArithmeticError is raised."""
    u, v, weight = arcs[key]
    bound = dist[v][u]
    if bound is None or bound + weight >= 0:
        return False
    total, y = weight, u
    for _ in range(len(dist)):
        if y == v:
            break
        last = pred[v][y]
        if last is None or signs.get(last[0]) != last[1] or arcs[last][1] != y:
            raise ArithmeticError(f"refutation walk leaves the region's arcs at {last!r}")
        y, _, step = arcs[last]
        total += step
    if y != v or total >= 0:
        raise ArithmeticError("refuting cycle is not negative")
    return True


def enumerate_regions(
    arrangement: Arrangement,
    insertion_order: Optional[Sequence[int]] = None,
) -> tuple[GeomRegion, ...]:
    """All open regions of the arrangement, with exact interior witnesses.

    Hyperplanes are inserted one at a time starting from all of R^n (witness:
    the origin).  Each region keeps the side its witness is on for free and
    probes the opposite side on the shortest-path matrix of its arcs
    (:func:`_refuted`).  A refuted side implies the other, so the region
    keeps its matrix; otherwise it splits, each child gets its arc in
    O(n^2) (:func:`_with_arc`; not after the last hyperplane, when no probe
    is left) and the side across gets its witness from the simplex.  A
    witness on the new hyperplane is nudged off it to both sides instead.
    Witnesses are carried as integers over a denominator and become
    ``Fraction``s at the end.  ``insertion_order`` permutes the
    insertion sequence (the resulting region set must not depend on it).

    >>> len(enumerate_regions(build_arrangement("shi", 3)))
    16
    >>> len(enumerate_regions(build_arrangement("ish", 3)))
    16
    >>> len(enumerate_regions(build_arrangement("cox", 3)))
    6
    """
    hyperplanes = arrangement.hyperplanes
    m = len(hyperplanes)
    n = arrangement.n
    if insertion_order is None:
        order = tuple(range(m))
    else:
        order = tuple(insertion_order)
        if sorted(order) != list(range(m)):
            raise ValueError("insertion_order must be a permutation of range(#hyperplanes)")

    pairs = [(hyp.normal.index(1), hyp.normal.index(-1), hyp.offset) for hyp in hyperplanes]
    rows, arcs = {}, {}
    for k, hyp in enumerate(hyperplanes):
        for sign in (1, -1):
            rows[k, sign] = _signed_row(hyp, sign)
            u, v, bound, eps = _signed_arc(hyp, sign)
            arcs[k, sign] = (u, v, bound * (n + 1) + eps)
    dist = [[0 if x == y else None for y in range(n)] for x in range(n)]
    partial: list[_Partial] = [({}, (0,) * n, 1, dist, [[None] * n] * n)]

    for step, idx in enumerate(order, 1):
        a, b, c = pairs[idx]
        # no probe reads the matrices of the last insertion's children
        grow = _with_arc if step < m else lambda *_: (None, None)
        grown: list[_Partial] = []
        for signs, witness, den, dist, pred in partial:
            value = witness[a] - witness[b] - c * den
            if value == 0:
                # witness sits on the new hyperplane: the region is cut in
                # two and a short walk along the normal lands in either half
                for side in (1, -1):
                    moved = _nudged_witness(pairs, signs, witness, den, idx, side)
                    grown.append(({**signs, idx: side}, *moved, *grow(dist, pred, arcs, (idx, side))))
                continue
            known = 1 if value > 0 else -1
            if _refuted(signs, dist, pred, arcs, (idx, -known)):
                grown.append(({**signs, idx: known}, witness, den, dist, pred))
                continue
            grown.append(({**signs, idx: known}, witness, den, *grow(dist, pred, arcs, (idx, known))))
            probe = strict_feasible([rows[k, sign] for k, sign in signs.items()] + [rows[idx, -known]], n)
            if probe is None:
                raise AssertionError("simplex refutes a side the shortest paths found")
            grown.append(({**signs, idx: -known}, *probe, *grow(dist, pred, arcs, (idx, -known))))
        partial = grown
    return tuple(
        GeomRegion(tuple(signs[k] for k in range(m)), tuple(Fraction(x, den) for x in witness))
        for signs, witness, den, _, _ in partial
    )


def region_order(arrangement: Arrangement, region: GeomRegion) -> Permutation:
    """The permutation with x_{pi_1} > x_{pi_2} > ... > x_{pi_n} on the region.

    Read off the Coxeter signs: they linearly order the coordinates, so the
    i-th largest coordinate is the one beating exactly n - i others.

    >>> arr = build_arrangement("cox", 2)
    >>> [region_order(arr, r) for r in enumerate_regions(arr)]
    [(1, 2), (2, 1)]
    """
    n = arrangement.n
    wins = [0] * (n + 1)
    for sign, hyp in zip(region.signs, arrangement.hyperplanes):
        if hyp.tag[0] != "cox":
            continue
        _, i, j = hyp.tag
        wins[i if sign == 1 else j] += 1
    order = tuple(sorted(range(1, n + 1), key=lambda i: wins[i], reverse=True))
    if [wins[i] for i in order] != list(range(n - 1, -1, -1)):
        raise ValueError("Coxeter signs do not define a linear order")
    return order


def recession_dimension(arrangement: Arrangement, region: GeomRegion, order: Optional[Permutation] = None) -> int:
    """Dimension of the recession cone of the region (degrees of freedom).

    The cone is {v : sign_k (normal_k . v) >= 0}.  Every arrangement here
    contains all Coxeter hyperplanes, so the cone's comparisons chain the
    coordinates along the region's order ``order`` (read off the signs
    when not given).  A comparison running against the order forces every
    coordinate between its two ends equal, so each merges an interval of
    positions; the cone's dimension is the number of maximal runs of
    positions left unmerged, in O(m + n).

    >>> arr = build_arrangement("cox", 3)
    >>> {recession_dimension(arr, r) for r in enumerate_regions(arr)}
    {3}
    """
    if order is None:
        order = region_order(arrangement, region)
    position = [0] * arrangement.n
    for p, v in enumerate(order):
        position[v - 1] = p
    reach = list(range(arrangement.n))  # the last position merged with each
    for sign, hyp in zip(region.signs, arrangement.hyperplanes):
        a, b = position[hyp.normal.index(1)], position[hyp.normal.index(-1)]
        if (a > b) == (sign == 1):  # the comparison runs against the order
            reach[min(a, b)] = max(reach[min(a, b)], a, b)
    dof, end = 0, -1
    for p, last in enumerate(reach):
        dof += p > end
        end = max(end, last)
    return dof


def diagram_statistics(kind: str, n: int, graph: Graph) -> Iterator[tuple]:
    """Every region of Cox(n), Shi(G) or Ish(G) with its statistics, in
    enumeration order.

    A Shi region is its parking word and an Ish region its rook word, each
    in lexicographic order.  A Cox region is its coordinate order; it has no
    ceilings, so its ceiling partition is all singletons, and it has n
    degrees of freedom.

    Every word is checked, in the one scan that gives its statistics, by
    the float-free core of :func:`shi_ish.shi.region_word_statistics` or
    :func:`shi_ish.ish.region_rook_word_statistics` before it is yielded.
    A word that labels no region raises AssertionError, with or without
    ``python -O``.

    >>> [stats.dof for _, stats in diagram_statistics("ish", 2, Graph.complete(2))]
    [1, 2, 2]
    >>> [word for word, _ in diagram_statistics("shi", 2, Graph.empty(2))]
    [(1, 2), (2, 1)]
    """
    if kind in ("shi", "ish"):
        words = parking_functions if kind == "shi" else rook_words
        check = _word_statistics if kind == "shi" else _rook_word_statistics
        for word in words(n, graph):
            stats = check(word, graph.edges)
            if stats is None:
                raise AssertionError(f"{word!r} does not label a region of {kind.capitalize()}({graph!r})")
            yield word, stats
    elif kind == "cox":
        singletons = tuple((v,) for v in range(1, n + 1))
        identity = identity_permutation(n)
        for pi in itertools.permutations(range(1, n + 1)):
            yield pi, ShiStatistics(singletons, n, pi == identity)
    else:
        raise ValueError(f"unknown arrangement kind: {kind!r}")


def _combinatorial_catalog(
    kind: str, n: int, graph: Graph
) -> dict[tuple[Permutation, frozenset[tuple[int, int]]], tuple]:
    """Diagram-side catalog of (diagram, statistics) keyed by (order,
    ceiling pairs).

    The key matches the geometric key: for "shi" a ceiling pair (i, j) means
    the hyperplane x_i - x_j = 1, for "ish" it means x_1 - x_j = i.  Cox
    regions have no ceilings.  A Shi or Ish word becomes its diagram here,
    and the key is read off the diagram, not the word.
    """
    catalog = {}
    for region, stats in diagram_statistics(kind, n, graph):
        if kind == "shi":
            diagram = _shi_diagram(region, stats.ceiling_partition)  # checked by the stream
            key = (diagram.pi, ceiling_hyperplane_tags(diagram))
        elif kind == "ish":
            diagram = _decode_rook_word(region)  # a rook word, checked by the stream
            key = (diagram.pi, ish_ceiling_pairs(diagram))
        else:
            diagram, key = region, (region, frozenset())
        catalog[key] = (diagram, stats)
    return catalog


@dataclass(frozen=True)
class _MeasuredRegion:
    """A region with every statistic the oracle reports, computed once."""

    region: GeomRegion
    order: Permutation
    ceilings: tuple[Hyperplane, ...]
    ceiling_partition: SetPartition
    dof: int
    dominant: bool


def _measure_regions(arrangement: Arrangement) -> list[_MeasuredRegion]:
    """Every region with its statistics, read off the enumerated sign
    vectors without a further solver call: a hyperplane H is a ceiling
    exactly when the region's sign on it is -1 and flipping that sign gives
    another region's signs.  The hyperplanes are pairwise distinct, so a
    point inside a facet on H lies on no other hyperplane and the region
    across it differs in H alone; conversely the segment joining the
    witnesses of two regions whose signs differ in H alone crosses only H,
    so its crossing point lies on a facet of both.  The tests' facet test
    by the difference solver is the reference."""
    n = arrangement.n
    regions = enumerate_regions(arrangement)
    present = {region.signs for region in regions}
    affine = [k for k, hyp in enumerate(arrangement.hyperplanes) if hyp.offset]
    measured = []
    for region in regions:
        signs = region.signs
        order = region_order(arrangement, region)
        ceilings = tuple(
            arrangement.hyperplanes[k]
            for k in affine
            if signs[k] == -1 and signs[:k] + (1,) + signs[k + 1 :] in present
        )
        measured.append(
            _MeasuredRegion(
                region,
                order,
                ceilings,
                partition_from_pairs(n, [(h.tag[1], h.tag[2]) for h in ceilings]),
                recession_dimension(arrangement, region, order),
                order == identity_permutation(n),
            )
        )
    return measured


def _validation(arrangement: Arrangement, measured: Sequence[_MeasuredRegion]) -> dict:
    kind, n = arrangement.kind, arrangement.n
    geometric: dict[tuple[Permutation, frozenset[tuple[int, int]]], _MeasuredRegion] = {}
    mismatches: list[dict] = []
    for entry in measured:
        key = (entry.order, frozenset((h.tag[1], h.tag[2]) for h in entry.ceilings))
        if key in geometric:
            mismatches.append(
                {"reason": "two regions share a combinatorial key", "key": repr(key)}
            )
            continue
        geometric[key] = entry

    catalog = _combinatorial_catalog(kind, n, arrangement.graph)
    matched = 0
    for key, geo in geometric.items():
        if key not in catalog:
            mismatches.append(
                {
                    "reason": "region has no matching diagram",
                    "order": key[0],
                    "ceiling_pairs": sorted(key[1]),
                    "witness": [str(x) for x in geo.region.witness],
                }
            )
            continue
        diagram, stats = catalog[key]
        disagreements = {
            stat: {"geometric": getattr(geo, stat), "combinatorial": getattr(stats, stat)}
            for stat in ("ceiling_partition", "dof", "dominant")
            if getattr(geo, stat) != getattr(stats, stat)
        }
        if disagreements:
            mismatches.append(
                {
                    "reason": "statistics disagree",
                    "order": key[0],
                    "ceiling_pairs": sorted(key[1]),
                    "diagram": diagram,
                    "disagreements": disagreements,
                }
            )
        else:
            matched += 1
    for key, (diagram, _) in catalog.items():
        if key not in geometric:
            mismatches.append(
                {
                    "reason": "diagram has no matching region",
                    "order": key[0],
                    "ceiling_pairs": sorted(key[1]),
                    "diagram": diagram,
                }
            )

    formula = (
        ish_region_count(arrangement.graph) if kind in ("shi", "ish") else math.factorial(n)
    )
    return {
        "kind": kind,
        "n": n,
        "edges": arrangement.graph.sorted_edges(),
        "region_count": len(measured),
        "diagram_count": len(catalog),
        "formula_count": formula,
        "matched": matched,
        "mismatches": mismatches,
        "ok": not mismatches
        and matched == len(measured) == len(catalog) == formula,
    }


def _report(arrangement: Arrangement, measured: Sequence[_MeasuredRegion]) -> dict:
    entries = []
    by_dof: dict[int, int] = {}
    by_partition: dict[str, int] = {}
    dominant_count = 0
    for entry in measured:
        entries.append(
            {
                "signs": list(entry.region.signs),
                "witness": [str(x) for x in entry.region.witness],
                "order": list(entry.order),
                "ceilings": [list(h.tag) for h in entry.ceilings],
                "ceiling_partition": [list(block) for block in entry.ceiling_partition],
                "dof": entry.dof,
                "dominant": entry.dominant,
            }
        )
        by_dof[entry.dof] = by_dof.get(entry.dof, 0) + 1
        key = partition_str(entry.ceiling_partition)
        by_partition[key] = by_partition.get(key, 0) + 1
        dominant_count += entry.dominant
    return {
        "arrangement": {
            "kind": arrangement.kind,
            "n": arrangement.n,
            "edges": [list(e) for e in arrangement.graph.sorted_edges()],
        },
        "regions": entries,
        "summary": {
            "region_count": len(measured),
            "by_dof": {str(d): by_dof[d] for d in sorted(by_dof)},
            "by_dominance": {
                "dominant": dominant_count,
                "non_dominant": len(measured) - dominant_count,
            },
            "by_ceiling_partition": {
                key: by_partition[key] for key in sorted(by_partition)
            },
        },
    }


def cross_validate(kind: str, n: int, graph: Optional[Graph] = None) -> dict:
    """Match every geometric region to its combinatorial diagram and compare.

    Regions and diagrams are paired up by (coordinate order, ceiling pairs);
    the report records whether the pairing is a bijection and whether the
    ceiling partition, degrees of freedom and dominance agree on every pair.

    >>> cross_validate("shi", 3)["ok"]
    True
    >>> cross_validate("ish", 3, Graph.path(3))["region_count"]
    13
    """
    arrangement = build_arrangement(kind, n, graph)
    return _validation(arrangement, _measure_regions(arrangement))


def oracle_pass(kind: str, n: int, graph: Optional[Graph] = None) -> tuple[dict, dict]:
    """``(cross_validate(...), oracle_report(...))`` from one enumeration.

    >>> validation, report = oracle_pass("shi", 3)
    >>> validation["ok"], report["summary"]["region_count"]
    (True, 16)
    """
    arrangement = build_arrangement(kind, n, graph)
    measured = _measure_regions(arrangement)
    return _validation(arrangement, measured), _report(arrangement, measured)
