"""The verify engine: what each bijection keeps (``_THEOREMS``, which
``map`` also reads, with the failure texts ``_BROKEN``), the theorem checks
in the word domain, and every ``verify`` suite.

A suite in :data:`SUITES` is a function ``(n, allow_large) -> (passed,
report)``; it raises :class:`SkippedError` or :class:`UsageError` and writes
progress to stderr.  :mod:`shi_ish.cli`, which this module never imports,
parses the flags, prints the report and sets the exit code.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from typing import Callable, NamedTuple, Optional

from .bijections import (
    basic_bijection,
    basic_parking_to_rook,
    basic_rook_to_parking,
    bounded_parking_to_rook,
    bounded_rook_to_parking,
    dominance_parking_to_rook,
    dominance_rook_to_parking,
    freedom_parking_to_rook,
    freedom_rook_to_parking,
)
from .core import (
    Graph,
    SetPartition,
    Word,
    _position_partition,
    _region_scan,
    all_graphs,
    partition_str,
    position_partition,
    set_partitions,
)
from .geometry import diagram_statistics
from .ish import (
    IshCeilingDiagram,
    _decode_rook_word,
    _rook_word_statistics,
    ceiling_partition_count,
    ish_char_poly,
    ish_region_count,
    ish_statistics,
    poly_eval,
    poly_mul,
    rook_number,
)
from .parking import _is_parking, parking_functions, prime_parking_functions
from .rookwords import _rook_dof, orbit_certificate, prime_rook_words, rook_words, tail_and_dof
from .shi import _word_statistics, parking_dof, shi_statistics


class UsageError(Exception):
    """Bad flags or malformed input files."""


class SkippedError(Exception):
    """The requested size exceeds the configured limits."""


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _check_size(name: str, n: int, limit: int, large_limit: int, allow_large: bool) -> None:
    cap = large_limit if allow_large else limit
    if n > cap:
        hint = " (pass --allow-large to raise the limit)" if cap < large_limit else ""
        raise SkippedError(f"{name} is limited to n <= {cap}, got n = {n}{hint}")


# ---------------------------------------------------------------------------
# the bijection theorems

#: the four bijections from the rook word of the Ish region to the parking
#: word of its Shi image, and back: the suites check these, ``map`` prints
#: their diagram views
_PARKING_MAPS: dict[str, Callable[[Word], Word]] = {
    "basic": basic_rook_to_parking,
    "dominance": dominance_rook_to_parking,
    "bounded": bounded_rook_to_parking,
    "freedom": freedom_rook_to_parking,
}
_INVERSES: dict[str, Callable[[Word], Word]] = {
    "basic": basic_parking_to_rook,
    "dominance": dominance_parking_to_rook,
    "bounded": bounded_parking_to_rook,
    "freedom": freedom_parking_to_rook,
}


class _Theorem(NamedTuple):
    """A row of the README bijection table.  The maps themselves are
    ``_PARKING_MAPS[name]`` and ``_INVERSES[name]`` here, and
    ``_BIJECTIONS[name]`` in :mod:`shi_ish.cli` for the diagrams ``map``
    prints, looked up there on every call so that rebinding a dict entry
    reaches every caller."""

    domain: str  # "all", "complete" (the complete graph only) or "bounded" (regions)
    checks: tuple[str, ...]  # preserved statistics, in the order verify checks them
    certificates: tuple[str, ...]  # the same statistics, in the order map prints them
    roundtrip_detail: str = "roundtrip broken: {}"
    free_regions: bool = False  # full-freedom regions map to pi with every arc dropped
    compare_with: Optional[str] = None  # count the regions where this bijection agrees
    counters: tuple[str, ...] = ()  # report keys of those counts: (agrees, differs)


_THEOREMS: dict[str, _Theorem] = {
    "basic": _Theorem("complete", (), (), "roundtrip broken at {}"),
    "dominance": _Theorem(
        "all",
        ("ceiling_partition", "dominant"),
        ("ceiling_partition", "dominant"),
        free_regions=True,
    ),
    "bounded": _Theorem(
        "bounded",
        ("relatively_bounded", "ceiling_partition"),
        ("ceiling_partition", "relatively_bounded"),
        compare_with="freedom",
        counters=("freedom_agrees_with_bounded", "freedom_differs_from_bounded"),
    ),
    "freedom": _Theorem("all", ("ceiling_partition", "dof"), ("ceiling_partition", "dof")),
}

#: statistic -> (verify failure detail, map failure line)
_BROKEN: dict[str, tuple[str, str]] = {
    "ceiling_partition": ("ceiling partition broken: {}", "ceiling partition not preserved"),
    "dominant": ("dominance broken: {}", "dominance not preserved"),
    "dof": ("dof broken: {}", "degrees of freedom not preserved"),
    "relatively_bounded": ("image not relatively bounded: {}", "image is not relatively bounded"),
}


def _sweep_graphs(n: int, allow_large: bool, suite: str) -> list[Graph]:
    """Graphs covered by an all-graphs theorem sweep at size n."""
    if n <= 4:
        return list(all_graphs(n))
    cap = 6 if allow_large else 5
    if n <= cap:
        return [Graph.complete(n)]
    raise SkippedError(
        f"{suite} sweeps all graphs for n <= 4 and the complete graph for n <= {cap}, got n = {n}"
    )


def _region_facts(name: str, word: Word, complete: Graph) -> tuple:
    """The part of the check under ``_THEOREMS[name]`` of the region with
    rook word ``word`` that is the same in every graph holding the region:
    ``()`` outside the theorem's domain, else ``(region, image, partition,
    detail, agrees)``.  ``region`` is the region's ceiling partition, or
    None when the theorem reads no statistics (``basic``, whose suite runs
    on K_n alone), ``image`` the parking word of the Shi image and
    ``partition`` its ceiling partition, read against ``complete`` (K_n), or
    None when the image labels no region of Shi(K_n); ``detail`` is the
    first failure that no graph changes, and ``agrees`` is None unless a
    compared map was run."""
    theorem = _THEOREMS[name]
    stats = _rook_word_statistics(word, complete.edges) if theorem.checks else None
    if theorem.domain == "bounded" and not stats.relatively_bounded:
        return ()
    region = None if stats is None else stats.ceiling_partition
    image = _PARKING_MAPS[name](word)
    image_stats = _word_statistics(image, complete.edges) if len(image) == complete.n else None
    if image_stats is None:
        return region, image, None, "image invalid for G: {}", None
    broken = [s for s in theorem.checks if getattr(image_stats, s) != getattr(stats, s)]
    # a region with n degrees of freedom has no dots, so its rook word is
    # pi^-1; it maps to pi with every arc dropped, labeled by that same word
    free = theorem.free_regions and stats.dof == complete.n
    if broken:
        detail = _BROKEN[broken[0]][0]
    elif _INVERSES[name](image) != word:
        detail = theorem.roundtrip_detail
    elif free and image != word:
        detail = "free-region word wrong: {}"
    else:
        detail = None
    agrees = None
    if detail is None and theorem.compare_with is not None:
        agrees = _PARKING_MAPS[theorem.compare_with](word) == image
    return region, image, image_stats.ceiling_partition, detail, agrees


def _theorem_check(name: str, n: int) -> Callable[[Graph], tuple[Optional[str], int, Counter]]:
    """The check of the bijection theorem ``_THEOREMS[name]`` on a graph of
    order n: the failure detail (None if the theorem holds), the number of
    images seen before it stopped, and the agreement counts.

    The maps take no graph, so one pass over ``rook_words(n)`` runs
    :func:`_region_facts` once per region of Ish(K_n).  A graph keeps the
    regions whose ceiling partition has all its arcs among its edges (the
    regions of Ish(G), in the order of ``rook_words(n, G)``) and calls an
    image invalid when its partition does not, testing each partition once;
    the images must be its parking words (K_n keeps every region, and a
    region without a partition is tested on its word).  A diagram is built
    only to name a failing region.
    """
    theorem = _THEOREMS[name]
    complete = Graph.complete(n)
    bounded = theorem.domain == "bounded"
    places = {None: 0}  # each ceiling partition met -> its place in ``admits``
    regions = []
    for word in rook_words(n):
        fact = _region_facts(name, word, complete)
        if fact:
            region, image, partition, detail, agrees = fact
            if region is not None:
                region = places.setdefault(region, len(places))
            regions.append((word, region, image, places.setdefault(partition, len(places)), detail, agrees))

    def check(graph: Graph) -> tuple[Optional[str], int, Counter]:
        targets = set(parking_functions(n, graph))
        if bounded:
            targets = {w for w in targets if parking_dof(w) == 1}
        seen = set()
        counts: Counter = Counter()
        admits = [p is not None and graph.admits(p) for p in places]
        every = graph.edges == complete.edges
        for word, region, image, partition, detail, agrees in regions:
            kept = admits[region] if region is not None else every or _region_scan(word, graph.edges)
            if not kept:
                continue
            if not admits[partition]:
                detail = "image invalid for G: {}"
            if detail is not None:
                return detail.format(_decode_rook_word(word)), len(seen), counts
            if agrees is not None:
                counts[theorem.counters[0 if agrees else 1]] += 1
            seen.add(image)
        detail = None
        if seen != targets:
            detail = f"image set is not all {'bounded ' if bounded else ''}Shi diagrams"
        return detail, len(seen), counts

    return check


def _graph_sweep_suite(
    suite: str, n: int, graphs: list[Graph], check: Callable[[Graph], tuple], counters=()
) -> tuple[bool, dict]:
    """Run ``check`` (failure detail or None, region count, agreement counts) on each graph in turn."""
    _progress(f"{suite}: sweeping {len(graphs)} graph(s) at n={n}")
    failures = []
    regions = 0
    totals: Counter = Counter()
    for k, graph in enumerate(graphs, 1):
        detail, count, counts = check(graph)
        if detail is None:
            regions += count
            totals.update(counts)
        else:
            failures.append({"edges": graph.sorted_edges(), "ok": False, "detail": detail})
        if len(graphs) > 1:
            _progress(f"  graph {k}/{len(graphs)} done")
    report: dict = {"n": n, "graphs": len(graphs), "regions_checked": regions, "failures": failures}
    for key in counters:
        report[key] = totals[key]
    return not failures, report


def _check_formulas_graph(graph: Graph) -> tuple[Optional[str], int, Counter]:
    """The region-count formulas on one graph, a check for :func:`_graph_sweep_suite`."""
    n = graph.n
    formula = ish_region_count(graph)
    shi_hist, ish_hist = (
        Counter(stats.ceiling_partition for _, stats in diagram_statistics(kind, n, graph))
        for kind in ("shi", "ish")
    )
    shi_count, ish_count = shi_hist.total(), ish_hist.total()
    if not (shi_count == ish_count == formula):
        return f"counts {shi_count}/{ish_count}/formula {formula}", formula, Counter()
    poly = ish_char_poly(graph)
    if (-1) ** n * poly_eval(poly, -1) != formula:
        return "Zaslavsky count disagrees", formula, Counter()
    if rook_number(graph, n - 1) != formula:
        return "rook number disagrees", formula, Counter()
    if shi_hist != ish_hist:
        return "ceiling-partition histograms differ", formula, Counter()
    for partition in set_partitions(n):
        admissible = graph.admits(partition)
        expected = ceiling_partition_count(graph, partition) if admissible else 0
        if ish_hist[partition] != expected:
            return f"partition {partition} count {ish_hist[partition]} != {expected}", formula, Counter()
    return None, formula, Counter()


def _relatively_bounded_counts(n: int) -> list[Counter]:
    """The relatively bounded regions of Shi(K_n) and of Ish(K_n), each
    counted by whether it is dominant."""
    return [
        Counter(
            stats.dominant
            for _, stats in diagram_statistics(kind, n, Graph.complete(n))
            if stats.relatively_bounded
        )
        for kind in ("shi", "ish")
    ]


# ---------------------------------------------------------------------------
# the suites: each a function (n, allow_large) -> (passed, report)


def _suite_cycle_lemma(n: int, allow_large: bool) -> tuple[bool, dict]:
    """Census of the cyclic-shift orbits of [n+1]^n and, for n >= 2, of
    [n-1]^n: each orbit must hold exactly one (prime) parking function and
    one (prime) rook word, and beta (beta') must keep the position partition
    of its rook word."""
    _check_size("cycle-lemma", n, 5, 6, allow_large)
    alphabets = [(n + 1, False, "orbit uniqueness", "beta preserves position partitions")]
    if n >= 2:
        alphabets.append((n - 1, True, "prime orbit uniqueness", "beta-prime preserves position partitions"))
    checks = []
    for alphabet, prime, census_name, beta_name in alphabets:
        words = orbits = parking = rook = both = 0
        preserved = True
        failure = None
        for word in itertools.product(range(1, alphabet + 1), repeat=n):
            words += 1
            if not prime:  # the package's own words: the float-free cores
                park, rk = _is_parking(word), _rook_dof(word) is not None
                parking += park
                rook += rk
                both += park and rk
            # a shift by t moves the first letter through all of [alphabet], so
            # each orbit has one word starting with 1, and it certifies the orbit
            if word[0] != 1:
                continue
            orbits += 1
            try:
                cert = orbit_certificate(word, prime=prime)
            except ValueError as exc:
                failure = failure or str(exc)
                continue
            # the members are shifts of a word the certificate checked
            if _position_partition(cert.parking) != _position_partition(cert.rook):
                preserved = False
        ok = failure is None and (prime or parking == rook == orbits)
        census = {"name": census_name, "ok": ok, "words": words, "orbits": orbits}
        if not prime:
            census.update(parking_functions=parking, rook_words=rook, rook_and_park=both)
        if failure is not None:
            census["detail"] = failure
        checks += [census, {"name": beta_name, "ok": preserved}]
    if n == 1:
        checks.append(
            {
                "name": "prime objects at n=1",
                "ok": tuple(prime_parking_functions(1)) == ((1,),)
                and tuple(prime_rook_words(1)) == ((1,),),
            }
        )
    return all(c["ok"] for c in checks), {"checks": checks}


def _suite_thm_basic(n: int, allow_large: bool) -> tuple[bool, dict]:
    _check_size("thm-basic", n, 5, 6, allow_large)
    detail, count, _ = _theorem_check("basic", n)(Graph.complete(n))
    return detail is None, {"n": n, "regions": count, "detail": detail}


def _suite_theorem(name: str, n: int, allow_large: bool) -> tuple[bool, dict]:
    suite = f"thm-{name}"
    graphs = _sweep_graphs(n, allow_large, suite)  # refuses a size before any region is built
    return _graph_sweep_suite(suite, n, graphs, _theorem_check(name, n), _THEOREMS[name].counters)


def _suite_thm_freedom(n: int, allow_large: bool) -> tuple[bool, dict]:
    passed, report = _suite_theorem("freedom", n, allow_large)
    if passed:
        # The parking round trip F(G(w)) == w, with F = _PARKING_MAPS["freedom"]
        # and G = _INVERSES["freedom"], over every parking word w of size n.
        # Every sweep covers K_n (_sweep_graphs), and the run there checked
        # G(F(d)) == d on every region d and that the images F(d) are all the
        # parking words of K_n, which are all of size n.  So each w is some
        # F(d), and F(G(w)) = F(G(F(d))) = F(d) = w: a passed sweep proves it.
        report["parking_roundtrip"] = True
    return passed, report


def _suite_formulas(n: int, allow_large: bool) -> tuple[bool, dict]:
    graphs = _sweep_graphs(n, allow_large, "formulas")
    passed, report = _graph_sweep_suite("formulas", n, graphs, _check_formulas_graph)
    # the complete-graph characteristic polynomial in closed form
    expected = (0, 1)
    for _ in range(n - 1):
        expected = poly_mul(expected, (-n, 1))
    actual = ish_char_poly(Graph.complete(n))
    report["char_poly"] = list(actual)
    report["char_poly_closed_form"] = actual == expected
    return passed and actual == expected, report


def _suite_negative_controls(n: int, allow_large: bool) -> tuple[bool, dict]:
    """Fixed counterexamples at n = 3, 4 and 8.  ``--n`` is only echoed in
    ``config``, but it is held to the other suites' limit n <= 5, which
    there is no --allow-large to raise."""
    if allow_large:
        raise UsageError(
            "negative-controls checks fixed sizes (n = 3, 4 and one diagram at n = 8) "
            "and no larger size limit: it takes no --allow-large"
        )
    _check_size("negative-controls", n, 5, 5, False)
    checks = []

    diagram = IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0))
    stats_in = ish_statistics(diagram)
    image = basic_bijection(diagram)
    stats_out = shi_statistics(image)
    expected_cp = ((1, 4), (2, 5), (3, 6), (7,), (8,))
    checks.append(
        {
            "name": "basic bijection breaks the ceiling partition",
            "ok": stats_in.ceiling_partition == ((1, 7), (2, 3, 5, 6), (4,), (8,))
            and stats_out.ceiling_partition == expected_cp
            and stats_out.ceiling_partition != stats_in.ceiling_partition,
        }
    )
    checks.append(
        {
            "name": "basic bijection drops dof 3 -> 2",
            "ok": stats_in.dof == 3 and stats_out.dof == 2,
        }
    )

    counts = {size: _relatively_bounded_counts(size) for size in (3, 4)}
    shi_dom, ish_dom = (by_dominance[True] for by_dominance in counts[3])
    checks.append(
        {
            "name": "dominant relatively bounded counts differ at n=3",
            "ok": shi_dom == 2 and ish_dom == 3,
            "shi": shi_dom,
            "ish": ish_dom,
        }
    )

    for size in (3, 4):
        expected = (size - 1) ** (size - 1)
        shi_total, ish_total = (by_dominance.total() for by_dominance in counts[size])
        checks.append(
            {
                "name": f"relatively bounded totals at n={size}",
                "ok": shi_total == ish_total == expected,
                "shi": shi_total,
                "ish": ish_total,
                "expected": expected,
            }
        )
    return all(c["ok"] for c in checks), {"checks": checks}


def _suite_factorization_candidates(n: int, allow_large: bool) -> tuple[bool, dict]:
    """Search harness for the open rook-word factorization question.

    Tabulates degrees of freedom and position partitions over rook words
    and parking functions side by side.  Asserts nothing.
    """
    _check_size("factorization-candidates", n, 5, 6, allow_large)
    joint: dict[tuple[SetPartition, int], list[int]] = {}
    sides = ((rook_words(n), lambda word: tail_and_dof(word)[1]), (parking_functions(n), parking_dof))
    for side, (words, dof_of) in enumerate(sides):
        for word in words:
            joint.setdefault((position_partition(word), dof_of(word)), [0, 0])[side] += 1
    by_dof = (Counter(), Counter())
    for (_, dof), counts in joint.items():
        for side, count in enumerate(counts):
            by_dof[side][dof] += count
    agree = sum(1 for counts in joint.values() if counts[0] == counts[1])
    disagree = {
        f"{partition_str(partition)} dof={dof}": counts
        for (partition, dof), counts in sorted(joint.items())
        if counts[0] != counts[1]
    }
    report = {
        "n": n,
        "rook_words_by_dof": {str(k): v for k, v in sorted(by_dof[0].items()) if v},
        "parking_functions_by_dof": {str(k): v for k, v in sorted(by_dof[1].items()) if v},
        "joint_classes": len(joint),
        "joint_classes_agreeing": agree,
        "joint_classes_disagreeing": disagree,
        "note": "tabulation only; no assertion (open question)",
    }
    return True, report


SUITES: dict[str, Callable[[int, bool], tuple[bool, dict]]] = {
    "cycle-lemma": _suite_cycle_lemma,
    "thm-basic": _suite_thm_basic,
    "thm-dominance": lambda n, allow_large: _suite_theorem("dominance", n, allow_large),
    "thm-bounded": lambda n, allow_large: _suite_theorem("bounded", n, allow_large),
    "thm-freedom": _suite_thm_freedom,
    "formulas": _suite_formulas,
    "negative-controls": _suite_negative_controls,
    "factorization-candidates": _suite_factorization_candidates,
}
