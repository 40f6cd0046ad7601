"""Command-line harness: counting, enumeration, bijections, verification
suites and the geometric oracle.

Subcommands
-----------
count       region totals and breakdowns for Shi and Ish side by side
enumerate   list the regions of one arrangement as ceiling diagrams
map         apply one of the Ish-to-Shi bijections to a diagram (JSON in/out)
verify      run a named verification suite; exit code reports the outcome
oracle      geometric cross-validation report from exact region enumeration

Exit codes: 0 success, 1 verification/assertion failure, 2 usage error,
3 skipped because the requested size exceeds the default limits (pass
``--allow-large`` to raise them).  Progress goes to stderr, results to
stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, TextIO

from .bijections import (
    basic_bijection,
    basic_parking_to_rook,
    basic_rook_to_parking,
    bounded_bijection,
    bounded_parking_to_rook,
    bounded_rook_to_parking,
    dominance_bijection,
    dominance_parking_to_rook,
    dominance_rook_to_parking,
    freedom_bijection,
    freedom_parking_to_rook,
    freedom_rook_to_parking,
)
from .core import (
    Graph,
    SetPartition,
    Word,
    _region_scan,
    all_graphs,
    arcs,
    partition_str,
    position_partition,
    set_partitions,
)
from .geometry import cross_validate, diagram_statistics, oracle_pass  # noqa: F401 - re-export
from .ish import (
    IshCeilingDiagram,
    _decode_rook_word,
    _encode_rook_word,
    _rook_word_statistics,
    ceiling_partition_count,
    ish_char_poly,
    ish_region_count,
    ish_statistics,
    poly_eval,
    poly_mul,
    region_rook_word_statistics,
    rook_number,
)
from .parking import (
    _is_parking,
    parking_functions,
    prime_parking_functions,
)
from .rookwords import (
    _rook_dof,
    orbit_certificate,
    prime_rook_words,
    rook_words,
    tail_and_dof,
)
from .shi import (
    ShiCeilingDiagram,
    _shi_diagram,
    _word_statistics,
    parking_dof,
    region_word_statistics,
    shi_diagram_to_parking,
    shi_statistics,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_SKIPPED = 3


class UsageError(Exception):
    """Bad flags or malformed input files."""


class SkippedError(Exception):
    """The requested size exceeds the configured limits."""


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def config_hash(config: dict) -> str:
    """Short deterministic fingerprint of a run configuration.

    >>> config_hash({"n": 3, "command": "count"}) == config_hash({"command": "count", "n": 3})
    True
    """
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def load_graph(spec: str, n: int) -> Graph:
    """Resolve a --graph argument: preset name or JSON file path.

    Presets: "complete", "empty" and "path" (the path 1-2-...-n), matched
    exactly; anything else is a file holding {"n": int, "edges": [[i, j], ...]}.

    >>> load_graph("path", 3).sorted_edges()
    ((1, 2), (2, 3))
    """
    presets = {"complete": Graph.complete, "empty": Graph.empty, "path": Graph.path}
    if spec in presets:
        return presets[spec](n)
    try:
        with open(spec, encoding="utf-8") as handle:
            graph = Graph.from_json(_read_json_object(handle, ("n", "edges")))
    except OSError as exc:
        raise UsageError(f"cannot read graph file {spec!r}: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"malformed graph file {spec!r}: {exc}") from exc
    if graph.n != n:
        raise UsageError(f"graph file {spec!r} is on {graph.n} vertices, --n is {n}")
    return graph


def _read_json_object(handle: TextIO, keys: tuple[str, ...]) -> dict:
    """The JSON object read from ``handle``.  ValueError for anything else,
    so that no input is silently misread: text that is not JSON or is
    nested too deeply for the decoder, a repeated key, a top-level value
    that is not an object, or a key outside ``keys``."""
    try:
        data = json.load(handle, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object at the top level")
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(map(repr, unknown))}; expected {' and '.join(keys)}")
    return data


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``dict(pairs)``; ValueError if a key repeats, rather than keep its last value."""
    data = dict(pairs)
    if len(data) < len(pairs):
        repeated = sorted(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
        raise ValueError(f"duplicate key(s) {', '.join(map(repr, repeated))}")
    return data


def _word_str(word: Sequence[int]) -> str:
    return ",".join(str(v) for v in word)


def _jsonify(value):
    """Best-effort conversion of report values to JSON-compatible types."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [_jsonify(v) for v in items]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _arrangement_graph(args: argparse.Namespace) -> Graph:
    """The --graph of ``count``, ``enumerate`` and ``oracle``.  Cox(n) has no
    graph, so with ``--arrangement cox`` any --graph but the default is
    refused."""
    if args.arrangement == "cox" and args.graph != "complete":
        raise UsageError(f"the Coxeter arrangement has no graph (got --graph {args.graph!r})")
    return load_graph(args.graph, args.n)


def _check_size(name: str, n: int, limit: int, large_limit: int, allow_large: bool) -> None:
    cap = large_limit if allow_large else limit
    if n > cap:
        hint = " (pass --allow-large to raise the limit)" if cap < large_limit else ""
        raise SkippedError(f"{name} is limited to n <= {cap}, got n = {n}{hint}")


# ---------------------------------------------------------------------------
# region records shared by count/enumerate


def _region_record(kind: str, region, stats) -> dict:
    """The record of one region: its diagram (built here from a Shi region's
    checked parking word; an Ish region comes decoded, and a Cox region is
    its coordinate order) followed by its statistics.

    The record holds the region's own tuples, not list copies: ``pi``,
    ``partition`` or ``eps``, and ``ceiling_partition``.  The emitter prints
    a tuple as ``json.dumps`` prints a list, and keeps the text of each
    distinct one."""
    if kind == "cox":
        record = {"pi": region}
    elif kind == "shi":
        diagram = _shi_diagram(region, stats.ceiling_partition)
        record = {"pi": diagram.pi, "partition": diagram.partition}
    else:
        record = {"pi": region.pi, "eps": region.eps}
    record["ceiling_partition"] = stats.ceiling_partition
    record["dof"] = stats.dof
    record["dominant"] = stats.dominant
    if kind == "ish":
        record["relatively_bounded"] = stats.relatively_bounded
    return record


#: --by value -> (the statistic tallied, the label of one of its values)
_BREAKDOWNS: dict[str, tuple[str, Callable]] = {
    "dof": ("dof", str),
    "dominance": ("dominant", lambda dominant: "dominant" if dominant else "non_dominant"),
    "ceiling-partition": ("ceiling_partition", partition_str),
}


def _breakdown(regions: Iterator[tuple], by: str) -> tuple[int, dict]:
    """The region count and the histogram of one statistic, tallied by its
    value and labeled once per distinct value."""
    stat, label = _BREAKDOWNS[by]
    hist = Counter(getattr(stats, stat) for _, stats in regions)
    labeled = {label(value): count for value, count in hist.items()}
    ordered = {k: labeled[k] for k in sorted(labeled, key=lambda s: (len(s), s))}
    return hist.total(), ordered


# ---------------------------------------------------------------------------
# count


def cmd_count(args: argparse.Namespace) -> int:
    _check_size("count", args.n, 6, 8, args.allow_large)
    graph = _arrangement_graph(args)
    kinds = [args.arrangement] if args.arrangement else ["shi", "ish"]
    # Shi(G) and Ish(G) have the same number of regions: one formula for both
    ish_formula = ish_region_count(graph) if kinds != ["cox"] else None
    results: dict[str, dict] = {}
    for kind in kinds:
        _progress(f"counting {kind} regions (n={args.n})")
        entry: dict = {"formula": math.factorial(args.n) if kind == "cox" else ish_formula}
        regions = diagram_statistics(kind, args.n, graph)
        if args.by:
            total, hist = _breakdown(regions, args.by)
            entry["total"] = total
            entry[f"by_{args.by.replace('-', '_')}"] = hist
        else:
            entry["total"] = sum(1 for _ in regions)
        results[kind] = entry
    doc = _wrap(args, "count", {"results": results})
    if args.format == "tsv":
        rows = [("arrangement", "key", "count")]
        for kind, entry in results.items():
            rows.append((kind, "total", entry["total"]))
            rows.append((kind, "formula", entry["formula"]))
            for label, count in entry.get(f"by_{args.by.replace('-', '_')}", {}).items() if args.by else ():
                rows.append((kind, f"{args.by}={label}", count))
        _emit_tsv(rows)
    else:
        _emit_json(doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# enumerate


def _tsv_cell(value):
    """A record value as a TSV cell: a partition (a tuple of blocks) as
    :func:`partition_str`, a permutation or dot counts as a word, anything
    else as itself."""
    if type(value) is not tuple:
        return value
    return partition_str(value) if value and type(value[0]) is tuple else _word_str(value)


def cmd_enumerate(args: argparse.Namespace) -> int:
    _check_size("enumerate", args.n, 5, 6, args.allow_large)
    graph = _arrangement_graph(args)
    kind = args.arrangement
    _progress(f"enumerating {kind} regions (n={args.n})")
    regions = diagram_statistics(kind, args.n, graph)
    if kind == "ish":
        # an Ish region is printed as its (pi, eps), in lexicographic order;
        # the stream has already checked that each word is a rook word
        decoded = ((_decode_rook_word(word), stats) for word, stats in regions)
        regions = sorted(decoded, key=lambda region: (region[0].pi, region[0].eps))
    records = [_region_record(kind, region, stats) for region, stats in regions]
    doc = _wrap(args, "enumerate", {"arrangement": kind, "regions": records})
    if args.format == "tsv":
        columns = list(records[0].keys()) if records else ["pi"]
        rows = [tuple(columns)]
        for record in records:
            rows.append(tuple(_tsv_cell(record[c]) for c in columns))
        _emit_tsv(rows)
    else:
        # regions share their permutations and partitions, so the text of
        # each distinct one is kept for this report
        _emit_json(doc, texts={})
    return EXIT_OK


# ---------------------------------------------------------------------------
# map


_BIJECTIONS: dict[str, Callable[[IshCeilingDiagram], ShiCeilingDiagram]] = {
    "basic": basic_bijection,
    "dominance": dominance_bijection,
    "bounded": bounded_bijection,
    "freedom": freedom_bijection,
}
#: the same bijections from the rook word of the Ish region to the parking
#: word of its Shi image, and back: ``verify`` checks these, ``map`` prints
#: the diagram views above
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
    ``_BIJECTIONS[name]``, ``_PARKING_MAPS[name]`` and ``_INVERSES[name]``,
    looked up there on every call so that rebinding a dict entry reaches
    every caller."""

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


def _read_diagram(path: str) -> IshCeilingDiagram:
    try:
        if path == "-":
            data = _read_json_object(sys.stdin, ("pi", "eps"))
        else:
            with open(path, encoding="utf-8") as handle:
                data = _read_json_object(handle, ("pi", "eps"))
        return IshCeilingDiagram.from_json(data)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot read Ish diagram from {path!r}: {exc}") from exc


def cmd_map(args: argparse.Namespace) -> int:
    if args.format != "json" or args.allow_large:
        raise UsageError("map prints JSON and has no size limit: it takes neither --format tsv nor --allow-large")
    diagram = _read_diagram(args.input)
    if diagram.n != args.n:
        raise UsageError(f"diagram has {diagram.n} letters, --n is {args.n}")
    graph = load_graph(args.graph, args.n)
    try:  # the input is read once, as its rook word
        stats_in = region_rook_word_statistics(_encode_rook_word(diagram), graph)
    except ValueError:  # an incoherent diagram has no rook word
        stats_in = None
    if stats_in is None:
        raise UsageError("input is not a valid Ish ceiling diagram for the graph")
    theorem = _THEOREMS[args.bijection]
    # Graph holds distinct pairs i < j of [n], so the edge count decides completeness
    if theorem.domain == "complete" and len(graph.edges) != args.n * (args.n - 1) // 2:
        raise UsageError(f"the {args.bijection} bijection is defined on the complete graph only")
    if theorem.domain == "bounded" and not stats_in.relatively_bounded:
        raise UsageError(f"the {args.bijection} bijection needs a relatively bounded input")

    image = _BIJECTIONS[args.bijection](diagram)
    try:
        word = shi_diagram_to_parking(image)
    except ValueError:  # an incoherent diagram has no word
        stats_out = None
    else:
        stats_out = region_word_statistics(word, graph)
    if stats_out is None:
        certificates, failures = {}, ["image invalid for G"]
    else:
        certificates = {stat: getattr(stats_out, stat) for stat in theorem.certificates}
        failures = [
            _BROKEN[stat][1]
            for stat in theorem.certificates
            if getattr(stats_in, stat) != certificates[stat]
        ]
    doc = _wrap(
        args,
        "map",
        {
            "bijection": args.bijection,
            "input": diagram.to_json(),
            "output": image.to_json(),
            **({"certificates": certificates} if certificates else {}),
        },
    )
    _emit_json(doc)
    if failures:
        for failure in failures:
            _progress(f"FAIL: {failure}")
        return EXIT_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites.  Each returns (passed, report-dict); a graph sweep runs its
# per-graph checks one after another in this process.


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
        admits = [p is not None and graph.edges.issuperset(arcs(p)) for p in places]  # G has all its arcs
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


def _check_theorem_graph(check: Callable[[Graph], tuple], graph: Graph) -> dict:
    edges = graph.sorted_edges()
    detail, count, counts = check(graph)
    if detail is not None:
        return {"edges": edges, "ok": False, "detail": detail}
    return {"edges": edges, "ok": True, "count": count, **counts}


def _check_formulas_graph(graph: Graph) -> dict:
    n, edges = graph.n, graph.sorted_edges()
    formula = ish_region_count(graph)
    shi_hist, ish_hist = (
        Counter(stats.ceiling_partition for _, stats in diagram_statistics(kind, n, graph))
        for kind in ("shi", "ish")
    )
    shi_count, ish_count = shi_hist.total(), ish_hist.total()
    if not (shi_count == ish_count == formula):
        return {"edges": edges, "ok": False, "detail": f"counts {shi_count}/{ish_count}/formula {formula}"}
    poly = ish_char_poly(graph)
    if (-1) ** n * poly_eval(poly, -1) != formula:
        return {"edges": edges, "ok": False, "detail": "Zaslavsky count disagrees"}
    if rook_number(graph, n - 1) != formula:
        return {"edges": edges, "ok": False, "detail": "rook number disagrees"}
    if shi_hist != ish_hist:
        return {"edges": edges, "ok": False, "detail": "ceiling-partition histograms differ"}
    for partition in set_partitions(n):
        admissible = all(graph.has_edge(i, j) for i, j in arcs(partition))
        expected = ceiling_partition_count(graph, partition) if admissible else 0
        if ish_hist[partition] != expected:
            return {
                "edges": edges,
                "ok": False,
                "detail": f"partition {partition} count {ish_hist[partition]} != {expected}",
            }
    return {"edges": edges, "ok": True, "count": formula}


def _suite_cycle_lemma(args: argparse.Namespace) -> tuple[bool, dict]:
    """Census of the cyclic-shift orbits of [n+1]^n and, for n >= 2, of
    [n-1]^n: each orbit must hold exactly one (prime) parking function and
    one (prime) rook word, and beta (beta') must keep the position partition
    of its rook word."""
    n = args.n
    _check_size("cycle-lemma", n, 5, 6, args.allow_large)
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
            if position_partition(cert.parking) != position_partition(cert.rook):
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


def _suite_thm_basic(args: argparse.Namespace) -> tuple[bool, dict]:
    n = args.n
    _check_size("thm-basic", n, 5, 6, args.allow_large)
    detail, count, _ = _theorem_check("basic", n)(Graph.complete(n))
    return detail is None, {"n": n, "regions": count, "detail": detail}


def _graph_sweep_suite(
    args: argparse.Namespace, graphs: list[Graph], worker: Callable[[Graph], dict], suite: str, counters=()
) -> tuple[bool, dict]:
    _progress(f"{suite}: sweeping {len(graphs)} graph(s) at n={args.n}")
    results = []
    for k, graph in enumerate(graphs, 1):
        results.append(worker(graph))
        if len(graphs) > 1:
            _progress(f"  graph {k}/{len(graphs)} done")
    failures = [r for r in results if not r["ok"]]
    report: dict = {
        "n": args.n,
        "graphs": len(graphs),
        "regions_checked": sum(r.get("count", 0) for r in results),
        "failures": failures,
    }
    for key in counters:
        report[key] = sum(r.get(key, 0) for r in results)
    return not failures, report


def _suite_theorem(args: argparse.Namespace, name: str) -> tuple[bool, dict]:
    suite = f"thm-{name}"
    graphs = _sweep_graphs(args.n, args.allow_large, suite)  # refuses a size before any region is built
    check = _theorem_check(name, args.n)
    return _graph_sweep_suite(
        args, graphs, lambda graph: _check_theorem_graph(check, graph), suite, _THEOREMS[name].counters
    )


def _suite_thm_freedom(args: argparse.Namespace) -> tuple[bool, dict]:
    passed, report = _suite_theorem(args, "freedom")
    if passed:
        # The parking round trip F(G(w)) == w, with F = _PARKING_MAPS["freedom"]
        # and G = _INVERSES["freedom"], over every parking word w of size n.
        # Every sweep covers K_n (_sweep_graphs), and the run there checked
        # G(F(d)) == d on every region d and that the images F(d) are all the
        # parking words of K_n, which are all of size n.  So each w is some
        # F(d), and F(G(w)) = F(G(F(d))) = F(d) = w: a passed sweep proves it.
        report["parking_roundtrip"] = True
    return passed, report


def _suite_formulas(args: argparse.Namespace) -> tuple[bool, dict]:
    graphs = _sweep_graphs(args.n, args.allow_large, "formulas")
    passed, report = _graph_sweep_suite(args, graphs, _check_formulas_graph, "formulas")
    # the complete-graph characteristic polynomial in closed form
    n = args.n
    expected = (0, 1)
    for _ in range(n - 1):
        expected = poly_mul(expected, (-n, 1))
    actual = ish_char_poly(Graph.complete(n))
    report["char_poly"] = list(actual)
    report["char_poly_closed_form"] = actual == expected
    return passed and actual == expected, report


def _relatively_bounded_counts(n: int, dominant_only: bool) -> list[int]:
    """Relatively bounded regions of Shi(K_n) and of Ish(K_n), dominant ones
    only if asked."""
    return [
        sum(
            1
            for _, stats in diagram_statistics(kind, n, Graph.complete(n))
            if stats.relatively_bounded and (stats.dominant or not dominant_only)
        )
        for kind in ("shi", "ish")
    ]


def _suite_negative_controls(args: argparse.Namespace) -> tuple[bool, dict]:
    """Fixed counterexamples at n = 3, 4 and 8.  ``--n`` is only echoed in
    ``config``, but it is held to the other suites' limit n <= 5, which
    there is no --allow-large to raise."""
    if args.allow_large:
        raise UsageError(
            "negative-controls checks fixed sizes (n = 3, 4 and one diagram at n = 8) "
            "and no larger size limit: it takes no --allow-large"
        )
    _check_size("negative-controls", args.n, 5, 5, False)
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

    shi_dom, ish_dom = _relatively_bounded_counts(3, dominant_only=True)
    checks.append(
        {
            "name": "dominant relatively bounded counts differ at n=3",
            "ok": shi_dom == 2 and ish_dom == 3,
            "shi": shi_dom,
            "ish": ish_dom,
        }
    )

    for n in (3, 4):
        expected = (n - 1) ** (n - 1)
        shi_total, ish_total = _relatively_bounded_counts(n, dominant_only=False)
        checks.append(
            {
                "name": f"relatively bounded totals at n={n}",
                "ok": shi_total == ish_total == expected,
                "shi": shi_total,
                "ish": ish_total,
                "expected": expected,
            }
        )
    return all(c["ok"] for c in checks), {"checks": checks}


def _suite_factorization_candidates(args: argparse.Namespace) -> tuple[bool, dict]:
    """Search harness for the open rook-word factorization question.

    Tabulates degrees of freedom and position partitions over rook words
    and parking functions side by side.  Asserts nothing.
    """
    n = args.n
    _check_size("factorization-candidates", n, 5, 6, args.allow_large)
    rook_by_dof: dict[int, int] = {}
    park_by_dof: dict[int, int] = {}
    joint: dict[tuple[SetPartition, int], list[int]] = {}
    for word in rook_words(n):
        _, dof = tail_and_dof(word)
        rook_by_dof[dof] = rook_by_dof.get(dof, 0) + 1
        key = (position_partition(word), dof)
        joint.setdefault(key, [0, 0])[0] += 1
    for word in parking_functions(n):
        dof = parking_dof(word)
        park_by_dof[dof] = park_by_dof.get(dof, 0) + 1
        key = (position_partition(word), dof)
        joint.setdefault(key, [0, 0])[1] += 1
    agree = sum(1 for counts in joint.values() if counts[0] == counts[1])
    disagree = {
        f"{partition_str(partition)} dof={dof}": counts
        for (partition, dof), counts in sorted(joint.items())
        if counts[0] != counts[1]
    }
    report = {
        "n": n,
        "rook_words_by_dof": {str(k): rook_by_dof[k] for k in sorted(rook_by_dof)},
        "parking_functions_by_dof": {str(k): park_by_dof[k] for k in sorted(park_by_dof)},
        "joint_classes": len(joint),
        "joint_classes_agreeing": agree,
        "joint_classes_disagreeing": disagree,
        "note": "tabulation only; no assertion (open question)",
    }
    return True, report


_SUITES: dict[str, Callable[[argparse.Namespace], tuple[bool, dict]]] = {
    "cycle-lemma": _suite_cycle_lemma,
    "thm-basic": _suite_thm_basic,
    "thm-dominance": lambda a: _suite_theorem(a, "dominance"),
    "thm-bounded": lambda a: _suite_theorem(a, "bounded"),
    "thm-freedom": _suite_thm_freedom,
    "formulas": _suite_formulas,
    "negative-controls": _suite_negative_controls,
    "factorization-candidates": _suite_factorization_candidates,
}


def cmd_verify(args: argparse.Namespace) -> int:
    if args.graph != "complete":
        raise UsageError(f"verify does not take --graph (got {args.graph!r}): each suite sets its own graphs")
    passed, report = _SUITES[args.suite](args)
    doc = _wrap(args, "verify", {"suite": args.suite, "passed": passed, "report": _jsonify(report)})
    if args.format == "tsv":
        rows = [("suite", "passed"), (args.suite, str(passed))]
        for check in report.get("checks", []):
            rows.append((check["name"], str(check["ok"])))
        _emit_tsv(rows)
    else:
        _emit_json(doc)
    _progress(f"suite {args.suite}: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args: argparse.Namespace) -> int:
    _check_size("oracle", args.n, 5, 6, args.allow_large)
    graph = _arrangement_graph(args)
    kind = args.arrangement
    _progress(f"enumerating {kind} arrangement geometrically (n={args.n})")
    validation, report = oracle_pass(kind, args.n, graph)
    _progress(
        f"{validation['matched']}/{validation['region_count']} regions matched"
    )
    doc = _wrap(
        args,
        "oracle",
        {
            "arrangement": kind,
            "matched": validation["matched"],
            "region_count": validation["region_count"],
            "formula_count": validation["formula_count"],
            "ok": validation["ok"],
            "mismatches": _jsonify(validation["mismatches"]),
            "report": report,
        },
    )
    if args.format == "tsv":
        rows = [("order", "ceilings", "dof", "dominant", "witness")]
        for region in report["regions"]:
            rows.append(
                (
                    _word_str(region["order"]),
                    ";".join("-".join(map(str, c)) for c in region["ceilings"]),
                    region["dof"],
                    region["dominant"],
                    _word_str(region["witness"]),
                )
            )
        _emit_tsv(rows)
    else:
        # regions share their orders and ceiling partitions, so the text of
        # each distinct one is kept for this report
        _emit_json(doc, texts={})
    return EXIT_OK if validation["ok"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# plumbing


_STRS = frozenset({str})  # the key types of a dict printed here
#: a list or tuple whose text ``_indented_json`` keeps holds exact ints, or
#: lists and tuples of exact ints
_INTS = frozenset({int})
_SEQUENCES = frozenset({list, tuple})


def _indented_json(value, indent: str = "", texts: Optional[dict] = None) -> str:
    """``json.dumps(value, indent=2)`` for dicts with str keys, lists,
    tuples, str, int, bool and None; TypeError for anything else.

    ``json.dumps`` drops to its pure-Python encoder whenever it indents.
    This builds the same text with one join per container; a list of ints
    (most of every report) is joined straight from ``map(repr, ...)``.

    ``texts``, when given, keeps for one report the text of every list or
    tuple of exact ints, and of every list or tuple of those, keyed by its
    indent and its value as tuples, so a sequence that repeats (a
    permutation or a partition shared by many regions) is built once.  The
    key holds exact ints only: ``1``, ``True`` and ``1.0`` are equal and
    hash alike, but print as ``1``, ``true`` and ``1.0``.

    >>> print(_indented_json({"a": [1, 2], "b": [], "c": {"d": None}}))
    {
      "a": [
        1,
        2
      ],
      "b": [],
      "c": {
        "d": null
      }
    }
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return repr(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    inner = indent + "  "
    if kind is dict:
        if not value:
            return "{}"
        if set(map(type, value)) != _STRS:
            raise TypeError("a key that is not a str")
        items = [f"{encode_basestring_ascii(k)}: {_indented_json(v, inner, texts)}" for k, v in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        types = set(map(type, value))
        key = None
        if texts is not None:
            if types == _INTS:
                key = (indent, tuple(value))
            elif types <= _SEQUENCES and set(map(type, itertools.chain.from_iterable(value))) <= _INTS:
                key = (indent, tuple(map(tuple, value)))
            text = texts.get(key)  # never kept under None
            if text is not None:
                return text
        items = map(repr, value) if types == _INTS else [_indented_json(v, inner, texts) for v in value]
        text = "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
        if key is not None:
            texts[key] = text
        return text
    raise TypeError(f"{kind.__name__} is left to json.dumps")


def _json_text(doc, texts: Optional[dict] = None) -> str:
    """The report text: ``json.dumps(doc, indent=2)``, byte for byte.
    ``texts`` is as for :func:`_indented_json`."""
    try:
        return _indented_json(doc, "", texts)
    except TypeError:
        return json.dumps(doc, indent=2)


def _emit_json(doc: dict, texts: Optional[dict] = None) -> None:
    print(_json_text(doc, texts))


def _emit_tsv(rows: list[tuple]) -> None:
    for row in rows:
        print("\t".join(str(cell) for cell in row))


def _config_dict(args: argparse.Namespace, command: str) -> dict:
    config = {"command": command}
    for key in ("n", "graph", "arrangement", "bijection", "by", "format", "jobs", "allow_large", "suite", "input"):
        if hasattr(args, key):
            config[key] = getattr(args, key)
    return config


def _wrap(args: argparse.Namespace, command: str, body: dict) -> dict:
    config = _config_dict(args, command)
    return {"command": command, "config": config, "config_hash": config_hash(config), **body}


def _add_common(parser: argparse.ArgumentParser, *, graph_default: str = "complete") -> None:
    parser.add_argument("--n", type=int, required=True, help="number of coordinates")
    parser.add_argument(
        "--graph",
        default=graph_default,
        help='graph preset ("complete", "empty", "path") or JSON file path',
    )
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for existing command lines and echoed in config; every command runs in one process, so only 1",
    )
    parser.add_argument(
        "--allow-large", action="store_true", help="raise the default size limits"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shi-ish",
        description="Regions of Shi and Ish arrangements: counting, bijections, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="region totals and breakdowns")
    _add_common(p_count)
    p_count.add_argument("--arrangement", choices=("cox", "shi", "ish"))
    p_count.add_argument("--by", choices=("dof", "dominance", "ceiling-partition"))

    p_enum = sub.add_parser("enumerate", help="list regions as ceiling diagrams")
    _add_common(p_enum)
    p_enum.add_argument("--arrangement", choices=("cox", "shi", "ish"), default="shi")

    p_map = sub.add_parser("map", help="apply an Ish-to-Shi bijection to a diagram")
    _add_common(p_map)
    p_map.add_argument(
        "--bijection", choices=("basic", "dominance", "bounded", "freedom"), required=True
    )
    p_map.add_argument(
        "--input", default="-", help='JSON file with {"pi": [...], "eps": [...]} ("-" = stdin)'
    )

    p_verify = sub.add_parser("verify", help="run a verification suite")
    _add_common(p_verify)
    p_verify.add_argument("--suite", choices=tuple(_SUITES), required=True)

    p_oracle = sub.add_parser("oracle", help="geometric cross-validation report")
    _add_common(p_oracle)
    p_oracle.add_argument("--arrangement", choices=("cox", "shi", "ish"), default="shi")

    return parser


#: subcommand -> handler, looked up on every call so that rebinding an entry
#: reaches the next run
_COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "count": cmd_count,
    "enumerate": cmd_enumerate,
    "map": cmd_map,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    if args.n < 1:
        _PARSER.error("--n must be at least 1")
    if args.jobs < 1:
        _PARSER.error(f"--jobs must be at least 1, got {args.jobs}")
    try:
        name = getattr(args, "suite", args.command)
        if args.jobs != 1:
            raise UsageError(f"{name} does not read --jobs (got {args.jobs}): every command runs in one process")
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush at
        # exit cannot raise again (the recipe of the Python signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _progress("error: stdout was closed before the report was written")
        return EXIT_FAIL
    except UsageError as exc:
        _progress(f"error: {exc}")
        return EXIT_USAGE
    except SkippedError as exc:
        _progress(f"skipped: {exc}")
        return EXIT_SKIPPED


# built once per process: parsing leaves the parser unchanged, so every call reuses it
_PARSER = build_parser()

if __name__ == "__main__":
    sys.exit(main())
