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
import functools
import hashlib
import itertools
import json
import math
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .bijections import (
    basic_bijection,
    basic_bijection_inverse,
    bounded_bijection,
    bounded_bijection_inverse,
    dominance_bijection,
    dominance_bijection_inverse,
    freedom_bijection,
    freedom_bijection_inverse,
    ish_diagram_to_parking,
    parking_to_ish_diagram,
)
from .core import (
    Graph,
    SetPartition,
    all_graphs,
    arcs,
    inverse_permutation,
    partition_str,
    position_partition,
    set_partitions,
)
from .geometry import cross_validate, diagram_statistics, oracle_pass  # noqa: F401 - re-export
from .ish import (
    IshCeilingDiagram,
    ceiling_partition_count,
    is_valid_ish,
    ish_char_poly,
    ish_diagrams,
    ish_region_count,
    ish_statistics,
    poly_eval,
    poly_mul,
    rook_number,
)
from .parking import (
    is_parking_function,
    parking_functions,
    prime_components,
    prime_parking_functions,
    word_to_dyck,
)
from .rookwords import (
    is_rook_word,
    orbit_certificate,
    prime_rook_words,
    rook_words,
    tail_and_dof,
)
from .shi import (
    ShiCeilingDiagram,
    is_valid_shi,
    shi_diagram_to_parking,
    shi_diagrams,
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
            data = json.load(handle)
        graph = Graph.from_json(data)
    except OSError as exc:
        raise UsageError(f"cannot read graph file {spec!r}: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"malformed graph file {spec!r}: {exc}") from exc
    if graph.n != n:
        raise UsageError(f"graph file {spec!r} is on {graph.n} vertices, --n is {n}")
    return graph


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


def _check_size(name: str, n: int, limit: int, large_limit: int, allow_large: bool) -> None:
    cap = large_limit if allow_large else limit
    if n > cap:
        hint = "" if allow_large else " (pass --allow-large to raise the limit)"
        raise SkippedError(f"{name} is limited to n <= {cap}, got n = {n}{hint}")


# ---------------------------------------------------------------------------
# region records shared by count/enumerate


def _region_record(kind: str, diagram, stats) -> dict:
    """The record of one region: its diagram (a Cox region is its coordinate
    order) followed by its statistics."""
    record = {"pi": list(diagram)} if kind == "cox" else diagram.to_json()
    record["ceiling_partition"] = [list(b) for b in stats.ceiling_partition]
    record["dof"] = stats.dof
    record["dominant"] = stats.dominant
    if kind == "ish":
        record["relatively_bounded"] = stats.relatively_bounded
    return record


def _breakdown(regions: Iterator[tuple], by: str) -> tuple[int, dict]:
    total = 0
    hist: dict[str, int] = {}
    for _, stats in regions:
        total += 1
        if by == "dof":
            key = str(stats.dof)
        elif by == "dominance":
            key = "dominant" if stats.dominant else "non_dominant"
        else:  # ceiling-partition
            key = partition_str(stats.ceiling_partition)
        hist[key] = hist.get(key, 0) + 1
    ordered = {k: hist[k] for k in sorted(hist, key=lambda s: (len(s), s))}
    return total, ordered


# ---------------------------------------------------------------------------
# count


def cmd_count(args: argparse.Namespace) -> int:
    _check_size("count", args.n, 6, 8, args.allow_large)
    graph = load_graph(args.graph, args.n)
    kinds = [args.arrangement] if args.arrangement else ["shi", "ish"]
    results: dict[str, dict] = {}
    for kind in kinds:
        _progress(f"counting {kind} regions (n={args.n})")
        formula = math.factorial(args.n) if kind == "cox" else ish_region_count(graph)
        entry: dict = {"formula": formula}
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


def cmd_enumerate(args: argparse.Namespace) -> int:
    _check_size("enumerate", args.n, 5, 6, args.allow_large)
    graph = load_graph(args.graph, args.n)
    kind = args.arrangement
    _progress(f"enumerating {kind} regions (n={args.n})")
    records = [
        _region_record(kind, diagram, stats)
        for diagram, stats in diagram_statistics(kind, args.n, graph)
    ]
    doc = _wrap(args, "enumerate", {"arrangement": kind, "regions": records})
    if args.format == "tsv":
        columns = list(records[0].keys()) if records else ["pi"]
        rows = [tuple(columns)]
        for record in records:
            rows.append(
                tuple(
                    _word_str(v) if isinstance(v, list) and v and isinstance(v[0], int)
                    else partition_str(v) if isinstance(v, list)
                    else v
                    for v in (record[c] for c in columns)
                )
            )
        _emit_tsv(rows)
    else:
        _emit_json(doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# map


_BIJECTIONS: dict[str, Callable[[IshCeilingDiagram], ShiCeilingDiagram]] = {
    "basic": basic_bijection,
    "dominance": dominance_bijection,
    "bounded": bounded_bijection,
    "freedom": freedom_bijection,
}
_INVERSES: dict[str, Callable[[ShiCeilingDiagram], IshCeilingDiagram]] = {
    "basic": basic_bijection_inverse,
    "dominance": dominance_bijection_inverse,
    "bounded": bounded_bijection_inverse,
    "freedom": freedom_bijection_inverse,
}


class _Theorem(NamedTuple):
    """A row of the README bijection table.  The maps themselves are
    ``_BIJECTIONS[name]`` and ``_INVERSES[name]``, looked up there on every
    call so that rebinding a dict entry reaches every caller."""

    domain: str  # "all", "complete" (the complete graph only) or "bounded" (regions)
    checks: tuple[str, ...]  # preserved statistics, in the order verify checks them
    certificates: tuple[str, ...]  # the same statistics, in the order map prints them
    invalid_detail: str = "image invalid for G: {}"
    roundtrip_detail: str = "roundtrip broken: {}"
    free_regions: bool = False  # full-freedom regions map to pi with every arc dropped
    compare_with: Optional[str] = None  # count the regions where this bijection agrees
    counters: tuple[str, ...] = ()  # report keys of those counts: (agrees, differs)


_THEOREMS: dict[str, _Theorem] = {
    "basic": _Theorem("complete", (), (), "roundtrip broken at {}", "roundtrip broken at {}"),
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
            data = json.load(sys.stdin)
        else:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
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
    if not is_valid_ish(diagram, graph):
        raise UsageError("input is not a valid Ish ceiling diagram for the graph")
    theorem = _THEOREMS[args.bijection]
    # Graph holds distinct pairs i < j of [n], so the edge count decides completeness
    if theorem.domain == "complete" and len(graph.edges) != args.n * (args.n - 1) // 2:
        raise UsageError(f"the {args.bijection} bijection is defined on the complete graph only")
    stats_in = ish_statistics(diagram)
    if theorem.domain == "bounded" and not stats_in.relatively_bounded:
        raise UsageError(f"the {args.bijection} bijection needs a relatively bounded input")

    image = _BIJECTIONS[args.bijection](diagram)
    stats_out = shi_statistics(image)
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
# verify suites.  Each returns (passed, report-dict); per-graph workers are
# module-level functions so --jobs can fan them out across processes.


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


def _theorem_run(name: str, graph: Graph) -> tuple[Optional[str], int, Counter]:
    """Check the bijection theorem ``_THEOREMS[name]`` on one graph.

    Returns the failure detail (None if the theorem holds), the number of
    images seen before the check stopped, and the agreement counts.
    """
    theorem = _THEOREMS[name]
    n = graph.n
    bounded = theorem.domain == "bounded"
    targets = set(shi_diagrams(n, graph))
    if bounded:
        targets = {d for d in targets if shi_statistics(d).relatively_bounded}
    singletons = tuple((v,) for v in range(1, n + 1))
    seen = set()
    counts: Counter = Counter()
    for diagram in ish_diagrams(n, graph):
        stats = ish_statistics(diagram) if theorem.checks else None
        if bounded and not stats.relatively_bounded:
            continue
        image = _BIJECTIONS[name](diagram)
        image_stats = shi_statistics(image) if theorem.checks else None
        broken = [s for s in theorem.checks if getattr(image_stats, s) != getattr(stats, s)]
        # a region with n degrees of freedom maps to pi with every arc dropped,
        # so the parking word labeling its image is the inverse of pi
        free = theorem.free_regions and stats.dof == n
        if not is_valid_shi(image, graph):
            detail = theorem.invalid_detail
        elif broken:
            detail = _BROKEN[broken[0]][0]
        elif _INVERSES[name](image) != diagram:
            detail = theorem.roundtrip_detail
        elif free and image != ShiCeilingDiagram(diagram.pi, singletons):
            detail = "free-region image wrong: {}"
        elif free and shi_diagram_to_parking(image) != inverse_permutation(diagram.pi):
            detail = "free-region word wrong: {}"
        else:
            detail = None
        if detail is not None:
            return detail.format(diagram), len(seen), counts
        if theorem.compare_with is not None:
            agrees = _BIJECTIONS[theorem.compare_with](diagram) == image
            counts[theorem.counters[0 if agrees else 1]] += 1
        seen.add(image)
    detail = None
    if seen != targets:
        detail = f"image set is not all {'bounded ' if bounded else ''}Shi diagrams"
    return detail, len(seen), counts


def _check_theorem_graph(name: str, payload: tuple[int, tuple[tuple[int, int], ...]]) -> dict:
    n, edges = payload
    detail, count, counts = _theorem_run(name, Graph(n, frozenset(edges)))
    if detail is not None:
        return {"edges": edges, "ok": False, "detail": detail}
    return {"edges": edges, "ok": True, "count": count, **counts}


def _check_formulas_graph(payload: tuple[int, tuple[tuple[int, int], ...]]) -> dict:
    n, edges = payload
    graph = Graph(n, frozenset(edges))
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


def _pool_size(jobs: int, tasks: int, cpus: Optional[int]) -> int:
    """Worker processes for a sweep: no more than requested, than there are
    tasks, or than the machine has CPUs.

    >>> _pool_size(64, 8, 2), _pool_size(4, 1, 16), _pool_size(3, 8, None)
    (2, 1, 1)
    """
    return max(1, min(jobs, tasks, cpus or 1))


def _run_sweep(
    worker: Callable[[tuple[int, tuple[tuple[int, int], ...]]], dict],
    graphs: list[Graph],
    n: int,
    jobs: int,
) -> list[dict]:
    payloads = [(n, graph.sorted_edges()) for graph in graphs]
    workers = _pool_size(jobs, len(payloads), os.cpu_count())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(worker, payloads))
    else:
        results = []
        for k, payload in enumerate(payloads, 1):
            results.append(worker(payload))
            if len(payloads) > 1:
                _progress(f"  graph {k}/{len(payloads)} done")
    return results


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
            if not prime:
                park, rk = is_parking_function(word), is_rook_word(word)
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
            park_member, rook_member = cert.shifts[cert.parking_index], cert.shifts[cert.rook_index]
            if position_partition(park_member) != position_partition(rook_member):
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
    detail, count, _ = _theorem_run("basic", Graph.complete(n))
    return detail is None, {"n": n, "regions": count, "detail": detail}


def _graph_sweep_suite(
    args: argparse.Namespace, worker, suite: str, counters: Sequence[str] = ()
) -> tuple[bool, dict]:
    graphs = _sweep_graphs(args.n, args.allow_large, suite)
    _progress(f"{suite}: sweeping {len(graphs)} graph(s) at n={args.n}")
    results = _run_sweep(worker, graphs, args.n, args.jobs)
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
    worker = functools.partial(_check_theorem_graph, name)
    return _graph_sweep_suite(args, worker, f"thm-{name}", _THEOREMS[name].counters)


def _suite_thm_freedom(args: argparse.Namespace) -> tuple[bool, dict]:
    passed, report = _suite_theorem(args, "freedom")
    if passed:
        roundtrip_ok = True
        for word in parking_functions(args.n):
            if ish_diagram_to_parking(parking_to_ish_diagram(word)) != word:
                roundtrip_ok = False
                break
        report["parking_roundtrip"] = roundtrip_ok
        passed = passed and roundtrip_ok
    return passed, report


def _suite_formulas(args: argparse.Namespace) -> tuple[bool, dict]:
    passed, report = _graph_sweep_suite(args, _check_formulas_graph, "formulas")
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
        dof = len(prime_components(word_to_dyck(word)))
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


#: the suites that run their graphs through _run_sweep, the only readers of --jobs
_SWEEP_SUITES = ("thm-dominance", "thm-bounded", "thm-freedom", "formulas")

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
    _check_size("oracle", args.n, 4, 5, args.allow_large)
    graph = load_graph(args.graph, args.n)
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
        _emit_json(doc)
    return EXIT_OK if validation["ok"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# plumbing


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


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
        help="parallel workers for the graph-sweep verify suites (at least 1; capped at the graph and CPU counts)",
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
    p_count.set_defaults(func=cmd_count)

    p_enum = sub.add_parser("enumerate", help="list regions as ceiling diagrams")
    _add_common(p_enum)
    p_enum.add_argument("--arrangement", choices=("cox", "shi", "ish"), default="shi")
    p_enum.set_defaults(func=cmd_enumerate)

    p_map = sub.add_parser("map", help="apply an Ish-to-Shi bijection to a diagram")
    _add_common(p_map)
    p_map.add_argument(
        "--bijection", choices=("basic", "dominance", "bounded", "freedom"), required=True
    )
    p_map.add_argument(
        "--input", default="-", help='JSON file with {"pi": [...], "eps": [...]} ("-" = stdin)'
    )
    p_map.set_defaults(func=cmd_map)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    _add_common(p_verify)
    p_verify.add_argument("--suite", choices=tuple(_SUITES), required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="geometric cross-validation report")
    _add_common(p_oracle)
    p_oracle.add_argument("--arrangement", choices=("cox", "shi", "ish"), default="shi")
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("--n must be at least 1")
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    try:
        name = getattr(args, "suite", args.command)
        if args.jobs != 1 and name not in _SWEEP_SUITES:
            raise UsageError(f"{name} does not read --jobs (got {args.jobs}): only {', '.join(_SWEEP_SUITES)} do")
        return args.func(args)
    except UsageError as exc:
        _progress(f"error: {exc}")
        return EXIT_USAGE
    except SkippedError as exc:
        _progress(f"skipped: {exc}")
        return EXIT_SKIPPED


if __name__ == "__main__":
    sys.exit(main())
