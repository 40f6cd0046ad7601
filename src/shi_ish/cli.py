"""Command-line shell: the argument parser, the input readers, the report
emitters and the exit codes of every subcommand.

Subcommands
-----------
count       region totals and breakdowns for Shi and Ish side by side
enumerate   list the regions of one arrangement as ceiling diagrams
map         apply one of the Ish-to-Shi bijections to a diagram (JSON in/out)
verify      run a named verification suite; exit code reports the outcome
oracle      geometric cross-validation report from exact region enumeration

The verify suites, and what each bijection keeps (which ``map`` certifies),
live in :mod:`shi_ish.verify`; ``verify`` prints a suite's report.

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
from typing import Callable, Iterator, Optional, Sequence, TextIO

from .bijections import basic_bijection, bounded_bijection, dominance_bijection, freedom_bijection
from .core import Graph, partition_str
from .geometry import cross_validate, diagram_statistics, oracle_pass  # noqa: F401 - re-export
from .ish import IshCeilingDiagram, _decode_rook_word, _encode_rook_word, _rook_word_statistics, ish_region_count
from .shi import ShiCeilingDiagram, _shi_diagram, _word_statistics, shi_diagram_to_parking
from .verify import SUITES, _BROKEN, _THEOREMS, SkippedError, UsageError, _check_size, _progress

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_SKIPPED = 3


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
    that is not an object, a key outside ``keys``, or a missing one."""
    try:
        data = json.load(handle, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object at the top level")
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(map(repr, unknown))}; expected {' and '.join(keys)}")
    for key in keys:
        if key not in data:
            raise ValueError(f"missing key {key!r}; expected {' and '.join(keys)}")
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


def _arrangement_graph(args: argparse.Namespace) -> Graph:
    """The --graph of ``count``, ``enumerate`` and ``oracle``.  Cox(n) has no
    graph, so with ``--arrangement cox`` any --graph but the default is
    refused."""
    if args.arrangement == "cox" and args.graph != "complete":
        raise UsageError(f"the Coxeter arrangement has no graph (got --graph {args.graph!r})")
    return load_graph(args.graph, args.n)


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
    # K_n holds every arc, so its words are read against no edge set at all
    # (None: any arc) instead of its n(n - 1)/2 edges
    edges = None if args.graph == "complete" else load_graph(args.graph, args.n).edges
    try:  # the input is read once, as its rook word
        stats_in = _rook_word_statistics(_encode_rook_word(diagram), edges)
    except ValueError:  # an incoherent diagram has no rook word
        stats_in = None
    if stats_in is None:
        raise UsageError("input is not a valid Ish ceiling diagram for the graph")
    theorem = _THEOREMS[args.bijection]
    # Graph holds distinct pairs i < j of [n], so the edge count decides completeness
    if theorem.domain == "complete" and edges is not None and len(edges) != args.n * (args.n - 1) // 2:
        raise UsageError(f"the {args.bijection} bijection is defined on the complete graph only")
    if theorem.domain == "bounded" and not stats_in.relatively_bounded:
        raise UsageError(f"the {args.bijection} bijection needs a relatively bounded input")

    image = _BIJECTIONS[args.bijection](diagram)
    try:
        word = shi_diagram_to_parking(image)
    except ValueError:  # an incoherent diagram has no word
        stats_out = None
    else:
        stats_out = _word_statistics(word, edges) if len(word) == args.n else None
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
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    if args.graph != "complete":
        raise UsageError(f"verify does not take --graph (got {args.graph!r}): each suite sets its own graphs")
    passed, report = SUITES[args.suite](args.n, args.allow_large)
    doc = _wrap(args, "verify", {"suite": args.suite, "passed": passed, "report": report})
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
            "mismatches": validation["mismatches"],
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
#: a tuple whose text ``_indented_json`` keeps holds exact ints, or tuples
#: of exact ints
_INTS = frozenset({int})
_TUPLES = frozenset({tuple})


def _indented_json(value, indent: str = "", texts: Optional[dict] = None) -> str:
    """``json.dumps(value, indent=2)`` for dicts with str keys, lists,
    tuples, str, int, bool and None; TypeError for anything else.

    ``json.dumps`` drops to its pure-Python encoder whenever it indents.
    This builds the same text with one join per container; a list of ints
    (most of every report) is joined straight from ``map(repr, ...)``.

    ``texts``, when given, keeps for one report the text of every tuple of
    exact ints, and of every tuple of those, keyed by its indent and the
    tuple itself, so a tuple that repeats (a permutation or a partition
    shared by many regions) is built once.  A list is built every time: the
    reports hold a value that is unique to its region, such as a sign
    vector, as a list.  The key holds exact ints only: ``1``, ``True`` and
    ``1.0`` are equal and hash alike, but print as ``1``, ``true`` and
    ``1.0``.

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
        if texts is not None and kind is tuple:
            if types == _INTS or (types == _TUPLES and set(map(type, itertools.chain.from_iterable(value))) <= _INTS):
                key = (indent, value)
                text = texts.get(key)
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
    p_verify.add_argument("--suite", choices=tuple(SUITES), required=True)

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
