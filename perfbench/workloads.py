"""Seeded inputs, command lists and output checks for the benchmark workloads.

Each workload is a fixed list of ``shi-ish`` command lines (one *pass*) built
from a seed.  Graphs reach the CLI as JSON files under ``INPUT_DIR`` and Ish
diagrams as JSON on stdin.  The same seed gives byte-identical files and
commands, and the file paths do not depend on the seed or on where the
checkout lives, because every report echoes ``--graph`` in its ``config`` and
``config_hash``.

Random graphs have a fixed number of edges, ``round(density * C(n, 2))``,
so that the cost of a pass varies little from seed to seed: the benchmark
compares runs made with different seeds.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

INPUT_DIR = "perfbench/work/inputs"
WORKLOADS = ("census", "sweep", "oracle", "map-large")
DENSITIES = (0.25, 0.5, 0.75)
BIJECTIONS = ("basic", "dominance", "bounded", "freedom")
MAP_SIZES = (16, 32, 64)
MAPS_PER_CASE = 25  # map commands per (size, bijection) in one pass


@dataclass(frozen=True)
class Command:
    """One CLI call: its arguments, its stdin, and the digest key that
    identifies it by content (arguments, stdin and graph file bytes)."""

    argv: tuple[str, ...]
    stdin: str
    key: str


class _Inputs:
    def __init__(self, workload: str, seed: int) -> None:
        self.rng = random.Random(f"{workload}:{seed}")
        self.files: dict[str, str] = {}
        self.commands: list[Command] = []

    def graph_file(self, name: str, n: int, edges: list[tuple[int, int]]) -> str:
        path = f"{INPUT_DIR}/{name}.json"
        self.files[path] = json.dumps({"n": n, "edges": [list(e) for e in edges]})
        return path

    def add(self, *argv: str, stdin: str = "") -> None:
        argv = (*argv, "--jobs", "1")
        blob = json.dumps([argv, stdin, self.files.get(_arg(argv, "--graph", ""), "")])
        key = hashlib.sha256(blob.encode()).hexdigest()[:16]
        self.commands.append(Command(argv, stdin, key))


def random_edges(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    """``round(density * C(n, 2))`` distinct edges of [n], sorted."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return sorted(rng.sample(pairs, round(density * len(pairs))))


def random_ish_diagram(
    rng: random.Random,
    n: int,
    edges: frozenset[tuple[int, int]] | None,
    bounded: bool,
) -> dict:
    """A valid Ish ceiling diagram for the graph with ``edges`` (complete
    graph when None), as the CLI's JSON.

    Validity, restated here so the inputs do not come from the code under
    test: the dotted positions lie after the letter 1, their dot counts
    increase strictly, and each dot count ``e`` at letter ``p`` has
    ``e < p`` with ``(e, p)`` an edge.  A relatively bounded diagram has
    ``pi[0] = 1`` and its last position dotted.
    """
    while True:
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        if bounded:
            k = pi.index(1)
            pi[0], pi[k] = pi[k], pi[0]
        eps = [0] * n
        last = 0
        for i in range(pi.index(1) + 1, n):
            p = pi[i]
            if not (bounded and i == n - 1) and rng.random() < 0.5:
                continue
            choices = [v for v in range(last + 1, p) if edges is None or (v, p) in edges]
            if choices:
                last = eps[i] = choices[min(len(choices) - 1, int(rng.expovariate(0.7)))]
        if not bounded or eps[-1]:
            return {"pi": pi, "eps": eps}


def _census(b: _Inputs) -> None:
    bys = itertools.cycle(("dof", "dominance", "ceiling-partition"))
    graphs = ["complete", "path"]
    for density in DENSITIES:
        for k in range(2):
            edges = random_edges(b.rng, 5, density)
            graphs.append(b.graph_file(f"census-n5-d{round(density * 100)}-{k}", 5, edges))
    for graph in graphs:
        b.add("count", "--n", "5", "--graph", graph, "--by", next(bys))
    sparse = b.graph_file("census-n6-d25", 6, random_edges(b.rng, 6, 0.25))
    b.add("count", "--n", "6", "--graph", sparse, "--by", next(bys))
    for kind in ("shi", "ish"):
        b.add("enumerate", "--n", "5", "--arrangement", kind)


def _sweep(b: _Inputs) -> None:
    suites = [("3", s) for s in ("thm-dominance", "thm-freedom", "thm-bounded", "formulas")]
    suites += [("4", "cycle-lemma")]
    suites += [
        ("5", s)
        for s in ("thm-basic", "thm-dominance", "thm-freedom", "thm-bounded",
                  "cycle-lemma", "negative-controls")
    ]
    # the verify suites read no input files, so the seed only orders them
    b.rng.shuffle(suites)
    for n, suite in suites:
        b.add("verify", "--n", n, "--suite", suite)


def _oracle(b: _Inputs) -> None:
    graphs = ["complete"]
    for density in DENSITIES:
        edges = random_edges(b.rng, 4, density)
        graphs.append(b.graph_file(f"oracle-n4-d{round(density * 100)}", 4, edges))
    for graph in graphs:
        for kind in ("shi", "ish"):
            b.add("oracle", "--n", "4", "--graph", graph, "--arrangement", kind)
    sparse = b.graph_file("oracle-n5-d20", 5, random_edges(b.rng, 5, 0.2))
    b.add("oracle", "--n", "5", "--graph", sparse, "--arrangement", "ish", "--allow-large")


def _map_large(b: _Inputs) -> None:
    for n in MAP_SIZES:
        edges = random_edges(b.rng, n, 0.5)
        graph = b.graph_file(f"map-n{n}-d50", n, edges)
        for bijection in BIJECTIONS:
            for k in range(MAPS_PER_CASE):
                # basic is defined on the complete graph only; the others take
                # the graph file on every other command
                on_file = bijection != "basic" and k % 2 == 1
                diagram = random_ish_diagram(
                    b.rng, n, frozenset(edges) if on_file else None, bijection == "bounded"
                )
                args = ["map", "--n", str(n), "--bijection", bijection]
                if on_file:
                    args += ["--graph", graph]
                b.add(*args, stdin=json.dumps(diagram))
    b.rng.shuffle(b.commands)


_WORKLOADS = {"census": _census, "sweep": _sweep, "oracle": _oracle, "map-large": _map_large}


def build(workload: str, seed: int) -> tuple[list[Command], dict[str, str]]:
    """The commands of one pass and the input files they read (path -> text)."""
    inputs = _Inputs(workload, seed)
    _WORKLOADS[workload](inputs)
    return inputs.commands, inputs.files


def write_inputs(files: dict[str, str], commands: list[Command], workload: str) -> None:
    """Write the graph files and a manifest of every command with its stdin."""
    Path(INPUT_DIR).mkdir(parents=True, exist_ok=True)
    for path, text in files.items():
        Path(path).write_text(text, encoding="utf-8")
    manifest = [{"argv": list(c.argv), "stdin": c.stdin, "key": c.key} for c in commands]
    Path(f"{INPUT_DIR}/{workload}-commands.json").write_text(
        json.dumps(manifest, indent=1), encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# output checks


def _arg(argv: tuple[str, ...], flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def check_output(program: dict, command: Command, code, stdout: str) -> tuple[list[str], int]:
    """Problems found in one command's result, and the regions it processed.

    ``program`` maps layer names to the loaded ``shi_ish`` modules; the map
    check runs the matching ``_inverse`` from it.
    """
    argv = command.argv
    if code != 0:
        return [f"exit code {code}"], 0
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"], 0
    n = int(_arg(argv, "--n", "0"))
    complete = _arg(argv, "--graph", "complete") == "complete"
    parking_count = (n + 1) ** (n - 1)
    problems: list[str] = []
    regions = 0
    kind = argv[0]
    if kind == "count":
        for arrangement, entry in doc["results"].items():
            regions += entry["total"]
            if entry["total"] != entry["formula"]:
                problems.append(f"{arrangement}: total {entry['total']} != formula {entry['formula']}")
            if complete and entry["formula"] != parking_count:
                problems.append(f"{arrangement}: formula {entry['formula']} != (n+1)^(n-1)")
            by = "by_" + _arg(argv, "--by", "").replace("-", "_")
            if sum(entry[by].values()) != entry["total"]:
                problems.append(f"{arrangement}: breakdown does not sum to the total")
    elif kind == "enumerate":
        regions = len(doc["regions"])
        if complete and regions != parking_count:
            problems.append(f"{regions} regions listed, expected (n+1)^(n-1)")
    elif kind == "verify":
        regions = doc["report"].get("regions_checked", 0)
        if doc["passed"] is not True:
            problems.append("suite did not pass")
    elif kind == "oracle":
        regions = doc["region_count"]
        if not (doc["ok"] is True and doc["matched"] == regions == doc["formula_count"]):
            problems.append("oracle disagrees with the formula or the diagrams")
        if complete and regions != parking_count:
            problems.append(f"{regions} regions, expected (n+1)^(n-1)")
    elif kind == "map":
        regions = 1
        sent = json.loads(command.stdin)
        if doc["input"] != sent:
            problems.append("input echo differs from stdin")
        bijection = _arg(argv, "--bijection", "")
        inverse = getattr(program["bijections"], f"{bijection}_bijection_inverse")
        image = program["shi"].ShiCeilingDiagram.from_json(doc["output"])
        if inverse(image) != program["ish"].IshCeilingDiagram.from_json(sent):
            problems.append(f"{bijection} output does not round-trip through its inverse")
    return problems, regions
