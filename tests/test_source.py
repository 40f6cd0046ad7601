"""Checks on the package source itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shi_ish
from shi_ish import cli
from shi_ish.verify import SUITES

SOURCE = Path(shi_ish.__file__).parent


def test_no_assert_statements_in_the_package():
    """Invariant checks must survive ``python -O``, which strips ``assert``;
    the package raises ``AssertionError`` explicitly instead.  Doctests are
    strings, so they are not counted."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert not found, found


#: the running n = 9 example of the Dyck-path construction, for ``map --input``
DIAGRAM_9 = {"pi": [8, 1, 4, 3, 7, 6, 5, 9, 2], "eps": [0, 0, 0, 1, 2, 5, 0, 6, 0]}


@pytest.mark.parametrize(
    "argv",
    [["oracle", "--n", "3", "--arrangement", "ish"]]
    + [["verify", "--n", "3", "--suite", f"thm-{name}"] for name in ("basic", "dominance", "bounded", "freedom")]
    + [["verify", "--n", "4", "--suite", "cycle-lemma"]]
    + [
        ["verify", "--n", "3", "--suite", suite]
        for suite in ("formulas", "negative-controls", "factorization-candidates")
    ]
    + [["map", "--n", "9", "--bijection", "freedom", "--input", "DIAGRAM_9"]],
)
def test_reports_survive_python_O(argv, tmp_path):
    """The same command prints the same report and exits the same way with
    and without ``python -O``: no check the report rests on is stripped."""
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(DIAGRAM_9), encoding="utf-8")
    argv = [str(path) if arg == "DIAGRAM_9" else arg for arg in argv]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SOURCE.parent), os.environ.get("PYTHONPATH", "")])}
    plain, optimized = (
        subprocess.run(
            [sys.executable, *flags, "-m", "shi_ish.cli", *argv], capture_output=True, text=True, env=env
        )
        for flags in ([], ["-O"])
    )
    assert plain.stdout
    assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)


def test_no_unused_module_level_imports():
    """Every name a module imports at module level is used in that module.
    ``__init__.py`` is skipped, because its imports are the public API, and so
    is an import line marked ``# noqa: F401``, a deliberate re-export."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text, filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or "# noqa: F401" in lines[node.lineno - 1]:
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name not in used]
    assert not found, found


def _module_tree(name):
    return ast.parse((SOURCE / name).read_text(encoding="utf-8"), filename=name)


def _imports(tree):
    """Every module the tree imports, and every name it imports from one,
    dotted: ``from . import cli`` gives ``.`` and ``.cli``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            found.add(base)
            found.update(base + ("" if base.endswith(".") else ".") + alias.name for alias in node.names)
    return found


def test_the_verify_engine_stands_apart_from_the_command_shell():
    """``verify.py`` imports neither ``argparse`` nor the CLI, and ``cli.py``
    defines none of the engine: no suite, no region facts, no theorem check."""
    imported = _imports(_module_tree("verify.py"))
    assert ".core" in imported
    assert imported & {"argparse", ".cli", "shi_ish.cli"} == set()
    defined = {node.name for node in _module_tree("cli.py").body if isinstance(node, ast.FunctionDef)}
    engine = {name for name in defined if name.startswith("_suite_")} | defined & {"_region_facts", "_theorem_check"}
    assert engine == set()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SUITES))
def test_a_suite_called_directly_gives_the_printed_report(name, n, capsys):
    """A suite is a plain function of ``(n, allow_large)``: its report, made
    JSON-ready, is the ``report`` that ``verify`` prints for the same
    suite and size."""
    passed, report = SUITES[name](n, False)
    code = cli.main(["verify", "--n", str(n), "--suite", name])
    printed = json.loads(capsys.readouterr().out)
    assert cli._jsonify(report) == printed["report"]
    assert (passed, code) == (printed["passed"], 0 if passed else 1)
