"""The README's Python examples run as doctests.

Each ```python block closes with the fence right after its expected output,
which plain ``doctest`` would read as part of that output, so the blocks are
cut out first.  They run in order in one namespace, as a reader would type
them: a later block uses the diagram ``d`` an earlier one defined.
"""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_pass_as_doctests():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 5
    test = doctest.DocTestParser().get_doctest("\n".join(blocks), {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test, out=lambda text: None)
    results = runner.summarize(verbose=False)
    assert results.attempted >= 18
    assert results.failed == 0


def _shi_ish_modules():
    import importlib
    import pkgutil

    import shi_ish

    return [shi_ish] + [importlib.import_module(f"shi_ish.{m.name}") for m in pkgutil.iter_modules(shi_ish.__path__)]


def _readme_names(text):
    """The API names in the README's backticked spans: every call ``name(``
    or ``module.name(``, and every span that is one snake_case name, such as
    ``parking_dof``, or a template such as ``{name}_rook_to_parking``, which
    stands for that name of each of the four bijections.  Calls qualified by
    a module outside ``shi_ish`` (such as ``json.dumps(``) are skipped, and
    so are math like ``n(n-1)/2`` (one letter) and the optional-infix
    notation ``is_(prime_)rook_word`` or ``basic_`` (a name ending in
    ``_``)."""
    names = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        for qualifier, name in re.findall(r"(?<![\w.])((?:\w+\.)*)([A-Za-z_]\w*)\(", span):
            if not qualifier or qualifier.startswith(("shi_ish.", "cli.", "ish.", "shi.", "bijections.")):
                names.add(name)
        whole = re.fullmatch(r"(\{name\})?([A-Za-z]*_\w*)", span)
        if whole and whole[1]:
            names.update(f"{bijection}{whole[2]}" for bijection in ("basic", "dominance", "bounded", "freedom"))
        elif whole:
            names.add(whole[2])
    return {name for name in names if len(name) > 1 and not name.endswith("_")}


def test_readme_names_functions_that_exist():
    """Every function the README names in backticks is an attribute of
    ``shi_ish`` or of one of its modules, so an API cannot be removed or
    renamed without the README following."""
    import builtins

    modules = _shi_ish_modules()
    names = _readme_names(README.read_text(encoding="utf-8"))
    assert {"dominance_rook_to_parking", "freedom_rook_to_parking", "parking_dof"} <= names
    missing = sorted(
        name for name in names if not hasattr(builtins, name) and not any(hasattr(m, name) for m in modules)
    )
    assert missing == []


def test_readme_name_check_sees_a_removed_name():
    text = (
        "the inverse `dominance_parking_inverse(word)`; the size `n(n-1)/2`; `json.dumps(report)`;"
        " the image `{name}_parking`; the dof `parking_dof`; the suite `thm-freedom`; `basic_`; `pi`"
    )
    assert _readme_names(text) == {
        "dominance_parking_inverse",
        "basic_parking",
        "dominance_parking",
        "bounded_parking",
        "freedom_parking",
        "parking_dof",
    }
