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
