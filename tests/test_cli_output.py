"""Report plumbing: the indent-2 JSON emitter and a reader that closes
stdout early."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shi_ish.cli import _indented_json, _json_text

SRC = Path(__file__).resolve().parents[1] / "src"

#: what the reports hold, and what the emitter must hand to json.dumps: floats,
#: and dicts with keys other than str
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(),
    st.text(alphabet=st.characters(min_codepoint=0x80)),
    st.floats(allow_nan=True),
)
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=5),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=4), inner, max_size=5),
        st.dictionaries(st.one_of(st.integers(), st.booleans(), st.none()), inner, max_size=3),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(documents)
def test_json_text_is_json_dumps_indent_2(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


def test_json_text_edge_cases():
    for doc in (
        {"a": [], "b": {}, "c": [[], {}, [[]]], "d": [1, True, 2, False, None]},
        ["é中\U0001f600", "\ud800", "tab\tquote\"backslash\\"],
        {"ü": [0, -1, 2**70]},
        [],
        {},
    ):
        assert _json_text(doc) == json.dumps(doc, indent=2), doc


def test_unplain_values_fall_back_to_json_dumps():
    for doc in ({"x": 1.5}, {1: "int key"}, {"x": [1, 2, 3.0]}):
        assert _json_text(doc) == json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            _indented_json(doc)


def test_a_closed_pipe_ends_without_a_traceback():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    # the report (~600 kB) is far larger than a pipe buffer, so the writer is
    # still writing when the reader goes away
    child = subprocess.Popen(
        [sys.executable, "-m", "shi_ish.cli", "enumerate", "--n", "5", "--arrangement", "shi"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert child.stdout.readline() == b"{\n"
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert err.splitlines()[-1] == "error: stdout was closed before the report was written"
