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

from shi_ish import cli
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
    assert _json_text(doc, texts={}) == json.dumps(doc, indent=2)


def test_json_text_edge_cases():
    for doc in (
        {"a": [], "b": {}, "c": [[], {}, [[]]], "d": [1, True, 2, False, None]},
        ["é中\U0001f600", "\ud800", "tab\tquote\"backslash\\"],
        {"ü": [0, -1, 2**70]},
        [],
        {},
    ):
        assert _json_text(doc) == json.dumps(doc, indent=2), doc


#: values that are equal and hash alike but print differently
ALIKE = [1, True, 1.0, [1], [True], (1,), [1.0], [[1], [True]], [[1], [1]], ((1,), (1,)), [], ()]
sequences = st.one_of(
    st.sampled_from(ALIKE),
    st.lists(st.sampled_from([0, 1, True, False, 1.0, 2]), max_size=3),
    st.lists(st.sampled_from([0, 1, True, False, 1.0, 2]), max_size=3).map(tuple),
    st.lists(st.lists(st.sampled_from([1, True, 2]), max_size=2), max_size=3),
)


@st.composite
def repeating_documents(draw):
    """Documents whose siblings at each depth are drawn, with repeats, from
    a few sequences: the emitter's kept texts are read back at once."""
    pool = draw(st.lists(sequences, min_size=1, max_size=4))
    return draw(
        st.recursive(
            st.sampled_from(pool),
            lambda inner: st.one_of(
                st.lists(inner, max_size=4),
                st.lists(inner, max_size=3).map(tuple),
                st.dictionaries(st.sampled_from("abcd"), inner, max_size=4),
            ),
            max_leaves=16,
        )
    )


@settings(max_examples=400, deadline=None)
@given(repeating_documents())
def test_repeated_sequences_print_as_json_dumps(doc):
    assert _json_text(doc, texts={}) == json.dumps(doc, indent=2)
    assert _json_text(doc) == json.dumps(doc, indent=2)


def test_alike_sequences_keep_their_own_text():
    for doc in (
        {"a": [1], "b": [True]},
        {"a": [True], "b": [1]},
        {"a": [[1, 2]], "b": [[1, 2.0]]},
        {"a": [[1, 2]], "b": [[True, 2]]},
        {"a": (1, 2), "b": [1, 2], "c": [(1,), [1]], "d": [[1], (True,)]},
        [[1], [1], [[1]], [[1]], [True]],
    ):
        assert _json_text(doc, texts={}) == json.dumps(doc, indent=2), doc


def test_the_text_of_a_repeated_sequence_is_kept_once_per_indent():
    """Tuples of exact ints, and tuples of those, are kept; lists are not."""
    texts = {}
    doc = {"a": ((1, 2), (1, 2)), "b": [[1, 2], (1, 2)], "c": [True, 1], "d": (True, 1), "e": ([1, 2],)}
    assert _indented_json(doc, "", texts) == json.dumps(doc, indent=2)
    assert set(texts) == {("  ", ((1, 2), (1, 2))), ("    ", (1, 2))}


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


@pytest.mark.parametrize("kind", ["shi", "ish"])
def test_the_oracle_report_keeps_texts_and_prints_as_json_dumps(kind, monkeypatch, capsys):
    """``oracle --format json`` hands its report a texts memo, and prints
    exactly ``json.dumps(doc, indent=2)``."""
    emitted = []
    emit = cli._emit_json

    def recording(doc, texts=None):
        emitted.append((doc, texts))
        emit(doc, texts)

    monkeypatch.setattr(cli, "_emit_json", recording)
    assert cli.main(["oracle", "--n", "4", "--arrangement", kind, "--format", "json"]) == 0
    [(doc, texts)] = emitted
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"
    assert texts, "no texts were kept"
