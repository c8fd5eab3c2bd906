"""Fuzzer for the document readers behind the CLI.

One JSON value of a catalog document, at a drawn path, is replaced by a
value of another kind, and ``check-mhs`` or ``check-orbit`` is run on the
result.  Whatever the mutation, the command must answer with an exit code
(0 verdict passed, 1 refuted, 2 rejected document) and let no exception
escape ``main``: a malformed document is a named rejection, never a crash.
"""

import contextlib
import io
import json
import sys

from hypothesis import given, settings, strategies as st

from hodgeorbit import docio
from hodgeorbit.catalog import catalog_by_name
from hodgeorbit.cli import main
from hodgeorbit.construct import orbit_to_mixed

DOCUMENTS = {
    "kummer_i": ("check-mhs", catalog_by_name("kummer_i").build()),
    "elliptic_orbit": ("check-orbit", catalog_by_name("elliptic_orbit").build()),
    "elliptic_orbit paired": ("check-mhs", orbit_to_mixed(catalog_by_name("elliptic_orbit").build())),
}
REPLACEMENTS = (5, "x", [1], None, {}, True)


@st.composite
def mutated_documents(draw):
    """(command, document text): a walk from the root that stops at each
    level with probability one half, so the containers near the root (the
    field lists, filtration steps, matrices and their rows) are hit often,
    and the value where it stops replaced."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    command, obj = DOCUMENTS[name]
    doc = json.loads(docio.serialize(obj))
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys))
        node = parent[key]
    value = draw(st.sampled_from(REPLACEMENTS))
    if parent is None:
        doc = value
    else:
        parent[key] = value
    return command, json.dumps(doc)


def _run(command, text) -> int:
    """``main`` on a document fed through stdin, its output discarded."""
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main([command])
    finally:
        sys.stdin = stdin


@settings(max_examples=150, deadline=None)
@given(mutated_documents())
def test_mutated_documents_get_an_exit_code(case):
    assert _run(*case) in (0, 1, 2)
