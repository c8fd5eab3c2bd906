"""Fuzzer for the document readers behind the CLI.

One JSON value of a catalog document, at a drawn path, is replaced by a
value of another kind, and a command that reads that kind of document is run
on the result: ``check-mhs``, ``embed``, ``surject``, ``monodromy`` or
``rel-monodromy`` on a mixed one, ``check-orbit``, ``orbit-to-mixed``,
``prop44`` or ``monodromy`` on an orbit, ``check-mhs`` or ``mixed-to-orbit``
on a paired one; likewise for a value inside the source, target or map of a
certificate, with ``verify-certificate``.  Whatever the mutation, the
command must answer with an exit code (0 verdict passed, 1 refuted, 2
rejected document) and let no exception escape ``main``: a malformed
document is a named rejection, never a crash, and never exit 3.
"""

import contextlib
import io
import json
import sys

from hypothesis import given, settings, strategies as st

from hodgeorbit import docio
from hodgeorbit.catalog import catalog_by_name
from hodgeorbit.cli import main
from hodgeorbit.construct import embed_general, orbit_to_mixed, surject_from_pure

DOCUMENTS = {
    "kummer_i": (
        ("check-mhs", "embed", "surject", "monodromy", "rel-monodromy"),
        catalog_by_name("kummer_i").build(),
    ),
    "elliptic_orbit": (
        ("check-orbit", "orbit-to-mixed", "prop44", "monodromy"),
        catalog_by_name("elliptic_orbit").build(),
    ),
    "elliptic_orbit paired": (
        ("check-mhs", "mixed-to-orbit"),
        orbit_to_mixed(catalog_by_name("elliptic_orbit").build()),
    ),
}
_KUMMER = catalog_by_name("kummer_i").build()
CERTIFICATES = {
    "embedding": docio.serialize_certificate(embed_general(_KUMMER)),
    "surjection": docio.serialize_certificate(surject_from_pure(_KUMMER)),
}
REPLACEMENTS = (5, "x", [1], None, {}, True)


def _mutate(draw, parent, key):
    """Replace the value at parent[key], or one nested in it: a walk that
    stops at each level with probability one half, so the containers near
    the start (the field lists, filtration steps, matrices and their rows)
    are hit often."""
    node = parent[key]
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys))
        node = parent[key]
    parent[key] = draw(st.sampled_from(REPLACEMENTS))


@st.composite
def mutated_documents(draw):
    """(command, document text) with one value of a catalog document,
    the whole document included, replaced."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    commands, obj = DOCUMENTS[name]
    command = draw(st.sampled_from(commands))
    root = [json.loads(docio.serialize(obj))]
    _mutate(draw, root, 0)
    return command, json.dumps(root[0])


@st.composite
def mutated_certificates(draw):
    """A certificate text with one value inside its source, target or map
    replaced."""
    doc = json.loads(CERTIFICATES[draw(st.sampled_from(sorted(CERTIFICATES)))])
    _mutate(draw, doc, draw(st.sampled_from(("source", "target", "map"))))
    return json.dumps(doc)


def _run(command, text) -> int:
    """``main`` on a document fed through stdin, its output discarded."""
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main([command])
    finally:
        sys.stdin = stdin


@settings(max_examples=400, deadline=None)
@given(mutated_documents())
def test_mutated_documents_get_an_exit_code(case):
    assert _run(*case) in (0, 1, 2)


@settings(max_examples=100, deadline=None)
@given(mutated_certificates())
def test_mutated_certificates_get_an_exit_code(text):
    assert _run("verify-certificate", text) in (0, 1, 2)
