"""Differential tests for the document readers.

``docio._matrix_in`` reads each distinct matrix entry once, and
``docio.parse_certificate`` reads its two sides from the decoded document
instead of re-encoding them for ``parse``.  The readers they replaced are
kept here as the references: a matrix read entry by entry, and a
certificate whose sides go through ``json.dumps`` and ``parse``.  Results
must be equal and error messages byte-identical.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hodgeorbit import docio
from hodgeorbit.catalog import catalog_by_name
from hodgeorbit.construct import embed_general, surject_from_pure
from hodgeorbit.docio import ParseError, ValidationError
from hodgeorbit.linalg import Matrix
from hodgeorbit.scalars import GaussScalar


def reference_scalar_in(obj) -> GaussScalar:
    try:
        (rn, rd), (im_n, im_d) = obj
        if any(isinstance(x, bool) for x in (rn, rd, im_n, im_d)):
            raise TypeError("booleans are not integers")
        return GaussScalar(Fraction(rn, rd), Fraction(im_n, im_d))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar {obj!r}: {exc}")


def reference_matrix_in(obj) -> Matrix:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ParseError("matrix must be an object with entries")
    rows = docio._list(obj["entries"], "matrix entries")
    entries = [[reference_scalar_in(x) for x in docio._list(row, "matrix row")] for row in rows]
    shape = {key: docio._integer(obj[key], f"matrix {key}") for key in ("rows", "cols") if key in obj}
    try:
        m = Matrix(entries, shape.get("cols"))
    except ValueError as exc:
        raise ParseError(f"bad matrix: {exc}")
    if m.rows != shape.get("rows", m.rows) or m.cols != shape.get("cols", m.cols):
        raise ParseError("matrix shape disagrees with its entries")
    return m


def reference_parse_certificate(text: str):
    """``parse_certificate`` with each side re-encoded and parsed as a
    document of its own."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ValidationError("certificate must be a JSON object")
    if doc.get("format_version") != docio.FORMAT_CERTIFICATE:
        raise ParseError(f"unsupported format_version {doc.get('format_version')!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in docio._CERTIFICATE_SIDES:
        raise ParseError(f"unknown certificate kind {kind!r}")
    for key in ("source", "target", "map"):
        if key not in doc:
            raise ValidationError(f"certificate is missing {key!r}")
    source = docio.parse(json.dumps(doc["source"]))
    target = docio.parse(json.dumps(doc["target"]))
    mp = reference_matrix_in(doc["map"])
    source_kind, target_kind = docio._CERTIFICATE_SIDES[kind]
    if not isinstance(source, source_kind) or not isinstance(target, target_kind):
        raise ValidationError(f"{kind} certificate has wrong data kinds")
    orbit, mixed = (target, source) if kind == "embedding" else (source, target)
    if len(orbit.operators) != len(mixed.operators) + 1:
        raise ValidationError(f"{kind} certificate: the orbit side needs exactly one operator more than the mixed side")
    if mp.shape != (target.dim, source.dim):
        raise ValidationError(f"{kind} certificate: map of shape {mp.shape} does not send {source.dim} to {target.dim}")
    shear = docio._integer(doc.get("shear", 0), f"{kind} certificate: shear")
    return {
        "kind": kind,
        "source": source,
        "target": target,
        "map": mp,
        "conditions": doc.get("conditions", {}),
        "orbit_status": doc.get("orbit_status"),
        "shear": shear,
    }


def _matrix_outcome(reader, obj):
    try:
        m = reader(obj)
    except (ParseError, ValidationError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", (m.rows, m.cols, m.den, m.re, m.im), hash(m)


def _certificate_outcome(reader, text):
    try:
        raw = reader(text)
    except (ParseError, ValidationError) as exc:
        return type(exc).__name__, str(exc)
    sides = {key: docio.serialize(raw[key]) for key in ("source", "target")}
    return "ok", {**raw, **sides}


# -- matrices ---------------------------------------------------------------------

INTEGERS = st.one_of(st.integers(-6, 6), st.integers(-(10**40), 10**40))
DENOMINATORS = INTEGERS.filter(lambda d: d != 0)


@st.composite
def entries(draw, gaussian: bool):
    re = [draw(INTEGERS), draw(DENOMINATORS)]
    im = [draw(INTEGERS), draw(DENOMINATORS)] if gaussian else [0, draw(st.sampled_from((1, -1, 3)))]
    return [re, im]


@st.composite
def matrix_documents(draw):
    """A matrix document whose entries are drawn from a small pool, so that
    most repeat, as in the documents the library writes."""
    gaussian = draw(st.booleans())
    pool = draw(st.lists(entries(gaussian), min_size=1, max_size=4))
    pool.append([[0, 1], [0, 1]])
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    # Each entry is a fresh list, as json.loads gives, never a shared one.
    grid = [[json.loads(json.dumps(draw(st.sampled_from(pool)))) for _ in range(cols)] for _ in range(rows)]
    return {"rows": rows, "cols": cols, "entries": grid}


@settings(max_examples=200, deadline=None)
@given(matrix_documents())
def test_matrix_reader_matches_the_per_entry_reader(doc):
    got = _matrix_outcome(docio._matrix_in, doc)
    assert got[0] == "ok"
    assert got == _matrix_outcome(reference_matrix_in, doc)


def test_unreduced_and_negative_denominators_read_as_their_reduced_values():
    doc = {"rows": 2, "cols": 2, "entries": [[[[2, 4], [0, 1]], [[3, -6], [0, -1]]], [[[0, 5], [4, -8]], [[2, 4], [0, 1]]]]}
    m = docio._matrix_in(doc)
    half = GaussScalar(Fraction(1, 2))
    assert m == Matrix([[half, -half], [GaussScalar(0, Fraction(-1, 2)), half]])
    assert _matrix_outcome(docio._matrix_in, doc) == _matrix_outcome(reference_matrix_in, doc)


MALFORMED_ENTRIES = [
    [[True, 1], [0, 1]],
    [[1, True], [0, 1]],
    [[1, 1], [False, 1]],
    [[1, 1], [0, True]],
    [[1.0, 1], [0, 1]],
    [[1, 1], [0, 1.0]],
    [[0.5, 1], [0, 1]],
    [["1", 1], [0, 1]],
    ["ab", "cd"],
    [[1, 0], [0, 1]],
    [[1, 1], [0, 0]],
    [[1, 1]],
    [[1, 1], [0, 1], [0, 1]],
    [[1], [0, 1]],
    [[1, 1, 1], [0, 1]],
    [[[1], 1], [0, 1]],
    [[[1, 1], [0, 1]], [[1, 1], [0, 1]]],
    [[None, 1], [0, 1]],
    [{}, [0, 1]],
    {"ab": 1, "cd": 2},
    5,
    None,
    "x",
]


@pytest.mark.parametrize("bad", MALFORMED_ENTRIES, ids=repr)
@pytest.mark.parametrize("position", ["alone", "after_its_integer_twin", "last"])
def test_malformed_entries_give_the_same_error_text(bad, position):
    one = [[1, 1], [0, 1]]
    row = {"alone": [bad], "after_its_integer_twin": [one, bad], "last": [one, one, [[0, 1], [0, 1]], bad]}[position]
    doc = {"entries": [row]}
    got = _matrix_outcome(docio._matrix_in, doc)
    assert got[0] == "ParseError"
    assert got == _matrix_outcome(reference_matrix_in, doc)


# -- certificates -------------------------------------------------------------------


@pytest.fixture(scope="module")
def certificates():
    h = catalog_by_name("kummer_i").build()
    return {
        "embedding": docio.serialize_certificate(embed_general(h)),
        "surjection": docio.serialize_certificate(surject_from_pure(h)),
    }


@pytest.mark.parametrize("kind", ["embedding", "surjection"])
def test_certificates_read_as_before(kind, certificates):
    text = certificates[kind]
    assert _certificate_outcome(docio.parse_certificate, text) == _certificate_outcome(reference_parse_certificate, text)


@pytest.mark.parametrize("side", ["source", "target"])
@pytest.mark.parametrize("value", [[1], 5, "x", None, True], ids=repr)
def test_a_side_that_is_not_an_object_is_not_a_document(side, value, certificates):
    doc = json.loads(certificates["embedding"])
    doc[side] = value
    text = json.dumps(doc)
    with pytest.raises(ParseError, match="^document must be a JSON object$"):
        docio.parse_certificate(text)
    assert _certificate_outcome(docio.parse_certificate, text) == _certificate_outcome(reference_parse_certificate, text)
