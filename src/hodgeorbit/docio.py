"""The document format: exact JSON serialization of data and certificates.

Scalars are written as pairs of exact integer fractions, never decimals:
a Gaussian rational is ``[[re_num, re_den], [im_num, im_den]]``.  Serialized
documents are canonical (sorted keys, fixed separators, data in canonical
echelon form), so serialize/parse round trips are byte-stable.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .construct import EmbeddingCertificate, SurjectionCertificate
from .datum import HodgeDatum, OrbitDatum, PairedDatum, Pairing, make_datum
from .filtration import Filtration
from .linalg import Matrix, Subspace
from .scalars import GaussScalar

FORMAT_DATUM = "hodge-datum/1"
FORMAT_CERTIFICATE = "hodge-certificate/1"


class ParseError(ValueError):
    """Malformed document text."""


class ValidationError(ValueError):
    """Well-formed text whose content violates a type invariant."""


def _integer(value, what: str) -> int:
    """A JSON integer field; booleans, floats, strings and the rest are
    rejected, never truncated or converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, not {value!r}")
    return value


def _list(value, what: str) -> list:
    """A JSON array field."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list, not {value!r}")
    return value


def _object(value, what: str) -> dict:
    """A JSON object field."""
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be an object, not {value!r}")
    return value


def _scalar_out(x: GaussScalar):
    re, im = x.re, x.im
    return [[re.numerator, re.denominator], [im.numerator, im.denominator]]


def _scalar_in(obj) -> GaussScalar:
    try:
        (rn, rd), (im_n, im_d) = obj
        if any(isinstance(x, bool) for x in (rn, rd, im_n, im_d)):
            raise TypeError("booleans are not integers")
        return GaussScalar(Fraction(rn, rd), Fraction(im_n, im_d))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar {obj!r}: {exc}")


def _matrix_out(m: Matrix):
    # Equal entries share one JSON value.  Most entries repeat, zero above
    # all, and without sharing the document of a large certificate is the
    # largest object a construction builds.
    values = {}

    def out(x):
        if x not in values:
            values[x] = _scalar_out(x)
        return values[x]

    return {"rows": m.rows, "cols": m.cols, "entries": [[out(x) for x in row] for row in m.entries]}


def _matrix_in(obj) -> Matrix:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ParseError("matrix must be an object with entries")
    # Most entries repeat (see _matrix_out), so each distinct well-formed
    # entry, four JSON integers, is read once.  Any other entry goes to
    # _scalar_in, which rejects it with its own message; booleans and floats
    # equal to integers must not hit the memo, hence the exact type test.
    read = {}

    def scalar(x):
        try:
            (rn, rd), (im_n, im_d) = x
        except (TypeError, ValueError):
            return _scalar_in(x)
        if not type(rn) is type(rd) is type(im_n) is type(im_d) is int:
            return _scalar_in(x)
        key = (rn, rd, im_n, im_d)
        value = read.get(key)
        if value is None:
            value = read[key] = _scalar_in(x)
        return value

    entries = [[scalar(x) for x in _list(row, "matrix row")] for row in _list(obj["entries"], "matrix entries")]
    shape = {key: _integer(obj[key], f"matrix {key}") for key in ("rows", "cols") if key in obj}
    try:
        m = Matrix(entries, shape.get("cols"))
    except ValueError as exc:
        raise ParseError(f"bad matrix: {exc}")
    if m.rows != shape.get("rows", m.rows) or m.cols != shape.get("cols", m.cols):
        raise ParseError("matrix shape disagrees with its entries")
    return m


def _filtration_out(f: Filtration, key: str):
    return [{key: k, "basis": _matrix_out(s.basis)} for k, s in f.steps]


def _filtration_in(obj, ambient: int, increasing: bool, key: str) -> Filtration:
    name = "weight_filtration" if increasing else "hodge_filtration"
    pairs = []
    for step in _list(obj, name):
        if key not in _object(step, f"{name} step"):
            raise ParseError(f"filtration step missing index {key!r}")
        basis = _matrix_in(step["basis"])
        pairs.append((_integer(step[key], f"filtration index {key!r}"), Subspace.from_matrix_rows(basis)))
    try:
        return Filtration.make(ambient, increasing, pairs)
    except ValueError as exc:
        raise ValidationError(f"invalid filtration: {exc}")


def _pairing_out(p: Pairing, weight):
    return {"weight": weight, "matrix": _matrix_out(p.matrix), "twist": p.twist, "symmetry": p.symmetry}


def _pairing_in(obj) -> Pairing:
    twist, symmetry = _integer(obj["twist"], "pairing twist"), _integer(obj["symmetry"], "pairing symmetry")
    matrix = _matrix_in(obj["matrix"])
    try:
        return Pairing(matrix, twist, symmetry)
    except ValueError as exc:
        raise ValidationError(f"invalid pairing: {exc}")


def serialize(obj) -> str:
    """Canonical JSON text for a mixed datum, orbit datum, or paired datum."""
    return json.dumps(_datum_doc(obj), sort_keys=True, separators=(",", ":")) + "\n"


def _datum_doc(obj) -> dict:
    if isinstance(obj, HodgeDatum):
        doc = _mixed_doc(obj)
    elif isinstance(obj, OrbitDatum):
        doc = _orbit_doc(obj)
    elif isinstance(obj, PairedDatum):
        doc = _mixed_doc(obj.datum)
        doc["weight"] = obj.weight
        doc["pairings"].append(_pairing_out(obj.pairing, "global"))
        doc["log_operator"] = _matrix_out(obj.log_operator)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return doc


def _mixed_doc(h: HodgeDatum):
    return {
        "format_version": FORMAT_DATUM,
        "field": "Q(i)",
        "kind": "mixed",
        "dim": h.dim,
        "twist_tag": h.twist_tag,
        "weight_filtration": _filtration_out(h.weight_filtration, "k"),
        "hodge_filtration": _filtration_out(h.hodge_filtration, "p"),
        "operators": [_matrix_out(op) for op in h.operators],
        "pairings": [_pairing_out(p, w) for w, p in h.graded_pairings],
    }


def _orbit_doc(o: OrbitDatum):
    return {
        "format_version": FORMAT_DATUM,
        "field": "Q(i)",
        "kind": "orbit",
        "dim": o.dim,
        "twist_tag": o.twist_tag,
        "weight": o.weight,
        "hodge_filtration": _filtration_out(o.hodge_filtration, "p"),
        "operators": [_matrix_out(op) for op in o.operators],
        "pairings": [_pairing_out(o.pairing, "global")],
    }


def parse(text: str):
    """Parse a datum document; returns HodgeDatum, OrbitDatum or PairedDatum.

    Malformed syntax raises ParseError with a location; invariant violations
    raise ValidationError naming the invariant.
    """
    return _datum_in(_json_in(text))


def _json_in(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}")


def _datum_in(doc):
    """The datum of a decoded document: the checks of :func:`parse` after
    the JSON syntax, which certificates share for their two sides."""
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if doc.get("format_version") != FORMAT_DATUM:
        raise ParseError(f"unsupported format_version {doc.get('format_version')!r}")
    kind = doc.get("kind")
    if kind not in ("orbit", "mixed"):
        raise ParseError(f"unknown kind {kind!r}")
    try:
        return _parse_orbit(doc) if kind == "orbit" else _parse_mixed(doc)
    except KeyError as exc:
        raise ParseError(f"missing field {exc}")


def _operators_in(doc) -> tuple:
    return tuple(_matrix_in(m) for m in _list(doc.get("operators", []), "operators"))


def _pairings_in(doc) -> list:
    """The pairing objects of a datum document."""
    return [_object(p, "pairings entry") for p in _list(doc.get("pairings", []), "pairings")]


def _parse_orbit(doc) -> OrbitDatum:
    dim = _integer(doc["dim"], "dim")
    ff = _filtration_in(doc["hodge_filtration"], dim, False, "p")
    ops = _operators_in(doc)
    pairings = [p for p in _pairings_in(doc) if p.get("weight") == "global"]
    if len(pairings) != 1:
        raise ValidationError("orbit documents need exactly one global pairing")
    pairing = _pairing_in(pairings[0])
    weight, twist_tag = _integer(doc["weight"], "weight"), _integer(doc.get("twist_tag", 0), "twist_tag")
    try:
        return OrbitDatum(weight, pairing, ops, ff, twist_tag)
    except ValueError as exc:
        raise ValidationError(str(exc))


def _parse_mixed(doc):
    dim = _integer(doc["dim"], "dim")
    wf = _filtration_in(doc["weight_filtration"], dim, True, "k")
    ff = _filtration_in(doc["hodge_filtration"], dim, False, "p")
    ops = _operators_in(doc)
    graded = {}
    global_pairing = None
    for p in _pairings_in(doc):
        if p.get("weight") == "global":
            global_pairing = _pairing_in(p)
        else:
            graded[_integer(p["weight"], "pairing weight")] = _pairing_in(p)
    twist_tag = _integer(doc.get("twist_tag", 0), "twist_tag")
    try:
        datum = make_datum(wf, ff, ops, graded, twist_tag)
    except ValueError as exc:
        raise ValidationError(str(exc))
    for w in datum.weights():
        if datum.weight_filtration.graded_dim(w) and datum.pairing(w) is None:
            raise ValidationError(f"missing pairing for the nonzero graded piece at weight {w}")
    if "log_operator" in doc or global_pairing is not None:
        if global_pairing is None or "log_operator" not in doc or "weight" not in doc:
            raise ValidationError("paired documents need weight, global pairing and log_operator")
        weight = _integer(doc["weight"], "weight")
        try:
            return PairedDatum(datum, weight, global_pairing, _matrix_in(doc["log_operator"]))
        except ValueError as exc:
            raise ValidationError(str(exc))
    return datum


# ---------------------------------------------------------------------------
# Certificates


def serialize_certificate(cert) -> str:
    if isinstance(cert, EmbeddingCertificate):
        doc = {"kind": "embedding", "map": _matrix_out(cert.injection), "shear": cert.shear}
        verdict = cert.orbit_verdict
    elif isinstance(cert, SurjectionCertificate):
        doc = {"kind": "surjection", "map": _matrix_out(cert.surjection)}
        verdict = cert.source_verdict
    else:
        raise TypeError(f"cannot serialize {type(cert).__name__}")
    doc.update(
        format_version=FORMAT_CERTIFICATE,
        source=_datum_doc(cert.source),
        target=_datum_doc(cert.target),
        conditions=cert.conditions,
        orbit_status=verdict.status,
    )
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# The mixed and the orbit side of each certificate kind, as (source, target).
_CERTIFICATE_SIDES = {"embedding": (HodgeDatum, OrbitDatum), "surjection": (OrbitDatum, HodgeDatum)}


def parse_certificate(text: str):
    """Parse a certificate document into its raw pieces (kind, source,
    target, map, claimed conditions).

    Malformed syntax raises ParseError; a document whose pieces cannot form
    a certificate of its kind (wrong data kinds, operator counts or map
    shape, a non-integer shear) raises ValidationError naming the reason.
    """
    doc = _json_in(text)
    if not isinstance(doc, dict):
        raise ValidationError("certificate must be a JSON object")
    if doc.get("format_version") != FORMAT_CERTIFICATE:
        raise ParseError(f"unsupported format_version {doc.get('format_version')!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _CERTIFICATE_SIDES:
        raise ParseError(f"unknown certificate kind {kind!r}")
    for key in ("source", "target", "map"):
        if key not in doc:
            raise ValidationError(f"certificate is missing {key!r}")
    source = _datum_in(doc["source"])
    target = _datum_in(doc["target"])
    mp = _matrix_in(doc["map"])
    source_kind, target_kind = _CERTIFICATE_SIDES[kind]
    if not isinstance(source, source_kind) or not isinstance(target, target_kind):
        raise ValidationError(f"{kind} certificate has wrong data kinds")
    orbit, mixed = (target, source) if kind == "embedding" else (source, target)
    if len(orbit.operators) != len(mixed.operators) + 1:
        raise ValidationError(f"{kind} certificate: the orbit side needs exactly one operator more than the mixed side")
    if mp.shape != (target.dim, source.dim):
        raise ValidationError(f"{kind} certificate: map of shape {mp.shape} does not send {source.dim} to {target.dim}")
    shear = _integer(doc.get("shear", 0), f"{kind} certificate: shear")
    return {
        "kind": kind,
        "source": source,
        "target": target,
        "map": mp,
        "conditions": doc.get("conditions", {}),
        "orbit_status": doc.get("orbit_status"),
        "shear": shear,
    }
