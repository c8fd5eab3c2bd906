import io
import json
import sys

import pytest

from hodgeorbit import cli, docio
from hodgeorbit.catalog import catalog_by_name, catalog_entries, gen_elliptic_orbit, gen_kummer
from hodgeorbit.cli import main
from hodgeorbit.construct import orbit_to_mixed
from hodgeorbit.datum import HodgeDatum, OrbitDatum, PairedDatum
from hodgeorbit.scalars import GaussScalar


def test_serialize_parse_roundtrip_is_byte_stable():
    for entry in catalog_entries():
        if entry.kind == "raw":
            continue
        obj = entry.build()
        text = docio.serialize(obj)
        again = docio.serialize(docio.parse(text))
        assert text == again, entry.name


def test_paired_document_roundtrip():
    p = orbit_to_mixed(gen_elliptic_orbit())
    text = docio.serialize(p)
    p2 = docio.parse(text)
    assert isinstance(p2, PairedDatum)
    assert docio.serialize(p2) == text


def test_scalars_serialized_as_exact_fractions():
    text = docio.serialize(gen_kummer(GaussScalar(0, 1)))
    assert "." not in json.dumps(json.loads(text))  # no decimal points anywhere


def test_parse_rejects_syntax_and_invariants():
    with pytest.raises(docio.ParseError):
        docio.parse("{nope")
    doc = json.loads(docio.serialize(gen_elliptic_orbit()))
    doc["operators"][0]["entries"][0][0] = [[1, 1], [0, 1]]
    with pytest.raises(docio.ValidationError, match="nilpotent"):
        docio.parse(json.dumps(doc))


def test_parse_requires_pairings_for_nonzero_pieces():
    doc = json.loads(docio.serialize(gen_kummer(GaussScalar(0, 1))))
    doc["pairings"] = [p for p in doc["pairings"] if p["weight"] != -2]
    with pytest.raises(docio.ValidationError, match="weight -2"):
        docio.parse(json.dumps(doc))


def test_parse_names_a_missing_field():
    for obj in (gen_kummer(GaussScalar(0, 1)), gen_elliptic_orbit()):
        doc = json.loads(docio.serialize(obj))
        del doc["dim"]
        with pytest.raises(docio.ParseError, match="missing field 'dim'"):
            docio.parse(json.dumps(doc))


def test_certificate_roundtrip(tmp_path):
    from hodgeorbit.construct import embed_general

    cert = embed_general(gen_kummer(GaussScalar(0, 1)))
    text = docio.serialize_certificate(cert)
    raw = docio.parse_certificate(text)
    assert raw["kind"] == "embedding"
    assert isinstance(raw["source"], HodgeDatum)
    assert isinstance(raw["target"], OrbitDatum)


# -- scripted CLI session ------------------------------------------------------


def test_cli_session(tmp_path, capsys):
    def run(*argv):
        code = main(list(argv))
        capsys.readouterr()
        return code

    ell = tmp_path / "ell.json"
    kummer = tmp_path / "kummer.json"
    bad = tmp_path / "bad.json"
    cert = tmp_path / "cert.json"
    mixed = tmp_path / "mixed.json"
    back = tmp_path / "back.json"

    session = [
        (("catalog", "--list"), 0),
        (("catalog", "--name", "elliptic_orbit", "--output", str(ell)), 0),
        (("check-orbit", "--input", str(ell)), 0),
        (("catalog", "--name", "kummer_i", "--output", str(kummer)), 0),
        (("check-mhs", "--input", str(kummer)), 0),
        (("monodromy", "--input", str(ell)), 0),
        (("rel-monodromy", "--input", str(kummer)), 0),
        (("embed", "--input", str(kummer), "--output", str(cert)), 0),
        (("verify-certificate", "--input", str(cert)), 0),
        (("catalog", "--name", "elliptic_orbit_flipped", "--output", str(bad)), 0),
        (("check-orbit", "--input", str(bad)), 1),
        (("orbit-to-mixed", "--input", str(ell), "--output", str(mixed)), 0),
        (("mixed-to-orbit", "--input", str(mixed), "--output", str(back)), 0),
        (("prop44", "--input", str(ell)), 0),
        (("check-mhs", "--input", str(ell)), 2),  # wrong document kind
    ]
    for argv, want in session:
        assert run(*argv) == want, argv


def test_cli_structured_reports_are_deterministic(tmp_path, capsys):
    ell = tmp_path / "e.json"
    main(["catalog", "--name", "elliptic_orbit", "--output", str(ell)])
    capsys.readouterr()
    main(["check-orbit", "--input", str(ell), "--report", "structured"])
    first = capsys.readouterr().out
    main(["check-orbit", "--input", str(ell), "--report", "structured"])
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)  # valid JSON


def test_cli_random_catalog_entry(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["catalog", "--name", "random-mhs", "--seed", "3", "--output", str(out)]) == 0
    capsys.readouterr()
    obj = docio.parse(out.read_text())
    assert isinstance(obj, HodgeDatum)


def test_cli_flag_validation(capsys):
    assert main(["check-orbit", "--input", "/nonexistent/x.json"]) == 2
    capsys.readouterr()


# -- unreadable documents ------------------------------------------------------


def _assert_usage_error(argv, capsys, reason):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err, err


def test_non_utf8_input_file_is_an_error_not_a_verdict(tmp_path, capsys):
    path = tmp_path / "kummer.json"
    path.write_bytes(docio.serialize(gen_kummer(GaussScalar(0, 1))).encode("utf-16"))
    assert path.read_bytes()[:2] == b"\xff\xfe"
    _assert_usage_error(["check-mhs", "--input", str(path)], capsys, "can't decode byte 0xff")


def test_non_utf8_stdin_is_an_error_not_a_verdict(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), encoding="utf-8"))
    _assert_usage_error(["check-mhs"], capsys, "can't decode byte 0xff")


def test_directory_as_input_or_output_is_an_error_not_a_defect(tmp_path, capsys):
    _assert_usage_error(["check-mhs", "--input", str(tmp_path)], capsys, "Is a directory")
    kummer = tmp_path / "kummer.json"
    kummer.write_text(docio.serialize(gen_kummer(GaussScalar(0, 1))))
    _assert_usage_error(["embed", "--input", str(kummer), "--output", str(tmp_path)], capsys, "Is a directory")


# -- one pairing per weight ----------------------------------------------------


def _negated(pairing):
    neg = lambda x: [[-x[0][0], x[0][1]], [-x[1][0], x[1][1]]]
    m = pairing["matrix"]
    return {**pairing, "matrix": {**m, "entries": [[neg(x) for x in row] for row in m["entries"]]}}


def test_a_weight_paired_twice_is_rejected_in_either_order(tmp_path, capsys):
    doc = json.loads(docio.serialize(catalog_by_name("kummer_i").build()))
    (bottom,) = [p for p in doc["pairings"] if p["weight"] == -2]
    path = tmp_path / "twice.json"
    for extra in (bottom, _negated(bottom)):
        for pairings in (doc["pairings"] + [extra], [extra] + doc["pairings"]):
            text = json.dumps({**doc, "pairings": pairings})
            with pytest.raises(docio.ValidationError, match="more than one pairing at weight -2"):
                docio.parse(text)
            path.write_text(text)
            _assert_usage_error(["check-mhs", "--input", str(path)], capsys, "more than one pairing at weight -2")


def test_a_second_global_pairing_is_rejected(tmp_path, capsys):
    doc = json.loads(docio.serialize(orbit_to_mixed(gen_elliptic_orbit())))
    (glob,) = [p for p in doc["pairings"] if p["weight"] == "global"]
    for extra in (glob, _negated(glob)):
        text = json.dumps({**doc, "pairings": doc["pairings"] + [extra]})
        with pytest.raises(docio.ValidationError, match="more than one global pairing"):
            docio.parse(text)
        path = tmp_path / "paired.json"
        path.write_text(text)
        _assert_usage_error(["mixed-to-orbit", "--input", str(path)], capsys, "more than one global pairing")


def test_verify_certificate_rejects_tampering(tmp_path, capsys):
    from hodgeorbit.construct import embed_general

    cert = embed_general(gen_kummer(GaussScalar(0, 1)))
    doc = json.loads(docio.serialize_certificate(cert))
    # tamper with the injection map
    doc["map"]["entries"][0][0] = [[7, 1], [0, 1]]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-certificate", "--input", str(path)]) == 1
    capsys.readouterr()


# -- malformed certificate documents ---------------------------------------------


@pytest.fixture(scope="module")
def kummer_certificates():
    from hodgeorbit.construct import embed_general, surject_from_pure

    h = gen_kummer(GaussScalar(0, 1))
    return {
        "embedding": json.loads(docio.serialize_certificate(embed_general(h))),
        "surjection": json.loads(docio.serialize_certificate(surject_from_pure(h))),
    }


def _without(doc, key):
    doc = dict(doc)
    del doc[key]
    return doc


def _with_operators(doc, side, operators):
    doc = json.loads(json.dumps(doc))
    doc[side]["operators"] = operators
    return doc


def _drop_last_row(m):
    return {**m, "entries": m["entries"][:-1], "rows": m["rows"] - 1}


MALFORMED = {
    "not_an_object": ("embedding", lambda d: [d], "must be a JSON object"),
    "missing_source": ("embedding", lambda d: _without(d, "source"), "missing 'source'"),
    "missing_target": ("embedding", lambda d: _without(d, "target"), "missing 'target'"),
    "missing_map": ("surjection", lambda d: _without(d, "map"), "missing 'map'"),
    "swapped_sides": ("embedding", lambda d: {**d, "source": d["target"], "target": d["source"]}, "wrong data kinds"),
    "surjection_kinds": ("surjection", lambda d: {**d, "source": d["target"], "target": d["source"]}, "wrong data kinds"),
    "target_without_operators": ("embedding", lambda d: _with_operators(d, "target", []), "one operator more"),
    "source_without_operators": ("surjection", lambda d: _with_operators(d, "source", []), "one operator more"),
    "shear_not_integer": ("embedding", lambda d: {**d, "shear": "x"}, "shear must be an integer"),
    "shear_boolean": ("embedding", lambda d: {**d, "shear": True}, "shear must be an integer"),
    "map_shape": ("embedding", lambda d: {**d, "map": _drop_last_row(d["map"])}, "map of shape"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_certificates_exit_2_with_a_named_reason(name, kummer_certificates, tmp_path, capsys):
    kind, mutate, reason = MALFORMED[name]
    text = json.dumps(mutate(kummer_certificates[kind]))
    with pytest.raises(docio.ValidationError, match=reason):
        docio.parse_certificate(text)
    path = tmp_path / "cert.json"
    path.write_text(text)
    assert main(["verify-certificate", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ([1], {}), ids=repr)
def test_certificate_kind_of_the_wrong_json_kind_exits_2(kind, kummer_certificates, tmp_path, capsys):
    text = json.dumps({**kummer_certificates["embedding"], "kind": kind})
    with pytest.raises(docio.ParseError, match="unknown certificate kind"):
        docio.parse_certificate(text)
    path = tmp_path / "cert.json"
    path.write_text(text)
    assert main(["verify-certificate", "--input", str(path)]) == 2
    assert "unknown certificate kind" in capsys.readouterr().err


# -- integer fields of datum documents ---------------------------------------------


def _mutated(obj, path, value) -> str:
    """The document of obj with the value at path replaced."""
    doc = json.loads(docio.serialize(obj))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(doc)


INTEGER_FIELDS = {
    "dim": ("kummer_i", ("dim",)),
    "twist_tag": ("kummer_i", ("twist_tag",)),
    "filtration index 'k'": ("kummer_i", ("weight_filtration", 0, "k")),
    "filtration index 'p'": ("kummer_i", ("hodge_filtration", 0, "p")),
    "pairing weight": ("kummer_i", ("pairings", 0, "weight")),
    "pairing twist": ("kummer_i", ("pairings", 0, "twist")),
    "pairing symmetry": ("kummer_i", ("pairings", 0, "symmetry")),
    "weight": ("elliptic_orbit", ("weight",)),
}
NOT_INTEGERS = ("x", [1], None, 2.5, True)


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_integer_fields_accept_only_json_integers(field, value, tmp_path, capsys):
    from hodgeorbit.catalog import catalog_by_name

    name, path = INTEGER_FIELDS[field]
    text = _mutated(catalog_by_name(name).build(), path, value)
    with pytest.raises(docio.ValidationError, match=f"^{field} must be an integer"):
        docio.parse(text)
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(text)
    command = "check-mhs" if name == "kummer_i" else "check-orbit"
    assert main([command, "--input", str(doc_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field} must be an integer" in err and "Traceback" not in err


# -- fields of the wrong JSON kind ---------------------------------------------------


WRONG_KINDS = {
    "pairings entry must be an object": (("pairings",), [1]),
    "pairings must be a list": (("pairings",), 5),
    "weight_filtration step must be an object": (("weight_filtration",), [1]),
    "weight_filtration must be a list": (("weight_filtration",), 5),
    "operators must be a list": (("operators",), 5),
    "matrix entries must be a list": (("operators", 0, "entries"), 5),
    "matrix row must be a list": (("operators", 0, "entries", 0), 5),
    # Read as the 1 it replaces before booleans were refused.
    "booleans are not integers": (("pairings", 0, "matrix", "entries", 0, 0), [[True, 1], [0, 1]]),
}


@pytest.mark.parametrize("reason", sorted(WRONG_KINDS))
def test_fields_of_the_wrong_kind_exit_2_with_a_named_reason(reason, tmp_path, capsys):
    path, value = WRONG_KINDS[reason]
    text = _mutated(gen_kummer(GaussScalar(0, 1)), path, value)
    with pytest.raises(docio.ParseError, match=reason):
        docio.parse(text)
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(text)
    assert main(["check-mhs", "--input", str(doc_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, name, index",
    [
        ("rel-monodromy", "kummer_i", -2),
        ("rel-monodromy", "kummer_i", -1),
        ("rel-monodromy", "kummer_i", 7),
        ("monodromy", "elliptic_orbit", -3),
        ("monodromy", "elliptic_orbit", -1),
        ("monodromy", "elliptic_orbit", 2),
    ],
)
def test_operator_index_out_of_range_exits_2(command, name, index, tmp_path, capsys):
    # A negative index once escaped main as an IndexError (exit 1, read as
    # "refuted") or silently counted from the end.
    path = tmp_path / "doc.json"
    path.write_text(docio.serialize(catalog_by_name(name).build()))
    assert main([command, "--input", str(path), "--op-index", str(index)]) == 2
    err = capsys.readouterr().err
    assert err == "error: operator index out of range\n"


@pytest.mark.parametrize(
    "command, code, err",
    [
        ("prop44", 2, "error: prop44 needs an orbit document with at least one operator\n"),
        ("orbit-to-mixed", 1, "refuted: orbit datum has no designated operator\n"),
    ],
)
def test_orbit_document_without_operators(command, code, err, tmp_path, capsys):
    # prop44 once escaped main here as an IndexError (exit 3).
    doc = json.loads(docio.serialize(gen_elliptic_orbit()))
    doc["operators"] = []
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--input", str(path)]) == code
    assert capsys.readouterr().err == err


def test_internal_error_exits_3_without_a_traceback(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken invariant")

    monkeypatch.setattr(cli, "check_pure_orbit", broken)
    path = tmp_path / "orbit.json"
    path.write_text(docio.serialize(gen_elliptic_orbit()))
    assert main(["check-orbit", "--input", str(path)]) == cli.EXIT_INTERNAL == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: broken invariant\n"


# -- one parser per process ------------------------------------------------------


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    for _ in range(5):
        assert main(["catalog", "--list"]) == 0
    assert main(["check-mhs", "--grid"]) == 2
    assert built == [1]
    capsys.readouterr()


@pytest.mark.parametrize(
    "first, second",
    [
        (["check-mhs", "--grid", "4"], ["check-mhs"]),
        (["check-mhs", "--report", "structured"], ["check-mhs", "--report", "text"]),
        (["check-mhs", "--report", "structured"], ["check-mhs"]),
        (["rel-monodromy", "--op-index", "1"], ["rel-monodromy"]),
        (["monodromy", "--op-index", "1", "--seed", "4"], ["monodromy"]),
        (["embed", "--output", "c.json"], ["embed"]),
        (["catalog", "--list"], ["catalog", "--name", "kummer_i"]),
    ],
)
def test_options_do_not_leak_between_calls(first, second, monkeypatch):
    seen = []
    for name in ("cmd_check_mhs", "cmd_monodromy", "cmd_rel_monodromy", "cmd_embed", "cmd_catalog"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(vars(args)) or 0)
    for argv in (first, second, first):
        assert main(argv) == 0
    # Each call sees exactly what a parser of its own would give it.
    assert seen == [vars(cli.build_parser().parse_args(argv)) for argv in (first, second, first)]


def test_each_call_reports_in_its_own_format(tmp_path, capsys):
    path = tmp_path / "kummer.json"
    path.write_text(docio.serialize(catalog_by_name("kummer_i").build()))
    outputs = []
    for report in ("structured", "text", "structured"):
        assert main(["check-mhs", "--input", str(path), "--report", report]) == 0
        outputs.append(capsys.readouterr().out)
    assert main(["check-mhs", "--input", str(path)]) == 0
    outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[2] and outputs[1] == outputs[3]
    json.loads(outputs[0])
    assert outputs[1].startswith("evidence:\n")


def test_a_reused_parser_still_answers_help_and_usage_errors(capsys):
    assert main(["catalog", "--list"]) == 0  # the parser exists from here on
    for argv in (["--help"], ["check-mhs", "--help"], ["verify-certificate", "-h"]):
        assert main(argv) == 0
        assert "usage: hodgeorbit" in capsys.readouterr().out
    for argv in ([], ["no-such-command"], ["check-mhs", "--grid"], ["monodromy", "--op-index", "x"]):
        assert main(argv) == 2
        assert "usage: hodgeorbit" in capsys.readouterr().err
    assert main(["catalog", "--list"]) == 0
