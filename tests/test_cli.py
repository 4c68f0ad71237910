import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

import surfpos as sp
from surfpos.cli import main, parse_divisor
from surfpos.errors import ParseError, UnknownSymbol


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_parse_divisor_basic():
    p2 = sp.builtin("p2")
    assert parse_divisor("3H", p2) == (Fraction(3),)
    assert parse_divisor("H", p2) == (Fraction(1),)
    b1 = sp.builtin("bl1p2")
    assert parse_divisor("2H - 3/2*E", b1) == (Fraction(2), Fraction(-3, 2))
    assert parse_divisor("2H-3/2E", b1) == (Fraction(2), Fraction(-3, 2))
    assert parse_divisor("-H + 2E", b1) == (Fraction(-1), Fraction(2))
    # curve names resolve to classes
    assert parse_divisor("F + E", b1) == (Fraction(1), Fraction(0))


def test_parse_divisor_errors():
    b1 = sp.builtin("bl1p2")
    with pytest.raises(ParseError) as e:
        parse_divisor("2H ++ E", b1)
    assert e.value.offset == 3
    with pytest.raises(UnknownSymbol):
        parse_divisor("2H + Z", b1)
    with pytest.raises(ParseError):
        parse_divisor("", b1)
    with pytest.raises(ParseError):
        parse_divisor("2/0H", b1)
    with pytest.raises(ParseError):
        parse_divisor("H + ", b1)
    with pytest.raises(ParseError):
        parse_divisor("2*", b1)
    # whitespace-insensitive: "H E" collapses to one unknown name
    with pytest.raises(UnknownSymbol):
        parse_divisor("H E", b1)


def test_cli_polygon_p2():
    code, out, err = run_cli(["polygon", "--model", "builtin:p2",
                              "--divisor", "H", "--flag-curve", "L",
                              "--point", "generic", "--json", "-"])
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == [["0", "0"], ["1", "0"], ["0", "1"]]
    assert doc["area"] == "1/2"
    assert doc["lambda"] == "1"
    assert doc["origin_in"] is True


def test_cli_infinitesimal_example():
    code, out, err = run_cli(["infinitesimal", "--model",
                              "builtin:example-interesting-base",
                              "--divisor", "H", "--y", "on:E2",
                              "--json", "-"])
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == [["0", "0"], ["2", "1"], ["1", "1"]]
    assert set(map(tuple, doc["vertices"])) == {("0", "0"), ("1", "1"),
                                                ("2", "1")}
    assert doc["mu_prime"] == "2"
    assert doc["xi"] == "0"


@pytest.mark.parametrize("argv, error, message", [
    (["--divisor", "E1"], "not-big", "polygon needs a big class"),
    (["--divisor", "3H-E1-E2-E3", "--y", "on:L12"],
     "inconsistent-multiplicities",
     "L12 does not meet the exceptional curve with multiplicity 1"),
], ids=["not-big", "bad-y"])
def test_cli_infinitesimal_reports_the_polygon_error(argv, error, message):
    """With no polygon, the error is the polygon's, not xi's."""
    code, out, err = run_cli(["infinitesimal", "--model", "builtin:bl3p2"]
                             + argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": error, "message": message}


def test_cli_genericbound():
    code, out, err = run_cli(["genericbound", "--deg", "5", "--target", "2",
                              "--exclude-q1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True and doc["witnesses"] == []


def test_cli_zariski_and_loci():
    code, out, _ = run_cli(["zariski", "--model",
                            "builtin:example-interesting",
                            "--divisor", "2E1 + E2 + E3 - 1/2*E1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["N"] == {"E2": "1/4"}
    assert doc["P"] == ["3/2", "3/4", "1"]
    assert doc["volume"] == "7/8"
    code2, out2, _ = run_cli(["loci", "--model", "builtin:bl1p2",
                              "--divisor", "H"])
    doc2 = json.loads(out2)
    assert doc2 == {"neg": [], "null": ["E"], "relative": False}


@pytest.mark.parametrize("model,divisor", [
    ("bl1p2", "H - E"),         # nef, volume 0: pseudo-effective, not big
    ("bl2p2", "H - E1 - E2"),   # a (-1)-curve: volume 0
    ("bl1p2", "3H - E"),
    ("bl3p2", "3H + E1 - E2 - E3"),  # big, with E1 in its negative part
])
def test_cli_zariski_big_and_volume_agree_with_library(model, divisor):
    m = sp.builtin(model)
    d = parse_divisor(divisor, m)
    code, out, _ = run_cli(["zariski", "--model", f"builtin:{model}",
                            "--divisor", divisor])
    assert code == 0
    doc = json.loads(out)
    assert doc["big"] == sp.is_big(m, d)
    assert Fraction(doc["volume"]) == sp.volume(m, d)


def test_cli_seshadri_commands():
    code, out, _ = run_cli(["seshadri", "--model", "builtin:p2",
                            "--divisor", "2H"])
    assert json.loads(out) == {"epsilon": "2"}
    code, out, _ = run_cli(["moving-seshadri", "--model", "builtin:bl1p2",
                            "--divisor", "2H - E"])
    assert json.loads(out) == {"status": "positive", "value": "1"}
    code, out, _ = run_cli(["lambda", "--model", "builtin:p2",
                            "--divisor", "H", "--flag-curve", "L",
                            "--point", "generic"])
    assert json.loads(out) == {"lambda": "1"}


def test_cli_nefcone_and_freemult():
    code, out, _ = run_cli(["nefcone", "--model",
                            "builtin:example-interesting"])
    doc = json.loads(out)
    assert sorted(map(tuple, doc["rays"])) == [(1, 0, 1), (2, 1, 1),
                                               (2, 1, 2)]
    code, out, _ = run_cli(["freemult", "--model", "builtin:bl1p2",
                            "--divisor", "3H - E"])
    assert json.loads(out) == {"m": 2}


def test_cli_check():
    code, out, _ = run_cli(["check", "--model", "builtin:bl2p2"])
    doc = json.loads(out)
    assert doc["ok"] is True


def test_cli_blowup_roundtrip(tmp_path):
    out_path = tmp_path / "bl.json"
    code, _, _ = run_cli(["blowup", "--model", "builtin:p2",
                          "--point", "generic", "--json", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["rank"] == 2 and doc["exceptional"] == "E1"
    doc.pop("exceptional")
    model = sp.models.model_from_dict(doc)
    assert model.rank == 2


def test_cli_domain_error_json():
    code, out, err = run_cli(["zariski", "--model", "builtin:bl1p2",
                              "--divisor", "H - 2E"])
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "not-pseudo-effective"
    code2, _, err2 = run_cli(["polygon", "--model", "builtin:p2",
                              "--divisor", "H ++ L", "--flag-curve", "L"])
    assert code2 == 1
    assert json.loads(err2)["error"] == "parse-error"
    code3, _, err3 = run_cli(["zariski", "--model", "builtin:nonsense",
                              "--divisor", "H"])
    assert code3 == 1
    assert json.loads(err3)["error"] == "unknown-model"
    code4, _, err4 = run_cli(["check", "--model", "builtin:hirzebruch-1_0"])
    assert code4 == 1
    assert json.loads(err4)["error"] == "unknown-model"


def _example_doc_with_mult(mult):
    from surfpos.models import model_to_dict
    doc = model_to_dict(sp.builtin("example-interesting"))
    doc["points"]["E1-on-E2"]["local_mults"]["E2"] = mult
    return doc


def _bl2p2_doc_with_r(r):
    from surfpos.models import model_to_dict
    doc = model_to_dict(sp.builtin("bl2p2"))
    doc["metadata"] = {"family": "del-pezzo", "r": r}
    return doc


def _bl2p2_doc(**fields):
    from surfpos.models import model_to_dict
    return {**model_to_dict(sp.builtin("bl2p2")), **fields}


def _example_doc_with_local_mults(local_mults):
    doc = _example_doc_with_mult(1)
    doc["points"]["E1-on-E2"]["local_mults"] = local_mults
    return doc


def _bl2p2_doc_with_is_rational(value):
    doc = _bl2p2_doc()
    doc["curves"][0]["is_rational"] = value
    return doc


def _bl2p2_doc_with_generic_point(value):
    doc = _bl2p2_doc()
    doc["points"]["generic"]["generic"] = value
    return doc


def _bl2p2_doc_with_generic_point_on(curve):
    """bl2p2 with its generic point, still declared generic, on ``curve``."""
    doc = _bl2p2_doc_with_generic_point(True)
    doc["points"]["generic"]["local_mults"] = {curve: 1}
    return doc


BAD_MULT = ["moving-seshadri", "--model", "builtin:bl3p2", "--divisor",
            "3H-E1-E2-E3", "--point"]
FLAG_POINT = ["polygon", "--model", "builtin:bl3p2", "--divisor",
              "3H-E1-E2-E3+L12", "--flag-curve", "E1", "--point"]
# a flag a file gives as anything but JSON true or false (or null, for a
# curve's is_rational) is a schema error, not read by its truthiness
NOT_A_BOOL = [
    (["zariski", "--divisor", "H", "--model"], _bl2p2_doc(complete="false")),
    (["zariski", "--divisor", "H", "--model"], _bl2p2_doc(complete=None)),
    (["check", "--model"], _bl2p2_doc(ample_is_ample=1)),
    (["check", "--model"], _bl2p2_doc_with_generic_point("true")),
    (["check", "--model"], _bl2p2_doc_with_is_rational("true")),
    (["check", "--model"], _bl2p2_doc_with_is_rational(0)),
    (FLAG_POINT, {"generic": "false"}),
    (["blowup", "--model", "builtin:bl2p2", "--point"],
     {"mults": {"E1": 1}, "extra_complete": "true"}),
    (["blowup", "--model", "builtin:bl2p2", "--point"],
     {"mults": {"E1": 1}, "extra_complete": 0}),
]
NOT_A_BOOL_IDS = [
    "model-complete-string", "model-complete-null",
    "model-ample-is-ample-1", "model-point-generic-string",
    "model-is-rational-string", "model-is-rational-0",
    "point-generic-string", "extra-complete-string", "extra-complete-0"]
# a point declared generic lies on no listed curve but its flag curve
GENERIC_ON_A_CURVE = (FLAG_POINT, {"on_curve": "E1",
                                   "local_mults": {"L12": 1},
                                   "generic": True})
MODEL_GENERIC_ON_A_CURVE = (["check", "--model"],
                            _bl2p2_doc_with_generic_point_on("L12"))
# no point of E1 has multiplicity 3, on Neg(H + E1) or on Null(H)
MULT_3_IN_NEG, MULT_3_IN_NULL = (
    (["moving-seshadri", "--model", "builtin:bl2p2", "--divisor", d,
      "--point"], {"mults": {"E1": 3}}) for d in ("H+E1", "H"))


@pytest.mark.parametrize("argv, spec", [
    (["polygon", "--model", "builtin:bl3p2", "--divisor", "3H-E1",
      "--flag-curve", "E1", "--point"], "{not json"),
    (BAD_MULT, {"mults": {"E1": "1/2"}}),
    (BAD_MULT, {"mults": {"E1": 1.5}}),
    (BAD_MULT, {"mults": {"E1": 0.9}}),
    (["polygon", "--model", "builtin:bl3p2", "--divisor", "3H-E1",
      "--flag-curve", "E1", "--point"],
     {"on_curve": "E1", "local_mults": {"L12": 1.5}, "generic": False}),
    (["polygon", "--divisor", "2E1+E2+E3", "--flag-curve", "E1", "--point",
      "named:E1-on-E2", "--model"], _example_doc_with_mult(1.5)),
    (["infinitesimal", "--model", "builtin:bl1p2", "--divisor", "H",
      "--point"], {"mults": {"E": 1}, "extra_curves": [{"class": [1, -1, -1]}],
                   "extra_complete": True}),
    (["genericbound", "--deg", "abc", "--target", "1"], None),
    (["genericbound", "--deg", "5", "--target", "1/0"], None),
    (["blowup", "--model"], _bl2p2_doc_with_r("abc")),
    (FLAG_POINT, {"local_mults": {"L12": 3}}),
    (FLAG_POINT, {"local_mults": {"E9": 1}}),
    (FLAG_POINT, {"on_curve": "E2"}),
    (FLAG_POINT, {"local_mults": {"L12": -1}}),
    (["zariski", "--model", "builtin:bl3p2", "--divisor", "2/H"], None),
    (["zariski", "--model", "builtin:bl3p2", "--divisor", "H/"], None),
    (["infinitesimal", "--model", "builtin:bl3p2", "--divisor",
      "3H-E1-E2-E3", "--y", "bogus"], None),
    (["zariski", "--model", "builtin:bl3p2", "--divisor", "1" * 5000 + "H"],
     None),
    (BAD_MULT, b'{"mults": {"E1": "\xff"}}'),
    (["zariski", "--divisor", "H", "--model"], b"\xfe\xff"),
    (BAD_MULT, '{"mults": {"E1": 1' + "0" * 5000 + "}}"),
    (["zariski", "--divisor", "H", "--model"], '{"rank": ' + "3" * 4400 + "}"),
    (BAD_MULT, "[" * 100000),
    (["zariski", "--divisor", "H", "--model"], _bl2p2_doc(points=["generic"])),
    (["zariski", "--divisor", "H", "--model"], _bl2p2_doc(metadata=[])),
    (["zariski", "--divisor", "E1", "--model"],
     _example_doc_with_local_mults([])),
    (["blowup", "--model", "builtin:bl2p2", "--point"],
     {"exceptional_name": ["F"]}),
    (["blowup", "--model", "builtin:bl2p2", "--point"],
     {"exceptional_name": 7}),
    (["blowup", "--model", "builtin:bl2p2", "--point"],
     {"mults": {"E1": 1}, "extra_curves": [
         {"name": "T", "class": [int("7" * 4290), -1, 0, -1]}]}),
    (["zariski", "--divisor", "H", "--model"],
     _bl2p2_doc(ample=["1e999999999", "-1", "-1"])),
    (BAD_MULT, {"mults": {"E1": "1e999999999"}}),
    (["blowup", "--model"], _bl2p2_doc_with_r("1e999999999")),
    (["genericbound", "--deg", "1e999999999", "--target", "1"], None),
    (["moving-seshadri", "--model", "builtin:bl2p2", "--divisor", "3H-E1-E2",
      "--point"], {"mults": {"E1": 3}}),
    (["infinitesimal", "--model", "builtin:bl2p2", "--divisor", "3H-E1-E2",
      "--point"], {"mults": {"E1": 10**17}}),
    (["infinitesimal", "--model", "builtin:bl2p2", "--divisor", "3H-E1-E2",
      "--point"], {"mults": {"E1": 1}, "extra_curves": [
          {"name": "T", "class": [1, -1, 0, -17 * 10**15]}]}),
    (["moving-seshadri", "--model", "builtin:bl2p2", "--divisor", "3H-E1-E2",
      "--point"], {"mults": {"E1": 1}, "extra_curves": [
          {"name": "T", "class": [1, -1, 0, -17 * 10**15]}]}),
    MULT_3_IN_NEG, MULT_3_IN_NULL,
    (["zariski", "--divisor", "H", "--model"], _bl2p2_doc(
        effective_generators=[["0", "1", "0"], ["0", "0", "1"], ["1", "-1"]])),
    (["zariski", "--divisor", "H", "--model"], _bl2p2_doc(
        effective_generators=[["0", "1", "0"], ["0", "0", "1"],
                              ["1", "-1", "-1", "0"]])),
    (["check", "--model"], _bl2p2_doc(canonical=["-3", "1"])),
    (["blowup", "--model"], _bl2p2_doc(canonical=["-3", "1"])),
    (["check", "--model"], _bl2p2_doc(generic_families=[
        {"class": ["1", "0"], "mult": 1, "name_hint": "L"}])),
    (["check", "--model"], _bl2p2_doc(generic_families=[
        {"class": ["1", "0", "0", "5"], "mult": 1, "name_hint": "L"}])),
    (["check", "--model"], _bl2p2_doc(generic_families=[
        {"class": ["1", "0", "0"], "mult": 0, "name_hint": "L"}])),
    (["check", "--model"], _bl2p2_doc(generic_families=[
        {"class": ["1", "0", "0"], "mult": -2, "name_hint": "L"}])),
    GENERIC_ON_A_CURVE, MODEL_GENERIC_ON_A_CURVE,
    *NOT_A_BOOL,
], ids=["point-not-json", "mult-string", "mult-1.5", "mult-0.9",
        "local-mult-1.5", "model-local-mult-1.5", "extra-curve-no-name",
        "deg-abc", "target-1/0", "model-r-abc", "local-mult-above-global",
        "local-mult-unknown-curve", "point-off-flag-curve",
        "local-mult-negative", "divisor-no-denominator",
        "divisor-trailing-slash", "y-bogus", "divisor-5000-digits",
        "point-not-utf8", "model-not-utf8", "point-number-5001-digits",
        "model-number-4400-digits", "point-nested-100000-deep",
        "model-points-list", "model-metadata-list", "model-local-mults-list",
        "exceptional-name-list", "exceptional-name-7",
        "result-too-long-to-write", "model-ample-exponent",
        "point-mult-exponent", "model-r-exponent", "deg-exponent",
        "mult-3-on-a-smooth-rational-curve", "mult-10^17",
        "extra-curve-negative-genus", "extra-curve-negative-genus-seshadri",
        "mult-3-seshadri-in-neg", "mult-3-seshadri-in-null",
        "model-generator-short", "model-generator-long",
        "model-canonical-short-check", "model-canonical-short-blowup",
        "model-family-short", "model-family-long", "model-family-mult-0",
        "model-family-mult-minus-2", "point-generic-on-a-curve",
        "model-point-generic-on-a-curve", *NOT_A_BOOL_IDS])
def test_cli_malformed_input_is_a_json_error(tmp_path, argv, spec):
    """Malformed input files and arguments exit 1 with a JSON error object;
    an exception escaping main() would fail the test instead.  A mult of
    1.5 or 0.9, in a spec or a model file, is an error, not a point of
    multiplicity 1 or 0.  A number in exponent notation is refused as it
    is read, not expanded to all its digits.  No point of the smooth
    rational curve E1 has multiplicity 3 or 10^17, and no curve has a class
    of negative arithmetic genus (adjunction).  A model's canonical class
    and declared generators are refused on load unless they have rank
    entries."""
    if spec is not None:
        path = tmp_path / "spec.json"
        if isinstance(spec, bytes):
            path.write_bytes(spec)
        else:
            path.write_text(
                spec if isinstance(spec, str) else json.dumps(spec))
        argv = argv + [str(path)]
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert "error" in json.loads(err.strip().splitlines()[-1])


def _run_with_spec(tmp_path, argv, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return run_cli(argv + [str(path)])


@pytest.mark.parametrize("argv, spec", NOT_A_BOOL, ids=NOT_A_BOOL_IDS)
def test_cli_flag_that_is_not_a_bool_is_a_schema_error(tmp_path, argv, spec):
    """bl2p2 saved with "complete": "false" loaded as complete, and a
    "generic" or "extra_complete" of "false" read as true."""
    code, _, err = _run_with_spec(tmp_path, argv, spec)
    assert code == 1
    assert json.loads(err)["error"] == "schema-error"


@pytest.mark.parametrize("argv, spec, where", [
    (*GENERIC_ON_A_CURVE, "L12"), (*MODEL_GENERIC_ON_A_CURVE, "L12")],
    ids=["point-file", "model-file"])
def test_cli_point_declared_generic_on_a_curve_is_refused(tmp_path, argv,
                                                          spec, where):
    """A point that says it is generic but has a positive local
    multiplicity was accepted, and its polygon was the same as with
    "generic": false."""
    code, out, err = _run_with_spec(tmp_path, argv, spec)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "invariant-violation",
        "message": f"point spec: a point declared generic lies on {where}"}


def test_cli_absent_flags_take_their_defaults(tmp_path):
    """An absent flag takes its default, and a curve's is_rational may be
    null: without "complete" bl2p2 loads as incomplete, so its answer is
    marked relative."""
    doc = _bl2p2_doc_with_is_rational(None)
    del doc["complete"], doc["ample_is_ample"]
    del doc["points"]["generic"]["generic"]
    code, out, _ = _run_with_spec(
        tmp_path, ["zariski", "--divisor", "H", "--model"], doc)
    assert code == 0 and json.loads(out)["relative"] is True


@pytest.mark.parametrize("argv, spec", [MULT_3_IN_NEG, MULT_3_IN_NULL],
                         ids=["in-neg", "in-null"])
def test_cli_moving_seshadri_refuses_a_point_no_point_has(tmp_path, argv,
                                                          spec):
    """The point is checked before the class's loci are read."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(argv + [str(path)])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "inconsistent-multiplicities"


@pytest.mark.parametrize("divisor, offset, expected", [
    ("2/H", 2, "denominator"),
    ("H/", 1, "'+' or '-'"),
    ("2/\u00b2H", 2, "denominator"),
    ("\u00b2H", 0, "name"),
    ("\u0663H", 0, "name"),
])
def test_cli_divisor_parse_error_names_offset(divisor, offset, expected):
    """A divisor that does not parse is a parse-error object with the
    offset and what was expected there.  Only ASCII digits are numbers: a
    superscript or non-Latin digit is not a name either."""
    code, out, err = run_cli(["zariski", "--model", "builtin:bl3p2",
                              "--divisor", divisor])
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "parse-error",
        "message": f"parse error at offset {offset}: expected {expected}"}


def test_cli_negative_local_mult_blames_the_point(tmp_path):
    """A negative local multiplicity in a --point file is rejected as a
    bad point, before any walk can blame the model."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"local_mults": {"L12": -1}}))
    code, out, err = run_cli(FLAG_POINT + [str(path)])
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "invariant-violation",
        "message": "point spec: bad local multiplicity for 'L12'"}


def test_cli_usage_error_exit_2():
    with pytest.raises(SystemExit) as e:
        run_cli(["polygon", "--model", "builtin:p2"])  # missing args
    assert e.value.code == 2


@pytest.mark.parametrize("argv, value, code", [
    (["zariski", "--model", "builtin:bl1p2", "--divisor"], "-E+2H", 0),
    (["zariski", "--model", "builtin:bl1p2", "--div"], "-E+2H", 0),
    (["infinitesimal", "--model", "builtin:bl3p2", "--divisor"], "-H", 1),
    (["genericbound", "--deg", "5", "--target"], "-1/2", 1),
])
def test_cli_value_may_start_with_a_minus_sign(argv, value, code):
    """After an option that takes a class or a rational, a token starting
    with a single '-' is the value, exactly as with '='."""
    got = run_cli(argv + [value])
    assert got == run_cli(argv[:-1] + [f"{argv[-1]}={value}"])
    assert got[0] == code


def test_cli_missing_value_before_an_option_is_a_usage_error():
    with pytest.raises(SystemExit) as e:
        run_cli(["zariski", "--model", "builtin:bl1p2", "--divisor",
                 "--json"])
    assert e.value.code == 2


def test_cli_deterministic_outputs():
    argvs = [
        ["polygon", "--model", "builtin:example-interesting", "--divisor",
         "2E1+E2+E3", "--flag-curve", "E1", "--point", "named:E1-on-E2"],
        ["zariski", "--model", "builtin:bl2p2", "--divisor", "3H-E1-E2"],
        ["nefcone", "--model", "builtin:bl2p2"],
        ["genericbound", "--deg", "5", "--target", "21/10", "--exclude-q1"],
    ]
    for argv in argvs:
        runs = [run_cli(argv) for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0


def test_cli_quadratic_irrational_serialization(tmp_path):
    from fractions import Fraction as F
    from surfpos.lattice import CurveRecord, SurfaceModel
    model = SurfaceModel(
        rank=2, basis_labels=("H", "C"), gram=((2, 1), (1, -1)),
        curves=(CurveRecord(name="C", cls=(0, 1), self_int=-1),),
        ample_ref=(F(1), F(0)),
        effective_generators=((F(0), F(1)), (F(1), F(0))),
        completeness_declared=False, points={}, metadata={})
    path = tmp_path / "round.json"
    sp.save(model, path)
    code, out, _ = run_cli(["polygon", "--model", str(path), "--divisor",
                            "H", "--flag-curve", "C", "--point", "generic"])
    assert code == 0
    doc = json.loads(out)
    # mu = sqrt(3) - 1 serializes exactly with a non-authoritative float
    assert doc["mu"] == {"a": "-1", "b": "1", "d": "3",
                         "approx": 3 ** 0.5 - 1}
    assert doc["area"] == "1"
    csv = tmp_path / "round.csv"
    run_cli(["polygon", "--model", str(path), "--divisor", "H",
             "--flag-curve", "C", "--point", "generic",
             "--json", str(tmp_path / "r.json"), "--csv", str(csv)])
    assert "-1+1*sqrt(3)" in csv.read_text()


def test_cli_svg_and_csv(tmp_path):
    svg = tmp_path / "poly.svg"
    csv = tmp_path / "poly.csv"
    code, out, _ = run_cli(["polygon", "--model",
                            "builtin:example-interesting",
                            "--divisor", "2E1+E2+E3", "--flag-curve", "E1",
                            "--point", "named:E1-on-E2",
                            "--json", str(tmp_path / "p.json"),
                            "--svg", str(svg), "--csv", str(csv)])
    assert code == 0
    assert svg.read_text().startswith("<svg")
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t_lo,t_hi,alpha0,alpha1,beta0,beta1,support"
    assert lines[1] == "0,1,0,1/2,0,1,E2"
    assert lines[2] == "1,2,0,1/2,1,0,E2;E3"
    # repeated emission is byte-identical
    svg2 = tmp_path / "poly2.svg"
    run_cli(["polygon", "--model", "builtin:example-interesting",
             "--divisor", "2E1+E2+E3", "--flag-curve", "E1",
             "--point", "named:E1-on-E2", "--json", str(tmp_path / "q.json"),
             "--svg", str(svg2)])
    assert svg.read_bytes() == svg2.read_bytes()
    # lambda = 1 > 0: the simplex (0,0), (1,0), (0,1) is drawn over it
    code, _, _ = run_cli(["polygon", "--model", "builtin:bl3p2",
                          "--divisor", "3H-E1-E2-E3", "--flag-curve", "E1",
                          "--json", str(tmp_path / "r.json"),
                          "--svg", str(svg)])
    assert code == 0
    assert json.loads((tmp_path / "r.json").read_text())["lambda"] == "1"
    assert ('<path d="M 20.000,380.000 L 200.000,380.000 L 20.000,200.000 Z"'
            ' fill="none" stroke="#e6550d"') in svg.read_text()
    # xi = 2 > 0 on the blow-up at a generic point: the inverted simplex
    # (0,0), (2,0), (2,2) is drawn over it
    files = []
    for k in range(2):
        inf_svg, inf_csv = tmp_path / f"inf{k}.svg", tmp_path / f"inf{k}.csv"
        code, _, _ = run_cli(["infinitesimal", "--model", "builtin:bl3p2",
                              "--divisor", "3H-E1-E2-E3",
                              "--json", str(tmp_path / f"inf{k}.json"),
                              "--svg", str(inf_svg), "--csv", str(inf_csv)])
        assert code == 0
        files.append((inf_svg.read_bytes(), inf_csv.read_bytes()))
    doc = json.loads((tmp_path / "inf0.json").read_text())
    assert doc["xi"] == "2" and doc["mu_prime"] == "3"
    assert ('<path d="M 20.000,380.000 L 260.000,380.000 L 260.000,140.000 Z"'
            ' fill="none" stroke="#e6550d"') in files[0][0].decode()
    assert files[0][1].decode().splitlines() == [
        "t_lo,t_hi,alpha0,alpha1,beta0,beta1,support",
        "0,2,0,0,0,1,", "2,3,0,0,6,-2,C1;C2;C3"]
    assert files[0] == files[1]
