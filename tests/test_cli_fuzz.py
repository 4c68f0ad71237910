"""Fuzz the CLI's readers of outside input (hypothesis, derandomized so
that every run draws the same examples).

Whatever the input, ``parse_divisor`` returns a class or raises a located
error, and ``cli.main`` returns 0, or 1 with a JSON error object as the
last line of stderr; argparse may exit with 2.  Files are valid documents
with one field replaced by a random JSON value, or random bytes.

The argv fuzz checks the rule for values that start with a minus sign:
after ``--divisor``, ``--deg`` or ``--target``, or an abbreviation of one,
a token that starts with one '-' is the value, read as after '=', and one
that starts with '--' stays an option.  The subcommands that draw nothing
refuse ``--svg`` and ``--csv`` wherever they stand (exit 2)."""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import surfpos as sp
from surfpos.cli import _COMMANDS, main, parse_divisor
from surfpos.errors import ParseError, UnknownSymbol
from surfpos.models import model_to_dict

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
# each example runs a whole CLI query
FILE_SETTINGS = settings(SETTINGS, max_examples=40)
BL3 = sp.builtin("bl3p2")

TOKENS = ["0", "1", "7", "10", "/", "*", "+", "-", " ", "\t", "H", "E1",
          "E3", "L12", "Q", "_", "x9", "²", "٣"]
GRAMMAR = st.lists(st.sampled_from(TOKENS), max_size=12).map("".join)
# integers around the limit of what int() converts from text
LONG_DIGITS = st.integers(4290, 4310).map(lambda n: "7" * n)


@SETTINGS
@given(st.one_of(GRAMMAR, st.text(), LONG_DIGITS.map("H-{}E1".format)))
def test_parse_divisor_gives_a_class_or_a_located_error(text):
    condensed = "".join(text.split())
    try:
        d = parse_divisor(text, BL3)
    except UnknownSymbol as e:
        assert condensed.startswith(e.name, e.offset)
    except ParseError as e:
        assert 0 <= e.offset <= len(condensed)
    else:
        assert len(d) == BL3.rank
        assert all(type(x) is Fraction for x in d)


@SETTINGS
@given(st.lists(st.builds(Fraction, st.integers(), st.integers(1, 999)),
                min_size=4, max_size=4),
       st.booleans(), st.booleans(), st.booleans())
def test_written_class_parses_back(cls, star, spaced, first_plus):
    sep = " " if spaced else ""
    text = sep.join(
        f"{'-' if q < 0 else '+'}{sep}{abs(q.numerator)}/{q.denominator}"
        f"{'*' if star else ''}{label}"
        for q, label in zip(cls, BL3.basis_labels))
    if not first_plus:
        text = text.removeprefix("+")
    assert parse_divisor(text, BL3) == tuple(cls)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6) | st.sampled_from(["E1", "H", "L12", "1/2", "-1"]),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6)
# JSON text for one field: any value, an integer longer than int() reads,
# or nesting deeper than the decoder's stack
FIELD = st.one_of(JSON.map(json.dumps), LONG_DIGITS, st.just("[" * 10**5))


def fields(doc, path=()):
    """The path of every value in a JSON document, the whole one first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from fields(value, path + (key,))


def replaced(doc, path, text: str) -> str:
    """The document as JSON text, with the value at ``path`` replaced."""
    if not path:
        return text
    doc = json.loads(json.dumps(doc))
    *parent, last = path
    holder = doc
    for key in parent:
        holder = holder[key]
    holder[last] = "@FIELD@"
    return json.dumps(doc).replace('"@FIELD@"', text)


def document(doc):
    """Files from ``doc``: one field replaced, or random bytes."""
    edits = st.tuples(st.sampled_from(list(fields(doc))), FIELD)
    return st.one_of(edits.map(lambda e: replaced(doc, *e).encode()),
                     st.binary(max_size=40))


MODEL = model_to_dict(sp.builtin("bl2p2"))
MODEL["points"]["p"] = {"on_curve": "E1", "local_mults": {"L12": 1},
                        "generic": False}
MODEL_COMMANDS = [
    ["zariski", "--divisor", "2H-E1"],
    ["polygon", "--divisor", "3H-E1-E2", "--flag-curve", "E1",
     "--point", "named:p"],
    ["check"],
]
# each command with a valid --point document for it
POINT_COMMANDS = [
    (["polygon", "--model", "builtin:bl2p2", "--divisor", "3H-E1-E2",
      "--flag-curve", "E1", "--point"],
     {"on_curve": "E1", "local_mults": {"L12": 1}, "generic": False}),
    (["blowup", "--model", "builtin:bl2p2", "--point"],
     {"mults": {"E1": 1}, "exceptional_name": "F", "renames": {"E1": "E1s"},
      "extra_complete": False,
      "extra_curves": [{"name": "T", "class": [1, -1, 0, -1]}]}),
]


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


def assert_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:
        assert e.code == 2
        return
    assert code in (0, 1)
    if code == 1:
        assert isinstance(json.loads(err.getvalue().splitlines()[-1]), dict)


@FILE_SETTINGS
@given(st.sampled_from(MODEL_COMMANDS), document(MODEL))
def test_model_file_exits_0_or_with_a_json_error(spec_path, argv, data):
    spec_path.write_bytes(data)
    assert_exit_contract([argv[0], "--model", str(spec_path), *argv[1:]])


@FILE_SETTINGS
@given(st.one_of([st.tuples(st.just(argv), document(doc))
                  for argv, doc in POINT_COMMANDS]))
def test_point_file_exits_0_or_with_a_json_error(spec_path, case):
    argv, data = case
    spec_path.write_bytes(data)
    assert_exit_contract(argv + [str(spec_path)])


def outcome(argv) -> tuple:
    """The exit code, stdout and stderr of ``main``; argparse's exit
    counts as the code."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:
        code = e.code
    return code, out.getvalue(), err.getvalue()


# an option whose value may start with '-', spelt in full or abbreviated,
# with the other arguments of its command before or after it
SIGNED_OPTIONS = [
    (["zariski", "--model", "builtin:bl1p2"], ["--divisor", "--div", "--d"]),
    (["genericbound", "--target", "1"], ["--deg", "--de"]),
    (["genericbound", "--deg", "5"], ["--target", "--targ", "--t"]),
]
SIGNED = st.sampled_from(SIGNED_OPTIONS).flatmap(
    lambda case: st.tuples(st.just(case[0]), st.sampled_from(case[1]),
                           st.booleans()))
# a token after the option, less its leading '-' or '--'
TAIL = st.one_of(GRAMMAR, st.text(max_size=8))
OPTION_TAIL = st.text("abcdejmorstv019=-/+", max_size=8)


@SETTINGS
@given(SIGNED, TAIL.filter(lambda t: not t.startswith("-")))
def test_argv_value_may_start_with_one_minus_sign(case, tail):
    """The token is the option's value, exactly as after '=': never a
    usage error, and the same bytes either way."""
    rest, option, before = case
    value = "-" + tail
    split = [option, value]
    joined = [f"{option}={value}"]
    got = outcome([rest[0], *split, *rest[1:]] if before else rest + split)
    assert got == outcome(
        [rest[0], *joined, *rest[1:]] if before else rest + joined)
    assert got[0] in (0, 1)
    if got[0] == 1:
        assert isinstance(json.loads(got[2].splitlines()[-1]), dict)


@SETTINGS
@given(SIGNED, OPTION_TAIL)
def test_argv_token_with_two_minus_signs_stays_an_option(case, tail):
    """The option is left without a value: a usage error, exit 2."""
    rest, option, _ = case
    assert outcome(rest + [option, "--" + tail])[0] == 2


DRAWS_NOTHING = [c for c, (_, opts) in _COMMANDS.items()
                 if "svg" not in opts.split()]
# a query each subcommand answers with exit 0
VALID_ARGS = {
    "zariski": "--model builtin:bl2p2 --divisor 3H-E1-E2",
    "loci": "--model builtin:bl2p2 --divisor 3H-E1-E2",
    "seshadri": "--model builtin:bl2p2 --divisor 3H-E1-E2",
    "moving-seshadri": "--model builtin:bl2p2 --divisor 3H-E1-E2",
    "lambda": "--model builtin:bl2p2 --divisor 3H-E1-E2 --flag-curve E1",
    "nefcone": "--model builtin:bl2p2",
    "freemult": "--model builtin:bl2p2 --divisor 3H-E1-E2",
    "genericbound": "--deg 5 --target 1 --exclude-q1",
    "blowup": "--model builtin:bl2p2",
    "check": "--model builtin:bl2p2",
}


def test_every_subcommand_that_draws_nothing_has_a_valid_query():
    assert sorted(DRAWS_NOTHING) == sorted(VALID_ARGS)
    assert sorted(set(_COMMANDS) - set(DRAWS_NOTHING)) == \
        ["infinitesimal", "polygon"]
    for command, args in VALID_ARGS.items():
        assert outcome([command, *args.split()])[0] == 0, command


@SETTINGS
@given(st.sampled_from(DRAWS_NOTHING), st.sampled_from(["--svg", "--csv"]),
       st.one_of(st.just("out.svg"), st.text(max_size=6)), st.data())
def test_subcommand_that_draws_nothing_refuses_svg_and_csv(
        tmp_path_factory, command, option, path, data):
    """Wherever the option stands among the others: exit 2, and no file
    is written."""
    where = tmp_path_factory.mktemp("draw")
    args = VALID_ARGS[command].split()
    # before an option of the query, or at its end
    at = data.draw(st.sampled_from(
        [i for i, a in enumerate(args) if a.startswith("--")]
        + [len(args)]))
    drawn = [option, str(where / path) if path else path]
    assert outcome([command, *args[:at], *drawn, *args[at:]])[0] == 2
    assert list(where.iterdir()) == []
