"""The CLI's help texts and usage errors, byte for byte.

``data/cli_help.json`` holds ``surfpos --help``, ``surfpos <cmd> --help``
for each of the twelve subcommands, and three usage errors, as printed
with ``COLUMNS=80`` (Python 3.11) by the parser that gave every subcommand
its arguments up front.  The parser now gives arguments only to the
subcommand being run, and that did not change these texts.  Only
``polygon`` and ``infinitesimal`` take ``--svg`` and ``--csv``; the help of
the nine other subcommands that took them unread, and the ``zariski`` usage
error, were regenerated without them.  No other text may change."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from surfpos.cli import main

TEXTS = json.loads((Path(__file__).parent / "data" / "cli_help.json")
                   .read_text(encoding="utf-8"))


def run_exit(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as e:
        main(argv)
    out, err = capsys.readouterr()
    return e.value.code, out, err


def test_fixture_covers_every_subcommand():
    assert len(TEXTS["help"]) == 13
    assert set(TEXTS["usage_errors"]) == {
        "zariski --model builtin:p2", "frobnicate", ""}


@pytest.mark.parametrize("argv", list(TEXTS["help"]))
def test_help_text(argv, monkeypatch, capsys):
    assert run_exit(argv.split(), monkeypatch, capsys) \
        == (0, TEXTS["help"][argv], "")


@pytest.mark.parametrize("argv", list(TEXTS["usage_errors"]))
def test_usage_error(argv, monkeypatch, capsys):
    assert run_exit(argv.split(), monkeypatch, capsys) \
        == (2, "", TEXTS["usage_errors"][argv])


def test_svg_and_csv_only_where_a_polygon_is_drawn(monkeypatch, capsys,
                                                   tmp_path):
    """zariski draws nothing, so --svg is a usage error, not an option it
    ignores."""
    target = tmp_path / "z.svg"
    code, out, err = run_exit(["zariski", "--model", "builtin:p2",
                               "--divisor", "H", "--svg", str(target)],
                              monkeypatch, capsys)
    assert code == 2 and out == ""
    assert err.endswith(f"unrecognized arguments: --svg {target}\n")
    assert not target.exists()
