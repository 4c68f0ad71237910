"""The CLI's answers, byte for byte.

``data/cli_outputs.json`` maps a command line to the exit code, stdout and
stderr that ``surfpos`` gave for it, run in-process as here.  It holds the
six commands of acceptance criterion 12; a polygon on the relative model of
``test_okounkov.py``, saved as ``relative.json`` in the working directory,
whose mu, lambda, t_hi and vertices are in Q(sqrt 3), mu = -1 + sqrt(3);
one not-pseudo-effective error and one parse error.  The file was recorded
from the code before ``Quad`` took its present form, and a changed byte is
a changed answer.  Three later lines pin the blown-up queries of a nef
class: the moving Seshadri constant of -K on bl5p2, the infinitesimal
polygon and xi of 4H - E1 - E2 - E3 on bl3p2, and the Seshadri constant
of -K on bl6p2, recorded before their signs were read on integers.  Four
more pin the infinitesimal polygon, xi and the moving Seshadri constant,
recorded before xi was read off the walk's integers: 3H - 2E1 - E2 on
bl2p2 at a generic point, whose walk has three pieces, and 4H - E on
bl1p2 at a point of E, read from ``point-on-e.json`` in the working
directory, where mu' = -1 + 4 sqrt(2)."""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from surfpos.cli import main
from surfpos.models import save

from test_okounkov import relative_model

OUTPUTS = json.loads((Path(__file__).parent / "data" / "cli_outputs.json")
                     .read_text(encoding="utf-8"))


@pytest.mark.parametrize("line", list(OUTPUTS))
def test_cli_output_bytes(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save(relative_model(), "relative.json")
    (tmp_path / "point-on-e.json").write_text(json.dumps({"mults": {"E": 1}}))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(line.split())
    assert {"code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()} == OUTPUTS[line]
