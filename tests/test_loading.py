"""What a cold process loads, and the package's lazy exports.

Each loading case runs ``cli.main(argv)`` in a fresh interpreter and reads
``sys.modules`` afterwards: a subcommand loads only the modules it runs,
and a malformed input is rejected before any computing module loads.
``surfpos`` itself resolves its exported names on first use and binds none
of them, so a patched module attribute shows through the package and an
undone patch is gone from it too."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import surfpos
from surfpos.lattice import BlowupSpec

SRC = Path(surfpos.__file__).resolve().parents[1]
HEAVY = {"zariski", "okounkov", "infinitesimal", "seshadri"}

CHILD = """
import json, sys
from surfpos import cli
code = cli.main(sys.argv[1:])
mods = sorted(m[8:] for m in sys.modules if m.startswith("surfpos."))
sys.stdout.write("\\n" + json.dumps({"code": code, "modules": mods}) + "\\n")
"""


def loaded(code: str, *argv: str) -> dict:
    done = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    return json.loads(done.stdout.splitlines()[-1])


def cli_loads(*argv: str) -> tuple[int, set[str]]:
    doc = loaded(CHILD, *argv)
    return doc["code"], set(doc["modules"])


def test_cold_imports_load_no_dataclasses_or_inspect():
    """Records are NamedTuples, so neither the CLI nor a computing module
    loads ``dataclasses`` or, behind it, ``inspect``, ``ast`` and ``dis``."""
    new = set(loaded(
        "import json, sys\n"
        "bare = set(sys.modules)\n"
        "import surfpos.cli\n"
        "from surfpos import zariski, okounkov, infinitesimal, seshadri\n"
        "print(json.dumps(sorted(set(sys.modules) - bare)))"))
    assert "surfpos.seshadri" in new
    assert not new & {"dataclasses", "inspect", "ast", "dis"}


def test_import_package_loads_no_submodule():
    doc = loaded("import json, sys, surfpos; print(json.dumps(sorted("
                 "m for m in sys.modules if m.startswith('surfpos'))))")
    assert doc == ["surfpos"]


CASES = [
    (["nefcone", "--model", "builtin:bl1p2"], set()),
    (["check", "--model", "builtin:bl1p2"], set()),
    (["zariski", "--model", "builtin:bl1p2", "--divisor", "2H-E"],
     {"zariski"}),
    (["loci", "--model", "builtin:bl1p2", "--divisor", "2H-E"], {"zariski"}),
    (["genericbound", "--deg", "5", "--target", "2", "--exclude-q1"],
     {"seshadri"}),
    (["freemult", "--model", "builtin:bl1p2", "--divisor", "H"],
     {"seshadri"}),
    (["polygon", "--model", "builtin:bl1p2", "--divisor", "2H-E",
      "--flag-curve", "E"], {"okounkov", "zariski"}),
]


@pytest.mark.parametrize("argv, wanted", CASES,
                         ids=[argv[0] for argv, _ in CASES])
def test_subcommand_loads_only_what_it_runs(argv, wanted):
    code, mods = cli_loads(*argv)
    assert code == 0
    assert mods & HEAVY == wanted


def test_malformed_inputs_fail_before_loading(tmp_path):
    not_json = tmp_path / "point.json"
    not_json.write_text("not json")
    half = tmp_path / "half.json"
    half.write_text(json.dumps({"mults": {"E": "1/2"}}))
    for argv in (
            ["polygon", "--model", "builtin:bl1p2", "--divisor", "2H-E",
             "--flag-curve", "E", "--point", str(not_json)],
            ["moving-seshadri", "--model", "builtin:bl1p2", "--divisor",
             "2H-E", "--point", str(half)],
            ["genericbound", "--deg", "abc", "--target", "2",
             "--exclude-q1"]):
        code, mods = cli_loads(*argv)
        assert code == 1, argv
        assert not mods & HEAVY, argv


EXPORTS = [
    "BlowupSpec", "Classification", "CurveRecord", "ExactScalar",
    "GenericBoundQuery", "GenericBoundResult", "InfFlagSpec", "LocusReport",
    "MovingSeshadri", "NOPolygon", "PointSpec", "PolyCone", "Quad",
    "SeshadriStatus", "SurfaceModel", "SurfposError", "ZariskiPair",
    "ample_perturbation", "blow_up", "builtin", "classify_valuative",
    "cone_contains", "criterion_at_point", "default_free_bundle",
    "dual_cone", "enumerate_minus_one_curves", "errors", "free_multiple",
    "generic_infinitesimal_polygon", "generic_seshadri_bound",
    "infinitesimal", "infinitesimal_polygon", "is_ample", "is_big",
    "is_nef", "largest_inverted_simplex", "largest_simplex",
    "largest_simplex_flag", "largest_simplex_search", "lattice", "load",
    "loci", "models", "moving_seshadri", "mu_prime", "mu_sup", "okounkov",
    "okounkov_polygon", "pairing", "polygon_area",
    "positive_quadratic_root", "quad", "save", "scalars", "seshadri",
    "seshadri_direct", "shift_check", "vertex_t_coordinates",
    "vertical_slice", "volume", "xi", "zariski", "zariski_decompose",
]


def test_package_exports():
    assert surfpos.__all__ == EXPORTS
    for name in EXPORTS:
        assert getattr(surfpos, name) is not None, name
    assert set(EXPORTS) <= set(dir(surfpos))
    namespace: dict = {}
    exec("from surfpos import *", namespace)
    assert set(EXPORTS) <= set(namespace)
    assert namespace["is_big"] is surfpos.zariski.is_big
    with pytest.raises(AttributeError):
        surfpos.no_such_name
    assert not hasattr(surfpos, "blow_ups")


def test_package_binds_no_export(monkeypatch):
    original = surfpos.zariski.is_big

    def patched(*args):
        return False

    monkeypatch.setattr(surfpos.zariski, "is_big", patched)
    assert surfpos.is_big is patched
    monkeypatch.undo()
    assert surfpos.is_big is original
    assert "is_big" not in vars(surfpos)


def test_point_specs_live_in_lattice():
    assert surfpos.infinitesimal.BlowupSpec is BlowupSpec
    assert surfpos.infinitesimal.InfFlagSpec is surfpos.lattice.InfFlagSpec
    assert surfpos.infinitesimal.GENERIC_POINT is surfpos.lattice.GENERIC_POINT
    assert surfpos.BlowupSpec is BlowupSpec
