import itertools
import json
from fractions import Fraction

import pytest

import surfpos as sp
from surfpos.errors import InvariantViolation, SchemaError, UnknownModel
from surfpos.infinitesimal import blow_up
from surfpos.models import (
    BUILTIN_NAMES,
    _minus_one_classes,
    builtin,
    dumps_model,
    enumerate_minus_one_curves,
    load,
    model_from_dict,
    model_to_dict,
    save,
)

from conftest import MATRIX_MODELS

EXPECTED_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}


def test_minus_one_curve_counts():
    for r, n in EXPECTED_COUNTS.items():
        curves = enumerate_minus_one_curves(r)
        assert len(curves) == n, r
        assert len(set(curves)) == n


def _minus_one_by_permutation_sets(r):
    """The enumeration as first written: every ordering of each sorted
    multiplicity vector, deduplicated through a set."""
    found = [tuple([0] + [int(j == i) for j in range(r)]) for i in range(r)]
    for a in range(1, 7):
        def parts(remaining, remaining_sq, slots, bound, prefix):
            if remaining == 0 and remaining_sq == 0:
                yield prefix + [0] * slots
                return
            if slots == 0 or remaining < 0 or remaining_sq < 0:
                return
            if remaining > bound * slots or remaining_sq > bound * bound * slots:
                return
            for b in range(min(bound, remaining), 0, -1):
                yield from parts(remaining - b, remaining_sq - b * b,
                                 slots - 1, b, prefix + [b])
        for base in parts(3 * a - 1, a * a + 1, r, a, []):
            for perm in set(itertools.permutations(base)):
                found.append((a,) + tuple(-x for x in perm))
    return tuple(sorted(found))


def test_minus_one_enumeration_matches_permutation_sets():
    for r, n in EXPECTED_COUNTS.items():
        assert _minus_one_classes(r) == _minus_one_by_permutation_sets(r)
        assert len(_minus_one_classes(r)) == n


def test_minus_one_curves_are_minus_one():
    # independent arithmetic check on every class: self-intersection -1
    # and anticanonical degree 1 in the standard diagonal form
    for r in range(1, 9):
        for cls in enumerate_minus_one_curves(r):
            a, bs = cls[0], cls[1:]
            assert a * a - sum(b * b for b in bs) == -1
            assert 3 * a + sum(bs) == 1
            assert a >= 0
            if a == 0:
                assert sorted(bs) == [0] * (r - 1) + [1]
            else:
                assert all(b <= 0 for b in bs)


def _with_curve(model, name, cls, self_int):
    curves = tuple(c._replace(cls=cls, self_int=self_int)
                   if c.name == name else c for c in model.curves)
    return model._replace(curves=curves)


def test_validate_model_rejects_non_integer_entries():
    """The Gram matrix, the curve classes and the self-intersections are
    integers; each model below passes every other check."""
    b1 = builtin("bl1p2")
    half = Fraction(1, 2)
    bad = [
        ("gram integral", b1._replace(gram=tuple(
            tuple(map(Fraction, row)) for row in b1.gram))),
        # (1/2, 1/2) has square 0 and pairs positively with the ample class
        ("curve integral", _with_curve(b1, "F", (half, half), 0)),
        ("curve integral", _with_curve(b1, "E", (0, 1), Fraction(-1))),
    ]
    for invariant, model in bad:
        with pytest.raises(InvariantViolation) as e:
            sp.lattice.validate_model(model)
        assert e.value.invariant == invariant


def _bl2p2_doc(**fields):
    return {**model_to_dict(builtin("bl2p2")), **fields}


def _bl2p2_curves(edit):
    doc = _bl2p2_doc()
    edit(doc["curves"])
    return doc


@pytest.mark.parametrize("invariant, doc", [
    ("basis labels", _bl2p2_doc(basis=["H", "H", "E2"])),
    ("gram shape", _bl2p2_doc(gram=[["1", "0", "0"], ["0", "-1", "0"]])),
    ("gram symmetric", _bl2p2_doc(gram=[["1", "1", "0"], ["0", "-1", "0"],
                                        ["0", "0", "-1"]])),
    # signature (2, 1); every listed curve keeps its self-intersection and
    # pairs positively with the ample class, whose square is 7
    ("Hodge signature", _bl2p2_doc(
        gram=[["1", "-2", "-2"], ["-2", "-1", "-4"], ["-2", "-4", "-1"]],
        ample=["2", "-2", "-1"])),
    ("curve names", _bl2p2_curves(lambda cs: cs[1].update(name="E2"))),
    ("negative curves", _bl2p2_curves(lambda cs: cs.append(
        {**cs[1], "name": "E1b"}))),
    ("curve self-intersection", _bl2p2_curves(
        lambda cs: cs[0].update(self_int="-2"))),
    # a fibre class: square 0, and no pairing is checked
    ("ample reference", _bl2p2_doc(ample=["1", "-1", "0"],
                                   ample_is_ample=False)),
    # the line class: square 1, but it misses E1 and E2
    ("ample reference", _bl2p2_doc(ample=["1", "0", "0"])),
    ("point spec", _bl2p2_doc(points={"x": {"on_curve": "C"}})),
], ids=["basis-labels", "gram-shape", "gram-symmetric", "hodge-signature",
        "curve-names", "negative-curves", "curve-self-intersection",
        "ample-square", "ample-pairing", "point-spec"])
def test_validate_model_names_the_broken_invariant(invariant, doc):
    """Each document is bl2p2 with exactly one invariant broken."""
    with pytest.raises(InvariantViolation) as e:
        model_from_dict(doc)
    assert e.value.invariant == invariant


def test_enumeration_out_of_range():
    with pytest.raises(InvariantViolation):
        enumerate_minus_one_curves(0)
    with pytest.raises(InvariantViolation):
        enumerate_minus_one_curves(9)


def test_builtin_catalog_all_validate():
    for name in BUILTIN_NAMES:
        model = builtin(name)
        assert model.completeness_declared
        sp.lattice.validate_model(model)


def test_builtin_p2():
    p2 = builtin("p2")
    assert p2.rank == 1 and p2.gram == ((1,),)
    assert p2.effective_gens() == ((Fraction(1),),)
    assert p2.ample_ref == (Fraction(1),)


def test_builtin_example_interesting():
    ex = builtin("example-interesting")
    assert ex.rank == 3
    assert ex.gram == ((-1, 1, 1), (1, -2, 0), (1, 0, -1))
    assert {c.name for c in ex.curves} == {"E1", "E2", "E3"}


def test_builtin_bl3():
    b3 = builtin("bl3p2")
    negatives = [c for c in b3.curves if c.self_int == -1]
    assert len(negatives) == 6
    names = {c.name for c in negatives}
    assert {"E1", "E2", "E3", "L12", "L13", "L23"} == names


def test_unknown_model():
    with pytest.raises(UnknownModel):
        builtin("bl9p2")
    with pytest.raises(UnknownModel):
        builtin("nonsense")


@pytest.mark.parametrize("name", [
    "hirzebruch-1_0", "bl 3p2", "hirzebruch-+3", "bl08p2", "hirzebruch-03",
    "hirzebruch-\u0663", "bl\uff13p2", "hirzebruch- 3", "hirzebruch-3 ",
    "hirzebruch--3", "hirzebruch-", "bl0p2", "blp2", "hirzebruch-00"])
def test_builtin_names_have_one_spelling(name):
    """A numbered builtin is spelled with ASCII digits and no sign, space,
    underscore or leading zero, although int() reads a number out of most
    of the names here."""
    with pytest.raises(UnknownModel):
        builtin(name)


def test_one_spelling_is_one_instance():
    assert builtin("hirzebruch-10") is builtin("hirzebruch-10")
    assert builtin("hirzebruch-0").gram == ((0, 1), (1, 0))
    assert builtin("bl8p2").rank == 9


def test_blow_up_compatibility_with_builtins():
    """Blowing up bl_r at a generic point reproduces bl_{r+1}: same Gram,
    same negative-curve classes, same effective cone, same ample class."""
    chain = ["p2"] + [f"bl{r}p2" for r in range(1, 8)]
    for r, name in enumerate(chain):
        base = builtin(name)
        bm, pb, exc = blow_up(base)
        target = builtin(f"bl{r + 1}p2")
        assert bm.gram == target.gram
        neg_bm = {c.cls for c in bm.curves if c.self_int < 0}
        neg_target = {c.cls for c in target.curves if c.self_int < 0}
        assert neg_bm == neg_target, name
        assert bm.ample_ref == target.ample_ref
        assert bm.canonical == target.canonical
        if r + 1 <= 4:
            # effective cones agree (LP feasibility is cheap at low rank;
            # for larger r the equal negative-class sets already pin the
            # cone, movable generators being sums of negatives)
            for g in target.effective_gens():
                assert sp.cone_contains(bm.effective_gens(), g)
            for g in bm.effective_gens():
                assert sp.cone_contains(target.effective_gens(), g)
        else:
            movable = [c.cls for c in bm.curves if c.self_int >= 0]
            for g in movable:
                assert sp.cone_contains([n for n in neg_target],
                                        tuple(map(Fraction, g)))


def test_round_trip_all_builtins(tmp_path):
    for name in BUILTIN_NAMES:
        model = builtin(name)
        path = tmp_path / f"{name}.json"
        save(model, path)
        loaded = load(path)
        assert loaded == model
        # bit-exact: save(load(save(m))) == save(m)
        path2 = tmp_path / f"{name}-2.json"
        save(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_asymmetric_gram(tmp_path):
    doc = model_to_dict(builtin("bl1p2"))
    doc["gram"][0][1] = "2"
    with pytest.raises(InvariantViolation) as e:
        model_from_dict(doc)
    assert "gram symmetric" in str(e.value)


def test_load_rejects_bad_signature(tmp_path):
    doc = model_to_dict(builtin("p2"))
    doc["gram"] = [["-1"]]
    doc["curves"] = []
    doc["ample"] = ["1"]
    with pytest.raises(InvariantViolation) as e:
        model_from_dict(doc)
    assert "Hodge signature" in str(e.value) or "ample" in str(e.value)


def test_load_rejects_wrong_schema_version():
    doc = model_to_dict(builtin("p2"))
    doc["schema_version"] = 99
    with pytest.raises(SchemaError):
        model_from_dict(doc)


def test_load_rejects_wrong_self_int():
    doc = model_to_dict(builtin("bl1p2"))
    for c in doc["curves"]:
        if c["name"] == "E":
            c["self_int"] = "-2"
    with pytest.raises(InvariantViolation) as e:
        model_from_dict(doc)
    assert "self-intersection" in str(e.value)


def test_dumps_deterministic():
    a = dumps_model(builtin("bl2p2"))
    b = dumps_model(builtin("bl2p2"))
    assert a == b
    assert json.loads(a)["rank"] == 3


def test_matrix_models_present():
    for name in MATRIX_MODELS:
        assert builtin(name) is not None
