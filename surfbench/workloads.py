"""Seeded query sets of the four workloads, each query with its check.

:func:`build` does a workload's set-up: it constructs every model,
blow-up and model file the queries use.  It returns one pass, the list
of :class:`Query` that a run repeats.  ``decompose-once`` fills its pass
with fresh classes, each asked once.  The fixed seed ``INPUTS`` generates
the inputs and the run's seed orders the pass; the program sees plain
classes, flags, points and argv lists.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import surfpos as sp
from surfpos import cli as sp_cli
from surfpos.errors import NotPseudoEffective
from surfpos.infinitesimal import BlowupSpec, InfFlagSpec
from surfpos.lattice import PointSpec

from checks import (
    CheckFailed,
    Lattice,
    Surd,
    check_blowup_model,
    check_moving_seshadri,
    check_nef_cone,
    check_polygon,
    check_zariski_answer,
    decompose,
    expected_free_multiple,
    expected_lambda,
    expected_xi,
    generic_bound_witnesses,
    is_ample,
    need,
)

WORKLOADS = ("polygon-highrank", "infinitesimal-walk", "decompose-once",
             "cli-cold")


@dataclass
class Query:
    """One operation.  Library queries have ``call``; CLI queries have
    ``argv`` (run as ``python -m surfpos.cli``) and read back ``outputs``.
    ``check`` raises CheckFailed on a wrong answer.  ``malformed`` marks an
    input the exit-code contract says must end in a JSON error object."""

    name: str
    check: Callable[[Any], None]
    call: Optional[Callable[[], Any]] = None
    argv: Optional[list] = None
    outputs: tuple = ()
    malformed: bool = False
    # (label, model, point) of the blow-up a library query makes
    blowup: Optional[tuple] = None


# the seed of the generated classes, labellings and points.  The cost of a
# query set swings by up to 1.5x from one such seed to the next
# (labellings change the LP's pivots), so timed runs keep it fixed.
INPUTS = 1


def build(name: str, seed: int, out: Path) -> list:
    """Set-up of the named workload; returns its pass of queries, in an
    order shuffled by ``seed`` that spreads queries of one kind over it."""
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {WORKLOADS}")
    out.mkdir(parents=True, exist_ok=True)
    queries = {"polygon-highrank": _polygon_highrank,
               "infinitesimal-walk": _infinitesimal_walk,
               "decompose-once": _decompose_once,
               "cli-cold": _cli_cold}[name](random.Random(INPUTS), out)
    random.Random(seed).shuffle(queries)
    return queries


# ----------------------------------------------------------------------
# del Pezzo helpers
# ----------------------------------------------------------------------

def dp(r: int) -> str:
    return "p2" if r == 0 else f"bl{r}p2"


def e(r: int, i: int) -> str:
    return "E" if r == 1 else f"E{i}"


def line(i: int, j: int) -> str:
    return "L" + "".join(map(str, sorted((i, j))))


def conic(pts) -> str:
    return "Q" + "".join(map(str, sorted(pts)))


def anti_k(model) -> tuple:
    return tuple(-x for x in model.canonical)


def combo(model, terms) -> tuple:
    """sum of coefficient * class over (coefficient, class-or-name)."""
    out = [Fraction(0)] * model.rank
    for c, v in terms:
        v = model.resolve(v) if isinstance(v, str) else v
        for i, x in enumerate(v):
            out[i] += Fraction(c) * x
    return tuple(out)


def expr(model, d) -> str:
    """A divisor expression over the basis labels, for the CLI."""
    parts = []
    for label, x in zip(model.basis_labels, d):
        x = Fraction(x)
        if x == 0:
            continue
        mag = abs(x)
        coef = "" if mag == 1 else f"{mag.numerator}" if mag.denominator == 1 \
            else f"{mag.numerator}/{mag.denominator}*"
        parts.append(("-" if x < 0 else "+") + coef + label)
    text = "".join(parts) or "0*" + model.basis_labels[0]
    return text[1:] if text.startswith("+") else text


def _point_mults(p: PointSpec) -> dict:
    return {n: int(m) for n, m in p.local_mults.items()}


# ----------------------------------------------------------------------
# result conversion: library objects to the plain data the checks take
# ----------------------------------------------------------------------

def poly_data(poly) -> dict:
    return {"nu": poly.nu, "mu": Surd.of(poly.mu),
            "pieces": [(p.t_lo, Surd.of(p.t_hi), p.alpha, p.beta)
                       for p in poly.pieces],
            "vertices": [(Surd.of(t), Surd.of(y)) for t, y in poly.vertices]}


def _num(x):
    if isinstance(x, dict):
        return Surd(Fraction(x["a"]), Fraction(x["b"]), int(x["d"]))
    return Fraction(x)


def poly_from_json(doc: dict) -> dict:
    return {"nu": _num(doc["nu"]), "mu": Surd.of(_num(doc["mu"])),
            "pieces": [(_num(p["t_lo"]), Surd.of(_num(p["t_hi"])),
                        tuple(map(_num, p["alpha"])),
                        tuple(map(_num, p["beta"]))) for p in doc["pieces"]],
            "vertices": [(Surd.of(_num(t)), Surd.of(_num(y)))
                         for t, y in doc["vertices"]],
            "area": Surd.of(_num(doc["area"]))}


def check_infinitesimal_polygon(model, d, x: BlowupSpec, y_on, poly: dict):
    """Check an infinitesimal polygon as a polygon of the pullback on the
    blow-up (built by surfpos.blow_up, the model data of the check)."""
    bm, pullback, exc = sp.blow_up(model, x)
    mults = {y_on: 1} if y_on else {}
    return check_polygon(Lattice.of(bm), pullback(model.divisor(d)), exc,
                         mults, poly)


def xi_oracle(model, d, x: BlowupSpec) -> Surd:
    """xi read off the checked generic infinitesimal polygon."""
    poly = poly_data(sp.infinitesimal_polygon(model, d, x))
    return expected_xi(check_infinitesimal_polygon(model, d, x, None, poly))


# ----------------------------------------------------------------------
# polygon-highrank
# ----------------------------------------------------------------------

def _flag_and_other(kind: str, r: int, perm: list) -> tuple[str, str]:
    """A flag curve of the given kind, and a curve meeting it once."""
    a, b = perm[0], perm[1]
    if kind == "exceptional":
        return e(r, a), line(a, b)
    if kind == "line":
        return line(a, b), e(r, a)
    if kind == "conic":
        return conic(perm[:5]), e(r, a)
    return "L", line(a, b)


def polygon_query(model, name: str, d, flag: str, point: PointSpec) -> Query:
    def check(res):
        checked = check_polygon(Lattice.of(model), d, flag, _point_mults(point),
                                poly_data(res["polygon"]))
        origin_in, lam = expected_lambda(checked)
        need(res["origin_in"] == origin_in, "origin membership is wrong")
        need(Surd.of(res["lambda"]) == lam,
             f"lambda {res['lambda']} != {lam}")

    where = "generic" if point.generic else "on " + ",".join(point.local_mults)
    return Query(f"polygon {name} D={expr(model, d)} flag {flag} at {where}",
                 check,
                 call=lambda: sp.criterion_at_point(model, d, flag, point))


# class shapes per slot, over a seeded labelling p of the blown-up points:
# m(-K) plus curves on bl7p2; classes near the plane on bl8p2, where -K
# based classes cost several seconds a polygon
SHAPES = {
    "bl7p2": [
        lambda m, p: [(1, anti_k(m))],
        lambda m, p: [(1, anti_k(m)), (1, e(7, p[2]))],
        lambda m, p: [(1, anti_k(m)), (1, line(p[3], p[4]))],
        lambda m, p: [(1, anti_k(m)), (1, "L")],
        lambda m, p: [(2, anti_k(m)), (1, e(7, p[2]))],
        lambda m, p: [(2, anti_k(m)), (1, line(p[3], p[4])), (1, "L")],
    ],
    "bl8p2": [
        lambda m, p: [(1, "L"), (1, e(8, p[2]))],
        lambda m, p: [(2, "L"), (-1, e(8, p[2]))],
        lambda m, p: [(1, "L"), (1, line(p[2], p[3]))],
        lambda m, p: [(2, "L"), (1, e(8, p[2]))],
    ],
}


def _polygon_highrank(rng: random.Random, out: Path) -> list:
    models = {n: sp.builtin(n) for n in SHAPES}
    kinds = ("exceptional", "line", "conic", "general-line")
    queries = []
    # slot k: flag kind k % 4, a point on another curve when k % 8 >= 4;
    # every kind at generic points and at points on curves
    for name, slots in (("bl7p2", range(2, 8)), ("bl8p2", range(0, 2))):
        m, r = models[name], int(name[2])
        for k in slots:
            perm = rng.sample(range(1, r + 1), r)
            flag, other = _flag_and_other(kinds[k % 4], r, perm)
            point = PointSpec(on_curve=flag, local_mults={other: 1},
                              generic=False) if k % 8 >= 4 else \
                PointSpec(on_curve=flag, generic=True)
            shapes = SHAPES[name]
            d = combo(m, shapes[k % len(shapes)](m, perm))
            queries.append(polygon_query(m, name, d, flag, point))
    return queries


# ----------------------------------------------------------------------
# infinitesimal-walk
# ----------------------------------------------------------------------

def moving_query(model, name, d, x: BlowupSpec, label: str,
                 broustet_r=None) -> Query:
    def check(res):
        lat = Lattice.of(model)
        ample_value = None
        if is_ample(lat, d) and res.status.value == "positive":
            ample_value = Surd.of(sp.seshadri_direct(model, d, x))
        check_moving_seshadri(lat, d, dict(x.mults), res.status.value,
                              res.value, ample_value=ample_value,
                              broustet_r=broustet_r)

    return Query(f"moving-seshadri {name} D={expr(model, d)} at {label}",
                 check, call=lambda: sp.moving_seshadri(model, d, x),
                 blowup=(f"{name} at {label}", model, x))


def xi_query(model, name, d, x: BlowupSpec, label: str) -> Query:
    def check(res):
        v = Surd.of(res)
        check_moving_seshadri(Lattice.of(model), d, {}, "positive", v,
                              xi_expected=xi_oracle(model, d, x))

    return Query(f"xi {name} D={expr(model, d)} at {label}", check,
                 call=lambda: sp.xi(model, d, x),
                 blowup=(f"{name} at {label}", model, x))


def mu_prime_query(model, name, d, x: BlowupSpec, label: str) -> Query:
    def check(res):
        poly = poly_data(sp.infinitesimal_polygon(model, d, x))
        checked = check_infinitesimal_polygon(model, d, x, None, poly)
        need(Surd.of(res) == checked["mu"], f"mu' {res} != {checked['mu']}")

    return Query(f"mu' {name} D={expr(model, d)} at {label}", check,
                 call=lambda: sp.mu_prime(model, d, x),
                 blowup=(f"{name} at {label}", model, x))


def inf_polygon_query(model, name, d, x: BlowupSpec, label: str,
                      y_on: Optional[str]) -> Query:
    y = InfFlagSpec(on=y_on)

    def check(res):
        check_infinitesimal_polygon(model, d, x, y_on, poly_data(res))

    return Query(f"infinitesimal {name} D={expr(model, d)} at {label} "
                 f"y={y_on or 'generic'}", check,
                 call=lambda: sp.infinitesimal_polygon(model, d, x, y),
                 blowup=(f"{name} at {label}", model, x))


def _dp_class(rng, m, r: int, ample: bool = False) -> tuple:
    """A seeded big class on bl_r P^2: a(-K) + bH, plus (unless ``ample``,
    half of the time) an exceptional curve, which makes it not ample."""
    terms = [(rng.randint(1, 2), anti_k(m)), (rng.randint(0, 1), "L")]
    if r >= 1 and not ample and rng.random() < 0.5:
        terms.append((rng.randint(1, 2), e(r, rng.randint(1, r))))
    return combo(m, terms)


# xi at the generic point of bl3p2 forms the cluster of similar cost in
# which the median query sits.  One kind of query only: moving_seshadri
# costs about 1.6 times xi, and a cluster of both put the median on the gap
# between them.  Each takes 60-100 ms.
CLUSTER = 10


def _infinitesimal_walk(rng: random.Random, out: Path) -> list:
    names = [dp(r) for r in range(6)] + ["example-interesting-base"]
    hz = f"hirzebruch-{rng.randint(0, 5)}"
    models = {n: sp.builtin(n) for n in names + [hz]}
    generic = BlowupSpec()
    queries = []
    # Broustet's values, at fixed inputs; r = 6 (29 walks, 4-8 s) is
    # checked by the `seshadri` query of cli-cold
    for r in range(1, 6):
        m = models[dp(r)]
        queries.append(moving_query(m, dp(r), anti_k(m), generic, "generic",
                                    broustet_r=r))
    m = models["bl3p2"]
    for _ in range(CLUSTER):
        d = _dp_class(rng, m, 3, ample=True)
        queries.append(xi_query(m, "bl3p2", d, generic, "generic"))
    # cheaper queries on p2 .. bl3p2, dearer ones on bl4p2 and bl5p2
    for r in range(0, 6):
        m, name = models[dp(r)], dp(r)
        if r == 0:
            x, label = generic, "generic"
        elif r == 1:
            x, label = BlowupSpec(mults={"E": 1}), "on E"
        else:
            i, j = rng.sample(range(1, r + 1), 2)
            x = BlowupSpec(mults={e(r, i): 1, line(i, j): 1})
            label = f"on {e(r, i)},{line(i, j)}"
        queries.append(moving_query(m, name, _dp_class(rng, m, r), x, label))
        if r == 4:
            d = _dp_class(rng, m, r, ample=True)
            queries.append(xi_query(m, name, d, generic, "generic"))
        if r >= 4:
            queries.append(mu_prime_query(m, name, _dp_class(rng, m, r),
                                          generic, "generic"))
        if r >= 1:
            # a (-1)-curve through the blown-up general point meets E
            bm, _, exc = sp.blow_up(m, generic)
            y_on = rng.choice(sp.infinitesimal.exceptional_directions(bm, exc))
            queries.append(inf_polygon_query(m, name, _dp_class(rng, m, r),
                                             generic, "generic", y_on))
    m = models[hz]
    n = int(hz.split("-")[1])
    d = combo(m, [(1, "C0"), (n + rng.randint(1, 3), "f")])
    for x, label in ((generic, "generic"),
                     (BlowupSpec(mults={"C0": 1}), "on C0")):
        queries.append(moving_query(m, hz, d, x, label))
    m = models["example-interesting-base"]
    tangent = sp.infinitesimal.point_on_exceptional_spec(m)
    for y_on in (None, "E2"):
        d = combo(m, [(rng.randint(1, 3), "L"), (rng.randint(0, 2), "F")])
        queries.append(inf_polygon_query(m, "example-interesting-base", d,
                                         tangent, "tangent", y_on))
    d = combo(m, [(rng.randint(2, 3), "L"), (-1, "E")])
    queries.append(moving_query(m, "example-interesting-base", d, tangent,
                                "tangent"))
    # the set-up builds every blow-up the queries make, once each
    built = set()
    for q in queries:
        label, m, x = q.blowup
        if label not in built:
            sp.blow_up(m, x)
            built.add(label)
    return queries


# ----------------------------------------------------------------------
# decompose-once
# ----------------------------------------------------------------------

def decompose_answer(model, d) -> dict:
    """What a caller asks of a class: bigness, and when it is
    pseudo-effective its decomposition, loci and volume."""
    big = sp.is_big(model, d)
    try:
        pair = sp.zariski_decompose(model, d)
    except NotPseudoEffective:
        return {"pseff": False, "big": big}
    rep = sp.loci(model, d)
    return {"pseff": True, "big": big, "P": pair.P, "N": pair.N_coeffs,
            "volume": sp.volume(model, d), "null": rep.null_curves,
            "neg": rep.neg_curves}


def decompose_query(model, name, d) -> Query:
    def check(res):
        check_zariski_answer(Lattice.of(model), d,
                             dict(res, gens=model.effective_gens()))

    return Query(f"decompose {name} D={expr(model, d)}", check,
                 call=lambda: decompose_answer(model, d))


def _random_class(rng, model, pseff: bool) -> tuple:
    if pseff:
        gens = model.effective_gens()
        extra = model.ample_ref
        if model.metadata.get("family") == "del-pezzo":
            # curves of degree <= 1 and the line: classes with many E_i
            # coordinates make every LP on bl8p2 take seconds
            gens = [g for g in gens if g[0] <= 1]
            extra = model.resolve("L")
        terms = [(rng.randint(1, 3), rng.choice(gens))
                 for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            terms.append((1, extra))
        return combo(model, terms)
    # a class in a box around minus the ample class, usually not pseff
    amp = model.ample_ref
    return tuple(Fraction(rng.randint(-3, 3)) - (amp[i] if i == 0 else 0)
                 for i in range(model.rank))


# groups of 22 fresh classes in one pass of decompose-once
GROUPS = 5


def _decompose_once(rng: random.Random, out: Path) -> list:
    # no bl8p2: its pseudo-effective classes cost 0.05-1.2 s each, so a
    # few of them set the pass time and it swung with the seed
    names = [f"bl{r}p2" for r in range(4, 8)] + \
        [f"hirzebruch-{n}" for n in range(11)] + ["example-interesting"]
    models = {n: sp.builtin(n) for n in names}
    base = sp.builtin("example-interesting-base")
    specials = {
        "bl4p2@E1,L12": (models["bl4p2"],
                         BlowupSpec(mults={"E1": 1, "L12": 1})),
        "bl6p2@E1": (models["bl6p2"], BlowupSpec(mults={"E1": 1})),
        "hirzebruch-3@C0": (models["hirzebruch-3"],
                            BlowupSpec(mults={"C0": 1})),
        "example-interesting-base@tangent": (
            base, sp.infinitesimal.point_on_exceptional_spec(base)),
    }
    for label, (m, x) in specials.items():
        models[label] = sp.blow_up(m, x)[0]
    fixed = [f"bl{r}p2" for r in range(4, 8)] + ["example-interesting"] + \
        list(specials)

    # every group asks fresh classes, one pseudo-effective by construction
    # and one random per slot
    queries = []
    for _ in range(GROUPS):
        slots = fixed + [f"hirzebruch-{n}" for n in rng.sample(range(11), 2)]
        queries += [decompose_query(models[n], n,
                                    _random_class(rng, models[n], pseff))
                    for n in slots for pseff in (True, False)]
    return queries


# ----------------------------------------------------------------------
# cli-cold
# ----------------------------------------------------------------------

def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def cli_result_json(res, path: Optional[Path] = None):
    """The JSON document a successful CLI query wrote."""
    need(res["code"] == 0, f"exit code {res['code']}: {res['stderr'][-300:]}")
    return _read_json(path) if path else json.loads(res["stdout"])


def _cli_cold(rng: random.Random, out: Path) -> list:
    models = {n: sp.builtin(n) for n in
              ["bl2p2", "bl3p2", "bl4p2", "bl6p2", "bl7p2",
               "example-interesting", "example-interesting-base"]}
    hz = f"hirzebruch-{rng.randint(0, 10)}"
    models[hz] = sp.builtin(hz)
    # model and point files, written by `surfpos blowup`
    files = {}
    (out / "on-C0.json").write_text(json.dumps({"mults": {"C0": 1}}))
    (out / "on-E1.json").write_text(json.dumps({"mults": {"E1": 1}}))
    for label, argv in (
            ("bl3p2-up", ["--model", "builtin:bl3p2", "--point", "generic"]),
            ("hz-up", ["--model", f"builtin:{hz}", "--point",
                       str(out / "on-C0.json")]),
            ("eib-up", ["--model", "builtin:example-interesting-base"])):
        path = out / f"{label}.json"
        code = sp_cli.main(["blowup", *argv, "--json", str(path)])
        need(code == 0, f"set-up blowup {label} failed")
        files[label] = path
        models[label] = sp.models.load(path)
    (out / "flag-pt.json").write_text(json.dumps(
        {"on_curve": "E1", "local_mults": {"L12": 1}, "generic": False}))
    # the malformed inputs: each must give exit 1 and a JSON error object
    (out / "bad-point.json").write_text("{not json")
    (out / "bad-mult.json").write_text(json.dumps({"mults": {"E1": "1/2"}}))
    (out / "bad-extra.json").write_text(json.dumps(
        {"mults": {"E": 1}, "extra_curves": [{"class": [1, -1, -1]}],
         "extra_complete": True}))
    queries = []

    def mspec(label):
        return str(files[label]) if label in files else f"builtin:{label}"

    def q(name, argv, check, outputs=(), malformed=False):
        queries.append(Query(name, check, argv=argv, outputs=outputs,
                             malformed=malformed))

    def zariski_cli(label, d, cmd="zariski"):
        m = models[label]
        jpath = out / f"q{len(queries)}.json"

        def check(res):
            lat = Lattice.of(m)
            doc = cli_result_json(res, jpath)
            if cmd == "loci":
                P, N = decompose(lat, d)
                ans = {"P": P, "N": N, "neg": doc["neg"], "null": doc["null"]}
            else:
                ans = {"P": tuple(map(_num, doc["P"])),
                       "N": {k: _num(v) for k, v in doc["N"].items()},
                       "volume": _num(doc["volume"]), "big": doc["big"],
                       "nef": doc["nef"], "ample": doc["ample"],
                       "neg": doc["support"]}
            check_zariski_answer(lat, d, dict(ans, pseff=True))

        q(f"{cmd} {label} D={expr(m, d)}",
          [cmd, "--model", mspec(label), "--divisor", expr(m, d),
           "--json", str(jpath)], check, (jpath,))

    def polygon_cli(label, d, flag, point_arg, mults, svg=False, csv=False):
        m = models[label]
        n = len(queries)
        jpath, spath, cpath = (out / f"q{n}.json", out / f"q{n}.svg",
                               out / f"q{n}.csv")
        argv = ["polygon", "--model", mspec(label), "--divisor", expr(m, d),
                "--flag-curve", flag, "--json", str(jpath)]
        if point_arg:
            argv += ["--point", point_arg]
        outputs = [jpath]
        if svg:
            argv += ["--svg", str(spath)]
            outputs.append(spath)
        if csv:
            argv += ["--csv", str(cpath)]
            outputs.append(cpath)

        def check(res):
            lat = Lattice.of(m)
            doc = cli_result_json(res, jpath)
            poly = poly_from_json(doc)
            checked = check_polygon(lat, d, flag, mults, poly)
            origin_in, lam = expected_lambda(checked)
            need(doc["origin_in"] == origin_in, "origin_in")
            need(Surd.of(_num(doc["lambda"])) == lam, "lambda")
            _check_side_files(doc, spath if svg else None,
                              cpath if csv else None)

        q(f"polygon {label} D={expr(m, d)} flag {flag}", argv, check,
          tuple(outputs))

    def infinitesimal_cli(label, d, x: BlowupSpec, point_arg, y_on):
        m = models[label]
        n = len(queries)
        jpath, spath, cpath = (out / f"q{n}.json", out / f"q{n}.svg",
                               out / f"q{n}.csv")
        argv = ["infinitesimal", "--model", mspec(label), "--divisor",
                expr(m, d), "--json", str(jpath), "--svg", str(spath),
                "--csv", str(cpath)]
        if point_arg:
            argv += ["--point", point_arg]
        if y_on:
            argv += ["--y", f"on:{y_on}"]

        def check(res):
            doc = cli_result_json(res, jpath)
            checked = check_infinitesimal_polygon(m, d, x, y_on,
                                                  poly_from_json(doc))
            need(Surd.of(_num(doc["mu_prime"])) == checked["mu"], "mu_prime")
            if doc["xi"] is not None:
                need(Surd.of(_num(doc["xi"])) == xi_oracle(m, d, x), "xi")
            _check_side_files(doc, spath, cpath)

        q(f"infinitesimal {label} D={expr(m, d)} y={y_on}", argv, check,
          (jpath, spath, cpath))

    def seshadri_cli(label, d, cmd, x: BlowupSpec, point_arg, broustet_r=None):
        m = models[label]
        argv = [cmd, "--model", mspec(label), "--divisor", expr(m, d)]
        if point_arg:
            argv += ["--point", point_arg]

        def check(res):
            lat = Lattice.of(m)
            doc = cli_result_json(res)
            if cmd == "seshadri":
                # an ample class: epsilon is the moving Seshadri constant,
                # known from Broustet for -K or computed by surfpos
                eps = Surd.of(_num(doc["epsilon"]))
                expect = None
                if broustet_r is None:
                    ms = sp.moving_seshadri(m, d, x)
                    need(ms.value is not None, "no moving Seshadri value")
                    expect = Surd.of(ms.value)
                check_moving_seshadri(lat, d, dict(x.mults), "positive", eps,
                                      broustet_r=broustet_r,
                                      xi_expected=expect)
                return
            value = None if doc["value"] is None else _num(doc["value"])
            ample_value = None
            if is_ample(lat, d) and doc["status"] == "positive":
                ample_value = Surd.of(sp.seshadri_direct(m, d, x))
            check_moving_seshadri(lat, d, dict(x.mults), doc["status"], value,
                                  ample_value=ample_value,
                                  broustet_r=broustet_r)

        q(f"{cmd} {label} D={expr(m, d)}", argv, check)

    def cone_cli(label, cmd, b=None):
        m = models[label]
        gens = m.effective_gens()
        r = int(m.metadata["r"]) if m.metadata.get("family") == "del-pezzo" \
            else None
        argv = [cmd, "--model", mspec(label)]
        if b is not None:
            argv += ["--divisor", expr(m, b)]

        def check(res):
            lat = Lattice.of(m)
            doc = cli_result_json(res)
            if cmd == "nefcone":
                check_nef_cone(lat, gens, doc["rays"], doc["facet_normals"],
                               del_pezzo_r=r)
            elif cmd == "freemult":
                need(doc["m"] == expected_free_multiple(lat, gens, b),
                     f"free multiple {doc['m']}")
            else:
                names = [c["name"] for c in doc["checks"]]
                want = ["invariants"]
                if len(gens) <= 40 and m.rank <= 7:
                    want.append("dual-cone-round-trip")
                need(doc["ok"] is True and names == want and all(
                    c["ok"] for c in doc["checks"]), f"check report {doc}")

        q(f"{cmd} {label}", argv, check)

    def generic_bound_cli(deg: Fraction, tau: Fraction):
        def check(res):
            doc = cli_result_json(res)
            wit, q_max = generic_bound_witnesses(deg, tau)
            need([tuple(x) for x in doc["witnesses"]] == wit, "witnesses")
            need(doc["holds"] == (not wit), "holds")
            need(doc["q_range"] == [2, q_max], "q range")

        q(f"genericbound deg={deg} target={tau}",
          ["genericbound", "--deg", str(deg), "--target", str(tau),
           "--exclude-q1"], check)

    def blowup_cli(label, point_arg, dp_r=None):
        m = models[label]
        jpath = out / f"q{len(queries)}.json"
        argv = ["blowup", "--model", mspec(label), "--json", str(jpath)]
        if point_arg:
            argv += ["--point", point_arg]

        def check(res):
            check_blowup_model(Lattice.of(m), cli_result_json(res, jpath),
                               del_pezzo_r=dp_r)

        q(f"blowup {label} {point_arg or 'default'}", argv, check, (jpath,))

    def malformed(name, argv):
        def check(res):
            need(res["code"] == 1, f"exit code {res['code']}")
            last = res["stderr"].strip().splitlines()[-1:] or [""]
            try:
                err = json.loads(last[0])
            except ValueError:
                raise CheckFailed("stderr is not a JSON error object") from None
            need(isinstance(err, dict) and "error" in err, "no error code")

        q(name, argv, check, malformed=True)

    # --- the query set -------------------------------------------------
    # every subcommand at least once, in about 3 s of processes
    generic = BlowupSpec()
    m = models["bl2p2"]
    seshadri_cli("bl2p2", anti_k(m), "moving-seshadri", generic, None,
                 broustet_r=2)
    m = models["bl6p2"]
    seshadri_cli("bl6p2", anti_k(m), "seshadri", generic, None, broustet_r=6)
    m7 = models["bl7p2"]
    perm = rng.sample(range(1, 8), 7)
    zariski_cli("bl7p2", combo(m7, [(2, "L"), (1, e(7, perm[0])),
                                    (1, line(perm[1], perm[2]))]))
    m = models["bl4p2"]
    d = combo(m, [(rng.randint(1, 2), anti_k(m)), (rng.randint(1, 2), "E2")])
    polygon_cli("bl4p2", d, "E1", str(out / "flag-pt.json"), {"L12": 1},
                svg=True, csv=True)
    m = models["example-interesting"]
    d = combo(m, [(rng.randint(1, 3), (2, 1, 1)), (rng.randint(0, 2), "E3")])
    polygon_cli("example-interesting", d, "E1", "named:E1-on-E2", {"E2": 1},
                svg=True)
    m = models["bl3p2-up"]
    zariski_cli("bl3p2-up", combo(m, [(1, m.ample_ref),
                                      (rng.randint(1, 3), "E1")]), cmd="loci")
    m = models["example-interesting-base"]
    tangent = sp.infinitesimal.point_on_exceptional_spec(m)
    d = combo(m, [(rng.randint(1, 3), "L"), (rng.randint(0, 1), "F")])
    infinitesimal_cli("example-interesting-base", d, tangent, None,
                      rng.choice([None, "E2", "E3"]))
    m = models["example-interesting"]
    d = combo(m, [(rng.randint(1, 2), m.ample_ref)])

    def lambda_check(res, m=m, d=d):
        doc = cli_result_json(res)
        point = m.points["E1-on-E2"]
        poly = poly_data(sp.okounkov_polygon(m, d, "E1", point))
        _, lam = expected_lambda(check_polygon(Lattice.of(m), d, "E1",
                                               _point_mults(point), poly))
        need(Surd.of(_num(doc["lambda"])) == lam, "lambda")

    q(f"lambda example-interesting D={expr(m, d)}",
      ["lambda", "--model", "builtin:example-interesting", "--divisor",
       expr(m, d), "--flag-curve", "E1", "--point", "named:E1-on-E2"],
      lambda_check)
    for label in ("bl4p2", "hz-up"):
        cone_cli(label, "nefcone")
    m = models["bl4p2"]
    cone_cli("bl4p2", "freemult",
             b=combo(m, [(rng.randint(1, 4), "L"), (-rng.randint(0, 2), "E1")]))
    cone_cli("eib-up", "check")
    deg = Fraction(rng.randint(3, 12))
    tau = Fraction(rng.randint(1, 3 * int(deg)), 3)
    while tau * tau >= deg:
        tau -= Fraction(1, 3)
    generic_bound_cli(deg, tau)
    blowup_cli("bl4p2", "generic", dp_r=4)
    malformed("malformed --point file (not JSON)",
              ["polygon", "--model", "builtin:bl3p2", "--divisor", "3H-E1",
               "--flag-curve", "E1", "--point", str(out / "bad-point.json")])
    malformed("malformed blow-up JSON (non-integer mult)",
              ["moving-seshadri", "--model", "builtin:bl3p2", "--divisor",
               "3H-E1-E2-E3", "--point", str(out / "bad-mult.json")])
    malformed("malformed extra_curves entry (no name)",
              ["infinitesimal", "--model", "builtin:bl1p2", "--divisor", "H",
               "--point", str(out / "bad-extra.json")])
    malformed("genericbound --deg abc",
              ["genericbound", "--deg", "abc", "--target", "1",
               "--exclude-q1"])
    malformed("genericbound --target 1/0",
              ["genericbound", "--deg", "5", "--target", "1/0",
               "--exclude-q1"])
    return queries


def _check_side_files(doc, svg: Optional[Path], csv: Optional[Path]):
    if svg is not None:
        text = svg.read_text(encoding="utf-8")
        need(text.startswith("<svg") and "<path" in text, "SVG output")
    if csv is not None:
        rows = csv.read_text(encoding="utf-8").strip().splitlines()
        need(rows[0].startswith("t_lo,t_hi") and
             len(rows) == 1 + len(doc["pieces"]), "CSV output")
        for row, p in zip(rows[1:], doc["pieces"]):
            need(row.split(",")[0] == p["t_lo"], "CSV t_lo column")
