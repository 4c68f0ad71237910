"""Command-line front end.

Subcommands cover every computation; outputs are deterministic JSON
(sorted keys, canonical rational strings), optional SVG renderings, and
per-chamber CSV tables.  Exit codes: 0 success, 1 domain error (with a
machine-readable error object on stderr), 2 usage error.

A process loads only what its subcommand runs: the parser gives arguments
to that subcommand alone, :func:`run` decodes every input before it
dispatches, and each branch imports the modules it calls, so a malformed
input is rejected before any of them loads.  Each branch builds one
document, and :func:`run` writes every output after the branches: the
JSON, then the SVG and the CSV of a polygon when asked for.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from . import lattice, models
from .errors import ParseError, SchemaError, SurfposError, UnknownSymbol
from .lattice import (
    GENERIC_POINT,
    BlowupSpec,
    InfFlagSpec,
    PointSpec,
    SurfaceModel,
)
from .models import _dec_bool, _dec_frac, _dec_int, _enc_frac
from .scalars import Quad

if TYPE_CHECKING:
    from .okounkov import NOPolygon


# ----------------------------------------------------------------------
# divisor expression parsing
# ----------------------------------------------------------------------

_TERM = re.compile(
    r"([+-]?)(?:([0-9]+)(?:/([0-9]*))?\*?)?([A-Za-z_][A-Za-z0-9_]*)?")


def parse_divisor(text: str, model: SurfaceModel):
    """Parse a linear combination like "2H - 3/2*E1 + E2".

    Grammar: expr := ['+'|'-'] term (('+'|'-') term)*, where a term,
    [int ['/' int] ['*']] name, is one match of ``_TERM``.  Whitespace is
    removed up front; error offsets refer to the condensed text.
    """
    s = "".join(text.split())
    if not s:
        raise ParseError(0, "expression")
    total = [Fraction(0)] * model.rank
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        sign, num, den, name = m.groups()
        if pos and not sign:
            raise ParseError(pos, "'+' or '-'")
        if den == "":
            raise ParseError(m.end(3), "denominator")
        at = m.start(2)
        try:
            n = int(num or 1)
            at = m.start(3)
            d = int(den or 1)
        except ValueError:  # more digits than int() converts
            raise ParseError(at, "shorter integer") from None
        if not d:
            raise ParseError(at, "non-zero denominator")
        if not name:
            raise ParseError(m.end(), "name")
        try:
            cls = model.resolve(name)
        except KeyError:
            raise UnknownSymbol(name, m.start(4)) from None
        coef = Fraction(-n if sign == "-" else n, d)
        total = [a + coef * x for a, x in zip(total, cls)]
        pos = m.end()
    return tuple(total)


# ----------------------------------------------------------------------
# serialization helpers
# ----------------------------------------------------------------------

def enc_scalar(x):
    if isinstance(x, Quad):
        return {"a": enc_scalar(x.a), "b": enc_scalar(x.b), "d": str(x.d),
                "approx": float(x)}
    return _enc_frac(x)


def enc_vec(v):
    return [enc_scalar(x) for x in v]


def enc_polygon(poly: NOPolygon, extra: dict) -> dict:
    from .okounkov import polygon_area

    return {
        "flag_curve": poly.flag_curve,
        "nu": enc_scalar(poly.nu),
        "mu": enc_scalar(poly.mu),
        "vertices": [[enc_scalar(t), enc_scalar(y)] for t, y in poly.vertices],
        "area": enc_scalar(polygon_area(poly)),
        "pieces": [
            {"t_lo": enc_scalar(p.t_lo), "t_hi": enc_scalar(p.t_hi),
             "alpha": enc_vec(p.alpha), "beta": enc_vec(p.beta),
             "support": list(p.support)}
            for p in poly.pieces
        ],
        **extra,
    }


def _write(text: str, target: str) -> None:
    if target == "-":
        sys.stdout.write(text)
    else:
        Path(target).write_text(text, encoding="utf-8")


def emit(doc: dict, args) -> None:
    _write(json.dumps(doc, sort_keys=True, indent=2) + "\n",
           args.json or "-")


def emit_csv(poly: NOPolygon, path: str) -> None:
    rows = ["t_lo,t_hi,alpha0,alpha1,beta0,beta1,support"]
    for p in poly.pieces:
        t_hi = enc_scalar(p.t_hi)
        if isinstance(t_hi, dict):
            t_hi = f"{t_hi['a']}+{t_hi['b']}*sqrt({t_hi['d']})"
        rows.append(",".join([
            enc_scalar(p.t_lo), t_hi,
            enc_scalar(p.alpha[0]), enc_scalar(p.alpha[1]),
            enc_scalar(p.beta[0]), enc_scalar(p.beta[1]),
            ";".join(p.support)]))
    _write("\n".join(rows) + "\n", path)


def emit_svg(poly: NOPolygon, path: str, overlay: tuple) -> None:
    """Render the polygon; floats appear here only, never upstream."""
    pts = [(float(t), float(y)) for t, y in poly.vertices]
    max_t = max(p[0] for p in pts) or 1.0
    max_y = max(max(p[1] for p in pts), max_t) or 1.0
    scale = 360.0 / max(max_t, max_y)
    pad = 20.0
    H = max_y * scale + 2 * pad

    def fmt(x, y):
        return f"{pad + x * scale:.3f},{H - pad - y * scale:.3f}"

    path_d = "M " + " L ".join(fmt(x, y) for x, y in pts) + " Z"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{max_t * scale + 2 * pad:.0f}" height="{H:.0f}">',
        f'<line x1="{pad:.3f}" y1="{H - pad:.3f}" x2="{pad + max_t * scale:.3f}" y2="{H - pad:.3f}" stroke="#888"/>',
        f'<line x1="{pad:.3f}" y1="{H - pad:.3f}" x2="{pad:.3f}" y2="{pad:.3f}" stroke="#888"/>',
        f'<line x1="{pad:.3f}" y1="{H - pad:.3f}" x2="{fmt(min(max_t, max_y), min(max_t, max_y))}" stroke="#bbb" stroke-dasharray="4"/>',
        f'<path d="{path_d}" fill="#9ecae1" fill-opacity="0.6" stroke="#3182bd"/>',
    ]
    kind, size = overlay
    size = float(size)
    if size > 0:
        if kind == "simplex":
            tri = [(0.0, 0.0), (size, 0.0), (0.0, size)]
        else:
            tri = [(0.0, 0.0), (size, 0.0), (size, size)]
        d = "M " + " L ".join(fmt(x, y) for x, y in tri) + " Z"
        parts.append(f'<path d="{d}" fill="none" stroke="#e6550d" '
                     f'stroke-width="1.5"/>')
    parts.append("</svg>")
    _write("\n".join(parts) + "\n", path)


# ----------------------------------------------------------------------
# argument plumbing
# ----------------------------------------------------------------------

def _resolve_flag(args, model: SurfaceModel) -> tuple[str, PointSpec]:
    """The flag curve, and a point on it checked like the model's points."""
    flag_curve, arg = args.flag_curve, args.point
    if not model.has_curve(flag_curve):
        raise UnknownSymbol(flag_curve)
    if arg in (None, "generic"):
        return flag_curve, PointSpec(on_curve=flag_curve, generic=True)
    if arg.startswith("named:"):
        name = arg.split(":", 1)[1]
        if name not in model.points:
            raise UnknownSymbol(name)
        ps = model.points[name]
    else:
        name = arg
        ps = _read_spec(arg, lambda doc: PointSpec(
            on_curve=str(doc.get("on_curve", flag_curve)),
            local_mults={str(k): _dec_int(v) for k, v in
                         doc.get("local_mults", {}).items()},
            generic=_dec_bool(doc, "generic", False)))
        lattice.validate_point(model, ps)
    if ps.on_curve != flag_curve:
        raise SurfposError(
            f"point {name!r} lies on {ps.on_curve}, not {flag_curve}")
    return flag_curve, ps


def _resolve_blowup_point(arg, model: SurfaceModel) -> BlowupSpec:
    if arg is None:
        if model.metadata.get("default_point") == "on-E-tangent":
            from .infinitesimal import point_on_exceptional_spec
            return point_on_exceptional_spec(model)
        return GENERIC_POINT
    if arg == "generic":
        return GENERIC_POINT
    spec = _read_spec(arg, lambda doc: BlowupSpec(
        mults={str(k): _dec_int(v) for k, v in doc.get("mults", {}).items()},
        extra_curves=tuple(
            (str(c["name"]), tuple(_dec_int(x) for x in c["class"]))
            for c in doc.get("extra_curves", [])),
        extra_complete=_dec_bool(doc, "extra_complete", False),
        exceptional_name=doc.get("exceptional_name"),
        renames={str(k): str(v) for k, v in doc.get("renames", {}).items()},
    ))
    if isinstance(spec.exceptional_name, (str, type(None))):
        return spec
    raise SchemaError("exceptional_name is not a string")


def _read_spec(path, decode):
    """Decode a JSON spec file as strictly as a model document: bad JSON,
    a missing key, a wrong type or a non-integer count is a SchemaError."""
    doc = models._load_json(path)
    try:
        return decode(doc)
    except models._MALFORMED as e:
        raise SchemaError(f"malformed spec document: {e}") from None


def _resolve_y(arg) -> InfFlagSpec:
    if arg in (None, "generic"):
        return InfFlagSpec()
    if arg.startswith("on:"):
        return InfFlagSpec(on=arg.split(":", 1)[1])
    raise SurfposError(f"bad --y value {arg!r}; use generic or on:<curve>")


# every option, by the name the subcommands below list it under
_OPTIONS = {
    "model": ("--model", {"required": True,
                          "help": "builtin:<name> or a model JSON path"}),
    "divisor": ("--divisor", {"required": True,
                              "help": "expression like '2H - 3/2*E'"}),
    "flag": ("--flag-curve", {"required": True, "dest": "flag_curve"}),
    "point": ("--point",
              {"help": "generic, named:<name>, or a spec JSON path"}),
    "y": ("--y", {"help": "generic or on:<curve>"}),
    "json": ("--json", {"help": "output path or -"}),
    "svg": ("--svg", {}),
    "csv": ("--csv", {}),
    "deg": ("--deg", {"required": True, "help": "(A^2) as a rational"}),
    "target": ("--target", {"required": True, "help": "target bound tau"}),
    "exclude-q1": ("--exclude-q1", {"action": "store_true",
                                    "dest": "exclude_q1"}),
    "bare-json": ("--json", {}),  # genericbound's, without help
}

# subcommand: (help, its options in order)
_COMMANDS = {
    "zariski": ("Zariski decomposition", "model divisor json"),
    "loci": ("null and negative loci", "model divisor json"),
    "polygon": ("Newton-Okounkov polygon",
                "model divisor flag point json svg csv"),
    "infinitesimal": ("infinitesimal polygon at a point",
                      "model divisor point y json svg csv"),
    "seshadri": ("Seshadri constant", "model divisor point json"),
    "moving-seshadri": ("moving Seshadri constant",
                        "model divisor point json"),
    "lambda": ("largest simplex constant", "model divisor flag point json"),
    "nefcone": ("dual of the effective cone", "model json"),
    "freemult": ("base-point-free multiple bound", "model divisor json"),
    "genericbound": ("very-general-point Seshadri bound",
                     "deg target exclude-q1 bare-json"),
    "blowup": ("blow up a model at a point", "model point json"),
    "check": ("re-run model invariants", "model json"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand.  Given ``command``, only that
    subcommand gets its options; the help of each is registered anyway,
    so the top-level help and usage errors are the same."""
    ap = argparse.ArgumentParser(
        prog="surfpos",
        description="Exact Zariski decompositions, Newton-Okounkov "
                    "polygons, and Seshadri-type invariants on surface "
                    "models.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if command in (None, name):
            for key in options.split():
                flag, kwargs = _OPTIONS[key]
                sp.add_argument(flag, **kwargs)
    return ap


def _attach_signed_values(argv: list[str] | None) -> list[str]:
    """Read ``--divisor -H`` as ``--divisor=-H``: after an option whose value
    is a class or a rational, or an abbreviation of one, a token starting
    with one '-' is that value; one starting with '--' stays an option."""
    out: list[str] = []
    for tok in sys.argv[1:] if argv is None else argv:
        if (out and tok[:1] == "-" and tok[:2] != "--" and len(out[-1]) > 2
                and any(o.startswith(out[-1])
                        for o in ("--divisor", "--deg", "--target"))):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def run(argv=None) -> int:
    argv = _attach_signed_values(argv)
    # argparse runs the first token not read as an option
    command = next((t for t in argv if t[:1] != "-"), None)
    args = build_parser(command).parse_args(argv)
    model = d = flag = point = y = degree = target = poly = overlay = None
    if getattr(args, "model", None):
        model = models.resolve_model(args.model)
    # every input is decoded here, in this order, before any dispatch
    if hasattr(args, "divisor"):
        d = parse_divisor(args.divisor, model)
    if hasattr(args, "flag_curve"):
        flag, point = _resolve_flag(args, model)
    elif hasattr(args, "point"):
        point = _resolve_blowup_point(args.point, model)
    if hasattr(args, "y"):
        y = _resolve_y(args.y)
    if hasattr(args, "deg"):
        degree, target = _dec_frac(args.deg), _dec_frac(args.target)
    cmd = args.command

    if cmd == "zariski":
        from . import zariski
        pair = zariski.zariski_decompose(model, d)
        vol = zariski.self_intersection(model, pair.P)
        doc = {"P": enc_vec(pair.P),
               "N": {n: enc_scalar(a) for n, a in pair.N_coeffs.items()},
               "support": list(pair.support),
               "relative": pair.relative,
               "volume": enc_scalar(vol),
               "nef": zariski.is_nef(model, d),
               "ample": zariski.is_ample(model, d),
               "big": vol > 0}
    elif cmd == "loci":
        from . import zariski
        rep = zariski.loci(model, d)
        doc = {"null": sorted(rep.null_curves),
               "neg": sorted(rep.neg_curves),
               "relative": rep.relative}
    elif cmd == "polygon":
        from . import okounkov
        res = okounkov.criterion_at_point(model, d, flag, point)
        poly, overlay = res["polygon"], ("simplex", res["lambda"])
        doc = enc_polygon(poly, {"origin_in": res["origin_in"],
                                 "lambda": enc_scalar(res["lambda"])})
    elif cmd == "infinitesimal":
        from . import infinitesimal
        poly, xi_val = infinitesimal._polygon_and_xi(model, d, point, y)
        overlay = ("inverted", xi_val or 0)
        doc = enc_polygon(poly, {
            "mu_prime": enc_scalar(poly.mu),
            "xi": None if xi_val is None else enc_scalar(xi_val)})
    elif cmd == "seshadri":
        from . import seshadri
        eps = seshadri.seshadri_direct(model, d, point)
        doc = {"epsilon": enc_scalar(eps)}
    elif cmd == "moving-seshadri":
        from . import infinitesimal
        res = infinitesimal.moving_seshadri(model, d, point)
        doc = {"status": res.status.value,
               "value": None if res.value is None else enc_scalar(res.value)}
    elif cmd == "lambda":
        from . import seshadri
        lam = seshadri.largest_simplex_flag(model, d, flag, point)
        doc = {"lambda": enc_scalar(lam)}
    elif cmd == "nefcone":
        cone = lattice.dual_cone(model.effective_gens(), model)
        doc = {"rays": [list(r) for r in cone.generators],
               "facet_normals": [list(f) for f in cone.facet_normals]}
    elif cmd == "freemult":
        from . import seshadri
        cone = lattice.dual_cone(model.effective_gens(), model)
        doc = {"m": seshadri.free_multiple(cone, d, model)}
    elif cmd == "genericbound":
        from . import seshadri
        query = seshadri.GenericBoundQuery(
            degree=degree, target=target, exclude_q1=args.exclude_q1)
        res = seshadri.generic_seshadri_bound(query)
        doc = {"holds": res.holds,
               "witnesses": [list(w) for w in res.witnesses],
               "q_range": list(res.q_range)}
    elif cmd == "blowup":
        from . import infinitesimal
        bm, _, exc = infinitesimal.blow_up(model, point)
        doc = models.model_to_dict(bm)
        doc["exceptional"] = exc
    elif cmd == "check":
        checks = run_checks(model)
        doc = {"ok": all(ok for _, ok in checks),
               "checks": [{"name": n, "ok": ok} for n, ok in checks]}

    # every output is written here, JSON first
    emit(doc, args)
    if getattr(args, "svg", None):
        emit_svg(poly, args.svg, overlay)
    if getattr(args, "csv", None):
        emit_csv(poly, args.csv)
    return 0


def run_checks(model: SurfaceModel) -> list[tuple[str, bool]]:
    checks = []
    try:
        lattice.validate_model(model)
        checks.append(("invariants", True))
    except SurfposError:
        checks.append(("invariants", False))
    gens = model.effective_gens()
    if len(gens) <= 40 and model.rank <= 7:
        try:
            cone = lattice.dual_cone(gens, model)
            back = lattice.dual_cone(cone.generators, model)
            ok = all(lattice.cone_contains(gens, r) for r in back.generators)
            ok = ok and all(lattice.cone_contains(back.generators, g)
                            for g in gens)
            checks.append(("dual-cone-round-trip", ok))
        except SurfposError:
            checks.append(("dual-cone-round-trip", False))
    return checks


def main(argv=None) -> int:
    try:
        return run(argv)
    except SurfposError as e:
        error = {"error": e.code, "message": str(e)}
    except OSError as e:
        error = {"error": "io-error", "message": str(e)}
    except ValueError as e:  # an exact result too long for str() to write
        if "integer string conversion" not in str(e):
            raise
        error = {"error": "out-of-range", "message": str(e)}
    sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())
