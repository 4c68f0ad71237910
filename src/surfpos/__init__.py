"""surfpos: exact local positivity on algebraic surfaces.

Zariski decompositions, Newton-Okounkov polygons, infinitesimal polygons,
and Seshadri-type invariants over exact rational (and real quadratic)
arithmetic, for surfaces presented as finite intersection-lattice models.

Importing the package loads none of its modules: each exported name is
looked up in its module on first use (PEP 562), and is not bound here, so
``surfpos.is_big`` always reads ``surfpos.zariski.is_big`` as it is now.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "errors": ("SurfposError",),
    "infinitesimal": (
        "MovingSeshadri",
        "SeshadriStatus",
        "blow_up",
        "generic_infinitesimal_polygon",
        "infinitesimal_polygon",
        "moving_seshadri",
        "mu_prime",
        "vertex_t_coordinates",
        "xi",
    ),
    "lattice": (
        "BlowupSpec",
        "CurveRecord",
        "InfFlagSpec",
        "PointSpec",
        "PolyCone",
        "SurfaceModel",
        "cone_contains",
        "dual_cone",
        "pairing",
    ),
    "models": ("builtin", "enumerate_minus_one_curves", "load", "save"),
    "okounkov": (
        "Classification",
        "NOPolygon",
        "classify_valuative",
        "criterion_at_point",
        "largest_inverted_simplex",
        "largest_simplex",
        "mu_sup",
        "okounkov_polygon",
        "polygon_area",
        "shift_check",
        "vertical_slice",
    ),
    "scalars": ("ExactScalar", "Quad", "positive_quadratic_root", "quad"),
    "seshadri": (
        "GenericBoundQuery",
        "GenericBoundResult",
        "default_free_bundle",
        "free_multiple",
        "generic_seshadri_bound",
        "largest_simplex_flag",
        "largest_simplex_search",
        "seshadri_direct",
    ),
    "zariski": (
        "LocusReport",
        "ZariskiPair",
        "ample_perturbation",
        "is_ample",
        "is_big",
        "is_nef",
        "loci",
        "volume",
        "zariski_decompose",
    ),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        module = _import_module(f".{_MODULE_OF[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
