"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public functions of the surfpos modules and
installs each wrapper wherever a surfpos module (or the package) binds the
original, so calls made through ``from ... import`` names are traced too.
A wrapper records calls and its span; a function's self time is its span
minus the spans of traced callees inside it.  For a few functions it also
records the distinct inputs seen within one query, or a size taken from
the result.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("models", "lattice", "scalars", "zariski", "okounkov",
           "infinitesimal", "seshadri", "cli")
# small arithmetic helpers called in inner loops; wrapping them would
# mostly measure the wrapper
SKIP = {"scalars": {"vector", "matrix", "vec_add", "vec_sub", "vec_scale",
                    "vec_dot", "mat_vec", "quad", "scalar_sign", "primitive",
                    "rational_sqrt", "as_fraction"},
        "cli": {"enc_scalar", "enc_vec"}}


def _model_key(m):
    return (m.gram, m.curves, m.ample_ref)


def _vec(v):
    return tuple(v)


# input keys for distinct_frac, and result sizes
KEYS = {
    "lattice.cone_contains": lambda a, k: (tuple(map(tuple, a[0])), _vec(a[1])),
    "zariski.zariski_decompose": lambda a, k: (_model_key(a[0]), _vec(a[1])),
    # the point does not enter the walk
    "okounkov.okounkov_polygon": lambda a, k: (_model_key(a[0]), _vec(a[1]),
                                               a[2]),
}
SIZES = {
    "lattice.dual_cone": ("rays", lambda r: len(r.generators)),
    "okounkov.okounkov_polygon": ("pieces", lambda r: len(r.pieces)),
}


class Stat:
    __slots__ = ("calls", "span_ns", "self_ns", "size", "distinct")

    def __init__(self):
        self.calls = self.span_ns = self.self_ns = self.size = 0
        self.distinct = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self._stack: list[int] = []
        self._seen: dict[str, set] = defaultdict(set)
        self._installed: list[tuple] = []

    # -- per query ---------------------------------------------------

    def end_query(self):
        """Close the distinct-input scope of one query."""
        for name, seen in self._seen.items():
            self.stats[name].distinct += len(seen)
        self._seen.clear()

    # -- wrapping ----------------------------------------------------

    def _wrap(self, qual: str, fn):
        stat = self.stats[qual]
        stack = self._stack
        key_fn = KEYS.get(qual)
        seen = self._seen
        size = SIZES.get(qual)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if key_fn is not None:
                k0 = clock()
                seen[qual].add(key_fn(args, kwargs))
                if stack:  # keep key hashing out of the caller's self time
                    stack[-1] += clock() - k0
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                inner = stack.pop()
                stat.calls += 1
                stat.span_ns += span
                stat.self_ns += span - inner
                if stack:
                    stack[-1] += span
            if size is not None:
                stat.size += size[1](result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qual)
        return traced

    def install(self):
        """Wrap every public function of the surfpos modules, everywhere
        it is bound."""
        mods = [importlib.import_module(f"surfpos.{m}") for m in MODULES]
        wrappers = {}
        for short, mod in zip(MODULES, mods):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or name in SKIP.get(short, ()):
                    continue
                target = getattr(obj, "__wrapped__", obj)
                if not (inspect.isfunction(target)
                        and target.__module__ == mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{short}.{name}", obj))
        for mname, mod in list(sys.modules.items()):
            if not (mname == "surfpos" or mname.startswith("surfpos.")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._installed.append((mod, name, obj))

    def uninstall(self):
        for mod, name, obj in reversed(self._installed):
            setattr(mod, name, obj)
        self._installed.clear()

    # -- export ------------------------------------------------------

    def dump(self) -> dict:
        return {name: [s.calls, s.span_ns, s.self_ns, s.size, s.distinct]
                for name, s in self.stats.items() if s.calls}

    def merge(self, doc: dict):
        for name, (calls, span, self_ns, size, distinct) in doc.items():
            s = self.stats[name]
            s.calls += calls
            s.span_ns += span
            s.self_ns += self_ns
            s.size += size
            s.distinct += distinct


# the per-layer metrics: (metric name, traced function, field)
LAYER_METRICS = [
    ("models.builtin.calls", "models.builtin", "calls"),
    ("models.builtin.self_ms", "models.builtin", "self_ms"),
    ("models.enumerate_minus_one_curves.self_ms",
     "models.enumerate_minus_one_curves", "self_ms"),
    ("models.load.self_ms", "models.load", "self_ms"),
    ("models.resolve_model.self_ms", "models.resolve_model", "self_ms"),
    ("lattice.pairing.calls", "lattice.pairing", "calls"),
    ("lattice.pairing.self_ms", "lattice.pairing", "self_ms"),
    ("lattice.cone_contains.calls", "lattice.cone_contains", "calls"),
    ("lattice.cone_contains.self_ms", "lattice.cone_contains", "self_ms"),
    ("lattice.cone_contains.distinct_frac", "lattice.cone_contains",
     "distinct_frac"),
    ("lattice.dual_cone.calls", "lattice.dual_cone", "calls"),
    ("lattice.dual_cone.self_ms", "lattice.dual_cone", "self_ms"),
    ("lattice.dual_cone.rays", "lattice.dual_cone", "size"),
    ("lattice.validate_model.calls", "lattice.validate_model", "calls"),
    ("lattice.validate_model.self_ms", "lattice.validate_model", "self_ms"),
    ("scalars.solve_linear.calls", "scalars.solve_linear", "calls"),
    ("scalars.solve_linear.self_ms", "scalars.solve_linear", "self_ms"),
    ("scalars.is_negative_definite.calls", "scalars.is_negative_definite",
     "calls"),
    ("scalars.is_negative_definite.self_ms", "scalars.is_negative_definite",
     "self_ms"),
    ("zariski.zariski_decompose.calls", "zariski.zariski_decompose", "calls"),
    ("zariski.zariski_decompose.self_ms", "zariski.zariski_decompose",
     "self_ms"),
    ("zariski.zariski_decompose.distinct_frac", "zariski.zariski_decompose",
     "distinct_frac"),
    ("zariski.is_big.calls", "zariski.is_big", "calls"),
    ("okounkov.okounkov_polygon.calls", "okounkov.okounkov_polygon", "calls"),
    ("okounkov.okounkov_polygon.self_ms", "okounkov.okounkov_polygon",
     "self_ms"),
    ("okounkov.okounkov_polygon.distinct_frac", "okounkov.okounkov_polygon",
     "distinct_frac"),
    ("okounkov.okounkov_polygon.pieces", "okounkov.okounkov_polygon", "size"),
    ("infinitesimal.blow_up.calls", "infinitesimal.blow_up", "calls"),
    ("infinitesimal.blow_up.self_ms", "infinitesimal.blow_up", "self_ms"),
    ("infinitesimal.xi.calls", "infinitesimal.xi", "calls"),
    ("infinitesimal.xi.self_ms", "infinitesimal.xi", "self_ms"),
    ("seshadri.seshadri_direct.self_ms", "seshadri.seshadri_direct",
     "self_ms"),
    ("seshadri.generic_seshadri_bound.self_ms",
     "seshadri.generic_seshadri_bound", "self_ms"),
    ("cli.emit.self_ms", "cli.emit", "self_ms"),
    ("cli.emit_svg.self_ms", "cli.emit_svg", "self_ms"),
]
UNITS = {"calls": "count", "self_ms": "ms", "distinct_frac": "ratio",
         "size": "count"}


def layer_metrics(tracer: Tracer, n_queries: int) -> dict:
    """Every per-layer metric, per query of the traced query set."""
    out = {}
    for metric, fn, field in LAYER_METRICS:
        s = tracer.stats.get(fn) or Stat()
        if field == "calls":
            value = s.calls / n_queries
        elif field == "self_ms":
            value = s.self_ns / 1e6 / n_queries
        elif field == "size":
            value = s.size / n_queries
        else:
            # a function that never ran repeated no work
            value = s.distinct / s.calls if s.calls else 1.0
        out[metric] = {"value": value, "unit": UNITS[field]}
    return out
