"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, the public functions of every
`symcone` module, the public methods (and arithmetic operators) of the
classes those modules define, the callbacks of the `symcone` click
commands and the click entry point `cli.main.main` (so argument parsing
counts toward `cli`), and the `numpy.linalg` entry points the package
calls.  A function is replaced in every module that holds a
reference to it, so `fischer.det_poly` and `cones.det_poly` both go through
the wrapper of `poly.det_poly`.

Each call records one span: name, start, end, parent span and op id.  Spans
live in flat in-memory arrays and are written out once, when the run ends.
A few counters need the call's arguments (term pairs of a product, terms
times points of an evaluation); hooks add those at call time.  Everything
else is derived from the spans afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import types
from array import array
from time import perf_counter

import click
import numpy as np

MODULES = ("cli", "spaces", "fischer", "poly", "wallach", "domains", "cones", "eja")
LINALG = ("cholesky", "det", "eigh", "eigvals", "eigvalsh", "inv", "norm",
          "qr", "solve", "svd")
LAYERS = MODULES + ("numpy.linalg",)
OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__neg__", "__pow__", "__call__")


def _mul_pairs(counters, args):
    other = args[1]
    if hasattr(other, "coeffs"):
        counters["poly.mul_term_pairs"] += len(args[0].coeffs) * len(other.coeffs)


def _eval_points(counters, args):
    z = np.asarray(args[1])
    npts = 1 if z.ndim == 1 else z.shape[0]
    counters["poly.eval_term_points"] += len(args[0].coeffs) * npts


HOOKS = {
    "poly.SparsePolynomial.__mul__": _mul_pairs,
    "poly.SparsePolynomial.__rmul__": _mul_pairs,
    "poly.SparsePolynomial.eval": _eval_points,
}


class Tracer:
    """Records spans of wrapped calls; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = 0
        self.counters = {"poly.mul_term_pairs": 0, "poly.eval_term_points": 0}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float):
        self.stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open(self._nid(name))
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, perf_counter())

    def _wrap(self, name: str, fn):
        nid = self._nid(name)
        hook = HOOKS.get(name)
        counters = self.counters
        open_, close_ = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(counters, args)
            idx = open_(nid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close_(idx, t0, perf_counter())

        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def install(self):
        import numpy.linalg
        mods = {name: importlib.import_module(f"symcone.{name}") for name in MODULES}
        wrapped: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
                elif isinstance(obj, click.Group):
                    # an instance attribute shadows Group.main for this object
                    self._set(obj, "main", self._wrap(f"{layer}.{attr}.main", obj.main))
                    self._wrap_commands(layer, obj)
        for attr in LINALG:
            fn = getattr(numpy.linalg, attr)
            wrapped[id(fn)] = self._wrap(f"numpy.linalg.{attr}", fn)
            self._set(numpy.linalg, attr, wrapped[id(fn)])
        # every module that imported a wrapped function gets the wrapper
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and isinstance(obj, types.FunctionType):
                    self._set(mod, attr, wrapped[id(obj)])

    def _wrap_commands(self, layer: str, cmd):
        """Wrap the callback of a click command and of its subcommands."""
        if cmd.callback is not None:
            self._set(cmd, "callback",
                      self._wrap(f"{layer}.{cmd.callback.__name__}", cmd.callback))
        for sub in getattr(cmd, "commands", {}).values():
            self._wrap_commands(layer, sub)

    def _wrap_class(self, layer: str, cls):
        for attr, obj in list(vars(cls).items()):
            public = not attr.startswith("_") or attr in OPERATORS
            if not public:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, types.FunctionType):
                self._set(cls, attr, self._wrap(name, obj))
            elif isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, obj.__func__)))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            if value is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def write(self, path: str):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times; self time is a span's duration
        minus the durations of its direct children."""
        a = self.arrays()
        nid, parent = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(nid))
        self_t = dur - child
        layer_idx = np.array([LAYERS.index(_layer(nm)) if _layer(nm) in LAYERS
                              else -1 for nm in self.names] + [-1])
        span_layer = layer_idx[nid]
        out = {}
        for i, layer in enumerate(LAYERS):
            sel = span_layer == i
            out[f"{layer}.calls"] = int(np.sum(sel))
            out[f"{layer}.self_s"] = float(np.sum(self_t[sel]))

        def ids(*nms):
            return [self._ids[nm] for nm in nms if nm in self._ids]

        def count(*nms):
            return int(np.sum(np.isin(nid, ids(*nms))))

        def inclusive(*nms):
            return float(np.sum(dur[np.isin(nid, ids(*nms))]))

        # a box draw is one membership test made inside sample_bounded, and
        # each sample_bounded call returns one point
        in_box = np.zeros(len(nid), dtype=bool)
        in_box[has_parent] = np.isin(nid[parent[has_parent]],
                                     ids("domains.sample_bounded"))
        draws = int(np.sum(np.isin(nid, ids("domains.in_bounded_domain")) & in_box))
        out.update({
            "spaces.gram_verdicts": count("spaces.psd_verdict"),
            "spaces.gram_s": inclusive("spaces.psd_verdict"),
            "fischer.basis_builds": count("fischer.orbit_span"),
            "fischer.haar_samples": count("fischer.haar_sample_K"),
            "fischer.orbit_span_s": inclusive("fischer.orbit_span"),
            "poly.substitutions": count("poly.SparsePolynomial.compose_linear",
                                        "poly.SparsePolynomial.compose_affine"),
            "poly.mul_term_pairs": self.counters["poly.mul_term_pairs"],
            "poly.eval_term_points": self.counters["poly.eval_term_points"],
            "domains.kernel_bounded_calls": count("domains.kernel_bounded"),
            "domains.kernel_siegel_calls": count("domains.kernel_siegel"),
            "domains.sampler_draws": draws,
            "domains.sampler_s": inclusive("domains.sample_bounded"),
            "domains.sampler_accept_ratio": (count("domains.sample_bounded") / draws
                                             if draws else 0.0),
            "domains.siegel_draws": count("domains.sample_siegel"),
            "cones.log_delta_calls": count("cones.log_delta_j"),
        })
        return out


_ABSENT = object()


def _layer(name: str) -> str:
    if name.startswith("numpy.linalg."):
        return "numpy.linalg"
    return name.split(".", 1)[0]

