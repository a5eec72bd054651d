"""In-process tracing of convexlab's layers from outside the library.

``Tracer.install()`` wraps every public function of each layer module at
every module namespace of the package that binds it, so that a name copied
by ``from .quad import interior_integral`` is traced at its call sites in
``forms``, ``pde`` and ``flow`` too.  The ``Potential`` and perturbation
methods and the ``SupportFunction2D`` constructor are wrapped on their
classes.  ``uninstall()`` puts every original back.

Each wrapped call records one span (name, start, end, parent, raised) in
flat arrays that stay in memory; ``Tracer.take()`` hands them over as numpy
arrays and ``summarize()`` turns them into per-layer self times and counts.
A span's self time is its duration minus the time its child spans cover.
"""

import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("spectral", "geometry", "quad", "measure", "forms", "pde", "flow",
          "analysis", "cli")

# Methods that carry work on the classes of a layer.
_METHODS = (
    ("measure", "Potential", ("value", "grad", "hess", "weight")),
    ("measure", "QuadraticPerturbation", ("value", "grad", "hess")),
    ("measure", "ConjugatePerturbation", ("value", "grad", "hess")),
    ("geometry", "SupportFunction2D", ("__init__",)),
)
_POTENTIAL_METHODS = frozenset(f"measure.Potential.{m}"
                               for m in ("value", "grad", "hess", "weight"))


class Tracer:
    """Span recorder that patches the convexlab package in place."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._patches = []
        self._reset()

    def _reset(self):
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._raised = array("b")
        self._stack = [-1]
        self._measure_depth = 0
        self.measure_points = 0
        self.nodes_seen = set()
        self.nodes_repeats = 0

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ------------------------------------------------------------

    def enter(self, name):
        """Open a span; returns its index for ``exit``."""
        idx = len(self._start)
        self._name.append(self._name_id(name))
        self._parent.append(self._stack[-1])
        self._raised.append(0)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def exit(self, idx):
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, qualname, fn):
        nid = self._name_id(qualname)
        names, parents, starts, ends, raised = (
            self._name, self._parent, self._start, self._end, self._raised)
        stack = self._stack
        clock = time.perf_counter
        is_measure = qualname.startswith("measure.")
        probe = self._probe_for(qualname, fn)

        def traced(*args, **kwargs):
            if probe is not None:
                probe(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            raised.append(0)
            ends.append(0.0)
            stack.append(idx)
            if is_measure:
                self._measure_depth += 1
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                if is_measure:
                    self._measure_depth -= 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__doc__ = fn.__doc__
        return traced

    def _probe_for(self, qualname, fn):
        if qualname in _POTENTIAL_METHODS:
            def count_points(args, kwargs):
                # points entering the measure layer from outside it
                if self._measure_depth == 0:
                    pts = args[1] if len(args) > 1 else kwargs["points"]
                    self.measure_points += np.size(pts) // 2
            return count_points
        if qualname == "quad.interior_nodes":
            sig = inspect.signature(fn)

            def count_repeats(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                key = (bound.arguments["body"].values.tobytes(), int(bound.arguments["Q"]))
                if key in self.nodes_seen:
                    self.nodes_repeats += 1
                else:
                    self.nodes_seen.add(key)
            return count_repeats
        return None

    # -- patching -------------------------------------------------------------

    def install(self):
        """Wrap the layers' public functions and methods in every namespace."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"convexlab.{layer}"]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "convexlab" and not modname.startswith("convexlab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for layer, clsname, methods in _METHODS:
            cls = getattr(sys.modules[f"convexlab.{layer}"], clsname)
            for meth in methods:
                self._patch(cls, meth,
                            self._wrap(f"{layer}.{clsname}.{meth}", cls.__dict__[meth]))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def take(self):
        """Hand over the recorded spans and counters, then start afresh.

        The wrappers hold the recording arrays, so take only when uninstalled.
        """
        if self._patches or len(self._stack) != 1:
            raise RuntimeError("tracer still installed or spans still open")
        out = {
            "names": list(self.names),
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "raised": np.frombuffer(self._raised, dtype=np.int8).astype(bool),
            "measure_points": self.measure_points,
            "nodes_repeats": self.nodes_repeats,
        }
        self._reset()
        return out


def self_times(spans):
    """Per-span self time: duration minus the time covered by child spans.

    Spans nest strictly on one thread, so children never overlap and the
    covered time is the sum of the children's durations.
    """
    dur = spans["end"] - spans["start"]
    covered = np.zeros_like(dur)
    child = spans["parent"] >= 0
    np.add.at(covered, spans["parent"][child], dur[child])
    return dur - covered


def summarize(spans):
    """Per-layer self time and the per-layer counts of the benchmark."""
    names = spans["names"]
    own = self_times(spans)
    span_layer = np.array([n.split(".", 1)[0] for n in names], dtype=str)[spans["name"]]
    out = {}
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = float(own[span_layer == layer].sum())
        out[f"{layer}.calls"] = int(np.count_nonzero(span_layer == layer))

    def where(name):
        if name not in names:
            return np.zeros(len(own), dtype=bool)
        return spans["name"] == names.index(name)

    nodes = int(where("quad.interior_nodes").sum())
    assemble = where("pde.assemble")
    marginal = where("flow.marginal_value")
    out.update({
        "quad.nodes_calls": nodes,
        "quad.mu_calls": int(where("quad.interior_integral").sum()
                             + where("quad.boundary_integral").sum()),
        "quad.nodes_repeat_share": spans["nodes_repeats"] / nodes if nodes else 0.0,
        "measure.points": int(spans["measure_points"]),
        "measure.hmu_calls": int(where("measure.weighted_mean_curvature").sum()),
        "geometry.gauge_calls": int(where("geometry.gauge_angle").sum()),
        "geometry.bodies_built": int(where("geometry.SupportFunction2D.__init__").sum()),
        "flow.marginal_calls": int(marginal.sum()),
        "flow.marginal_rejected": int((marginal & spans["raised"]).sum()),
        "pde.assemble_calls": int(assemble.sum()),
        "pde.assemble_ms_p50": (float(np.median(spans["end"][assemble]
                                                - spans["start"][assemble])) * 1e3
                                if assemble.any() else 0.0),
        "trace.spans": int(len(own)),
    })
    return out
