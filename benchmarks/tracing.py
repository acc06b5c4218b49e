"""Span tracing of the package layers, driven from the benchmark's side.

`Tracer.install` replaces each traced function at every name through which
callers reach it (the defining module, each module that imported it, and
the package namespace), so a call such as `quaddom.piece_f` is recorded
where it is made. Each call becomes a span with its parent span and the
operation it belongs to. Spans stay in memory until `write_spans`.

Self time of a span is its duration minus the time covered by its child
spans. Counters that need the call's arguments (node counts, computed bytes,
repeated inputs) are taken at the same boundaries.
"""

from __future__ import annotations

import hashlib
import sys
import time
from array import array

import numpy as np

# module -> functions traced in it; "LineBundle.transition_at_nodes" is a method
TRACED = {
    "curve": ("build_polynomial_curve", "sample", "locate", "adaptive_refine"),
    "schwarz": ("invert_conformal_map",),
    "transforms": ("cauchy_integral", "unwrap_log", "double_cauchy",
                   "harmonic_moments", "moment_expansion_check", "piece_f"),
    "bundles": ("LineBundle.transition_at_nodes", "chern_class",
                "canonical_section", "annulus_verification_points",
                "verify_transition", "holomorphic_tangent"),
    "quaddom": ("fit_rational_structure", "classical_quadrature",
                "abelian_quadrature", "arclength_quadrature",
                "area_mean_polygon"),
    "cli": ("main",),
}

# (child span, ancestor span) pairs whose nested calls are counted
NESTED = (
    ("schwarz.invert_conformal_map", "bundles.transition_at_nodes"),
    ("transforms.piece_f", "quaddom.fit_rational_structure"),
    ("curve.sample", "curve.adaptive_refine"),
)

# (name, unit) of every per-layer metric the benchmark reports
LAYER_METRICS = [
    ("curve.build_polynomial_curve.calls", "count/cycle"),
    ("curve.build_polynomial_curve.self_ms", "ms/cycle"),
    ("curve.sample.calls", "count/cycle"),
    ("curve.sample.self_ms", "ms/cycle"),
    ("curve.sample.nodes", "count/cycle"),
    ("curve.locate.calls", "count/cycle"),
    ("curve.locate.self_ms", "ms/cycle"),
    ("curve.adaptive_refine.calls", "count/cycle"),
    ("curve.adaptive_refine.self_ms", "ms/cycle"),
    ("curve.adaptive_refine.useful_node_frac", "ratio"),
    ("schwarz.invert_conformal_map.calls", "count/cycle"),
    ("schwarz.invert_conformal_map.self_ms", "ms/cycle"),
    ("schwarz.invert_conformal_map.at_nodes_frac", "ratio"),
    ("transforms.cauchy_integral.calls", "count/cycle"),
    ("transforms.cauchy_integral.self_ms", "ms/cycle"),
    ("transforms.cauchy_integral.node_evals", "count/cycle"),
    ("transforms.cauchy_integral.bytes_computed", "B/cycle"),
    ("transforms.unwrap_log.calls", "count/cycle"),
    ("transforms.unwrap_log.self_ms", "ms/cycle"),
    ("transforms.unwrap_log.nodes", "count/cycle"),
    ("transforms.unwrap_log.repeat_frac", "ratio"),
    ("transforms.double_cauchy.calls", "count/cycle"),
    ("transforms.double_cauchy.self_ms", "ms/cycle"),
    ("transforms.harmonic_moments.self_ms", "ms/cycle"),
    ("transforms.moment_expansion_check.self_ms", "ms/cycle"),
    ("bundles.transition_at_nodes.calls", "count/cycle"),
    ("bundles.transition_at_nodes.self_ms", "ms/cycle"),
    ("bundles.chern_class.self_ms", "ms/cycle"),
    ("bundles.canonical_section.self_ms", "ms/cycle"),
    ("bundles.annulus_verification_points.self_ms", "ms/cycle"),
    ("bundles.verify_transition.self_ms", "ms/cycle"),
    ("bundles.holomorphic_tangent.calls", "count/cycle"),
    ("quaddom.fit_rational_structure.self_ms", "ms/cycle"),
    ("quaddom.fit_rational_structure.piece_f_calls", "count/cycle"),
    ("quaddom.classical_quadrature.self_ms", "ms/cycle"),
    ("quaddom.abelian_quadrature.self_ms", "ms/cycle"),
    ("quaddom.arclength_quadrature.self_ms", "ms/cycle"),
    ("quaddom.area_mean_polygon.self_ms", "ms/cycle"),
    ("cli.main.calls", "count/cycle"),
    ("cli.main.self_ms", "ms/cycle"),
    ("trace.overhead_frac", "ratio"),
]

# counts that must repeat exactly between two traced runs of one seed
EXACT_SUFFIXES = (".calls", ".nodes", ".node_evals", ".bytes_computed",
                  "_calls")


def _span_names():
    names = []
    for module, attrs in TRACED.items():
        names += [f"{module}.{attr.split('.')[-1]}" for attr in attrs]
    return names


class Tracer:
    """In-memory span recorder with per-name calls, self time and counters."""

    def __init__(self):
        self.names = _span_names()
        self.ids = {name: i for i, name in enumerate(self.names)}
        size = len(self.names)
        self.calls = [0] * size
        self.self_s = [0.0] * size
        self.active = [0] * size
        self.nested = {pair: 0 for pair in NESTED}
        self.counters = dict.fromkeys(
            ("sample.nodes", "adaptive.sampled", "adaptive.useful",
             "cauchy.node_evals", "cauchy.bytes", "unwrap.nodes",
             "unwrap.repeats"), 0)
        self.stack = []
        self.op = -1
        self._op_inputs = set()
        self._restore = []
        # one entry per span, in completion order
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._next_span = 0

    def begin_op(self):
        self.op += 1
        self._op_inputs.clear()

    # installation

    def install(self, package):
        """Wrap every traced function of `package` at all of its bindings."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == package.__name__
                   or name.startswith(package.__name__ + ".")]
        for module_name, attrs in TRACED.items():
            module = getattr(package, module_name)
            for attr in attrs:
                span = f"{module_name}.{attr.split('.')[-1]}"
                if "." in attr:
                    owner_name, method = attr.split(".")
                    owner = getattr(module, owner_name)
                    original = getattr(owner, method)
                    self._bind(owner, method, self._wrap(span, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(span, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._bind(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _bind(self, owner, key, wrapper):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, span, fn):
        nid = self.ids[span]
        before = _BEFORE.get(span)
        after = _AFTER.get(span)
        nested = [(pair, self.ids[pair[1]]) for pair in NESTED if pair[0] == span]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            for pair, ancestor in nested:
                if self.active[ancestor]:
                    self.nested[pair] += 1
            stack = self.stack
            parent = stack[-1][1] if stack else -1
            frame = [0.0, self._next_span]   # [time in child spans, span index]
            self._next_span += 1
            stack.append(frame)
            self.active[nid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.active[nid] -= 1
                duration = end - start
                self.calls[nid] += 1
                self.self_s[nid] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                self.span_name.append(nid)
                self.span_parent.append(parent)
                self.span_op.append(self.op)
                self.span_start.append(start)
                self.span_end.append(end)
            if after is not None:
                after(self, result)
            return result

        return traced

    # results

    def layer_metrics(self, cycles, overhead_frac):
        """Per-layer metrics per traced cycle, keyed as in LAYER_METRICS."""
        c = self.counters

        def per_cycle(value):
            return value / cycles

        def frac(num, den):
            return num / den if den else 0.0

        values = {"trace.overhead_frac": overhead_frac}
        for name, nid in self.ids.items():
            values[f"{name}.calls"] = per_cycle(self.calls[nid])
            values[f"{name}.self_ms"] = per_cycle(self.self_s[nid] * 1e3)
        invert = self.calls[self.ids["schwarz.invert_conformal_map"]]
        unwrap = self.calls[self.ids["transforms.unwrap_log"]]
        values.update({
            "curve.sample.nodes": per_cycle(c["sample.nodes"]),
            "curve.adaptive_refine.useful_node_frac":
                frac(c["adaptive.useful"], c["adaptive.sampled"]),
            "schwarz.invert_conformal_map.at_nodes_frac":
                frac(self.nested[NESTED[0]], invert),
            "transforms.cauchy_integral.node_evals":
                per_cycle(c["cauchy.node_evals"]),
            "transforms.cauchy_integral.bytes_computed":
                per_cycle(c["cauchy.bytes"]),
            "transforms.unwrap_log.nodes": per_cycle(c["unwrap.nodes"]),
            "transforms.unwrap_log.repeat_frac":
                frac(c["unwrap.repeats"], unwrap),
            "quaddom.fit_rational_structure.piece_f_calls":
                per_cycle(self.nested[NESTED[1]]),
        })
        return {name: values[name] for name, _ in LAYER_METRICS}

    def write_spans(self, path):
        """Write every recorded span (name, parent, op, start, end)."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))


# counter hooks, keyed by span name

def _count_sample(tracer, args, kwargs):
    n = int(args[1] if len(args) > 1 else kwargs["n"])
    tracer.counters["sample.nodes"] += n
    if tracer.active[tracer.ids["curve.adaptive_refine"]]:
        tracer.counters["adaptive.sampled"] += n


def _count_refined(tracer, grid):
    tracer.counters["adaptive.useful"] += grid.n


def _count_cauchy(tracer, args, kwargs):
    grid, density = args[0], np.asarray(args[1])
    tracer.counters["cauchy.node_evals"] += grid.n
    # bytes the kernel reads, computed from array sizes (not measured)
    tracer.counters["cauchy.bytes"] += density.nbytes + grid.z.nbytes + grid.dz.nbytes


def _count_unwrap(tracer, args, kwargs):
    values = np.ascontiguousarray(args[0], dtype=complex)
    tracer.counters["unwrap.nodes"] += values.size
    digest = hashlib.blake2b(values.tobytes(), digest_size=16).digest()
    if digest in tracer._op_inputs:
        tracer.counters["unwrap.repeats"] += 1
    else:
        tracer._op_inputs.add(digest)


_BEFORE = {
    "curve.sample": _count_sample,
    "transforms.cauchy_integral": _count_cauchy,
    "transforms.unwrap_log": _count_unwrap,
}
_AFTER = {
    "curve.adaptive_refine": _count_refined,
}
