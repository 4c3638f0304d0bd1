"""Per-layer tracing of qchar from outside the program.

`install` wraps each layer function listed in LAYERS at runtime and
records one span per call: (name, start, end, parent).  Spans stay in
memory; `Tracer.dump` writes them out once the job has finished, and
`aggregate` turns the span files of a workload into per-layer metrics.

Several layer functions are imported by value into other qchar modules
(`from .groebner import groebner` in quotient and mirror, and so on), so
wrapping the defining attribute alone would miss those calls.  `install`
therefore rebinds every attribute of every loaded qchar module, and of
every class defined there, that refers to the original object.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# "<module>.<qualname>" under the qchar package.
LAYERS = (
    "cli.main",
    "catalog.make_ring",
    "quotient.PresentedAlgebra.__init__",
    "quotient.PresentedAlgebra.reduce",
    "quotient.AlgebraElement.__mul__",
    "quotient.PresentedAlgebra.mult_matrix",
    "quotient.PresentedAlgebra.structure_constants",
    "quotient.PresentedAlgebra.confluence_check",
    "quotient.det_bareiss",
    "quotient.det_expansion",
    "core.NovikovSeries.__mul__",
    "core.Polynomial.__mul__",
    "groebner.groebner",
    "groebner.normal_form",
    "analytic.eval_deg2",
    "chern.build_qch",
    "chern.qch_apply",
    "chern.verify_relations",
    "chern.verify_classical_limit",
    "jfun.HbarPoly.__mul__",
    "jfun.HbarFraction.__add__",
    "jfun.HbarFraction.__mul__",
    "jfun.apply_difference",
    "mirror.MembershipContext.__init__",
    "mirror.MembershipContext.contains",
    "mirror.direct_nzd_check",
    "parse.parse_element",
    "report.certificate_json",
)


def _terms(x) -> int:
    coords = getattr(x, "coords", None)
    if coords is not None:
        return sum(len(qp) for qp in coords.values())
    terms = getattr(x, "terms", None)
    return len(terms) if terms is not None else 1


def _count_reduce(counts, args, result):
    counts["quotient.PresentedAlgebra.reduce.terms_in"] += _terms(args[1])
    counts["quotient.PresentedAlgebra.reduce.terms_out"] += _terms(result)


def _count_groebner(counts, args, result):
    counts["groebner.groebner.steps"] += result.steps
    key = "groebner.groebner.basis_max"
    counts[key] = max(counts[key], len(result.basis))


def _count_contains(counts, args, result):
    counts["mirror.MembershipContext.contains.members"] += int(result[0])


# Counts read from arguments and return values, keyed by layer.
COUNTERS = {
    "quotient.PresentedAlgebra.reduce": _count_reduce,
    "groebner.groebner": _count_groebner,
    "mirror.MembershipContext.contains": _count_contains,
}

COUNT_NAMES = (
    "quotient.PresentedAlgebra.reduce.terms_in",
    "quotient.PresentedAlgebra.reduce.terms_out",
    "groebner.groebner.steps",
    "groebner.groebner.basis_max",
    "mirror.MembershipContext.contains.members",
)


class Tracer:
    """Span store of one job process."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans = []  # [layer index, start, end, parent span index]
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack = []

    def wrap(self, index: int, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(LAYERS[index])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            span = [index, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(me)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer and rebind every reference to the original."""
        import qchar
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "qchar" or name.startswith("qchar.")]
        namespaces = []
        for mod in modules:
            namespaces.append(mod)
            namespaces.extend(v for v in vars(mod).values()
                              if isinstance(v, type) and v.__module__ == mod.__name__)
        for index, layer in enumerate(LAYERS):
            modname, *owner_path, attr = layer.split(".")
            owner = getattr(qchar, modname)
            for part in owner_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self.wrap(index, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"job": self.job_id, "layers": list(LAYERS),
                       "spans": self.spans, "counts": self.counts}, fh)


def units() -> dict:
    """Unit of every per-layer metric, in report order."""
    out = {}
    for name in LAYERS:
        out.update({name + ".calls": "count", name + ".total_s": "s",
                    name + ".self_s": "s"})
    out.update(dict.fromkeys(COUNT_NAMES, "count"))
    out["catalog.ring_cache.hit_ratio"] = "ratio"
    out["trace.overhead_s"] = "s"
    return out


def aggregate(records) -> dict:
    """Per-layer calls, total and self time, and counts over span files.

    Self time is a span's duration minus the durations of its direct
    children.  Total time counts only spans with no enclosing span of
    the same layer, so recursion is not counted twice.
    """
    calls = dict.fromkeys(LAYERS, 0)
    total = dict.fromkeys(LAYERS, 0.0)
    self_t = dict.fromkeys(LAYERS, 0.0)
    counts = dict.fromkeys(COUNT_NAMES, 0)
    for rec in records:
        names = rec["layers"]
        spans = rec["spans"]
        child_time = [0.0] * len(spans)
        for idx, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (idx, start, end, parent) in enumerate(spans):
            name = names[idx]
            dur = end - start
            calls[name] += 1
            self_t[name] += dur - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != idx:
                p = spans[p][3]
            if p < 0:
                total[name] += dur
        for key, value in rec["counts"].items():
            if key == "groebner.groebner.basis_max":
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
    out = {}
    for name in LAYERS:
        out[name + ".calls"] = calls[name]
        out[name + ".total_s"] = total[name]
        out[name + ".self_s"] = self_t[name]
    out.update(counts)
    rings = calls["catalog.make_ring"]
    built = calls["quotient.PresentedAlgebra.__init__"]
    out["catalog.ring_cache.hit_ratio"] = 1 - built / rings if rings else 0.0
    return out
