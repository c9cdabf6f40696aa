"""Per-layer tracing of taurank, done from outside the package.

`Tracer.install()` replaces the public functions of each layer with
wrappers that record one span (metric, start, end, parent) per call.  The
package's modules import each other's functions by name, so every name in
every `taurank` module that is bound to an original function is rebound
to its wrapper; methods are replaced on their class.  `uninstall()` puts
the originals back.  Nothing under src/ changes.

A call made while a span of the same metric is open (solve inside
solve_matrix, say) runs unwrapped, so `calls` counts outermost entries
into a layer and `cells` counts each matrix once.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from taurank import algebra, artheory, fields, linalg, polyrank, presentations, quiver, reps

ITEM = "item"


class Recorder:
    """Spans of one phase, kept in memory as parallel lists, plus counters."""

    def __init__(self):
        self.metric = []
        self.start = []
        self.end = []
        self.parent = []
        self.stack = []
        self.counters = Counter()
        self.keys = defaultdict(set)

    def span(self, metric, fn, *args, **kwargs):
        i = len(self.metric)
        self.metric.append(metric)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.counters[metric + ".raised"] += 1
            raise
        finally:
            self.end[i] = perf_counter()
            self.stack.pop()

    def _roots(self):
        """Index of the outermost span above each span."""
        root = []
        for i, p in enumerate(self.parent):
            root.append(i if p < 0 else root[p])
        return root

    def durations(self, item_factors=None):
        """(calls, self seconds) per metric.  Self time is span time minus
        the time of its child spans; with `item_factors`, the spans under
        the k-th item span are scaled by its k-th entry."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        scale = [1.0] * len(dur)
        if item_factors is not None:
            items = [i for i, p in enumerate(self.parent) if p < 0]
            by_root = dict(zip(items, item_factors))
            scale = [by_root[r] for r in self._roots()]
        calls, self_s = Counter(), defaultdict(float)
        for i, m in enumerate(self.metric):
            calls[m] += 1
            self_s[m] += (dur[i] - child[i]) * scale[i]
        return calls, self_s

    def calls_per_item(self):
        """Per item span, in order: Counter of the metrics of the spans under it."""
        out = {}
        for i, r in enumerate(self._roots()):
            if r == i:
                out[i] = Counter()
            else:
                out[r][self.metric[i]] += 1
        return [out[i] for i in sorted(out) if self.metric[i] == ITEM]

    def write(self, path):
        names = sorted(set(self.metric))
        index = {m: k for k, m in enumerate(names)}
        t0 = self.start[0] if self.start else 0.0
        spans = [
            [index[m], round((s - t0) * 1e6), round((e - t0) * 1e6), p]
            for m, s, e, p in zip(self.metric, self.start, self.end, self.parent)
        ]
        with gzip.open(path, "wt") as fh:
            json.dump({"unit": "us", "metrics": names, "spans": spans}, fh)


def module_key(m):
    """A module's content: its algebra, field, dimensions and arrow matrices."""
    arrows = tuple((a, tuple(map(tuple, mat.rows))) for a, mat in sorted(m.arrows.items()))
    return id(m.algebra), m.field.name, m.dims, arrows


def _reuse(key_of):
    def on_call(rec, metric, args, kwargs):
        rec.keys[metric].add(key_of(*args, **kwargs))
    return on_call


def _realization_key(self, algebra, mults, field=fields.QQ):
    return id(algebra), tuple(mults), field.name


def _cells(rec, metric, args, kwargs):
    rec.counters[metric + ".cells"] += args[0].nrows * args[0].ncols


def _nonzero_coeffs(rec, metric, args, kwargs):
    hs, coeffs = args
    rec.counters[metric + ".nonzero_coeffs"] += sum(1 for c in coeffs if not hs.field.is_zero(c))


def _certification(rec, result):
    if not result.certified:
        rec.counters["generic_rank.uncertified"] += 1
    elif result.method in ("dimension-bound", "oracle"):
        rec.counters["generic_rank.certified_by." + result.method] += 1
    else:
        rec.counters["generic_rank.certified_by.other"] += 1


M = linalg.Matrix
H = presentations.HomSpace

# metric -> (places to wrap, hook on the arguments, hook on the result)
LAYERS = {
    "morphism_from_coeffs": ([(H, "morphism_from_coeffs")], _nonzero_coeffs, None),
    "sample_coeffs": ([(H, "sample_coeffs")], None, None),
    "cover_upper_bound": ([(presentations, "cover_upper_bound")], None, None),
    "combine_complexes": ([(presentations, "combine_complexes")], None, None),
    "generic_rank": ([(presentations, "generic_rank")], None, _certification),
    "min_presentation": (
        [(presentations, "min_presentation")], _reuse(module_key), None
    ),
    "rank": ([(M, "rank")], _cells, None),
    "rref": (
        [(M, a) for a in ("rref", "kernel_basis", "solve", "solve_matrix",
                          "column_space_basis", "row_space_rows", "inverse")],
        _cells, None,
    ),
    "matmul": ([(M, "__mul__")], None, None),
    "realize": ([(reps.ProjRealization, "__init__")], _reuse(_realization_key), None),
    "projective_cover": ([(reps, "projective_cover")], _reuse(module_key), None),
    "kernel": ([(reps, "kernel")], None, None),
    "cokernel": ([(reps, "cokernel")], None, None),
    "hom_system": ([(reps, "hom_dim"), (reps, "hom_basis")], None, None),
    "tau": ([(artheory, "tau")], None, None),
    "nakayama_complex": ([(artheory, "nakayama_complex")], None, None),
    "is_tau_regular": ([(artheory, "is_tau_regular")], None, None),
    "stable_hom_dim_inj": ([(artheory, "stable_hom_dim_inj")], None, None),
    "poly_rank": ([(polyrank, "poly_rank")], None, None),
    "build_algebra": ([(algebra, "build_algebra")], None, None),
    "parse_quiver_file": ([(quiver, "parse_quiver_file")], None, None),
}

# counted, not timed: a span per field operation would swamp the trace
COUNTED = {"sample": [(fields.RationalField, "sample"), (fields.PrimeField, "sample")]}

SETUP_METRICS = ("build_algebra", "parse_quiver_file")


def _taurank_modules():
    return [m for n, m in sys.modules.items() if n == "taurank" or n.startswith("taurank.")]


class Tracer:
    def __init__(self):
        self.rec = None
        self._restore = []
        self._originals = []

    def _span_wrapper(self, metric, fn, on_call, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.rec
            if rec is None or (rec.stack and rec.metric[rec.stack[-1]] == metric):
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(rec, metric, args, kwargs)
            result = rec.span(metric, fn, *args, **kwargs)
            if on_result is not None:
                on_result(rec, result)
            return result
        return wrapper

    def _count_wrapper(self, metric, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.rec is not None:
                self.rec.counters[metric + ".calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _replace(self, owner, attr, make):
        if isinstance(owner, type):
            orig = owner.__dict__[attr]
            self._restore.append((owner, attr, orig))
            setattr(owner, attr, make(orig))
            self._originals.append(orig)
            return
        orig = getattr(owner, attr)
        wrapper = make(orig)
        self._originals.append(orig)
        for mod in _taurank_modules():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, name, orig))
                    setattr(mod, name, wrapper)

    def install(self):
        for metric, (places, on_call, on_result) in LAYERS.items():
            for owner, attr in places:
                self._replace(owner, attr, lambda fn, m=metric, c=on_call, r=on_result:
                              self._span_wrapper(m, fn, c, r))
        for metric, places in COUNTED.items():
            for owner, attr in places:
                self._replace(owner, attr, lambda fn, m=metric: self._count_wrapper(m, fn))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        self._originals.clear()

    def stale_bindings(self):
        """Names in taurank modules and wrapped classes that still refer to
        an unwrapped original; empty when the rebinding is complete."""
        originals = {id(f) for f in self._originals}
        owners = _taurank_modules() + [
            owner for places, _, _ in LAYERS.values() for owner, _ in places
            if isinstance(owner, type)
        ]
        return sorted({
            f"{getattr(o, '__name__', o)}.{name}"
            for o in owners for name, value in vars(o).items() if id(value) in originals
        })


def layer_metrics(rec, setup_rec, item_factors):
    """Per-layer metrics of one traced pass, by name; `item_factors` scales
    each item's spans by host speed."""
    calls, self_s = rec.durations(item_factors)
    setup_calls, setup_self = setup_rec.durations()
    out = {}
    for metric in LAYERS:
        c, s = (setup_calls, setup_self) if metric in SETUP_METRICS else (calls, self_s)
        out[f"{metric}.calls"] = c[metric]
        out[f"{metric}.self_s"] = s[metric]
    for metric in ("rank", "rref"):
        out[f"{metric}.cells"] = rec.counters[metric + ".cells"]
    out["morphism_from_coeffs.nonzero_coeffs"] = rec.counters["morphism_from_coeffs.nonzero_coeffs"]
    for metric in ("realize", "projective_cover", "min_presentation"):
        n = calls[metric]
        out[f"{metric}.reuse_ratio"] = (n - len(rec.keys[metric])) / n if n else 0.0
    for name in ("certified_by.dimension-bound", "certified_by.oracle",
                 "certified_by.other", "uncertified"):
        out[f"generic_rank.{name}"] = rec.counters[f"generic_rank.{name}"]
    # the oracle reports an exceeded budget by raising OracleBudgetError
    out["poly_rank.budget_exceeded"] = rec.counters["poly_rank.raised"]
    out["sample.calls"] = rec.counters["sample.calls"]
    out["other.self_s"] = self_s[ITEM]
    return out
