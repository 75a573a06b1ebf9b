"""Spans and counters around embtrees layer boundaries, installed from outside.

The traced run replaces public functions and operators of each embtrees
module with timing wrappers; the source tree is never edited.  A span holds
a name, start, end and the index of the span open when it began (its
parent).  Spans stay in memory, four compact arrays, until the run ends;
a layer's self time is its spans' durations minus the time covered by
their child spans.

Counts that the wrappers keep are computed outside the span they belong to,
so they do not inflate that layer's self time (the enclosing layer absorbs
them; the README states the total overhead).
"""

from __future__ import annotations

import bisect
import json
import statistics
import sys
import time
from array import array
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from workloads import CHECK_IDS


def check_span(check_id: str) -> str:
    return "campaign." + check_id.replace("/", ".")


# Per-layer metrics of the traced run: (name, unit, better).  BENCHMARK.json
# lists the same names in the same order; selftest.py checks that.
PER_LAYER = (
    [("series.mul.calls", "count", "lower"), ("series.mul.self_ms", "ms", "lower"),
     ("series.mul.coeff_products", "count", "lower"),
     ("series.div.calls", "count", "lower"), ("series.div.self_ms", "ms", "lower"),
     ("series.sqrt.calls", "count", "lower"), ("series.sqrt.self_ms", "ms", "lower"),
     ("series.coeff_bits_max", "bits", "lower"),
     ("marker.mul.calls", "count", "lower"), ("marker.mul.self_ms", "ms", "lower"),
     ("paths.meander.self_ms", "ms", "lower"), ("paths.dp.self_ms", "ms", "lower"),
     ("multipoly.mul.calls", "count", "lower"), ("multipoly.mul.self_ms", "ms", "lower"),
     ("multipoly.eval_series.self_ms", "ms", "lower"),
     ("multipoly.rf_equal.self_ms", "ms", "lower"),
     ("kernel.newton.calls", "count", "lower"), ("kernel.newton.self_ms", "ms", "lower"),
     ("kernel.hensel.calls", "count", "lower"), ("kernel.hensel.self_ms", "ms", "lower"),
     ("kernel.complete_homogeneous.self_ms", "ms", "lower"),
     ("splitting.mul.calls", "count", "lower"), ("splitting.mul.self_ms", "ms", "lower"),
     ("splitting.invert.calls", "count", "lower"), ("splitting.invert.self_ms", "ms", "lower"),
     ("splitting.monomial.calls", "count", "lower"),
     ("splitting.monomial.distinct", "count", "lower"),
     ("binary.recurrence.self_ms", "ms", "lower"), ("binary.closed.self_ms", "ms", "lower"),
     ("binary.oracle.self_ms", "ms", "lower"),
     ("dary.recurrence.self_ms", "ms", "lower"), ("dary.alpha_general.self_ms", "ms", "lower"),
     ("dary.oracle.self_ms", "ms", "lower"),
     ("walkers.closed.self_ms", "ms", "lower"), ("walkers.dp.self_ms", "ms", "lower"),
     ("serialize.export.self_ms", "ms", "lower"), ("serialize.import.self_ms", "ms", "lower"),
     ("serialize.cache_get.calls", "count", "lower"),
     ("serialize.cache_get.self_ms", "ms", "lower"),
     ("serialize.cache_put.calls", "count", "lower"),
     ("serialize.cache_put.self_ms", "ms", "lower"),
     ("serialize.cache.hits", "count", "higher"), ("serialize.cache.misses", "count", "lower"),
     ("cli.parser.self_ms", "ms", "lower")]
    + [(f"cli.{c}.p50_ms", "ms", "lower") for c in ("trees", "dary", "paths", "walkers")]
    + [(check_span(c) + ".ms", "ms", "lower") for c in CHECK_IDS]
    + [("campaign.checks", "count", "higher")]
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.coeff_products = 0
        self.coeff_bits_max = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.monomials: set = set()
        self._algebras: dict = {}  # held so that id() stays unique for the run

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self.stack.pop()
        self.span_start[idx] = start
        self.span_end[idx] = end

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.name_id(name))
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, start, time.perf_counter())

    def wrap(self, name: str, fn, before=None, after=None):
        nid = self.name_id(name)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = tracer._open(nid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, start, clock())
            if after is not None:
                after(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    # -- counters kept by the wrappers -----------------------------------

    def count_series_product(self, args) -> None:
        """Nonzero schoolbook products a[i]*b[j], i + j < n, implied by the operands."""
        a = args[0].coeffs
        other = args[1]
        if type(other) is type(args[0]):
            b = other.coeffs
            n = min(len(a), len(b))
            nz_b = [j for j in range(n) if b[j]]
            self.coeff_products += sum(
                bisect.bisect_left(nz_b, n - i) for i in range(n) if a[i]
            )
        elif isinstance(other, (int, Fraction)) and other:
            self.coeff_products += sum(1 for c in a if c)

    def note_coeff_bits(self, args, result) -> None:
        coeffs = getattr(result, "coeffs", None)
        if coeffs is None or isinstance(coeffs, dict):
            return
        top = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                   for c in coeffs), default=0)
        if top > self.coeff_bits_max:
            self.coeff_bits_max = top

    def note_cache_get(self, args, result) -> None:
        if result is None:
            self.cache_misses += 1
        else:
            self.cache_hits += 1

    def note_monomial(self, args) -> None:
        alg = args[0]
        self._algebras[id(alg)] = alg
        self.monomials.add((id(alg), tuple(args[1])))

    # -- summaries -------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> calls, self_ms, total_ms and the list of durations in ms."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out: dict[str, dict] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = ends[i] - starts[i]
            rec = out.get(name)
            if rec is None:
                rec = out[name] = {"calls": 0, "self_ms": 0.0, "total_ms": 0.0, "durations_ms": []}
            rec["calls"] += 1
            rec["self_ms"] += (dur - child[i]) * 1000
            rec["total_ms"] += dur * 1000
            rec["durations_ms"].append(dur * 1000)
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON object per span: name, start and end (s), parent index."""
        origin = self.span_start[0] if len(self.span_start) else 0.0
        with path.open("w") as fh:
            for i in range(len(self.span_name)):
                fh.write(json.dumps([self.names[self.span_name[i]],
                                     round(self.span_start[i] - origin, 7),
                                     round(self.span_end[i] - origin, 7),
                                     self.span_parent[i]]) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        summ = self.summary()

        def get(name: str, field: str) -> float:
            rec = summ.get(name)
            return rec[field] if rec else 0

        values: dict[str, float] = {}
        for metric, _, _ in PER_LAYER:
            if metric == "series.mul.coeff_products":
                values[metric] = self.coeff_products
            elif metric == "series.coeff_bits_max":
                values[metric] = self.coeff_bits_max
            elif metric == "serialize.cache.hits":
                values[metric] = self.cache_hits
            elif metric == "serialize.cache.misses":
                values[metric] = self.cache_misses
            elif metric == "splitting.monomial.distinct":
                values[metric] = len(self.monomials)
            elif metric == "campaign.checks":
                values[metric] = sum(get(check_span(c), "calls") for c in CHECK_IDS)
            elif metric.endswith(".p50_ms"):
                durs = summ.get(metric[: -len(".p50_ms")], {}).get("durations_ms")
                values[metric] = statistics.median(durs) if durs else 0
            elif metric.startswith("campaign."):
                values[metric] = get(metric[: -len(".ms")], "total_ms")
            else:
                base, field = metric.rsplit(".", 1)
                values[metric] = get(base, field)
        return values


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary of the loaded embtrees package.

    Methods are replaced on their class.  A module-level function is replaced
    in its own module and in every embtrees module that bound it with
    ``from ... import``, so all call paths see the wrapper.
    """
    from embtrees import (binary, cli, dary, kernel, marker, multipoly, paths,
                          serialize, series, splitting, walkers)

    def on_class(cls, attrs, name, before=None, after=None):
        wrapped = tracer.wrap(name, getattr(cls, attrs[0]), before, after)
        for attr in attrs:
            setattr(cls, attr, wrapped)

    def on_module(module, attr, name, before=None, after=None):
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "embtrees" or mod_name.startswith("embtrees."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    S = series.Series
    on_class(S, ("__mul__", "__rmul__"), "series.mul",
             tracer.count_series_product, tracer.note_coeff_bits)
    on_class(S, ("__truediv__",), "series.div", after=tracer.note_coeff_bits)
    on_class(S, ("__rtruediv__",), "series.div", after=tracer.note_coeff_bits)
    on_class(S, ("sqrt",), "series.sqrt", after=tracer.note_coeff_bits)
    on_class(marker.MarkerSeries, ("__mul__", "__rmul__"), "marker.mul")
    on_module(paths, "meander_gf", "paths.meander")
    on_module(paths, "meander_dp", "paths.dp")
    on_class(multipoly.MultiPoly, ("__mul__", "__rmul__"), "multipoly.mul")
    on_class(multipoly.MultiPoly, ("eval_series",), "multipoly.eval_series")
    on_class(multipoly.RationalFunction, ("eval_series",), "multipoly.eval_series")
    on_class(multipoly.RationalFunction, ("equals",), "multipoly.rf_equal")
    on_module(multipoly, "rf_equal", "multipoly.rf_equal")
    on_module(kernel, "newton_solve", "kernel.newton")
    on_module(kernel, "hensel_factor_pair", "kernel.hensel")
    on_module(kernel, "complete_homogeneous", "kernel.complete_homogeneous")
    on_class(splitting.SAElement, ("__mul__", "__rmul__"), "splitting.mul")
    on_class(splitting.SplitAlgebra, ("invert_one_plus",), "splitting.invert")
    on_class(splitting.SplitAlgebra, ("monomial",), "splitting.monomial", tracer.note_monomial)
    on_module(binary, "binary_Tj_recurrence", "binary.recurrence")
    on_module(binary, "binary_Tj_closed", "binary.closed")
    on_module(binary, "adapt_lambda", "binary.closed")
    on_module(binary, "brute_force_embedded_binary", "binary.oracle")
    on_module(dary, "dary_Tj_recurrence", "dary.recurrence")
    on_module(dary, "dary_alpha_general", "dary.alpha_general")
    on_module(dary, "brute_force_dary", "dary.oracle")
    for fn in ("lockstep_star", "lockstep_refined", "randomturn_gf", "quarterplane_gf"):
        on_module(walkers, fn, "walkers.closed")
    for fn in ("walker_dp", "lockstep_dp", "lockstep_dp_table", "randomturn_dp",
               "randomturn_dp_table", "quarterplane_dp"):
        on_module(walkers, fn, "walkers.dp")
    on_module(serialize, "export_series", "serialize.export")
    on_module(serialize, "import_series", "serialize.import")
    on_class(serialize.SeriesCache, ("get",), "serialize.cache_get", after=tracer.note_cache_get)
    on_class(serialize.SeriesCache, ("put",), "serialize.cache_put")
    on_module(cli, "build_parser", "cli.parser")


def wrap_checks(tracer: Tracer, checks: dict) -> None:
    """Give every registered campaign check a span of its own.

    ``checks`` is the campaign's id -> (claim, function) registry, which
    ``run_campaign`` reads at call time.
    """
    for check_id, (claim, fn) in list(checks.items()):
        checks[check_id] = (claim, tracer.wrap(check_span(check_id), fn))
