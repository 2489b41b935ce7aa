"""Per-layer spans and counts, recorded from outside the logjet package.

The tracer wraps public functions at the name their caller looks up (a
module global such as logjet.analyzer.dimension_of, or a class attribute
such as AffineMonoid.faces) and restores the originals when its with block
ends.  Each wrapper is a span: a layer's self time is the span's duration
minus the time of the spans it caused.  Spans are aggregated as they
close, so the tracer keeps per-layer totals rather than a span list.
"""

import time
from collections import defaultdict

import logjet.analyzer
import logjet.chart
import logjet.chartfile
import logjet.dimension
import logjet.report
import logjet.strata
from logjet.chart import Chart
from logjet.errors import ResourceLimitError
from logjet.monoid import AffineMonoid

ROOT = "trace.unattributed"

LIMIT_KINDS = (("variables", "dimension.limit_vars"),
               ("pair", "dimension.limit_pairs"),
               ("degree", "dimension.limit_degree"))


def _groebner_stats(tracer, _args, result, error, dur):
    if isinstance(error, ResourceLimitError):
        text = str(error)
        kind = next((name for word, name in LIMIT_KINDS if word in text),
                    "dimension.limit_other")
        tracer.counts[kind] += 1
        tracer.limit_s += dur
    if error is not None:
        return
    tracer.counts["dimension.pairs"] += result.pairs_processed
    tracer.counts["dimension.basis_elems"] += len(result.basis)
    lead = max((sum(lm) for lm in result.leading_monomials()), default=0)
    tracer.maxima["dimension.max_lead_deg"] = max(
        tracer.maxima["dimension.max_lead_deg"], lead)


def _presentation_stats(tracer, args, _result, _error, _dur):
    pres = args[0]
    nvars = len(pres.variables)
    tracer.counts["presentation.vars_sum"] += nvars
    tracer.counts["presentation.gens_sum"] += len(pres.generators)
    tracer.maxima["presentation.vars_max"] = max(
        tracer.maxima["presentation.vars_max"], nvars)


def _report_bytes(tracer, _args, result, error, _dur):
    if error is None:
        tracer.counts["report.bytes"] += len(result.encode("utf-8"))


# (owner, attribute, layer, on_exit).  on_exit(tracer, args, result, error,
# duration) runs when the call returns or raises, so a presentation that
# trips a budget still counts.
SPANS = (
    (logjet.chartfile, "load_chart", "chartfile.load", None),
    (AffineMonoid, "__init__", "monoid.build", None),
    (AffineMonoid, "faces", "monoid.faces", None),
    (Chart, "build", "chart.build", None),
    (logjet.chart, "parse_poly", "parse.parse", None),
    (logjet.analyzer, "analyze", "analyzer.analyze", None),
    (logjet.analyzer, "stratify", "strata.stratify", None),
    (logjet.analyzer, "base_presentation", "strata.present", None),
    (logjet.analyzer, "stratum_jet_presentation", "strata.present", None),
    (logjet.strata, "base_presentation", "strata.present", None),
    (logjet.analyzer, "open_part_jet_presentation", "analyzer.present", None),
    (logjet.analyzer, "ordinary_jet_presentation", "analyzer.present", None),
    (logjet.analyzer, "derivative_chain", "jets.derive", None),
    (logjet.strata, "derivative_chain", "jets.derive", None),
    (logjet.analyzer, "dimension_of", "dimension.dispatch",
     _presentation_stats),
    (logjet.dimension, "groebner_basis", "dimension.groebner",
     _groebner_stats),
    (logjet.dimension, "krull_dim", "dimension.krull", None),
    (logjet.dimension, "fp_dimension_estimate", "dimension.fp", None),
    (logjet.analyzer, "fp_dimension_estimate", "dimension.fp", None),
    (logjet.report, "emit_report", "report.emit", _report_bytes),
)

# Counted, not spanned: a cheap call made hundreds of times per pass, whose
# time stays with its caller (monoid.build or chart.build).
COUNTS = ((AffineMonoid, "membership", "monoid.membership"),)


class Tracer:
    """Installs its wrappers as a context manager; totals accumulate."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.limit_s = 0.0      # time in groebner_basis calls that tripped
        self.root_s = 0.0       # total duration of the root spans
        self.excluded_s = 0.0   # time inside them that is not the program's
        self._stack = []
        self._originals = []

    # -- spans ----------------------------------------------------------------

    def _enter(self):
        frame = [0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _leave(self, layer, frame, start):
        dur = time.perf_counter() - start
        self._stack.pop()
        self.self_s[layer] += dur - frame[0]
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][0] += dur
        return dur

    def exclude(self, seconds):
        """Leave time the open span spent outside the program (a speed
        sample taken by the benchmark) out of its self time."""
        if self._stack:
            self._stack[-1][0] += seconds
        self.excluded_s += seconds

    def root(self, body):
        """Run body() as the root span and return its result."""
        frame, start = self._enter()
        try:
            return body()
        finally:
            self.root_s += self._leave(ROOT, frame, start)

    def _span(self, fn, layer, on_exit):
        tracer = self

        def wrapper(*args, **kwargs):
            frame, start = tracer._enter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                dur = tracer._leave(layer, frame, start)
                if on_exit is not None:
                    on_exit(tracer, args, result, error, dur)

        return wrapper

    def _count(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def _install(self, owner, attr, make):
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def __enter__(self):
        for owner, attr, layer, on_exit in SPANS:
            self._install(owner, attr, lambda fn, layer=layer, hook=on_exit:
                          self._span(fn, layer, hook))
        for owner, attr, name in COUNTS:
            self._install(owner, attr,
                          lambda fn, name=name: self._count(fn, name))
        return self

    def __exit__(self, *exc):
        """Put every original back, then check that each one is in place."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        for owner, attr, original in self._originals:
            if owner.__dict__[attr] is not original:
                raise RuntimeError(
                    f"{owner.__name__}.{attr} was not restored")
        self._originals.clear()
        return False
