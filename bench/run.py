"""The logjet benchmark: chart workloads run load_chart -> analyze -> report.

Run from the repository root:

    python3 bench/run.py --workload log-strata --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: the next chart starts when the
previous one finishes.  A pass runs analyze (at each entry's max order,
with the budgets of its chart file, as `logjet analyze` does; the
LOGJET_BUDGET variable is not read) and emit_report (table and JSON) on
every chart of the workload, in an order drawn from the seed.  Before each
pass the charts are loaded afresh and logjet's module-level caches are
emptied, so every pass starts as cold as a `logjet analyze` call.  Passes
repeat until --seconds have gone by.

Every answer is checked against references.json.  A wrong verdict or a
wrong dimension in a decided row makes the run exit 1; a chart that raises
a LogjetError or comes back INCONCLUSIVE is a failed operation.

Times are in reference seconds (see SAMPLE_REF_S); raw wall times are
printed on the line before the result.

--trace 0 prints the end-to-end metrics, measured without tracing:
  verdict_s    time of one pass: the sum over the workload's charts of the
               median time of that chart's analyze + emit_report
  setup_s      median, over fresh interpreters, of importing logjet and
               loading every chart file of the workload
  decided_frac decided share of the inequality rows and ordinary lct
               orders the references ask for
  peak_rss_mb  peak resident memory of this process
--trace 1 alternates untraced and traced passes and prints per-layer
metrics: self times, calls and counts per pass (means over the traced
passes; the layers' self times plus trace.unattributed_s add up to
trace.pass_s), and the tracing overhead, trace.pass_s minus
trace.untraced_pass_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it describes the
machine and the samples.
"""

import argparse
import gc
import heapq
import importlib.util
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

# The benchmark measures the logjet of this checkout and nothing else.
if not (SRC / "logjet" / "__init__.py").is_file():
    sys.exit(f"bench: no logjet package under {SRC}; run the benchmark "
             "from a checkout of the repository")
sys.path.insert(0, str(SRC))

import corpus  # noqa: E402
import tracing  # noqa: E402
from logjet import analyzer, chartfile, dimension, report  # noqa: E402
from logjet.errors import LogjetError  # noqa: E402

if Path(analyzer.__file__).resolve().parent != SRC / "logjet":
    sys.exit(f"bench: imported logjet from {analyzer.__file__}")

# The speed of a shared host swings by up to 2x within seconds and drifts
# over minutes, so raw wall times of two runs are not comparable.  Every
# timed region (one chart, one set-up) therefore comes with speed samples,
# runs of a fixed loop that does not touch logjet: BRACKET_SAMPLES just
# before and just after it and, from a timer signal, one every
# SAMPLE_INTERVAL_S inside it.  The region's wall time, less the samples
# taken inside it, is given in reference seconds: wall time * SAMPLE_REF_S
# / the mean sample time, i.e. seconds on a machine where one sample takes
# SAMPLE_REF_S (about its time on an idle 2-core Xeon VM).
SAMPLE_STEPS = 300
SAMPLE_REF_S = 0.0025
BRACKET_SAMPLES = 50
SAMPLE_INTERVAL_S = 0.05

# Set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_SECONDS, so that the cheap workloads get enough samples for a steady
# median while the expensive one stays within the run's time.
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
SETUP_TIMEOUT_S = 120

# The child imports logjet and loads the charts, timing both from the first
# import; a chart that fails to load costs what it cost until it failed.
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from logjet.chartfile import load_chart
from logjet.errors import LogjetError
for path in sys.argv[2:]:
    try:
        load_chart(path)
    except LogjetError:
        pass
print(repr(time.perf_counter() - start))
"""

END_TO_END = {"verdict_s": "s", "setup_s": "s", "decided_frac": "ratio",
              "peak_rss_mb": "MB"}

SELF_TIMES = ("chartfile.load", "monoid.build", "monoid.faces",
              "chart.build", "parse.parse", "analyzer.analyze",
              "strata.stratify", "strata.present", "analyzer.present",
              "jets.derive", "dimension.dispatch", "dimension.groebner",
              "dimension.krull", "dimension.fp", "report.emit")
CALLS = ("dimension.groebner", "dimension.krull", "dimension.fp",
         "jets.derive")
COUNTS = {"monoid.membership_calls": "monoid.membership",
          "dimension.pairs": "dimension.pairs",
          "dimension.basis_elems": "dimension.basis_elems",
          "dimension.limit_vars": "dimension.limit_vars",
          "dimension.limit_pairs": "dimension.limit_pairs",
          "dimension.limit_degree": "dimension.limit_degree",
          "dimension.limit_other": "dimension.limit_other",
          "presentation.vars_sum": "presentation.vars_sum",
          "presentation.gens_sum": "presentation.gens_sum",
          "report.bytes": "report.bytes"}
MAXIMA = ("dimension.max_lead_deg", "presentation.vars_max")
TRACE_TOTALS = ("dimension.limit_s", "trace.unattributed_s",
                "trace.layers_s", "trace.pass_s", "trace.untraced_pass_s",
                "trace.overhead_s")


def per_layer_units():
    units = {f"{name}_s": "s" for name in SELF_TIMES}
    units.update({f"{name}_calls": "count" for name in CALLS})
    units.update({name: "count" for name in COUNTS})
    units["report.bytes"] = "bytes"
    units.update({name: "count" for name in MAXIMA})
    units.update({name: "s" for name in TRACE_TOTALS})
    return units


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(),
            "gmpy2": importlib.util.find_spec("gmpy2") is not None}


def summary(samples):
    q1, median, q3 = (statistics.quantiles(samples, n=4)
                      if len(samples) > 1 else samples * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples)}


def clear_caches():
    """Empty logjet's module-level caches, as a fresh process has them."""
    for name, module in list(sys.modules.items()):
        if name != "logjet" and not name.startswith("logjet."):
            continue
        for attr, value in vars(module).items():
            if isinstance(value, dict) and "cache" in attr:
                value.clear()
            elif callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


# -- speed-calibrated timing --------------------------------------------------


def _speed_loop(steps):
    """Fixed pure-Python work like logjet's: Fractions, dicts, a heap."""
    acc = {}
    heap = []
    x = Fraction(1, 3)
    for i in range(steps):
        key = (i % 31, i % 7, i % 5)
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i % 11 + 1)
        if x.denominator > 10**12:
            x = Fraction(x.numerator % 1000 + 1, 7)
        acc[key] = acc.get(key, 0) + x
        heapq.heappush(heap, (sum(key), i, key))
        if len(heap) > 100:
            heapq.heappop(heap)
    return len(acc)


def speed_samples(count):
    """Times of count runs of the speed loop, without garbage collection."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = []
        for _ in range(count):
            start = time.perf_counter()
            _speed_loop(SAMPLE_STEPS)
            out.append(time.perf_counter() - start)
        return out
    finally:
        if enabled:
            gc.enable()


def calibrated(bodies, inside=True, on_sample=None):
    """Run each body() with speed samples; yield (wall s, ref s, result).

    Neighbouring bodies share the samples between them.  With inside, a
    timer signal also samples during each body, and wall leaves those
    samples out; on_sample(seconds) is told of each of them.
    """
    taken = []

    def on_alarm(_signum, _frame):
        taken.extend(speed_samples(1))
        if on_sample is not None:
            on_sample(taken[-1])

    previous = signal.signal(signal.SIGALRM, on_alarm) if inside else None
    try:
        before = speed_samples(BRACKET_SAMPLES)
        for body in bodies:
            taken.clear()
            if inside:
                signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                                 SAMPLE_INTERVAL_S)
            start = time.perf_counter()
            try:
                result = body()
            finally:
                if inside:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
            during = list(taken)
            wall -= sum(during)
            after = speed_samples(BRACKET_SAMPLES)
            speed = statistics.fmean(before + during + after)
            yield wall, wall * SAMPLE_REF_S / speed, result
            before = after
    finally:
        if inside:
            signal.signal(signal.SIGALRM, previous)


def setup_once(paths):
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC)] + paths,
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip())


# -- the workload -------------------------------------------------------------


def analyze_one(entry, chart, opts):
    """The measured operation: analyze and render one chart.

    Returns (report, None), or (None, error) for a LogjetError.
    """
    cfg = analyzer.AnalysisConfig(
        max_order=entry.max_order,
        budgets=opts.budgets or dimension.Budgets())
    try:
        result = analyzer.analyze(chart, cfg)
        report.emit_report(result, "table")
        report.emit_report(result, "json")
    except LogjetError as exc:
        return None, exc
    return result, None


class Workload:
    """Loads and runs one workload's charts and tallies their outcomes."""

    def __init__(self, entries, references, seed):
        self.entries = entries
        self.references = references
        self.rng = random.Random(seed)
        self.attempted = self.failed = self.asked = self.decided = 0
        self.failures = {}
        self.undecided = {}
        self.witnesses = {}
        self.wrong = set()

    def load(self):
        """Fresh charts in this pass's order: (entry, chart, opts, error)."""
        order = list(self.entries)
        self.rng.shuffle(order)
        loaded = []
        for entry in order:
            try:
                chart, opts = chartfile.load_chart(
                    corpus.CHART_DIR / entry.chart)
                loaded.append((entry, chart, opts, None))
            except LogjetError as exc:
                loaded.append((entry, None, None, exc))
        return loaded

    def run(self, loaded, tracer=None):
        """Analyze the loaded charts in order; returns [(entry, wall, ref)].

        With a tracer, each chart runs as one root span of it.
        """
        for entry, _chart, _opts, error in loaded:
            if error is not None:
                self.tally(entry, None, error)
        timed = [item for item in loaded if item[3] is None]

        def bodies():
            for entry, chart, opts, _error in timed:
                if tracer is None:
                    yield lambda e=entry, c=chart, o=opts: analyze_one(e, c, o)
                else:
                    yield lambda e=entry, c=chart, o=opts: tracer.root(
                        lambda: analyze_one(e, c, o))

        times = []
        runs = calibrated(bodies(),
                          on_sample=tracer.exclude if tracer else None)
        # runs comes first, so that it is run to its end and restores the
        # signal handler
        for (wall, ref, outcome), item in zip(runs, timed):
            self.tally(item[0], *outcome)
            times.append((item[0], wall, ref))
        return times

    def tally(self, entry, result, error):
        out = corpus.check_outcome(entry, self.references[entry.chart],
                                   result, error)
        self.attempted += 1
        self.asked += out.asked
        self.decided += out.decided
        if out.decided < out.asked:
            self.undecided[entry.chart] = out.asked - out.decided
        if out.failed:
            self.failed += 1
            self.failures[entry.chart] = out.error or out.verdict
        if result is not None and result.witness is not None:
            wc = result.witness_confirmation
            self.witnesses[entry.chart] = {
                "l": result.witness[0], "m": result.witness[1],
                "fp_confirmed": None if wc is None else wc.confirmed}
        self.wrong.update(f"{entry.chart}: {w}" for w in out.wrong)

    def timed_pass(self):
        """One untraced pass: [(entry, wall s, ref s)] per chart."""
        loaded = self.load()
        clear_caches()
        return self.run(loaded)

    def traced_pass(self):
        """One traced pass: (load tracer, pass tracer, speed factor).

        Every span of the pass tracer lies inside one of its root spans,
        so its self times add up to its root_s less its excluded_s.
        """
        with tracing.Tracer() as load_tracer:
            loaded = self.load()
        clear_caches()
        with tracing.Tracer() as pass_tracer:
            times = self.run(loaded, pass_tracer)
        wall = sum(t[1] for t in times)
        factor = sum(t[2] for t in times) / wall if wall else 1.0
        return load_tracer, pass_tracer, factor


# -- the two kinds of run -----------------------------------------------------


def end_to_end(work, seconds, paths):
    setups, setup_walls = [], []
    deadline = time.perf_counter() + SETUP_SECONDS

    def setup_bodies():
        while len(setups) < SETUP_REPEATS or time.perf_counter() < deadline:
            yield lambda: setup_once(paths)

    # the child times itself, leaving out interpreter start-up; it is
    # scaled by the same speed factor as the call around it
    for wall, ref, child_s in calibrated(setup_bodies(), inside=False):
        setups.append(child_s * ref / wall)
        setup_walls.append(child_s)

    per_chart = defaultdict(list)
    passes, pass_walls = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        times = work.timed_pass()
        for entry, _wall, ref in times:
            per_chart[entry.chart].append(ref)
        passes.append(sum(t[2] for t in times))
        pass_walls.append(sum(t[1] for t in times))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "verdict_s": sum(statistics.median(v) for v in per_chart.values()),
        "setup_s": statistics.median(setups),
        "decided_frac": work.decided / work.asked,
        "peak_rss_mb": rss_mb}
    detail = {
        "pass_s": summary(passes), "pass_wall_s": summary(pass_walls),
        "chart_s": {c: summary(v) for c, v in sorted(per_chart.items())},
        "setup_s": summary(setups), "setup_wall_s": summary(setup_walls)}
    return metrics, detail


def per_layer(work, seconds):
    """Alternate untraced and traced passes; per-pass means of the layers."""
    self_s, calls = defaultdict(float), defaultdict(int)
    counts, maxima = defaultdict(int), defaultdict(int)
    untraced, traced, unattributed = [], [], []
    limit_s = 0.0
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(sum(t[2] for t in work.timed_pass()))
        load_tracer, pass_tracer, factor = work.traced_pass()
        for tracer in (load_tracer, pass_tracer):
            for layer, value in tracer.self_s.items():
                self_s[layer] += value * factor
            for table, source in ((calls, tracer.calls),
                                  (counts, tracer.counts)):
                for key, value in source.items():
                    table[key] += value
            for key, value in tracer.maxima.items():
                maxima[key] = max(maxima[key], value)
            limit_s += tracer.limit_s * factor
        traced.append((pass_tracer.root_s - pass_tracer.excluded_s) * factor)
        unattributed.append(pass_tracer.self_s[tracing.ROOT] * factor)
    n = len(traced)
    metrics = {f"{name}_s": self_s[name] / n for name in SELF_TIMES}
    metrics.update({f"{name}_calls": calls[name] / n for name in CALLS})
    metrics.update({name: counts[key] / n for name, key in COUNTS.items()})
    metrics.update({name: maxima[name] for name in MAXIMA})
    pass_s = statistics.fmean(traced)
    untraced_s = statistics.fmean(untraced)
    metrics.update({
        "dimension.limit_s": limit_s / n,
        "trace.unattributed_s": statistics.fmean(unattributed),
        "trace.layers_s": pass_s - statistics.fmean(unattributed),
        "trace.pass_s": pass_s,
        "trace.untraced_pass_s": untraced_s,
        "trace.overhead_s": pass_s - untraced_s})
    detail = {"traced_s": summary(traced), "untraced_s": summary(untraced)}
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in corpus.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(corpus.WORKLOADS)}")
    entries = corpus.WORKLOADS[args.workload]
    work = Workload(entries, corpus.load_references(), args.seed)
    if args.trace:
        metrics, detail = per_layer(work, args.seconds)
        units = per_layer_units()
    else:
        paths = sorted({str(corpus.CHART_DIR / e.chart) for e in entries})
        metrics, detail = end_to_end(work, args.seconds, paths)
        units = END_TO_END

    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  machine=machine(), sample_ref_s=SAMPLE_REF_S,
                  attempted=work.attempted, failed=work.failed,
                  failures=work.failures, undecided_rows=work.undecided,
                  witnesses=work.witnesses,
                  decided_rows=work.decided, asked_rows=work.asked,
                  wrong=sorted(work.wrong))
    print(json.dumps(detail, sort_keys=True))
    correct = not work.wrong
    for line in sorted(work.wrong):
        print(f"bench: wrong answer: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
