"""Per-layer tracing of naivea from outside the package.

Nothing under ``src/`` knows about this module. ``installed(tracer)`` swaps
wrappers into naivea's namespaces for the duration of a ``with`` block and
restores the originals afterwards. A module binds the functions it imports
under its own name, so each wrapper is installed under the name the *caller*
looks up: ``naivea.cli.write_canonical`` for the CLI's write,
``naivea.tailor.stabilize`` for the pipeline's flow, and so on.

Two kinds of wrapper:

* timed: records a span (name, start, end, parent span) per call; a layer's
  self time is its span's duration minus the durations of its child spans;
* counted: bumps a counter only. Used for the per-call-cheap hot methods
  (``AugmentedSpace.dist``, ``Space.dist``, ``GraphMetric.row``), where timing
  every call would cost more than the call.

Spans of one CLI operation sit under that operation's root span and are
summarized when the operation ends. Flow and admission results are stashed
during the operation and reduced to counts afterwards, so that the work of
computing them is not charged to any span.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter

# (module, attribute as the caller looks it up, span name)
TIMED = (
    ("naivea.cli", "gen_instance", "generators.gen_instance"),
    ("naivea.generators", "gen_instance", "generators.gen_instance"),
    ("naivea.cli", "load_instance", "instance_io.load"),
    ("naivea.cli", "load_output", "instance_io.load_output"),
    ("naivea.cli", "parse_subsets", "instance_io.parse_subsets"),
    ("naivea.instance_io", "output_to_jsonable", "instance_io.to_jsonable"),
    ("naivea.cli", "write_canonical", "instance_io.write"),
    ("naivea.cli", "run_pipeline", "tailor.run_pipeline"),
    ("naivea.tailor", "run_pipeline", "tailor.run_pipeline"),
    ("naivea.tailor", "classify", "tailor.classify"),
    ("naivea.tailor", "tailor_subset", "tailor.tailor_subset"),
    ("naivea.tailor", "check_instance", "chains.admission"),
    ("naivea.tailor", "rips_components", "space.rips"),
    ("naivea.tailor", "augment", "augment.augment"),
    ("naivea.tailor", "build_flow", "flow.build"),
    ("naivea.tailor", "stabilize", "flow.stabilize"),
    ("naivea.chains", "qualifying_pairs", "chains.pairs"),
    ("naivea.tailor", "qualifying_pairs", "chains.pairs"),
    ("naivea.verify", "qualifying_pairs", "chains.pairs"),
    ("naivea.chains", "variation_ratio", "chains.variation_ratio"),
    ("naivea.tailor", "variation_ratio", "chains.variation_ratio"),
    ("naivea.tailor", "set_ratio", "chains.set_ratio"),
    ("naivea.verify", "set_ratio", "chains.set_ratio"),
    ("naivea.cli", "verify_naive", "verify.naive"),
    ("naivea.cli", "verify_certificate", "verify.certificate"),
)

# (module, class, method, counter name)
COUNTED = (
    ("naivea.augment", "AugmentedSpace", "dist", "augment.dist_calls"),
    ("naivea.space", "Space", "dist", "space.dist_calls"),
)

# Per-layer metrics of one closed-loop cycle (one `run`, then one `verify`),
# in report order. `generators.gen_instance_s` comes from a traced `generate`.
PER_LAYER = (
    ("tailor.run_pipeline_s", "s"),
    ("tailor.run_pipeline_self_s", "s"),
    ("tailor.classify_s", "s"),
    ("tailor.tailor_subset_s", "s"),
    ("tailor.cases_1", "count"),
    ("tailor.cases_2", "count"),
    ("tailor.cases_3a", "count"),
    ("tailor.cases_3b", "count"),
    ("augment.dist_calls", "count"),
    ("space.dist_calls", "count"),
    ("space.graph_rows", "count"),
    ("space.rips_s", "s"),
    ("flow.build_s", "s"),
    ("flow.stabilize_s", "s"),
    ("flow.stabilize_calls", "count"),
    ("flow.steps", "count"),
    ("flow.step_bound", "count"),
    ("flow.steps_max", "count"),
    ("flow.max_tail_index", "count"),
    ("flow.window_N", "count"),
    ("chains.admission_s", "s"),
    ("chains.pairs_s", "s"),
    ("chains.pairs_calls", "count"),
    ("chains.variation_ratio_s", "s"),
    ("chains.variation_ratio_calls", "count"),
    ("chains.set_ratio_s", "s"),
    ("chains.set_ratio_calls", "count"),
    ("instance_io.load_s", "s"),
    ("instance_io.load_output_s", "s"),
    ("instance_io.parse_subsets_s", "s"),
    ("instance_io.to_jsonable_s", "s"),
    ("instance_io.write_s", "s"),
    ("verify.naive_s", "s"),
    ("verify.naive_self_s", "s"),
    ("verify.certificate_s", "s"),
    ("generators.gen_instance_s", "s"),
    ("cli.run_self_s", "s"),
    ("cli.verify_self_s", "s"),
    ("host.calibration_s", "s"),
    ("trace.overhead_s", "s"),
)

# Metrics that are exact counts: two traced cycles must agree on every one.
EXACT = tuple(name for name, unit in PER_LAYER if unit == "count")
SPANS = {span for _, _, span in TIMED}
SELF_TIME = {
    "tailor.run_pipeline_self_s": "tailor.run_pipeline",
    "verify.naive_self_s": "verify.naive",
}


class Tracer:
    """Spans and counters for one CLI operation at a time."""

    def __init__(self):
        self._spans = []  # [name, start, end, parent index or None]
        self._stack = []
        self._counts = Counter()
        self._row_owners = {}  # id(GraphMetric) -> (metric, set of row sources)
        self._flow = []  # (args, (result, steps)) per stabilize call
        self._reports = []  # (args, InstanceReport) per admission check

    # -- wrappers -----------------------------------------------------------

    def timed(self, name, fn):
        spans, stack, clock = self._spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return wrapper

    def counted(self, name, fn):
        counts = self._counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def _row(self, fn):
        owners = self._row_owners

        @functools.wraps(fn)
        def row(metric, source):
            entry = owners.get(id(metric))
            if entry is None:
                # keep the metric alive so its id is not reused within the op
                entry = owners[id(metric)] = (metric, set())
            entry[1].add(source)
            return fn(metric, source)

        return row

    def _stashing(self, store, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            store.append((args, result))
            return result

        return wrapper

    def patches(self):
        """(owner, attribute, wrapper) for every hook this tracer installs."""
        out = []
        for module, attr, name in TIMED:
            owner = importlib.import_module(module)
            fn = self.timed(name, vars(owner)[attr])
            if name == "flow.stabilize":
                fn = self._stashing(self._flow, fn)
            elif name == "chains.admission":
                fn = self._stashing(self._reports, fn)
            out.append((owner, attr, fn))
        for module, cls, method, name in COUNTED:
            owner = getattr(importlib.import_module(module), cls)
            out.append((owner, method, self.counted(name, vars(owner)[method])))
        graph = importlib.import_module("naivea.space").GraphMetric
        out.append((graph, "row", self._row(vars(graph)["row"])))
        return out

    # -- operations ---------------------------------------------------------

    @contextlib.contextmanager
    def op(self, name):
        """Root span of one CLI operation; nested spans become its children."""
        if self._spans:
            raise RuntimeError("operations do not nest; take() the last one first")
        start = time.perf_counter()
        self._spans.append([name, start, None, None])
        self._stack.append(0)
        try:
            yield
        finally:
            self._stack.pop()
            self._spans[0][2] = time.perf_counter()

    def take(self) -> dict:
        """Reduce the finished operation to totals and reset for the next.

        Returns {"time": {span: s}, "self": {span: s}, "calls": {span: n},
        "counts": {counter: n}}.
        """
        spans = self._spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None:
                child[parent] += end - start
        total, own, calls = Counter(), Counter(), Counter()
        for i, (name, start, end, _) in enumerate(spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        counts = Counter(self._counts)
        counts["space.graph_rows"] = sum(len(s) for _, s in self._row_owners.values())
        steps = [n for _, (_, n) in self._flow]
        counts["flow.steps"] = sum(steps)
        counts["flow.steps_max"] = max(steps, default=0)
        bound = 0
        tail = 0
        for args, (result, _) in self._flow:
            chain = args[1]
            mass = sum(chain.values())
            bound += mass * sum(v - 1 for v in chain.values() if v > 1)
            for p in result:
                if isinstance(p, tuple) and p[1] > tail:
                    tail = p[1]
        counts["flow.step_bound"] = bound
        counts["flow.max_tail_index"] = tail
        windows = {report.params.N for _, report in self._reports}
        counts["flow.window_N"] = max(windows, default=0)
        spans.clear()
        self._counts.clear()
        self._row_owners.clear()
        self._flow.clear()
        self._reports.clear()
        return {"time": total, "self": own, "calls": calls, "counts": counts}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap the tracer's wrappers in; always restore the originals."""
    saved = []
    try:
        for owner, attr, wrapper in tracer.patches():
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def cycle_metrics(run: dict, verify: dict) -> dict:
    """Per-layer metrics of one cycle from the `take()` of its two operations.

    Times and counts are summed over both operations; `cli.*_self_s` keep
    them apart. Case counts, calibration, overhead and `gen_instance` time
    of the set-up are filled in by the caller.
    """
    total, own, calls, counts = Counter(), Counter(), Counter(), Counter()
    for op in (run, verify):
        total.update(op["time"])
        own.update(op["self"])
        calls.update(op["calls"])
        counts.update(op["counts"])
    counts["flow.window_N"] = max(run["counts"]["flow.window_N"], verify["counts"]["flow.window_N"])
    m = dict(counts)
    for name, _ in PER_LAYER:
        span = name.rsplit("_", 1)[0]
        if name in SELF_TIME:
            m[name] = own[SELF_TIME[name]]
        elif span in SPANS and name.endswith("_calls"):
            m[name] = calls[span]
        elif span in SPANS and name.endswith("_s"):
            m[name] = total[span]
    m["cli.run_self_s"] = run["self"]["cli.run"]
    m["cli.verify_self_s"] = verify["self"]["cli.verify"]
    return m
