"""In-memory span tracer that wraps hrem's public functions from outside.

Nothing under ``src/hrem`` is modified.  Each wrapper is installed where
its caller looks the function up (``hrem.cli.load_history``, not only
``hrem.events.load_history``) and removed again by :meth:`Tracer.uninstall`.

Two kinds of wrappers exist:

* span wrappers record one ``(id, name, start, end, parent, run)`` tuple per
  call.  They sit on functions called at most a few thousand times a pass
  (CLI commands, loaders, table builds, samplers, diagnostics).
* counter wrappers only add the call count and elapsed time to a per-name
  total.  They sit on the hot functions (statistic matrices and vectors,
  likelihood evaluations, slice-sampler target evaluations), where one
  span per call would cost more memory and time than the call itself.

Both kinds add their elapsed time to the enclosing span's child time, so a
span's self time is its duration minus the time covered by everything it
called that is traced.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

_clock = time.perf_counter


class _Open:
    __slots__ = ("sid", "name", "start", "parent", "child")

    def __init__(self, sid, name, start, parent):
        self.sid = sid
        self.name = name
        self.start = start
        self.parent = parent
        self.child = 0.0


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # (id, name, start, end, parent id, run id)
        self.self_time = defaultdict(float)  # span name -> summed self seconds
        self.calls = defaultdict(int)  # name -> calls (spans and counters)
        self.time = defaultdict(float)  # name -> summed seconds
        self.extra = defaultdict(float)  # named counts gathered by the wrappers
        self.notes = {}  # last value of named per-call results
        self._stack = []
        self._counter_depth = [0]
        self._next_id = 0
        self._patches = []

    # -- recording --------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        parent = self._stack[-1].sid if self._stack else None
        span = _Open(self._next_id, name, _clock(), parent)
        self._stack.append(span)
        return span

    def _exit(self, span):
        end = _clock()
        self._stack.pop()
        dur = end - span.start
        if self._stack:
            self._stack[-1].child += dur
        self.spans.append((span.sid, span.name, span.start, end, span.parent, self.run_id))
        self.self_time[span.name] += dur - span.child
        self.calls[span.name] += 1
        self.time[span.name] += dur

    @contextlib.contextmanager
    def stage(self, name):
        """Record a span around a block of benchmark code."""
        span = self._enter(name)
        try:
            yield
        finally:
            self._exit(span)

    def span(self, name, fn, after=None):
        """Wrap `fn` so each call records a span; `after(tracer, args, kw, result)` may add counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            span = self._enter(name)
            try:
                result = fn(*args, **kw)
            finally:
                self._exit(span)
            if after is not None:
                after(self, args, kw, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap `fn` so each call adds to the call count and summed time of `name`."""
        calls = self.calls
        total = self.time
        stack = self._stack
        depth = self._counter_depth

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            # Only the outermost counter adds to the enclosing span's child
            # time: a counted call inside a counted call is already covered.
            depth[0] += 1
            t0 = _clock()
            try:
                return fn(*args, **kw)
            finally:
                dur = _clock() - t0
                depth[0] -= 1
                calls[name] += 1
                total[name] += dur
                if stack and not depth[0]:
                    stack[-1].child += dur

        return wrapper

    # -- installation -----------------------------------------------------

    def patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def install(tracer: Tracer):
    """Wrap every traced hrem function; undo with ``tracer.uninstall()``."""
    import hrem.cli as cli
    import hrem.diagnostics as diagnostics
    import hrem.inference as inference
    import hrem.likelihood as likelihood
    import hrem.simulate as simulate
    import hrem.stats as stats
    import hrem.tempering as tempering
    from workloads import table_counts

    t = tracer

    # cli: one span per command; its self time is I/O, hashing and CSV parsing.
    t.patch(cli, "main", t.span("cli.main", cli.main))

    # events
    def after_load(tr, args, kw, result):
        tr.extra["events.loaded_events"] += result[0].m

    t.patch(cli, "load_history", t.span("events.load_history", cli.load_history, after_load))
    t.patch(cli, "load_covariates", t.span("events.load_covariates", cli.load_covariates))

    # stats
    def after_table(tr, args, kw, table):
        spec, history, risk, cov = args[:4]
        counts = table_counts([history], risk, cov, [table])
        tr.extra["stats.table_events"] += history.m
        tr.extra["stats.rows_hashed"] += counts["rows_hashed"]
        tr.extra["stats.unique_rows"] += counts["unique_rows"]

    for owner in (cli, stats):
        t.patch(owner, "unique_stat_table",
                t.span("stats.unique_stat_table", owner.unique_stat_table, after_table))
    t.patch(stats.StatisticSpec, "matrix", t.counter("stats.matrix", stats.StatisticSpec.matrix))
    t.patch(stats.StatisticSpec, "vector", t.counter("stats.vector", stats.StatisticSpec.vector))

    # simulate
    def after_sim(tr, args, kw, result):
        hist = result[0] if isinstance(result, tuple) else result
        tr.extra["simulate.events"] += hist.m

    t.patch(cli, "simulate_hierarchical",
            t.span("simulate.simulate_hierarchical", cli.simulate_hierarchical))
    t.patch(simulate, "simulate_history",
            t.span("simulate.simulate_history", simulate.simulate_history, after_sim))

    # likelihood: every module that looks loglik_full up by name
    for owner in (likelihood, inference, diagnostics):
        t.patch(owner, "loglik_full", t.counter("likelihood.loglik_full", owner.loglik_full))
    t.patch(inference, "hessian_loglik_full",
            t.counter("likelihood.hessian_loglik_full", inference.hessian_loglik_full))

    # inference
    original_slice = inference.slice_sample
    logf_counter = functools.partial(t.counter, "inference.slice_eval")

    @functools.wraps(original_slice)
    def slice_sample(x0, logf, *args, **kw):
        return original_slice(x0, logf_counter(logf), *args, **kw)

    t.patch(inference, "slice_sample", t.counter("inference.slice_sample", slice_sample))
    t.patch(inference.CollapsedGibbs, "sweep",
            t.span("inference.sweep", inference.CollapsedGibbs.sweep))
    for owner in (cli, inference):
        t.patch(owner, "run_collapsed_sampler",
                t.span("inference.run_collapsed_sampler", owner.run_collapsed_sampler))
        t.patch(owner, "map_estimate", t.span("inference.map_estimate", owner.map_estimate))

    # tempering
    def after_tempered(tr, args, kw, result):
        draws, info = result
        tr.notes["tempering.accept_rate"] = float(info["accept_rate"][0])
        tr.notes["tempering.swap_rate"] = float(info["swap_rate"])
        tr.extra["tempering.sweeps"] += kw.get("n_burnin", 0) + kw["n_steps"]

    t.patch(cli, "run_parallel_tempering",
            t.span("tempering.run_parallel_tempering", cli.run_parallel_tempering))
    t.patch(tempering, "tempered_sample",
            t.span("tempering.tempered_sample", tempering.tempered_sample, after_tempered))
    t.patch(tempering, "joint_log_posterior",
            t.counter("tempering.joint_log_posterior", tempering.joint_log_posterior))

    # diagnostics: the CLI and the library path both call through the module
    for fname, key in _DIAG_FUNCS:
        fn = getattr(diagnostics, fname)
        t.patch(diagnostics, fname, t.span("diagnostics." + key, fn, _walk_counter(key)))
    t.patch(diagnostics, "dic", t.span("diagnostics.dic", diagnostics.dic, _after_dic))
    return tracer


# (function name, metric key) of the diagnostics that walk a whole history
_DIAG_FUNCS = (
    ("deviance_residuals", "residuals"),
    ("event_probabilities", "probabilities"),
    ("surprise_matrix", "surprise"),
    ("recall_at_z", "recall"),
    ("baseline_recall_at_z", "baseline_recall"),
)


def _walk_counter(key):
    position = 0 if key == "baseline_recall" else 1

    def after(tr, args, kw, result):
        tr.extra["diagnostics.%s_events" % key] += args[position].m

    return after


def _after_dic(tr, args, kw, result):
    tr.extra["diagnostics.dic_draws"] += args[0].n_draws
