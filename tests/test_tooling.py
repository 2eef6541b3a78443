"""The benchmark's hooks into hrem: every name the tracer wraps must exist, and every
workload must run a pass, so a change to an hrem call the benchmark makes fails here."""

import os


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_perfbench_tracer_installs_and_restores_every_patch(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    tracer = tracing.Tracer("test")
    try:
        tracing.install(tracer)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, attr


def _toy_workloads(workdir):
    """The benchmark's classroom and CLI workloads at toy sizes."""
    import workloads

    class Classroom(workloads.Classroom):
        n_actors, k, n_events, n_train, events_per_context = 8, 2, 40, 30, 10

        def __init__(self, seed, workdir):
            super().__init__(seed, workdir)
            self.n_burnin, self.n_keep = 2, 3

    class CliPipeline(workloads.CliPipeline):
        n_events, n_train = 120, 100  # check() compares likelihoods on 100 events

    return [Classroom(3, os.path.join(workdir, "classroom"))] + [
        CliPipeline(3, os.path.join(workdir, sampler), k=2, sampler=sampler, n_burnin=2,
                    n_keep=2, check_mu=False)
        for sampler in ("collapsed", "tempering")]


def test_perfbench_workloads_run_a_pass_at_toy_sizes(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(PERFBENCH)
    for workload in _toy_workloads(str(tmp_path)):
        workload.setup()
        steps = workload.run_pass()
        assert steps.wall and all(t >= 0 for t in steps.wall.values())
        checks = {name: ok for name, ok, _ in workload.check()}
        assert checks["loglik_cache_vs_naive"], type(workload).__name__
        assert workload.counts()["K"] == workload.k
        workload.fingerprint()
        workload.fit_diagnostics()


def test_perfbench_tracer_counts_a_collapsed_pass(monkeypatch, tmp_path):
    # The tracer wraps each slice update's logf and passes logf0 on through **kw.
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    workload = _toy_workloads(str(tmp_path))[1]
    workload.setup()
    tracer = tracing.Tracer("test")
    try:
        tracing.install(tracer)
        workload.run_pass()
    finally:
        tracer.uninstall()
    updates = tracer.calls["inference.slice_sample"]
    assert updates and tracer.calls["inference.slice_eval"] > updates
    for name in ("inference.sweep", "stats.matrix"):
        assert tracer.calls[name], name
