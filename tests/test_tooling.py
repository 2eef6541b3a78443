"""The traced benchmark wraps hrem functions by name; every name it wraps must exist."""

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
