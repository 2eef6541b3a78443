import numpy as np
import pytest

from hrem.events import CovariateSet, build_risk_set, validate
from hrem.presets import syn52
from hrem.simulate import (
    SimulationExplosion,
    event_choice_probabilities,
    simulate_hierarchical,
    simulate_history,
)
from hrem.stats import (
    Baserate,
    ContextIndicator,
    ContextInteraction,
    EventCount,
    PShift,
    RecencySend,
    SeqState,
    StatisticSpec,
    ToBroadcast,
)

import scalar_oracle as oracle

COV = CovariateSet()


def test_simulated_history_is_valid():
    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=100, seed=0)
    assert hist.m == 100
    assert validate(hist, d.risk, d.cov) == []


def test_determinism_and_seed_sensitivity():
    d = syn52(baserate=-1.0)
    a = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=30, seed=11)
    b = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=30, seed=11)
    c = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=30, seed=12)
    assert a.events == b.events
    assert a.events != c.events


def test_stop_modes_exclusive():
    d = syn52()
    with pytest.raises(ValueError):
        simulate_history(d.beta, d.spec, d.risk, d.cov, seed=0)
    with pytest.raises(ValueError):
        simulate_history(d.beta, d.spec, d.risk, d.cov, tau=1.0, n_events=5, seed=0)


def test_stop_must_leave_room_for_an_event():
    d = syn52()
    for stop, words in (({"n_events": 0}, "n_events must be at least 1, not 0"),
                        ({"tau": -1.0}, "tau must be positive, not -1.0"),
                        ({"tau": 0.0}, "tau must be positive, not 0.0")):
        with pytest.raises(ValueError, match=words):
            simulate_history(d.beta, d.spec, d.risk, d.cov, seed=0, **stop)


def test_by_count_sets_tau_beyond_last_event():
    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=50, seed=1)
    assert hist.tau > hist.events[-1][0]


def test_by_time_stop():
    risk = build_risk_set(3)
    spec = StatisticSpec((Baserate(),))
    hist = simulate_history(np.zeros(1), spec, risk, COV, tau=5.0, seed=2)
    assert hist.tau == 5.0
    assert all(t < 5.0 for t, _, _ in hist.events)


def test_event_cap_raises_explosion():
    spec = StatisticSpec((Baserate(), EventCount(power=2)))
    risk = build_risk_set(3)
    with pytest.raises(SimulationExplosion):
        simulate_history(np.array([0.0, 1.0]), spec, risk, COV, tau=100.0,
                         seed=3, max_events=200)


def test_rate_ceiling_raises_explosion():
    spec = StatisticSpec((Baserate(), EventCount(power=2)))
    risk = build_risk_set(3)
    with pytest.raises(SimulationExplosion):
        simulate_history(np.array([0.0, 1.0]), spec, risk, COV, tau=100.0,
                         seed=3, rate_ceiling=1e4)


def test_poisson_window_counts_for_constant_rate():
    # constant hazards: counts in disjoint windows are Poisson(|R| * w)
    risk = build_risk_set(3)
    spec = StatisticSpec((Baserate(),))
    hist = simulate_history(np.zeros(1), spec, risk, COV, tau=400.0, seed=4,
                            max_events=10**6)
    times = hist.times
    edges = np.arange(0.0, 400.0 + 1e-9, 2.0)
    counts = np.histogram(times, bins=edges)[0]
    lam = len(risk) * 2.0
    assert counts.mean() == pytest.approx(lam, rel=0.1)
    # Poisson dispersion index near 1
    assert counts.var() / counts.mean() == pytest.approx(1.0, abs=0.35)


def test_choice_probabilities_sum_to_one():
    d = syn52(baserate=-1.0)
    probs = event_choice_probabilities(d.beta, d.spec, d.risk, d.cov, SeqState(10))
    assert probs.shape == (len(d.risk),)
    assert probs.sum() == pytest.approx(1.0)


def test_hierarchical_sigma_zero_copies_mu():
    d = syn52(baserate=-1.0)
    pairs = simulate_hierarchical(d.beta, 0.0, 4, d.spec, d.risk, d.cov,
                                  n_events=10, seed=5)
    for _, beta_k in pairs:
        np.testing.assert_array_equal(beta_k, d.beta)


def test_hierarchical_sigma_one_spread():
    d = syn52(baserate=-1.0)
    pairs = simulate_hierarchical(d.beta, 1.0, 40, d.spec, d.risk, d.cov,
                                  n_events=5, seed=6)
    betas = np.array([b for _, b in pairs])
    sds = betas.std(axis=0, ddof=1)
    assert np.all(sds > 0.6) and np.all(sds < 1.5)


def test_hierarchical_reproducible_per_sequence():
    d = syn52(baserate=-1.0)
    a = simulate_hierarchical(d.beta, 0.5, 3, d.spec, d.risk, d.cov, n_events=20, seed=7)
    b = simulate_hierarchical(d.beta, 0.5, 3, d.spec, d.risk, d.cov, n_events=20, seed=7)
    for (ha, ba), (hb, bb) in zip(a, b):
        assert ha.events == hb.events
        np.testing.assert_array_equal(ba, bb)


def test_context_switch_respected():
    from hrem.stats import ContextIndicator

    cov = CovariateSet(context_track=((0.0, "quiet"), (5.0, "loud")))
    risk = build_risk_set(3)
    spec = StatisticSpec((Baserate(), ContextIndicator("loud")))
    # loud context multiplies every hazard by e^3: rate jumps at t=5
    hist = simulate_history(np.array([0.0, 3.0]), spec, risk, cov, tau=10.0,
                            seed=8, max_events=10**5)
    early = np.sum(hist.times < 5.0)
    late = np.sum(hist.times >= 5.0)
    assert late > 4 * early


# Switches every 0.1 time units, about three mean gaps of the stateless design
# below: a third of its intervals hold a switch and a few hold two, and the
# repeated "loud" restarts the clock in the context it left.
DENSE_TRACK = tuple((0.1 * n, "loud" if n % 3 else "quiet") for n in range(150))


def stateless_design():
    """(beta, spec, risk, cov): no column reads the state; broadcast and context switches."""
    spec = StatisticSpec((Baserate(), ContextIndicator("loud"), ToBroadcast(prev=True),
                          ContextInteraction(PShift("AB-BA"), "loud"), PShift("AB-XY")))
    return (np.array([-0.5, 1.0, 0.8, 1.2, 0.6]), spec, build_risk_set(4, include_broadcast=True),
            CovariateSet(context_track=DENSE_TRACK))


def stateful_design():
    """(beta, spec, risk, cov): a recency column reads the state; a track of five entries."""
    track = ((0.0, "quiet"), (1.0, "loud"), (2.5, "quiet"), (3.0, "loud"), (6.0, "quiet"))
    spec = StatisticSpec((Baserate(), ContextIndicator("loud"), PShift("AB-BA"), RecencySend()))
    return (np.array([0.0, 1.5, 1.0, 0.5]), spec, build_risk_set(4, include_broadcast=True),
            CovariateSet(context_track=track))


def test_event_draw_keeps_the_stream_of_generator_choice():
    d = syn52(baserate=-1.0)
    designs = [((d.beta, d.spec, d.risk, d.cov), 300), (stateful_design(), 200),
               (stateless_design(), 200)]
    for (beta, spec, risk, cov), n in designs:
        for seed in (0, 5):
            hist = simulate_history(beta, spec, risk, cov, n_events=n, seed=seed)
            events, tau = oracle.simulate_by_choice(beta, spec, risk, cov, n,
                                                    np.random.default_rng(seed))
            assert hist.events == events and hist.tau == tau, seed
        if cov.context_track:  # each design with a track switches between events
            assert len({cov.context_at(t) for t, _, _ in hist.events}) == 2
    assert any(e[2] == 4 for e in hist.events)  # the stateless design broadcasts


def test_simulator_builds_one_matrix_per_key_unless_a_column_reads_the_state(monkeypatch):
    calls, applied = [], []
    matrix, apply = StatisticSpec.matrix, SeqState.apply

    def counted(self, state, cov, risk, context):
        calls.append((context, state.last_event))
        return matrix(self, state, cov, risk, context)

    def folded(self, event, cov=None):
        applied.append(event)
        return apply(self, event, cov)

    monkeypatch.setattr(StatisticSpec, "matrix", counted)
    monkeypatch.setattr(SeqState, "apply", folded)
    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=1000, seed=11)
    # Every step's key is (context, previous event); the last event starts no step.
    keys = {(None, None)} | {(None, e[1:]) for e in hist.events[:-1]}
    assert sorted(calls, key=repr) == sorted(keys, key=repr) and len(calls) < 100
    # No column reads the state, so no event is folded into it.
    assert applied == []
    beta, spec, risk, cov = stateless_design()
    calls.clear()
    hist = simulate_history(beta, spec, risk, cov, n_events=200, seed=0)
    restarts = sum(0.0 < s < hist.events[-1][0] for s, _ in cov.context_track)
    assert restarts > 50 and len(calls) == len(set(calls)) < 50
    assert applied == []
    # A column that reads the state: one matrix per step, that is per event
    # and per restart at each switch before the last event, and every event
    # folded into the state.
    beta, spec, risk, cov = stateful_design()
    calls.clear()
    hist = simulate_history(beta, spec, risk, cov, n_events=200, seed=0)
    restarts = sum(0.0 < s < hist.events[-1][0] for s, _ in cov.context_track)
    assert restarts > 0 and len(calls) == 200 + restarts
    assert applied == list(hist.events)
