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
    EventCount,
    PShift,
    RecencySend,
    SeqState,
    StatisticSpec,
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


def test_event_draw_keeps_the_stream_of_generator_choice():
    d = syn52(baserate=-1.0)
    track = ((0.0, "quiet"), (1.0, "loud"), (2.5, "quiet"), (3.0, "loud"), (6.0, "quiet"))
    designs = [(d.beta, d.spec, d.risk, d.cov, 300),
               (np.array([0.0, 1.5, 1.0, 0.5]),
                StatisticSpec((Baserate(), ContextIndicator("loud"), PShift("AB-BA"),
                               RecencySend())),
                build_risk_set(4, include_broadcast=True),
                CovariateSet(context_track=track), 200)]
    for beta, spec, risk, cov, n in designs:
        for seed in (0, 5):
            hist = simulate_history(beta, spec, risk, cov, n_events=n, seed=seed)
            events, tau = oracle.simulate_by_choice(beta, spec, risk, cov, n,
                                                    np.random.default_rng(seed))
            assert hist.events == events and hist.tau == tau, seed
    assert len({cov.context_at(t) for t, _, _ in hist.events}) == 2  # the last design switches
