import math

import numpy as np
import pytest

import scalar_oracle as oracle
from hrem import diagnostics
from hrem.events import CovariateSet, build_risk_set
from hrem.inference import PosteriorSamples
from hrem.likelihood import loglik_full, score_events
from hrem.presets import syn52
from hrem.simulate import simulate_history
from hrem.stats import Baserate, StatisticSpec, unique_stat_table

COV = CovariateSet()


def make_samples(betas):
    betas = np.asarray(betas, dtype=float)
    l, k, p = betas.shape
    return PosteriorSamples(
        betas=betas, mu=np.zeros((l, p)), sigma2=np.ones((l, p)),
        logpost=np.zeros(l), n_burnin=0, n_keep=l,
    )


def intercept_setup(n_events=40, n_actors=5, seed=0):
    risk = build_risk_set(n_actors)
    spec = StatisticSpec((Baserate(),))
    hist = simulate_history(np.zeros(1), spec, risk, COV, n_events=n_events, seed=seed)
    return hist, spec, risk


def test_mse_examples():
    assert diagnostics.mse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert diagnostics.mse(np.zeros(4), np.ones(4)) == 1.0
    with pytest.raises(ValueError):
        diagnostics.mse(np.zeros(2), np.zeros(3))


def test_dic_degenerate_draws():
    hist, spec, risk = intercept_setup()
    table = unique_stat_table(spec, hist, risk, COV)
    samples = make_samples(np.full((5, 1, 1), 0.3))
    out = diagnostics.dic(samples, [table])
    assert out["p_d"] == 0.0
    assert out["dic"] == pytest.approx(-2.0 * loglik_full(np.array([0.3]), table))
    assert out["mean_deviance"] == out["dic"]


def test_dic_mean_of_equal_deviances():
    hist, spec, risk = intercept_setup(seed=1)
    table = unique_stat_table(spec, hist, risk, COV)
    samples = make_samples(np.array([[[0.2]], [[0.2]]]))
    d = -2.0 * loglik_full(np.array([0.2]), table)
    assert diagnostics.dic(samples, [table])["mean_deviance"] == pytest.approx(d)


def test_dic_pd_nonnegative_for_concave_likelihood():
    # deviance is convex in beta, so p_D >= 0 by Jensen
    hist, spec, risk = intercept_setup(seed=2)
    table = unique_stat_table(spec, hist, risk, COV)
    mle = math.log(hist.m / (len(risk) * hist.tau))
    samples = make_samples(np.array([[[mle - 1.0]], [[mle + 1.0]]]))
    assert diagnostics.dic(samples, [table])["p_d"] >= 0.0


def test_recall_full_risk_set_is_one():
    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=30, seed=3)
    assert diagnostics.recall_at_z(d.beta, hist, d.spec, d.risk, d.cov, len(d.risk)) == 1.0


def test_recall_z_bounds():
    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=10, seed=4)
    with pytest.raises(ValueError):
        diagnostics.recall_at_z(d.beta, hist, d.spec, d.risk, d.cov, len(d.risk) + 1)
    with pytest.raises(ValueError):
        diagnostics.recall_at_z(d.beta, hist, d.spec, d.risk, d.cov, 0)
    with pytest.raises(ValueError):
        diagnostics.recall_at_z(d.beta, hist, d.spec, d.risk, d.cov, 5, n_train=10)


def test_recall_uniform_model_near_z_over_r():
    hist, spec, risk = intercept_setup(n_events=2000, n_actors=10, seed=5)
    rng = np.random.default_rng(0)
    rec = diagnostics.recall_at_z(np.zeros(1), hist, spec, risk, COV, 5, rng=rng)
    assert rec == pytest.approx(5 / 90, abs=0.02)


def test_recall_monotone_in_z():
    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=200, seed=6)
    rng = np.random.default_rng(1)
    vals = [
        diagnostics.recall_at_z(d.beta, hist, d.spec, d.risk, d.cov, z, rng=rng)
        for z in (1, 5, 20, 90)
    ]
    assert vals == sorted(vals)
    assert vals[-1] == 1.0


def test_recall_accepts_draw_matrix():
    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=50, seed=7)
    draws = np.stack([d.beta, d.beta * 0.9])
    rec = diagnostics.recall_at_z(draws, hist, d.spec, d.risk, d.cov, 10)
    assert 0.0 <= rec <= 1.0


def test_empirical_baseline_ordering():
    risk = build_risk_set(3)
    # training counts: (1,2) twice, (2,1) once, every other dyad never
    hist = oracle.event_history(
        ((0.1, 1, 2), (0.2, 1, 2), (0.3, 2, 1), (0.5, 0, 1), (0.6, 1, 2), (0.7, 2, 1)),
        tau=1.0, n_actors=3,
    )
    higher, ties = diagnostics.baseline_counts(hist, risk, n_train=3)
    # test events (0,1), (1,2), (2,1): rank (1,2) before (2,1) before all others,
    # which tie at zero
    np.testing.assert_array_equal(higher, [2, 0, 1])
    np.testing.assert_array_equal(ties, [4, 1, 1])


def test_baseline_recall_full_risk_set():
    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=40, seed=8)
    assert diagnostics.baseline_recall_at_z(hist, d.risk, d.cov, len(d.risk), 20) == 1.0


def test_empty_train_baseline_is_random():
    hist, spec, risk = intercept_setup(n_events=1000, n_actors=10, seed=9)
    rng = np.random.default_rng(2)
    rec = diagnostics.baseline_recall_at_z(hist, risk, COV, 9, 0, rng=rng)
    assert rec == pytest.approx(0.1, abs=0.03)


def test_deviance_residual_hand_case():
    # beta=0, |R|=2, gap 0.5: d = -2 [0 - 0.5 * 2] = 2
    risk = build_risk_set(2)
    spec = StatisticSpec((Baserate(),))
    hist = oracle.event_history(((0.5, 0, 1),), tau=1.0, n_actors=2)
    d = diagnostics.deviance_residuals(np.zeros(1), hist, spec, risk, COV)
    assert d[0] == pytest.approx(2.0)


def test_deviance_decomposition():
    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=60, seed=10)
    table = unique_stat_table(d.spec, hist, d.risk, d.cov)
    res = diagnostics.deviance_residuals(d.beta, hist, d.spec, d.risk, d.cov)
    cens = 2.0 * score_events(d.beta, hist, d.spec, d.risk, d.cov).tail_exposure
    assert res.sum() + cens == pytest.approx(-2.0 * loglik_full(d.beta, table), rel=1e-10)


def test_event_probability_uniform():
    hist, spec, risk = intercept_setup(n_events=5, seed=11)
    probs = diagnostics.event_probabilities(np.zeros(1), hist, spec, risk, COV)
    np.testing.assert_allclose(probs, 1.0 / len(risk))


def test_event_probabilities_sum_to_one():
    from hrem.simulate import event_choice_probabilities
    from hrem.stats import SeqState

    d = syn52(baserate=-1.0)
    s = SeqState(10)
    probs = event_choice_probabilities(d.beta, d.spec, d.risk, d.cov, s)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_mean_log_probability_equals_order_loglik():
    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=50, seed=12)
    probs = diagnostics.event_probabilities(d.beta, hist, d.spec, d.risk, d.cov)
    assert np.log(probs).mean() == pytest.approx(
        score_events(d.beta, hist, d.spec, d.risk, d.cov).log_prob.sum() / hist.m, rel=1e-10
    )


def test_surprise_threshold_full_risk_set_is_zero():
    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=40, seed=13)
    q = diagnostics.surprise_matrix(d.beta, hist, d.spec, d.risk, d.cov, len(d.risk))
    assert q
    assert all(v == 0.0 for v, _ in q.values())
    assert all(0.0 <= v <= 1.0 for v, _ in q.values())


def test_surprise_absent_dyads_omitted():
    risk = build_risk_set(3)
    spec = StatisticSpec((Baserate(),))
    hist = oracle.event_history(((0.2, 0, 1), (0.4, 0, 1)), tau=1.0, n_actors=3)
    q = diagnostics.surprise_matrix(np.zeros(1), hist, spec, risk, COV, 3)
    assert set(q) == {(0, 1)}
    assert q[(0, 1)][1] == 2
    with pytest.raises(ValueError):
        diagnostics.surprise_matrix(np.zeros(1), hist, spec, risk, COV, 0)


def test_ranks_pin_the_per_event_scalar_tie_break():
    # syn52's class effects leave many dyads level, so ties are common
    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=120, seed=14)
    model = oracle.event_log_hazards(d.beta, hist, d.spec, d.risk, d.cov, start=80)
    baseline = oracle.baseline_scored(hist, d.risk, 80)
    for scored in (model, baseline):
        assert any(np.sum(s == s[row]) > 1 for s, row in scored)
    for seed in (0, 1, 2):
        ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for z in (1, 5, 20):
            want = float(np.mean(oracle.tie_broken_ranks(model, ref) <= z))
            assert diagnostics.recall_at_z(d.beta, hist, d.spec, d.risk, d.cov, z,
                                           n_train=80, rng=rng) == want
            want = float(np.mean(oracle.tie_broken_ranks(baseline, ref) <= z))
            assert diagnostics.baseline_recall_at_z(hist, d.risk, d.cov, z, 80, rng=rng) == want
        scored = oracle.event_log_hazards(d.beta, hist, d.spec, d.risk, d.cov)
        for threshold in (3, 50):
            ranks = oracle.tie_broken_ranks(scored, ref)
            assert diagnostics.surprise_matrix(d.beta, hist, d.spec, d.risk, d.cov, threshold,
                                               rng=rng) == oracle.surprise(ranks, hist, threshold)
        assert rng.random() == ref.random()
