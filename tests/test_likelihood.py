import math
import warnings

import numpy as np
import pytest

import scalar_oracle as oracle
from hrem.events import CovariateSet, build_risk_set
from hrem.likelihood import (
    explosion_check,
    grad_loglik_full,
    hessian_loglik_full,
    loglik_full,
    loglik_naive,
    score_events,
)
from hrem.presets import syn52
from hrem.simulate import simulate_history
from hrem.stats import (
    Baserate,
    EventCount,
    PShift,
    StatisticSpec,
    UniqueStatTable,
    unique_stat_table,
)

COV = CovariateSet()


def intercept_table(events, tau, n_actors):
    hist = oracle.event_history(events, tau=tau, n_actors=n_actors)
    risk = build_risk_set(n_actors)
    spec = StatisticSpec((Baserate(),))
    return hist, risk, spec, unique_stat_table(spec, hist, risk, COV)


def test_loglik_full_hand_case():
    # two dyads at rate 1, one event at 0.5, tau=1: 0 - 2*0.5 - 2*0.5 = -2
    hist, risk, spec, table = intercept_table(((0.5, 0, 1),), 1.0, 2)
    beta = np.zeros(1)
    assert loglik_full(beta, table) == pytest.approx(-2.0, abs=1e-12)
    assert loglik_naive(beta, hist, spec, risk, COV) == pytest.approx(-2.0, abs=1e-12)


def test_loglik_full_is_minus_inf_when_the_exposure_sum_overflows():
    # Every hazard is finite (exp(700) ~ 1e304), but m @ lam exceeds the float range.
    table = UniqueStatTable(vectors=np.array([[700.0], [700.0]]), q=np.array([1, 0]),
                            m=np.array([1e5, 1e5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert loglik_full(np.ones(1), table) == -math.inf


def test_loglik_full_pure_censoring():
    hist, risk, spec, table = intercept_table((), 3.0, 3)
    assert loglik_full(np.zeros(1), table) == pytest.approx(-len(risk) * 3.0)
    assert loglik_naive(np.zeros(1), hist, spec, risk, COV) == pytest.approx(-len(risk) * 3.0)


def test_loglik_naive_finite_on_random_history():
    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=50, seed=5)
    rng = np.random.default_rng(0)
    beta = rng.normal(size=d.spec.p)
    assert math.isfinite(loglik_naive(beta, hist, d.spec, d.risk, d.cov))


def test_loglik_finite_for_explosion_prone_spec():
    # observed data likelihood is always finite, even for runaway specs
    spec = StatisticSpec((Baserate(), EventCount(power=2)))
    hist = oracle.event_history(
        tuple((0.1 * (m + 1), 0, 1) for m in range(10)), tau=1.5, n_actors=2
    )
    risk = build_risk_set(2)
    beta = np.array([0.0, 0.5])
    table = unique_stat_table(spec, hist, risk, COV)
    assert math.isfinite(loglik_full(beta, table))
    assert loglik_full(beta, table) == pytest.approx(
        loglik_naive(beta, hist, spec, risk, COV), rel=1e-10
    )


# The order-only (multinomial/Cox) log-likelihood is the sum of the scorer's
# per-event log choice probabilities.


def test_loglik_order_uniform():
    d = syn52()
    hist = simulate_history(np.zeros(6), d.spec, d.risk, d.cov, n_events=200, seed=2)
    val = score_events(np.zeros(6), hist, d.spec, d.risk, d.cov).log_prob.sum()
    assert val == pytest.approx(200 * math.log(1 / 90), rel=1e-12)


def test_loglik_order_baserate_shift_invariant():
    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=40, seed=3)
    base = score_events(d.beta, hist, d.spec, d.risk, d.cov).log_prob.sum()
    shifted = d.beta.copy()
    shifted[0] += 7.0
    assert score_events(shifted, hist, d.spec, d.risk, d.cov).log_prob.sum() == pytest.approx(
        base, rel=1e-12)


def test_loglik_order_single_event_is_log_choice_probability():
    from hrem.simulate import event_choice_probabilities
    from hrem.stats import SeqState

    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=1, seed=4)
    (t, i, j), = hist.events
    probs = event_choice_probabilities(d.beta, d.spec, d.risk, d.cov, SeqState(10))
    row = d.risk.row_index[i, j]
    assert score_events(d.beta, hist, d.spec, d.risk, d.cov).log_prob.sum() == pytest.approx(
        math.log(probs[row]), rel=1e-10
    )


def test_gradient_matches_finite_differences():
    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=80, seed=6)
    table = unique_stat_table(d.spec, hist, d.risk, d.cov)
    rng = np.random.default_rng(1)
    for _ in range(5):
        beta = rng.normal(scale=0.5, size=d.spec.p)
        g = grad_loglik_full(beta, table)
        eps = 1e-6
        for p in range(d.spec.p):
            e = np.zeros(d.spec.p)
            e[p] = eps
            fd = (loglik_full(beta + e, table) - loglik_full(beta - e, table)) / (2 * eps)
            assert g[p] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_loglik_concave_negative_definite_hessian():
    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=120, seed=8)
    table = unique_stat_table(d.spec, hist, d.risk, d.cov)
    rng = np.random.default_rng(2)
    for _ in range(5):
        beta = rng.normal(scale=0.5, size=d.spec.p)
        h = hessian_loglik_full(beta, table)
        assert np.all(np.linalg.eigvalsh(h) < 0)
        # analytic Hessian vs finite-differenced gradient
        eps = 1e-5
        for p in range(d.spec.p):
            e = np.zeros(d.spec.p)
            e[p] = eps
            fd = (grad_loglik_full(beta + e, table) - grad_loglik_full(beta - e, table)) / (2 * eps)
            np.testing.assert_allclose(h[:, p], fd, rtol=1e-4, atol=1e-4)


def test_explosion_check_bounded_spec():
    risk = build_risk_set(4)
    spec = StatisticSpec((Baserate(), PShift("AB-BA")))
    report = explosion_check(np.zeros(2), spec, risk, COV, horizon=2.0, n_sim=3)
    assert not report.exploded
    assert report.max_total_rate >= len(risk)


def test_explosion_check_beta_zero_rate_is_risk_size():
    risk = build_risk_set(4)
    spec = StatisticSpec((Baserate(),))
    report = explosion_check(np.zeros(1), spec, risk, COV, horizon=1.0, n_sim=2)
    assert not report.exploded
    assert report.max_total_rate == pytest.approx(len(risk))


def test_explosion_check_quadratic_counts():
    risk = build_risk_set(4)
    spec = StatisticSpec((Baserate(), EventCount(power=2)))
    report = explosion_check(np.array([0.0, 0.5]), spec, risk, COV, horizon=50.0, n_sim=3)
    assert report.exploded


def test_explosion_check_requires_positive_horizon():
    risk = build_risk_set(3)
    spec = StatisticSpec((Baserate(),))
    with pytest.raises(ValueError):
        explosion_check(np.zeros(1), spec, risk, COV, horizon=0.0)
