import math

import numpy as np
import pytest

from hrem.inference import Hyperparams
from hrem.presets import syn52
from hrem.simulate import simulate_hierarchical
from hrem.stats import unique_stat_table
from hrem.tempering import run_parallel_tempering, swap_log_acceptance, tempered_sample


def test_equal_states_swap_log_acceptance_is_exactly_zero():
    for g in (-123.456, 0.0, 7.89):
        assert swap_log_acceptance(g, g, 1.0, 4.0) == 0.0
        assert math.exp(swap_log_acceptance(g, g, 1.0, 4.0)) == 1.0


def test_swap_acceptance_favors_energy_order():
    # hot chain holding the lower-energy state should swap with certainty
    assert swap_log_acceptance(10.0, 5.0, 1.0, 2.0) > 0
    assert swap_log_acceptance(5.0, 10.0, 1.0, 2.0) < 0


def test_ladder_validation():
    logf = lambda x: -0.5 * float(x @ x)
    with pytest.raises(ValueError):
        tempered_sample(logf, np.zeros(1), [1.0], n_steps=10, seed=0)
    with pytest.raises(ValueError):
        tempered_sample(logf, np.zeros(1), [2.0, 4.0], n_steps=10, seed=0)
    with pytest.raises(ValueError):
        tempered_sample(logf, np.zeros(1), [1.0, 4.0, 2.0], n_steps=10, seed=0)


def test_equal_temperature_chains_always_swap():
    logf = lambda x: -0.5 * float(x @ x)
    draws, info = tempered_sample(
        logf, np.zeros(1), [1.0, 1.0], n_steps=4000, t_swap=5, seed=1, n_burnin=500
    )
    assert info["swap_rate"] == 1.0
    # base-chain marginal unchanged: still standard normal
    assert abs(draws.mean()) < 0.1
    assert draws.var() == pytest.approx(1.0, rel=0.15)


def test_tempered_sample_normal_target_moments():
    logf = lambda x: -0.5 * float(x @ x)
    draws, info = tempered_sample(
        logf, np.zeros(2), [1.0, 2.0, 4.0], n_steps=6000, step_size=1.0,
        seed=2, n_burnin=500,
    )
    assert np.all(np.abs(draws.mean(axis=0)) < 0.1)
    np.testing.assert_allclose(draws.var(axis=0), 1.0, rtol=0.15)


def test_run_parallel_tempering_shapes_and_manifest_fields():
    d = syn52(baserate=-1.5)
    pairs = simulate_hierarchical(d.beta, 0.5, 2, d.spec, d.risk, d.cov,
                                  n_events=40, seed=3)
    tables = [unique_stat_table(d.spec, h, d.risk, d.cov) for h, _ in pairs]
    samples = run_parallel_tempering(tables, Hyperparams(), n_burnin=40, n_keep=40, seed=4)
    assert samples.betas.shape == (40, 2, 6)
    assert np.all(samples.sigma2 > 0)
    assert np.all(np.isfinite(samples.logpost))
    assert "swap_rate" in samples.diagnostics
    assert samples.diagnostics["ladder"] == [1.0, 2.0, 4.0, 8.0, 16.0]
