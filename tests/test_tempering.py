import math

import numpy as np
import pytest

import hrem.tempering
from hrem.inference import Hyperparams, joint_log_posterior, run_collapsed_sampler
from hrem.presets import syn52
from hrem.simulate import simulate_hierarchical
from hrem.stats import UniqueStatTable, unique_stat_table
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


def _syn52_tables(k=2, n_events=40, scale=1.0):
    d = syn52(baserate=-1.5)
    pairs = simulate_hierarchical(d.beta, 0.5, k, d.spec, d.risk, d.cov,
                                  n_events=n_events, seed=3)
    tables = [unique_stat_table(d.spec, h, d.risk, d.cov) for h, _ in pairs]
    return [UniqueStatTable(t.vectors * scale, t.q, t.m) for t in tables]


@pytest.mark.parametrize("seed, step_size, scale", [(4, 0.2, 1.0), (9, 1.5, 400.0),
                                                    (11, 1.5, 400.0)])
def test_local_scoring_draws_equal_the_full_energy_chain_bitwise(seed, step_size, scale):
    # Statistics scaled by 400 make a beta step of 1.5 overflow a hazard now and then.
    tables = _syn52_tables(scale=scale)
    hyper = Hyperparams()
    k, p = len(tables), tables[0].vectors.shape[1]
    overflows = []

    def logpost(x):
        betas, mu, sigma2 = x[: k * p].reshape(k, p), x[k * p : k * p + p], np.exp(x[k * p + p :])
        try:
            lp = joint_log_posterior(betas, mu, sigma2, tables, hyper)
        except FloatingPointError:
            overflows.append(x)
            return -math.inf
        return lp + float(np.sum(np.log(sigma2)))

    x0 = np.concatenate([np.zeros(k * p + p),
                         np.full(p, math.log(hyper.beta_sigma / (hyper.alpha_sigma - 1)))])
    ladder = (1.0, 2.0, 4.0, 8.0, 16.0)
    draws, info = tempered_sample(logpost, x0, ladder, n_steps=30, t_swap=5,
                                  step_size=step_size, seed=seed, n_burnin=30)
    samples = run_parallel_tempering(tables, hyper, ladder=ladder, t_swap=5, n_burnin=30,
                                     n_keep=30, seed=seed, step_size=step_size)
    assert samples.betas.tobytes() == draws[:, : k * p].reshape(-1, k, p).tobytes()
    assert samples.mu.tobytes() == draws[:, k * p : k * p + p].tobytes()
    assert samples.sigma2.tobytes() == np.exp(draws[:, k * p + p :]).tobytes()
    assert samples.logpost.tobytes() == np.array([logpost(x) for x in draws]).tobytes()
    assert samples.diagnostics["accept_rate"].tobytes() == info["accept_rate"].tobytes()
    for key in ("swaps_proposed", "swaps_accepted"):
        assert samples.diagnostics[key] == info[key].tolist()
    if scale > 1.0:
        assert overflows, "no beta proposal overflowed, so none was rejected for it"


def test_joint_log_posterior_runs_only_at_start_swaps_and_kept_draws(monkeypatch):
    tables = _syn52_tables()
    calls = []

    def counted(*args):
        calls.append(args)
        return joint_log_posterior(*args)

    monkeypatch.setattr(hrem.tempering, "joint_log_posterior", counted)
    samples = run_parallel_tempering(tables, n_burnin=13, n_keep=20, thin=3, t_swap=4, seed=5)
    n_swaps = (13 + 20) // 4
    assert sum(samples.diagnostics["swaps_proposed"]) == n_swaps
    assert len(calls) == 1 + 2 * n_swaps + samples.n_draws


def test_tempering_records_accept_and_swap_rates_per_replica_and_pair():
    tables = _syn52_tables()
    samples = run_parallel_tempering(tables, ladder=(1.0, 2.0, 4.0), t_swap=2, n_burnin=20,
                                     n_keep=20, seed=6)
    diag = samples.diagnostics
    assert diag["accept_rate"].shape == (3,) and np.all((diag["accept_rate"] > 0)
                                                        & (diag["accept_rate"] <= 1))
    proposed, accepted = diag["swaps_proposed"], diag["swaps_accepted"]
    assert len(proposed) == len(accepted) == len(diag["swap_rate_per_pair"]) == 2
    assert sum(proposed) == 20 and all(0 <= a <= n for a, n in zip(accepted, proposed))
    assert diag["swap_rate"] == sum(accepted) / sum(proposed)
    for rate, a, n in zip(diag["swap_rate_per_pair"], accepted, proposed):
        assert rate == (a / n if n else None)


def test_tempering_without_a_swap_records_no_swap_rate():
    samples = run_parallel_tempering(_syn52_tables(), t_swap=0, n_burnin=5, n_keep=5, seed=6)
    assert samples.diagnostics["swap_rate"] is None
    assert samples.diagnostics["swap_rate_per_pair"] == [None] * 4
    assert samples.diagnostics["swaps_proposed"] == [0] * 4


@pytest.mark.parametrize("bad", [{"n_burnin": -3}, {"thin": 0}, {"n_keep": 0}])
def test_run_parallel_tempering_rejects_chain_settings_out_of_range(bad):
    run = {"n_burnin": 5, "n_keep": 5, "thin": 1, "seed": 1, **bad}
    for runner in (run_parallel_tempering, run_collapsed_sampler):
        with pytest.raises(ValueError, match=next(iter(bad))):
            runner(_syn52_tables(), **run)
