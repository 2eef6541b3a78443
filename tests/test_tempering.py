import math

import numpy as np
import pytest

import hrem.tempering
from hrem.inference import Hyperparams, joint_log_posterior, run_collapsed_sampler
from hrem.presets import syn52
from hrem.simulate import simulate_hierarchical
from hrem.stats import UniqueStatTable, unique_stat_table
from hrem.tempering import (HierarchicalTarget, run_parallel_tempering, swap_log_acceptance,
                            tempered_sample)


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


def _norm(x):
    return -0.5 * float(x @ x)


@pytest.mark.parametrize("ladder", [[1.0, math.nan], [1.0, math.inf], [math.nan, 2.0]])
def test_ladder_refuses_non_finite_temperatures(ladder):
    with pytest.raises(ValueError, match="temperatures must be finite"):
        tempered_sample(_norm, np.zeros(1), ladder, n_steps=10, seed=0)
    with pytest.raises(ValueError, match="temperatures must be finite"):
        run_parallel_tempering(_syn52_tables(), ladder=ladder, n_burnin=2, n_keep=2, seed=0)


@pytest.mark.parametrize("bad, words", [({"n_steps": 0}, "must be positive"),
                                        ({"n_steps": -2}, "must be positive"),
                                        ({"n_burnin": -1}, "n_burnin must be >= 0"),
                                        ({"t_swap": -1}, "t_swap must be >= 0")])
def test_tempered_sample_refuses_run_settings_out_of_range(bad, words):
    run = {"n_steps": 10, "t_swap": 2, "seed": 0, **bad}
    with pytest.raises(ValueError, match=words):
        tempered_sample(_norm, np.zeros(1), [1.0, 2.0], **run)


def test_run_parallel_tempering_refuses_a_negative_swap_interval():
    with pytest.raises(ValueError, match="t_swap must be >= 0"):
        run_parallel_tempering(_syn52_tables(), t_swap=-1, n_burnin=2, n_keep=2, seed=0)


def _hand_tables():
    """Three P=3 tables: table 0's column 1 is all zero, table 1 has no rows, and rows 1
    and 4 of table 0 are event-only (m = 0); columns of distinct values, some negative."""
    return [
        UniqueStatTable(np.array([[1.0, 0.0, 0.5], [-0.5, 0.0, 0.0], [2.0, 0.0, -1.0],
                                  [0.0, 0.0, 0.25], [-1.5, 0.0, 3.0]]),
                        np.array([1, 2, 0, 3, 1]), np.array([2.0, 0.0, 1.5, 3.0, 0.0])),
        UniqueStatTable(np.zeros((0, 3)), np.zeros(0, dtype=int), np.zeros(0)),
        UniqueStatTable(np.array([[0.3, 1.0, 0.0], [-0.7, -2.0, 1.0], [0.3, 0.5, 0.0]]),
                        np.array([2, 1, 0]), np.array([0.5, 1.0, 4.0])),
    ]


def test_hierarchical_move_scores_equal_the_change_of_the_full_log_density():
    target = HierarchicalTarget(_hand_tables(), Hyperparams())
    rng = np.random.default_rng(12)
    x = rng.normal(0.0, 0.5, target.k * target.p + 2 * target.p)
    (rep,) = target.replicas(x, 1)
    accepted = 0
    for _ in range(20):
        for d in range(x.size):  # every beta, mu and log sigma^2 coordinate
            prop = x.copy()
            prop[d] += rng.normal(0.0, 0.7)
            ratio = target.propose(rep, d, prop[d])
            assert ratio == pytest.approx(target.full(prop) - target.full(x), rel=1e-9), d
            if rng.random() < 0.5:  # later moves then score from the accepted caches
                target.accept(rep)
                x = prop
                accepted += 1
    assert accepted > 100 and np.array_equal(rep.x, x)
    assert target.log_density(rep) == target.full(x)


@pytest.mark.parametrize("d, value", [
    (0, 600.0),  # table 0, row 2: eta = 1200
    (0, -600.0),  # table 0, event-only row 4: eta = 900
    (2, 300.0),  # table 0, event-only row 4: eta = 900
    (6, 2363.7),  # table 2: finite hazards whose exposure sum overflows
])
def test_hierarchical_move_that_overflows_a_hazard_scores_minus_inf(d, value):
    target = HierarchicalTarget(_hand_tables(), Hyperparams())
    x = np.zeros(target.k * target.p + 2 * target.p)
    (rep,) = target.replicas(x, 1)
    prop = x.copy()
    prop[d] = value
    assert target.full(prop) == -math.inf
    assert target.propose(rep, d, value) == -math.inf
