import math
import warnings

import numpy as np
import pytest
from scipy import optimize, stats

from hrem.events import CovariateSet, build_risk_set
from hrem.inference import (
    CollapsedGibbs,
    Hyperparams,
    collapsed_prior_logpdf,
    effective_sample_size,
    gibbs_mu,
    gibbs_sigma,
    joint_log_posterior,
    map_estimate,
    penalized_mle,
    run_collapsed_sampler,
    slice_sample,
    split_rhat,
)
from hrem import inference
from hrem.likelihood import grad_loglik_full, loglik_full
from hrem.presets import syn52
from hrem.simulate import simulate_hierarchical, simulate_history
from hrem.stats import (
    Baserate,
    ContextIndicator,
    ContextInteraction,
    DyadValue,
    RecencyReceive,
    RecencySend,
    StatisticSpec,
    ToBroadcast,
    UniqueStatTable,
    unique_stat_table,
)
from hrem.tempering import run_parallel_tempering

import scalar_oracle as oracle

COV = CovariateSet()
HYPER = Hyperparams()


def test_hyperparams_defaults_and_validation():
    assert HYPER.mu_prior_sd == 2.0
    assert HYPER.alpha_sigma == 5.0
    assert HYPER.beta_sigma == 1.0
    with pytest.raises(ValueError):
        Hyperparams(alpha_sigma=0.0)


def test_gibbs_sigma_matches_invgamma():
    rng = np.random.default_rng(0)
    # all betas equal mu, K=4: Inv-Gamma(7, 1)
    draws = np.array([gibbs_sigma(np.zeros(4), 0.0, HYPER, rng) for _ in range(20000)])
    assert draws.mean() == pytest.approx(1 / 6, rel=0.03)
    # K=2, betas = mu +/- 1: Inv-Gamma(6, 2), mean 2/5
    draws = np.array(
        [gibbs_sigma(np.array([1.0, -1.0]), 0.0, HYPER, rng) for _ in range(20000)]
    )
    assert draws.mean() == pytest.approx(0.4, rel=0.03)


def test_gibbs_mu_paper_form():
    rng = np.random.default_rng(1)
    betas = np.array([1.0, 2.0, 3.0, 4.0])
    draws = np.array([gibbs_mu(betas, 1.0, rng, mode="paper") for _ in range(20000)])
    assert draws.mean() == pytest.approx(2.5, abs=0.02)
    assert draws.var() == pytest.approx(0.5, rel=0.05)  # sigma^2/sqrt(K)


def test_gibbs_mu_degenerate_variance():
    rng = np.random.default_rng(2)
    betas = np.array([0.3, 0.5])
    assert gibbs_mu(betas, 0.0, rng, mode="paper") == pytest.approx(0.4)


def test_gibbs_mu_conjugate_shrinks_toward_zero():
    rng = np.random.default_rng(3)
    betas = np.full(4, 10.0)
    draws = np.array(
        [gibbs_mu(betas, 1.0, rng, mode="conjugate", hyper=HYPER) for _ in range(5000)]
    )
    expected = 10.0 * (4 / 1.0) / (4 / 1.0 + 1 / 4.0)
    assert draws.mean() == pytest.approx(expected, abs=0.03)
    with pytest.raises(ValueError):
        gibbs_mu(betas, 1.0, rng, mode="bogus")


def test_collapsed_prior_peak_and_symmetry():
    vals = collapsed_prior_logpdf(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]), 0.0, HYPER)
    assert vals.argmax() == 2
    assert vals[0] == pytest.approx(vals[4])
    assert vals[1] == pytest.approx(vals[3])


def test_collapsed_prior_is_normalized():
    grid = np.linspace(-60, 60, 400001)
    dens = np.exp(collapsed_prior_logpdf(grid, 0.0, HYPER))
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, rel=1e-6)


def test_slice_sample_standard_normal():
    rng = np.random.default_rng(4)
    logf = lambda x: -0.5 * x * x
    x = 0.0
    draws = np.empty(100000)
    for i in range(draws.size):
        x = slice_sample(x, logf, 1.0, rng)
        draws[i] = x
    assert abs(draws.mean()) < 0.02
    assert draws.var() == pytest.approx(1.0, rel=0.03)


def test_slice_sample_uniform():
    rng = np.random.default_rng(5)
    logf = lambda x: 0.0 if 0.0 <= x <= 1.0 else -math.inf
    x = 0.5
    draws = np.empty(20000)
    for i in range(draws.size):
        x = slice_sample(x, logf, 0.3, rng)
        draws[i] = x
    assert stats.kstest(draws, "uniform").pvalue > 0.01


def test_slice_sample_width_invariance():
    rng = np.random.default_rng(6)
    logf = lambda x: -0.5 * x * x
    moments = []
    for width in (0.5, 1.0):
        x = 0.0
        draws = np.empty(40000)
        for i in range(draws.size):
            x = slice_sample(x, logf, width, rng)
            draws[i] = x
        moments.append((draws.mean(), draws.var()))
    assert moments[0][0] == pytest.approx(moments[1][0], abs=0.03)
    assert moments[0][1] == pytest.approx(moments[1][1], rel=0.05)


def test_slice_sample_rejects_nonfinite_start():
    rng = np.random.default_rng(7)
    with pytest.raises(FloatingPointError):
        slice_sample(2.0, lambda x: -math.inf if x > 1 else 0.0, 1.0, rng)


def test_slice_sample_given_its_start_density_skips_only_that_evaluation():
    def counting(f):
        def logf(x):
            calls[0] += 1
            return f(x)
        return logf

    for seed, f, x0, width in ((8, lambda x: -0.5 * x * x, 0.3, 1.0),
                               (9, lambda x: -abs(x) ** 3, 1.2, 0.05),
                               (10, lambda x: 0.0 if 0.0 <= x <= 1.0 else -math.inf, 0.5, 4.0)):
        out = []
        for logf0 in (None, f(x0)):
            calls = [0]
            point = slice_sample(x0, counting(f), width, np.random.default_rng(seed),
                                 return_counts=True, logf0=logf0)
            out.append((point, calls[0]))
        (plain, n_plain), (given, n_given) = out
        assert plain == given and n_given == n_plain - 1, seed
    with pytest.raises(FloatingPointError):
        slice_sample(2.0, lambda x: 0.0, 1.0, np.random.default_rng(7), logf0=-math.inf)


def assert_sampler_matches_the_scalar_sweep(tables, seed):
    """Run the library sampler and the scalar sweep side by side; compare every state bitwise.

    25 burn-in sweeps adapt the widths, and the 10 kept draws must equal
    the scalar sweep's states.
    """
    n_burnin, n_keep = 25, 10
    samples = run_collapsed_sampler(tables, HYPER, n_burnin=n_burnin, n_keep=n_keep, seed=seed)
    lib = inference.CollapsedGibbs(tables, HYPER, np.random.default_rng(seed))
    ref = inference.CollapsedGibbs(tables, HYPER, np.random.default_rng(seed))
    widths = set()
    for it in range(n_burnin + n_keep):
        lib.adapt = ref.adapt = it < n_burnin
        lib.sweep()
        oracle.collapsed_sweep(ref)
        for name in ("betas", "mu", "sigma2", "widths"):
            assert getattr(lib, name).tobytes() == getattr(ref, name).tobytes(), (it, name)
        widths.update(ref.widths.ravel().tolist())
        if it >= n_burnin:
            draw = it - n_burnin
            for name in ("betas", "mu", "sigma2"):
                assert getattr(samples, name)[draw].tobytes() == getattr(ref, name).tobytes()
            assert samples.logpost[draw] == ref.log_posterior(), draw
    assert len(widths) > 1  # burn-in adapted some widths


def test_collapsed_sampler_matches_the_scalar_sweep_bitwise():
    assert_sampler_matches_the_scalar_sweep(_syn52_tables(k=5, n_events=60, seed=12), seed=3)


def _classroom_tables(k, n_events, seed):
    """Tables of a small classroom design: recency ranks, a dyad count, context interactions.

    The histories are simulated without contexts; the tables are built with
    a track that switches to groupwork, and back, exactly at event times, so
    such an event can score a row that no interval exposes (m = 0).
    """
    n = 5
    rng = np.random.default_rng([seed, 5])
    activities = {}
    for i in range(n):
        for j in range(i + 1, n):
            shared = float(rng.poisson(1.0))
            if shared:
                activities[(i, j)] = activities[(j, i)] = shared
    count = DyadValue("activities")
    spec = StatisticSpec((Baserate(), count, RecencySend(), RecencyReceive(), ToBroadcast(),
                          ContextIndicator("groupwork"), ContextInteraction(count, "groupwork"),
                          ContextInteraction(RecencySend(), "groupwork")))
    risk = build_risk_set(n, include_broadcast=True)
    plain = CovariateSet(dyad_attrs={"activities": activities})
    mu = np.array([-1.0, 0.3, 1.0, 0.8, 0.5, 0.0, 0.0, 0.0])
    pairs = simulate_hierarchical(mu, 0.3, k, spec, risk, plain, n_events=n_events, seed=seed)
    tables = []
    for hist, _ in pairs:
        switches = (hist.events[n_events // 3][0], hist.events[2 * n_events // 3][0])
        track = ((0.0, "lecture"), (switches[0], "groupwork"), (switches[1], "lecture"))
        cov = CovariateSet(dyad_attrs={"activities": activities}, context_track=track)
        tables.append(unique_stat_table(spec, hist, risk, cov))
    return tables


@pytest.mark.parametrize("seed", [4, 9])
def test_collapsed_sampler_matches_the_scalar_sweep_bitwise_on_many_valued_columns(seed):
    # The sweep scores a column from sums over its distinct values, so a code
    # pointing at the wrong value shows only where a column has more than two.
    tables = _classroom_tables(k=3, n_events=60, seed=seed)
    assert max(np.unique(t.vectors[:, p]).size for t in tables for p in range(8)) > 2
    assert any(np.any(t.m == 0) for t in tables)
    assert_sampler_matches_the_scalar_sweep(tables, seed)


def test_collapsed_sampler_matches_the_scalar_sweep_bitwise_on_a_continuous_column():
    # A continuous dyad attribute gives its column about one value per dyad,
    # so each of its slice evaluations sums about 90 float terms.
    n, k = 10, 3
    rng = np.random.default_rng(21)
    spec = StatisticSpec((Baserate(), DyadValue("w")))
    risk = build_risk_set(n)
    cov = CovariateSet(dyad_attrs={"w": {d: float(rng.normal()) for d in risk.dyads}})
    pairs = simulate_hierarchical(np.array([-1.0, 0.5]), 0.3, k, spec, risk, cov, n_events=60,
                                  seed=21)
    tables = [unique_stat_table(spec, hist, risk, cov) for hist, _ in pairs]
    assert min(np.unique(t.vectors[:, 1]).size for t in tables) > 60
    assert_sampler_matches_the_scalar_sweep(tables, seed=5)


def _scored_targets(monkeypatch, sampler, offsets):
    """[(x0, target(x0 + offsets))] of each update in one sweep of `sampler`.

    The updates keep every beta where it is.
    """
    scores = []

    def slice_sample(x0, logf, *args, **kw):
        scores.append((x0, [logf(x0 + o) for o in offsets]))
        return x0, 0, 0

    monkeypatch.setattr(inference, "slice_sample", slice_sample)
    sampler.sweep()
    return scores


def test_float_slice_evaluation_agrees_with_the_numpy_per_value_form(monkeypatch):
    rng = np.random.default_rng(13)
    shape = HYPER.alpha_sigma + 0.5
    for n_values in range(1, 41):
        table = UniqueStatTable(
            vectors=np.column_stack([np.ones(n_values), rng.normal(size=n_values)]),
            q=rng.integers(0, 5, size=n_values), m=rng.uniform(0.1, 5.0, size=n_values))
        init = (rng.normal(size=(1, 2)), rng.normal(size=2), [1.0, 1.0])
        offsets = rng.uniform(-3.0, 3.0, size=6)
        sampler = inference.CollapsedGibbs([table], HYPER, np.random.default_rng(0), init=init)
        eta = table.vectors @ init[0][0]
        for p, (cur, scores) in enumerate(_scored_targets(monkeypatch, sampler, offsets)):
            vals, codes = np.unique(table.vectors[:, p], return_inverse=True)
            sums = np.bincount(codes, weights=table.m * np.exp(eta))
            x = cur + offsets
            expected = [float(table.q @ table.vectors[:, p]) * xi
                        - float(sums @ np.exp((xi - cur) * vals))
                        - shape * math.log(HYPER.beta_sigma + 0.5 * (xi - init[1][p]) ** 2)
                        for xi in x]
            np.testing.assert_allclose(scores, expected, rtol=1e-12, atol=0, err_msg=n_values)


def test_slice_evaluation_whose_sum_overflows_from_finite_terms_is_minus_inf(monkeypatch):
    # at +30 no exp overflows, but its product with the 1e300 exposure does
    table = UniqueStatTable(vectors=np.array([[0.0], [1.0], [-2.0]]), q=np.array([3, 4, 0]),
                            m=np.array([2.0, 1e300, 0.0]))
    sampler = inference.CollapsedGibbs([table], HYPER, np.random.default_rng(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _scored_targets(monkeypatch, sampler, (30.0,)) == [(0.0, [-math.inf])]


def _overflow_table(top):
    """One effect; the last row, unexposed, has the value `top`."""
    return UniqueStatTable(vectors=np.array([[0.0], [1.0], [top]]), q=np.array([3, 4, 0]),
                           m=np.array([2.0, 3.0, 0.0]))


def test_slice_evaluation_whose_hazard_overflows_is_minus_inf_without_a_warning(monkeypatch):
    far, original = [], inference.slice_sample

    def slice_sample(x0, logf, *args, **kw):
        # exp(1000) overflows in the exposed row, and makes 0 * inf in the unexposed one
        far.append((logf(x0 + 1000.0), logf(x0 - 1000.0)))
        return original(x0, logf, *args, **kw)

    monkeypatch.setattr(inference, "slice_sample", slice_sample)
    sampler = inference.CollapsedGibbs([_overflow_table(-2.0)], HYPER, np.random.default_rng(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sampler.sweep()
    assert far == [(-math.inf, -math.inf)]


def test_unexposed_row_whose_start_hazard_overflows_raises_floating_point_error():
    sampler = inference.CollapsedGibbs([_overflow_table(800.0)], HYPER,
                                       np.random.default_rng(0), init=([[1.0]], [0.0], [1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError,
                           match="non-finite log-posterior at sequence 0, effect 0"):
            sampler.sweep()


def test_run_collapsed_sampler_rejects_empty_chain():
    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=20, seed=0)
    table = unique_stat_table(d.spec, hist, d.risk, d.cov)
    with pytest.raises(ValueError):
        run_collapsed_sampler([table], n_keep=0)


@pytest.mark.parametrize("value", [0.1, 1.5])
def test_a_constant_chain_reads_every_draw_effective_and_rhat_one(value):
    # a mean of 4,000 draws of 0.1 rounds, so its variance is not exactly 0
    chain = np.full(4000, value)
    assert effective_sample_size(chain) == 4000.0
    assert split_rhat(chain) == 1.0


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_every_sampler_starts_and_runs_under_an_inverse_gamma_prior_without_a_mean(alpha):
    # Inv-Gamma(a, 1) has no mean for a <= 1, so sigma^2 starts at the mode 1/(a+1)
    hyper = Hyperparams(alpha_sigma=alpha)
    tables = _syn52_tables(2, 40, 3)
    mode = np.full(6, 1.0 / (alpha + 1.0))
    sampler = CollapsedGibbs(tables, hyper, np.random.default_rng(0))
    np.testing.assert_array_equal(sampler.sigma2, mode)
    np.testing.assert_array_equal(map_estimate(tables, hyper, tol=math.inf)[2], mode)
    for run in (run_collapsed_sampler, run_parallel_tempering):
        samples = run(tables, hyper, n_burnin=5, n_keep=5, seed=1)
        assert np.all(np.isfinite(samples.logpost)), run.__name__
    betas, mu, sigma2, report = map_estimate(tables, hyper)
    assert report["converged"]
    assert np.isfinite(joint_log_posterior(betas, mu, sigma2, tables, hyper))


def test_single_sequence_intercept_recovers_rate():
    # flat-ish posterior check: baserate concentrates near log(M / (|R| tau))
    risk = build_risk_set(5)
    spec = StatisticSpec((Baserate(),))
    hist = simulate_history(np.array([0.3]), spec, risk, COV, n_events=400, seed=8)
    table = unique_stat_table(spec, hist, risk, COV)
    samples = run_collapsed_sampler([table], n_burnin=200, n_keep=400, seed=9)
    mle = math.log(hist.m / (len(risk) * hist.tau))
    post_mean = samples.betas[:, 0, 0].mean()
    post_sd = samples.betas[:, 0, 0].std()
    assert abs(post_mean - mle) < 4 * post_sd + 0.02


def test_penalized_mle_halves_steps_whose_hazard_overflows():
    # from a far start the first Newton step overflows exp(eta): the line
    # search must halve it rather than stop
    risk = build_risk_set(5)
    spec = StatisticSpec((Baserate(),))
    hist = simulate_history(np.array([0.3]), spec, risk, COV, n_events=400, seed=8)
    table = unique_stat_table(spec, hist, risk, COV)

    # penalized_mle's ridge objective and Newton step
    def objective(b):
        return loglik_full(b, table) - 0.5 * float(np.sum(b**2 / 100.0))

    def newton_step(b):
        g = grad_loglik_full(b, table) - b / 100.0
        h = inference.hessian_loglik_full(b, table) - np.eye(1) / 100.0
        return np.linalg.solve(h, g)

    start = np.array([-20.0])
    with pytest.raises(FloatingPointError):
        objective(start - newton_step(start))
    beta, _, _ = inference._newton_ascent(objective, newton_step, start, 100, 1e-10)
    np.testing.assert_allclose(beta, penalized_mle(table), atol=1e-8)


def test_logpost_trace_finite():
    d = syn52(baserate=-1.5)
    pairs = simulate_hierarchical(d.beta, 0.5, 3, d.spec, d.risk, d.cov, n_events=40, seed=10)
    tables = [unique_stat_table(d.spec, h, d.risk, d.cov) for h, _ in pairs]
    samples = run_collapsed_sampler(tables, n_burnin=30, n_keep=40, seed=11)
    assert np.all(np.isfinite(samples.logpost))
    assert samples.betas.shape == (40, 3, 6)


def test_exchangeability_of_sequence_order():
    d = syn52(baserate=-1.5)
    pairs = simulate_hierarchical(d.beta, 0.5, 4, d.spec, d.risk, d.cov, n_events=60, seed=12)
    tables = [unique_stat_table(d.spec, h, d.risk, d.cov) for h, _ in pairs]
    a = run_collapsed_sampler(tables, n_burnin=100, n_keep=300, seed=13)
    b = run_collapsed_sampler(tables[::-1], n_burnin=100, n_keep=300, seed=13)
    # population-level draws are exchangeable in sequence order
    np.testing.assert_allclose(a.mu.mean(axis=0), b.mu.mean(axis=0), atol=0.15)
    np.testing.assert_allclose(
        a.sigma2.mean(axis=0), b.sigma2.mean(axis=0), atol=0.15
    )


def test_map_tol_infinite_returns_initialization():
    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=30, seed=14)
    table = unique_stat_table(d.spec, hist, d.risk, d.cov)
    betas, mu, sigma2, report = map_estimate([table], tol=math.inf)
    assert report["iterations"] == 0 and report["converged"]
    np.testing.assert_array_equal(betas, np.zeros((1, 6)))
    np.testing.assert_array_equal(mu, np.zeros(6))
    np.testing.assert_allclose(sigma2, 0.25)


def test_map_matches_generic_optimizer():
    # sigma fixed large: beta block optimum equals a penalized MLE
    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=150, seed=15)
    table = unique_stat_table(d.spec, hist, d.risk, d.cov)
    beta_hat = penalized_mle(table)

    def neg(b):
        return -(loglik_full(b, table) - 0.5 * np.sum(b**2) / 100.0)

    res = optimize.minimize(neg, np.zeros(6), method="BFGS", options={"gtol": 1e-10})
    np.testing.assert_allclose(beta_hat, res.x, atol=1e-4)


def test_map_flags_collapsed_variance():
    # identical sequences and a never-varying effect column starve sigma^2
    d = syn52(baserate=-1.0)
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=60, seed=16)
    table = unique_stat_table(d.spec, hist, d.risk, d.cov)
    with pytest.warns(RuntimeWarning, match="effect"):
        betas, mu, sigma2, report = map_estimate(
            [table] * 4, hyper=Hyperparams(alpha_sigma=1.01, beta_sigma=1e-7)
        )
    assert report["warnings"]


def test_map_improves_joint_logpost():
    d = syn52(baserate=-1.5)
    pairs = simulate_hierarchical(d.beta, 0.5, 3, d.spec, d.risk, d.cov, n_events=80, seed=17)
    tables = [unique_stat_table(d.spec, h, d.risk, d.cov) for h, _ in pairs]
    betas, mu, sigma2, _ = map_estimate(tables)
    lp0 = joint_log_posterior(np.zeros((3, 6)), np.zeros(6), np.full(6, 0.25), tables, HYPER)
    lp1 = joint_log_posterior(betas, mu, sigma2, tables, HYPER)
    assert lp1 > lp0


def _syn52_tables(k, n_events, seed):
    d = syn52(baserate=-1.5)
    pairs = simulate_hierarchical(d.beta, 0.5, k, d.spec, d.risk, d.cov, n_events=n_events,
                                  seed=seed)
    return [unique_stat_table(d.spec, h, d.risk, d.cov) for h, _ in pairs]


def test_map_matches_generic_optimizer_on_the_profiled_posterior():
    # sigma^2 profiled out at its floored block maximum; by the envelope
    # theorem the profiled gradient is the (beta, mu) gradient there
    tables = _syn52_tables(3, 150, 18)
    k, p = 3, 6

    def unpack(x):
        betas, mu = x[:-p].reshape(k, p), x[-p:]
        ss = np.sum((betas - mu) ** 2, axis=0)
        sigma2 = np.maximum((HYPER.beta_sigma + 0.5 * ss) / (HYPER.alpha_sigma + k / 2 + 1), 1e-6)
        return betas, mu, sigma2

    def neg(x):
        betas, mu, sigma2 = unpack(x)
        dev = (betas - mu) / sigma2
        g_b = np.array([grad_loglik_full(b, t) for b, t in zip(betas, tables)]) - dev
        g_mu = dev.sum(axis=0) - mu / HYPER.mu_prior_sd**2
        lp = joint_log_posterior(betas, mu, sigma2, tables, HYPER)
        return -lp, -np.concatenate([g_b.ravel(), g_mu])

    res = optimize.minimize(neg, np.zeros((k + 1) * p), jac=True, method="BFGS",
                            options={"gtol": 1e-9, "maxiter": 10000})
    betas, mu, sigma2, report = map_estimate(tables)
    assert report["converged"] and report["warnings"] == []
    lp = joint_log_posterior(betas, mu, sigma2, tables, HYPER)
    assert lp == pytest.approx(-res.fun, abs=1e-8)
    np.testing.assert_allclose(sigma2, unpack(np.concatenate([betas.ravel(), mu]))[2],
                               rtol=1e-12)


def test_map_takes_few_hessians(monkeypatch):
    tables = _syn52_tables(3, 150, 19)
    calls = []
    original = inference.hessian_loglik_full

    def counted(beta, table):
        calls.append(1)
        return original(beta, table)

    monkeypatch.setattr(inference, "hessian_loglik_full", counted)
    _, _, _, report = map_estimate(tables)
    assert report["converged"]
    assert 0 < len(calls) <= 30 * len(tables)
    assert len(calls) == report["iterations"] * len(tables)


def test_map_stopped_at_max_iters_warns_and_says_so():
    tables = _syn52_tables(3, 80, 17)
    with pytest.warns(RuntimeWarning, match="max_iters=1"):
        _, _, _, report = map_estimate(tables, max_iters=1)
    assert report["converged"] is False
    assert report["iterations"] == 1
    assert len(report["warnings"]) == 1 and "max_iters=1" in report["warnings"][0]
    assert report["grad_norm"] > 0
