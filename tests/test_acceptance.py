"""Acceptance suite: one test per criterion, tolerances as stated.

Each test prints a single summary line so the run log reads as a
checklist.  Data scales follow the stated desk scales; random seeds are
fixed so the suite is reproducible.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from hrem import diagnostics
from hrem.events import CovariateSet, build_risk_set
from hrem.inference import (
    CollapsedGibbs,
    Hyperparams,
    collapsed_prior_logpdf,
    effective_sample_size,
    gibbs_mu,
    gibbs_sigma,
    penalized_mle,
    run_collapsed_sampler,
)
from hrem.likelihood import explosion_check, loglik_full, loglik_naive
from hrem.presets import syn52
from hrem.simulate import (
    event_choice_probabilities,
    simulate_hierarchical,
    simulate_history,
)
from hrem.stats import (
    Baserate,
    ContextIndicator,
    DyadMatch,
    DyadValue,
    EventCount,
    Mix,
    PShift,
    RecencyReceive,
    RecencySend,
    SenderAttr,
    SeqState,
    StatisticSpec,
    UniqueStatTable,
    pshift_label,
    unique_stat_table,
)
from hrem.tempering import swap_log_acceptance, tempered_sample

import scalar_oracle

HYPER = Hyperparams()


def announce(n, text):
    print("\n[criterion %02d] PASS: %s" % (n, text))


# ---------------------------------------------------------------------------
# 1. cached likelihood equals the direct evaluation


def _random_design(rng):
    n = int(rng.integers(3, 7))
    shapes = {i: ("a" if i < n // 2 else "b") for i in range(n)}
    weights = {
        (i, j): float(rng.uniform(0, 2)) for i in range(n) for j in range(n) if i != j
    }
    track = ()
    if rng.random() < 0.5:
        track = ((0.0, "x"), (float(rng.uniform(0.05, 0.5)), "y"))
    cov = CovariateSet(
        actor_attrs={"shape": shapes}, dyad_attrs={"w": weights}, context_track=track
    )
    pool = [
        Baserate(),
        PShift("AB-BA"),
        PShift("AB-XY"),
        PShift("AB-AY"),
        RecencySend(),
        RecencyReceive(),
        DyadMatch("shape"),
        SenderAttr("shape", "a"),
        DyadValue("w"),
        Mix("shape", "a", "b"),
    ]
    if track:
        pool.append(ContextIndicator("y"))
    keep = [Baserate()] + [
        e for e in pool[1:] if rng.random() < 0.5
    ]
    spec = StatisticSpec(tuple(keep))
    risk = build_risk_set(n, include_broadcast=False)
    return spec, risk, cov


def test_criterion_01_unique_vector_cache_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(200):
        spec, risk, cov = _random_design(rng)
        beta_sim = rng.normal(scale=0.4, size=spec.p)
        hist = simulate_history(
            beta_sim, spec, risk, cov, n_events=int(rng.integers(5, 31)),
            seed=int(rng.integers(1 << 30)),
        )
        table = unique_stat_table(spec, hist, risk, cov)
        beta = rng.normal(scale=0.7, size=spec.p)
        full = loglik_full(beta, table)
        # loglik_naive sums the statistic matrices; the oracle, per-dyad scalars
        for direct in (loglik_naive(beta, hist, spec, risk, cov),
                       scalar_oracle.loglik(beta, hist, spec, risk, cov)):
            rel = abs(full - direct) / max(1.0, abs(direct))
            worst = max(worst, rel)
            assert rel < 1e-10, "trial %d: relative gap %.3g" % (trial, rel)
    announce(1, "cached vs matrix-sum and scalar log-likelihoods, 200 trials, worst rel %.2e"
             % worst)


# ---------------------------------------------------------------------------
# 2. closed-form collapsed prior matches sigma^2 quadrature


def test_criterion_02_collapsed_prior_quadrature():
    a, b = 5.0, 1.0
    hyper = Hyperparams(alpha_sigma=a, beta_sigma=b)
    ig = stats.invgamma(a, scale=b)
    worst = 0.0
    for d in np.linspace(-5.0, 5.0, 101):
        closed = math.exp(float(collapsed_prior_logpdf(d, 0.0, hyper)))
        quad, err = integrate.quad(
            lambda s: math.exp(-0.5 * d * d / s) / math.sqrt(2 * math.pi * s) * ig.pdf(s),
            0.0, np.inf, limit=200,
        )
        rel = abs(closed - quad) / abs(quad)
        worst = max(worst, rel)
        assert rel < 1e-6, "d=%.2f: rel %.3g" % (d, rel)
    announce(2, "collapsed prior vs quadrature on 101-point grid, worst rel %.2e" % worst)


# ---------------------------------------------------------------------------
# 3. conjugate updates hit their analytic moments


def test_criterion_03_conjugate_update_moments():
    rng = np.random.default_rng(103)
    n = 100000
    sig = np.array([gibbs_sigma(np.zeros(4), 0.0, HYPER, rng) for _ in range(n)])
    mean_sig = sig.mean()
    assert abs(mean_sig - 1 / 6) / (1 / 6) < 0.01  # Inv-Gamma(7,1) mean
    mu = np.array([gibbs_mu(np.zeros(4), 1.0, rng, mode="paper") for _ in range(n)])
    var_mu = mu.var()
    assert abs(var_mu - 0.5) / 0.5 < 0.02  # variance sigma^2/sqrt(K)
    announce(
        3,
        "gibbs_sigma mean %.5f (target 1/6), gibbs_mu variance %.4f (target 0.5)"
        % (mean_sig, var_mu),
    )


# ---------------------------------------------------------------------------
# 4. simulator gaps and choices match their analytic distributions


def test_criterion_04_simulator_fidelity():
    # constant total rate: gaps ~ Exponential(|R|)
    risk = build_risk_set(3)
    spec = StatisticSpec((Baserate(),))
    hist = simulate_history(np.zeros(1), spec, risk, CovariateSet(),
                            n_events=10000, seed=104, max_events=10**6)
    gaps = np.diff(np.concatenate([[0.0], hist.times]))
    ks = stats.kstest(gaps, "expon", args=(0, 1.0 / len(risk)))
    assert ks.pvalue > 0.01, "KS p=%.4f" % ks.pvalue

    # frozen state with non-uniform hazards: choice frequencies vs the
    # multinomial choice probabilities
    shapes = {i: ("a" if i < 2 else "b") for i in range(4)}
    cov = CovariateSet(actor_attrs={"shape": shapes})
    risk4 = build_risk_set(4)
    spec4 = StatisticSpec((Baserate(), DyadMatch("shape"), SenderAttr("shape", "a")))
    beta = np.array([0.0, 0.8, -0.5])
    probs = event_choice_probabilities(beta, spec4, risk4, cov, SeqState(4))
    counts = np.zeros(len(risk4))
    rng = np.random.default_rng(1040)
    for _ in range(10000):
        h = simulate_history(beta, spec4, risk4, cov, n_events=1,
                             seed=int(rng.integers(1 << 30)))
        counts[risk4.row_index[h.events[0][1:]]] += 1
    chi = stats.chisquare(counts, probs * counts.sum())
    assert chi.pvalue > 0.01, "chi-square p=%.4f" % chi.pvalue
    announce(4, "KS p=%.3f on 10^4 gaps, chi-square p=%.3f on 10^4 choices"
             % (ks.pvalue, chi.pvalue))


# ---------------------------------------------------------------------------
# 5. reciprocation effects inflate AB-BA counts as in the synthetic study
#
# syn52 has only class-mixing and participation-shift effects, so the next
# dyad depends on the previous dyad alone: the dyads of a sequence form a
# Markov chain on the 90 ordered pairs.  The chain is built here from the
# multipliers in the syn52 docstring, without hrem.stats, and gives the
# exact expected AB-BA count that the simulator has to reproduce.


def _syn52_chain(ab_ba=1.5):
    """Dyads, first-event distribution and transition matrix of syn52.

    Actors 0-4 are triangles and 5-9 squares; log multipliers are 1.5
    within triangles, 1 for triangle -> square, `ab_ba` for AB-BA, 1 for
    AB-BY and 0.5 for AB-AY.
    """
    dyads = [(i, j) for i in range(10) for j in range(10) if i != j]
    mix = np.array([1.5 * (i < 5 and j < 5) + 1.0 * (i < 5 and j >= 5) for i, j in dyads])
    first = np.exp(mix) / np.exp(mix).sum()
    trans = np.empty((len(dyads), len(dyads)))
    for row, (a, b) in enumerate(dyads):
        shift = np.array([ab_ba * (i == b and j == a) + 1.0 * (i == b and j != a)
                          + 0.5 * (i == a and j != b) for i, j in dyads])
        w = np.exp(mix + shift)
        trans[row] = w / w.sum()
    return dyads, first, trans


def _expected_ab_ba(dyads, first, trans, n_events):
    """Exact expected number of AB-BA transitions among `n_events` events."""
    index = {d: row for row, d in enumerate(dyads)}
    p_back = np.array([trans[row, index[(b, a)]] for row, (a, b) in enumerate(dyads)])
    p, total = first, 0.0
    for _ in range(n_events - 1):
        total += p @ p_back
        p = p @ trans
    return total


def test_criterion_05_reciprocation_inflation():
    d = syn52()
    dyads, first, trans = _syn52_chain()

    # the hand-built chain is the preset's design, row for row
    cols = d.risk.rows(*np.array(dyads).T)
    state = SeqState(d.n_actors)
    probs = event_choice_probabilities(d.beta, d.spec, d.risk, d.cov, state)
    np.testing.assert_allclose(probs[cols], first, rtol=0, atol=1e-12)
    for row, prev in enumerate(dyads):
        state.last_event = prev
        probs = event_choice_probabilities(d.beta, d.spec, d.risk, d.cov, state)
        np.testing.assert_allclose(probs[cols], trans[row], rtol=0, atol=1e-12,
                                   err_msg="transition row after %s" % (prev,))

    # the design inflates AB-BA: against uniform choice and against beta_AB-BA = 0
    n_events = 1000
    expected = _expected_ab_ba(dyads, first, trans, n_events)
    uniform = (n_events - 1) / len(dyads)
    without = _expected_ab_ba(*_syn52_chain(ab_ba=0.0), n_events)
    assert expected > 4 * uniform, "E=%.2f not above 4x uniform %.2f" % (expected, uniform)
    assert expected > 4 * without, "E=%.2f not above 4x E0=%.2f" % (expected, without)

    # the simulator reproduces the exact expectation
    counts = []
    for rep in range(100):
        hist = simulate_history(d.beta, d.spec, d.risk, d.cov,
                                n_events=n_events, seed=500 + rep)
        prev = None
        n = 0
        for ev in hist.events:
            if pshift_label(prev, ev) == "AB-BA":
                n += 1
            prev = ev
        counts.append(n)
    mean = float(np.mean(counts))
    se = float(np.std(counts, ddof=1)) / math.sqrt(len(counts))
    assert abs(mean - expected) < 4 * se, (
        "mean AB-BA count %.2f +- %.2f, exact expectation %.2f" % (mean, se, expected))
    announce(5, "exact AB-BA expectation %.2f, simulated %.2f +- %.2f over %d runs; "
             "uniform %.1f, ratio %.2f; %.2f without AB-BA"
             % (expected, mean, se, len(counts), uniform, expected / uniform, without))


# ---------------------------------------------------------------------------
# 6-7. hierarchical recovery, pooling, and recall on the K=20 design


@pytest.fixture(scope="module")
def k20_data():
    d = syn52()
    pairs = simulate_hierarchical(d.beta, 1.0, 20, d.spec, d.risk, d.cov,
                                  n_events=1000, seed=600)
    return d, pairs


def test_criterion_06_parameter_recovery_and_pooling(k20_data):
    d, pairs = k20_data
    truths = np.array([b for _, b in pairs])

    tables = [unique_stat_table(d.spec, h, d.risk, d.cov) for h, _ in pairs]
    samples = run_collapsed_sampler(tables, HYPER, n_burnin=500, n_keep=500, seed=601)
    lo, hi = samples.beta_interval()
    covered = np.mean((truths >= lo) & (truths <= hi))
    assert covered >= 0.90, "coverage %.3f below 0.90" % covered

    # pooling beats separate fits on short sequences
    short = [h.truncate(50) for h, _ in pairs]
    short_tables = [unique_stat_table(d.spec, h, d.risk, d.cov) for h in short]
    pooled = run_collapsed_sampler(short_tables, HYPER, n_burnin=500, n_keep=500, seed=602)
    hier_hat = pooled.beta_mean()
    mse_hier = np.mean([diagnostics.mse(truths[k], hier_hat[k]) for k in range(20)])
    sep_hat = np.array([penalized_mle(t) for t in short_tables])
    mse_sep = np.mean([diagnostics.mse(truths[k], sep_hat[k]) for k in range(20)])
    assert mse_hier < mse_sep, "MSE hier %.3f not below separate %.3f" % (mse_hier, mse_sep)
    announce(
        6,
        "coverage %.3f (>=0.90); M_train=50 MSE hier %.3f < separate %.3f"
        % (covered, mse_hier, mse_sep),
    )


def test_criterion_07_recall_direction(k20_data):
    d, pairs = k20_data
    rng = np.random.default_rng(700)
    z = 5
    gaps = {}
    wins = {}
    for m_train in (10, 100):
        short_tables = [
            unique_stat_table(d.spec, h.truncate(m_train), d.risk, d.cov)
            for h, _ in pairs
        ]
        fit = run_collapsed_sampler(short_tables, HYPER, n_burnin=300, n_keep=300,
                                    seed=701 + m_train)
        beta_hat = fit.beta_mean()
        n_win = 0
        hier_all, true_all = [], []
        for k, (hist, beta_true) in enumerate(pairs):
            hier = diagnostics.recall_at_z(beta_hat[k], hist, d.spec, d.risk, d.cov,
                                           z, n_train=m_train, rng=rng)
            base = diagnostics.baseline_recall_at_z(hist, d.risk, d.cov, z, m_train,
                                                    rng=rng)
            true = diagnostics.recall_at_z(beta_true, hist, d.spec, d.risk, d.cov,
                                           z, n_train=m_train, rng=rng)
            if hier >= base:
                n_win += 1
            hier_all.append(hier)
            true_all.append(true)
        wins[m_train] = n_win
        gaps[m_train] = abs(np.mean(true_all) - np.mean(hier_all))
        assert n_win >= 16, "M_train=%d: hierarchical beat baseline in %d/20" % (
            m_train, n_win)
    assert gaps[100] <= gaps[10], (
        "gap to true-parameter recall did not shrink: %.4f -> %.4f"
        % (gaps[10], gaps[100])
    )
    announce(
        7,
        "recall@5 wins %d/20 (M_train=10) and %d/20 (M_train=100); "
        "true-recall gap %.4f -> %.4f" % (wins[10], wins[100], gaps[10], gaps[100]),
    )


# ---------------------------------------------------------------------------
# 8. DIC prefers the correctly specified model


def test_criterion_08_dic_direction():
    n_actors = 6
    risk = build_risk_set(n_actors)
    cov = CovariateSet()
    gen_spec = StatisticSpec((Baserate(), PShift("AB-BA"), PShift("AB-BY")))
    beta = np.array([0.0, 2.0, 1.0])
    null_spec = StatisticSpec((Baserate(),))
    n_correct = 0
    for rep in range(10):
        hist = simulate_history(beta, gen_spec, risk, cov, n_events=300,
                                seed=800 + rep)
        t_full = unique_stat_table(gen_spec, hist, risk, cov)
        t_null = unique_stat_table(null_spec, hist, risk, cov)
        s_full = run_collapsed_sampler([t_full], HYPER, n_burnin=150, n_keep=200,
                                       seed=850 + rep)
        s_null = run_collapsed_sampler([t_null], HYPER, n_burnin=150, n_keep=200,
                                       seed=870 + rep)
        if diagnostics.dic(s_full, [t_full])["dic"] < diagnostics.dic(s_null, [t_null])["dic"]:
            n_correct += 1
    assert n_correct >= 9, "correct model preferred in %d/10" % n_correct

    # degenerate posterior: p_D exactly zero
    from hrem.inference import PosteriorSamples

    hist = simulate_history(beta, gen_spec, risk, cov, n_events=50, seed=899)
    table = unique_stat_table(gen_spec, hist, risk, cov)
    frozen = PosteriorSamples(
        betas=np.tile(beta, (7, 1, 1)), mu=np.zeros((7, 3)),
        sigma2=np.ones((7, 3)), logpost=np.zeros(7), n_burnin=0, n_keep=7,
    )
    assert diagnostics.dic(frozen, [table])["p_d"] == 0.0
    announce(8, "DIC preferred the generating model in %d/10 replicates; "
             "degenerate p_D == 0" % n_correct)


# ---------------------------------------------------------------------------
# 9. residual and surprise patterns track model adequacy


def test_criterion_09_adequacy_patterns():
    # residuals: AB-BA events are better explained with the AB-BA effect
    d = syn52()
    hist = simulate_history(d.beta, d.spec, d.risk, d.cov, n_events=1000, seed=900)
    spec_no = StatisticSpec(tuple(e for e in d.spec.effects if e != PShift("AB-BA")))
    b_with = penalized_mle(unique_stat_table(d.spec, hist, d.risk, d.cov))
    b_no = penalized_mle(unique_stat_table(spec_no, hist, d.risk, d.cov))
    r_with = diagnostics.deviance_residuals(b_with, hist, d.spec, d.risk, d.cov)
    r_no = diagnostics.deviance_residuals(b_no, hist, spec_no, d.risk, d.cov)
    labels = []
    prev = None
    for ev in hist.events:
        labels.append(pshift_label(prev, ev))
        prev = ev
    is_ba = np.array([lab == "AB-BA" for lab in labels])
    mean_with = r_with[is_ba].mean()
    mean_no = r_no[is_ba].mean()
    assert mean_with < mean_no

    # surprise: a model missing the square->triangle mixing effect is
    # surprised by those events; adding it resolves them
    shapes = {i: ("triangle" if i < 5 else "square") for i in range(10)}
    cov = CovariateSet(actor_attrs={"shape": shapes})
    risk = build_risk_set(10)
    gen = StatisticSpec(
        (Baserate(), Mix("shape", "square", "square"), Mix("shape", "square", "triangle"))
    )
    data = simulate_history(np.array([0.0, 2.0, 2.0]), gen, risk, cov,
                            n_events=1000, seed=901)
    before_spec = StatisticSpec((Baserate(), Mix("shape", "square", "square")))
    b_before = penalized_mle(unique_stat_table(before_spec, data, risk, cov))
    b_after = penalized_mle(unique_stat_table(gen, data, risk, cov))
    rng = np.random.default_rng(902)
    q_before = diagnostics.surprise_matrix(b_before, data, before_spec, risk, cov,
                                           threshold=50, rng=rng)
    q_after = diagnostics.surprise_matrix(b_after, data, gen, risk, cov,
                                          threshold=50, rng=rng)

    def mean_q(q):
        vals = [v for (i, j), (v, n) in q.items()
                if shapes[i] == "square" and shapes[j] == "triangle"]
        return float(np.mean(vals))

    mq_before, mq_after = mean_q(q_before), mean_q(q_after)
    assert mq_before > 0.5, "surprise before %.3f not above 0.5" % mq_before
    assert mq_after < 0.2, "surprise after %.3f not below 0.2" % mq_after
    announce(
        9,
        "AB-BA residual mean %.3f < %.3f without the effect; "
        "square->triangle surprise %.3f -> %.3f at threshold 50"
        % (mean_with, mean_no, mq_before, mq_after),
    )


# ---------------------------------------------------------------------------
# 10. the sampler is calibrated: prior-only quantiles and a joint check


def test_criterion_10_sampler_correctness():
    # prior-only chain (conjugate mu update makes the chain exact Gibbs): the
    # prior is the posterior given no data, so each of the K tables has no rows
    k = 4
    empty = UniqueStatTable(np.empty((0, 1)), np.zeros(0, np.int64), np.zeros(0))
    samples = run_collapsed_sampler(
        [empty] * k, HYPER, n_burnin=500, n_keep=10000, seed=1001, mu_update="conjugate",
    )
    deciles = np.arange(0.1, 0.91, 0.1)
    ig = stats.invgamma(HYPER.alpha_sigma, scale=HYPER.beta_sigma)

    def beta_cdf(x):
        val, _ = integrate.quad(
            lambda s: ig.pdf(s) * stats.norm.cdf(x / math.sqrt(HYPER.mu_prior_sd**2 + s)),
            0.0, np.inf, limit=200,
        )
        return val

    gaps = []
    emp = np.quantile(samples.mu[:, 0], deciles)
    gaps.append(np.abs(stats.norm.cdf(emp / HYPER.mu_prior_sd) - deciles).max())
    emp = np.quantile(samples.sigma2[:, 0], deciles)
    gaps.append(np.abs(ig.cdf(emp) - deciles).max())
    emp = np.quantile(samples.betas[:, 0, 0], deciles)
    gaps.append(np.abs(np.array([beta_cdf(x) for x in emp]) - deciles).max())
    worst_gap = max(gaps)
    assert worst_gap < 0.03, "max decile gap %.4f" % worst_gap

    # joint (successive-conditional vs forward) check at K=5, M=50
    k, m = 5, 50
    n_actors = 5
    risk5 = build_risk_set(n_actors)
    cov = CovariateSet()
    spec5 = StatisticSpec((Baserate(), PShift("AB-BA")))
    p = spec5.p
    rng = np.random.default_rng(1002)

    def draw_params():
        mu = rng.normal(0, HYPER.mu_prior_sd, size=p)
        sigma2 = 1.0 / rng.gamma(HYPER.alpha_sigma, 1.0 / HYPER.beta_sigma, size=p)
        betas = mu + np.sqrt(sigma2) * rng.normal(size=(k, p))
        return betas, mu, sigma2

    def simulate_tables(betas):
        tables = []
        for kk in range(k):
            h = simulate_history(betas[kk], spec5, risk5, cov, n_events=m,
                                 seed=int(rng.integers(1 << 30)))
            # count-stopped data: the density has no censoring past the
            # last event, so exposure must end exactly at t_M
            h = scalar_oracle.event_history(h.events, tau=h.events[-1][0],
                                            n_actors=h.n_actors)
            tables.append(unique_stat_table(spec5, h, risk5, cov))
        return tables

    n_f = 20000
    fwd = np.empty((n_f, 2 * p))
    for i in range(n_f):
        _, mu, sigma2 = draw_params()
        fwd[i] = np.concatenate([mu, sigma2])

    n_s, burn = 4000, 200
    betas, mu, sigma2 = draw_params()
    sampler = CollapsedGibbs(simulate_tables(betas), HYPER,
                             np.random.default_rng(1003),
                             mu_update="conjugate", init=(betas, mu, sigma2))
    succ = np.empty((n_s, 2 * p))
    for i in range(burn + n_s):
        if i == burn:
            sampler.adapt = False
        sampler.set_tables(simulate_tables(sampler.betas))
        for _ in range(10):
            sampler.sweep()
        if i >= burn:
            succ[i - burn] = np.concatenate([sampler.mu, sampler.sigma2])

    worst_z = 0.0
    for col in range(2 * p):
        for series_f, series_s in ((fwd[:, col], succ[:, col]),
                                   (fwd[:, col] ** 2, succ[:, col] ** 2)):
            ess = effective_sample_size(series_s)
            z = (series_f.mean() - series_s.mean()) / math.sqrt(
                series_f.var() / series_f.size + series_s.var() / ess
            )
            worst_z = max(worst_z, abs(z))
    assert worst_z < 4.0, "worst Geweke |z| = %.2f" % worst_z
    announce(10, "prior decile gap %.4f (<0.03); worst joint-check |z| %.2f (<4)"
             % (worst_gap, worst_z))


# ---------------------------------------------------------------------------
# 11. tempering crosses between well-separated modes


def test_criterion_11_tempering_two_modes():
    for g in (-50.0, 0.0, 123.4):
        assert math.exp(swap_log_acceptance(g, g, 1.0, 2.0)) == 1.0

    def logf(x):
        v = float(x[0])
        return float(np.logaddexp(-0.5 * (v - 3.0) ** 2, -0.5 * (v + 3.0) ** 2))

    draws, info = tempered_sample(
        logf, np.array([-3.0]), (1.0, 2.0, 4.0, 8.0, 16.0), n_steps=100000,
        t_swap=10, step_size=1.0, seed=1100, n_burnin=2000,
    )
    weight = float(np.mean(draws[:, 0] > 0))
    assert abs(weight - 0.5) < 0.05, "mode weight %.3f" % weight
    announce(11, "mode weight %.3f (target 0.5 +/- 0.05); equal-state swap "
             "acceptance exactly 1" % weight)


# ---------------------------------------------------------------------------
# 12. runaway feedback specifications are flagged


def test_criterion_12_explosion_screening():
    risk = build_risk_set(4)
    cov = CovariateSet()
    quad = StatisticSpec((Baserate(), EventCount(power=2)))
    bounded = StatisticSpec((Baserate(), PShift("AB-BA")))
    horizon = 20.0
    for seed in range(10):
        rep_quad = explosion_check(np.array([0.0, 0.5]), quad, risk, cov,
                                   horizon=horizon, n_sim=2, rng_seed=1200 + seed)
        rep_ok = explosion_check(np.array([0.0, 1.5]), bounded, risk, cov,
                                 horizon=horizon, n_sim=2, rng_seed=1200 + seed)
        assert rep_quad.exploded, "seed %d: quadratic spec not flagged" % seed
        assert not rep_ok.exploded, "seed %d: bounded spec flagged" % seed
    announce(12, "quadratic-count spec flagged and bounded spec clean across 10 seeds")
