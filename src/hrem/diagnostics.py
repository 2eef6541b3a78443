"""Model selection, predictive evaluation, and adequacy checks.

DIC for comparing specifications, recall@z for held-out prediction,
per-event deviance residuals and multinomial event probabilities, and
the per-dyad "surprise" matrix built from predicted ranks.
"""

from __future__ import annotations

import warnings

import numpy as np

from hrem.events import CovariateSet, EventHistory, RiskSet
from hrem.likelihood import loglik_full
from hrem.stats import StatisticSpec, walk

__all__ = [
    "dic",
    "recall_at_z",
    "empirical_baseline",
    "baseline_recall_at_z",
    "deviance_residuals",
    "censoring_deviance",
    "event_probabilities",
    "surprise_matrix",
    "mse",
]


def mse(truth, estimate) -> float:
    """Mean squared error (1/P) * sum (estimate - truth)^2."""
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if truth.shape != estimate.shape:
        raise ValueError("dimension mismatch: %s vs %s" % (truth.shape, estimate.shape))
    return float(np.mean((estimate - truth) ** 2))


def dic(samples, tables) -> dict:
    """Deviance information criterion over kept draws.

    p_D = mean deviance - deviance at the posterior mean of each beta_k;
    DIC = mean deviance + p_D.  Negative p_D (a known pathology) is
    flagged with a warning, not an error.
    """
    if samples.n_draws == 0:
        raise ValueError("no kept draws")
    deviances = np.empty(samples.n_draws)
    for l in range(samples.n_draws):
        deviances[l] = -2.0 * sum(
            loglik_full(samples.betas[l, k], tables[k]) for k in range(len(tables))
        )
    mean_dev = float(deviances.mean())
    if np.all(samples.betas == samples.betas[0]):
        # degenerate posterior: p_D is exactly 0, avoid mean round-off
        return {"dic": float(deviances[0]), "p_d": 0.0, "mean_deviance": float(deviances[0])}
    beta_hat = samples.beta_mean()
    dev_at_mean = -2.0 * sum(
        loglik_full(beta_hat[k], tables[k]) for k in range(len(tables))
    )
    p_d = mean_dev - dev_at_mean
    if p_d < 0:
        warnings.warn("negative p_D (%.3g): DIC may be unreliable here" % p_d,
                      RuntimeWarning, stacklevel=2)
    return {"dic": mean_dev + p_d, "p_d": p_d, "mean_deviance": mean_dev}


def _rank_with_ties(scores: np.ndarray, idx: int, rng) -> int:
    """1-based descending rank of entry idx, ties broken uniformly at random."""
    s = scores[idx]
    higher = int(np.sum(scores > s))
    ties = int(np.sum(scores == s))  # includes the entry itself
    return higher + 1 + int(rng.integers(ties))


def _model_ranks(beta, history: EventHistory, spec: StatisticSpec, risk: RiskSet,
                 cov: CovariateSet, n_train: int, rng) -> np.ndarray:
    """Model rank of each observed event with index >= n_train."""
    beta = np.asarray(beta, dtype=float)
    ranks = []
    for step in walk(spec, history, risk, cov, start=n_train):
        if step.event is None:
            break
        ranks.append(_rank_with_ties(step.x(step.context) @ beta, step.row, rng))
    return np.array(ranks, dtype=int)


def recall_at_z(params, history: EventHistory, spec: StatisticSpec, risk: RiskSet,
                cov: CovariateSet, z: int, n_train: int = 0, rng=None) -> float:
    """Fraction of scored events whose model rank is within the top z.

    `params` is a single P-vector or an (L, P) array of posterior draws;
    in the latter case per-draw recalls are averaged.  Events before
    `n_train` only warm up the state.
    """
    if z < 1:
        raise ValueError("z must be >= 1")
    if z > len(risk):
        raise ValueError("z exceeds the risk set size")
    if n_train >= history.m:
        raise ValueError("test segment is empty")
    if rng is None:
        rng = np.random.default_rng(0)
    params = np.asarray(params, dtype=float)
    if params.ndim == 2:
        return float(
            np.mean([
                recall_at_z(b, history, spec, risk, cov, z, n_train=n_train, rng=rng)
                for b in params
            ])
        )
    ranks = _model_ranks(params, history, spec, risk, cov, n_train, rng)
    return float(np.mean(ranks <= z))


def empirical_baseline(history: EventHistory, risk: RiskSet,
                       n_train: int | None = None) -> np.ndarray:
    """Training-segment event counts per risk-set dyad.

    Used as a static ranking score: frequent dyads first, unseen dyads
    tied at zero (so effectively last, in random order).
    """
    counts = np.zeros(len(risk))
    limit = history.m if n_train is None else n_train
    for (t, i, j) in history.events[:limit]:
        counts[risk.index[(i, j)]] += 1
    return counts


def baseline_recall_at_z(history: EventHistory, risk: RiskSet, cov: CovariateSet,
                         z: int, n_train: int, rng=None) -> float:
    """Recall@z of the empirical-frequency baseline on the test segment."""
    if z < 1 or z > len(risk):
        raise ValueError("invalid z")
    if n_train >= history.m:
        raise ValueError("test segment is empty")
    if rng is None:
        rng = np.random.default_rng(0)
    counts = empirical_baseline(history, risk, n_train)
    ranks = np.array([_rank_with_ties(counts, risk.index[(i, j)], rng)
                      for (t, i, j) in history.events[n_train:]])
    return float(np.mean(ranks <= z))


def deviance_residuals(beta, history: EventHistory, spec: StatisticSpec,
                       risk: RiskSet, cov: CovariateSet) -> np.ndarray:
    """Per-event deviance d_m = -2 [log hazard_obs - integrated exposure].

    The exposure term integrates the total hazard over (t_{m-1}, t_m]
    (piecewise across context switches) so that sum(d_m) plus the
    censoring deviance decomposes -2 * loglik exactly.
    """
    beta = np.asarray(beta, dtype=float)
    out = np.empty(history.m)
    for step in walk(spec, history, risk, cov):
        if step.event is None:
            break
        log_obs = float(beta @ step.x(step.context)[step.row])
        out[step.index] = -2.0 * (log_obs - step.exposure(beta))
    return out


def censoring_deviance(beta, history: EventHistory, spec: StatisticSpec,
                       risk: RiskSet, cov: CovariateSet) -> float:
    """Deviance contribution of the empty interval (t_M, tau]."""
    beta = np.asarray(beta, dtype=float)
    tail = next(walk(spec, history, risk, cov, start=history.m))
    return 2.0 * tail.exposure(beta)


def event_probabilities(beta, history: EventHistory, spec: StatisticSpec,
                        risk: RiskSet, cov: CovariateSet) -> np.ndarray:
    """Multinomial probability of each observed event given the history."""
    beta = np.asarray(beta, dtype=float)
    out = np.empty(history.m)
    for step in walk(spec, history, risk, cov):
        if step.event is None:
            break
        eta = step.x(step.context) @ beta
        eta -= eta.max()
        w = np.exp(eta)
        out[step.index] = w[step.row] / w.sum()
    return out


def surprise_matrix(beta, history: EventHistory, spec: StatisticSpec, risk: RiskSet,
                    cov: CovariateSet, threshold: int, rng=None) -> dict:
    """Per-dyad surprise: proportion of its events ranked beyond the threshold.

    Returns {(i, j): (q_ij, n_events)} for dyads with at least one
    observed event; dyads with none are simply absent.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    ranks = _model_ranks(beta, history, spec, risk, cov, 0, rng)
    totals: dict = {}
    surprised: dict = {}
    for rank, (t, i, j) in zip(ranks, history.events):
        totals[(i, j)] = totals.get((i, j), 0) + 1
        if rank > threshold:
            surprised[(i, j)] = surprised.get((i, j), 0) + 1
    return {
        d: (surprised.get(d, 0) / n, n)
        for d, n in totals.items()
    }
