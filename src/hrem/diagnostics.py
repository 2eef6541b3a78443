"""Model selection, predictive evaluation, and adequacy checks.

DIC for comparing specifications, recall@z for held-out prediction,
per-event deviance residuals and multinomial event probabilities, and
the per-dyad "surprise" matrix built from predicted ranks.
"""

from __future__ import annotations

import warnings

import numpy as np

from hrem.events import CovariateSet, EventHistory, RiskSet
from hrem.likelihood import loglik_full, score_events
from hrem.stats import StatisticSpec

__all__ = [
    "dic",
    "recall",
    "recall_at_z",
    "baseline_counts",
    "baseline_recall_at_z",
    "deviance_residuals",
    "event_probabilities",
    "surprise",
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

    def deviance(betas):
        return -2.0 * sum(loglik_full(beta, table) for beta, table in zip(betas, tables))

    deviances = np.array([deviance(draw) for draw in samples.betas])
    mean_dev = float(deviances.mean())
    if np.all(samples.betas == samples.betas[0]):
        # degenerate posterior: p_D is exactly 0, avoid mean round-off
        return {"dic": float(deviances[0]), "p_d": 0.0, "mean_deviance": float(deviances[0])}
    p_d = mean_dev - deviance(samples.beta_mean())
    if p_d < 0:
        warnings.warn("negative p_D (%.3g): DIC may be unreliable here" % p_d,
                      RuntimeWarning, stacklevel=2)
    return {"dic": mean_dev + p_d, "p_d": p_d, "mean_deviance": mean_dev}


def _ranks(higher: np.ndarray, ties: np.ndarray, rng) -> np.ndarray:
    """1-based descending ranks from the counts of higher and of tied scores
    (the entry itself included), ties broken by one uniform draw per entry."""
    return higher + 1 + rng.integers(ties)


def recall(higher: np.ndarray, ties: np.ndarray, z: int, rng) -> float:
    """Fraction of events whose tie-broken rank is within the top z."""
    return float(np.mean(_ranks(higher, ties, rng) <= z))


def recall_at_z(params, history: EventHistory, spec: StatisticSpec, risk: RiskSet,
                cov: CovariateSet, z: int, n_train: int = 0, rng=None) -> float:
    """Fraction of scored events whose model rank is within the top z.

    `params` is a single P-vector or an (L, P) array of posterior draws;
    in the latter case per-draw recalls are averaged.  Events before
    `n_train` only warm up the state.
    """
    if not 1 <= z <= len(risk):
        raise ValueError("z must lie between 1 and the risk set size")
    if n_train >= history.m:
        raise ValueError("test segment is empty")
    rng = rng or np.random.default_rng(0)
    params = np.asarray(params, dtype=float)
    if params.ndim == 2:
        return float(np.mean([recall_at_z(b, history, spec, risk, cov, z, n_train, rng)
                              for b in params]))
    scores = score_events(params, history, spec, risk, cov, start=n_train)
    return recall(scores.higher, scores.ties, z, rng)


def baseline_counts(history: EventHistory, risk: RiskSet, n_train: int):
    """(higher, ties) of each test event under the empirical baseline: how many
    dyads have more, and as many, training events as its dyad (itself included).

    The baseline ranks dyads by their training-segment event counts, so
    unseen dyads tie at zero.
    """
    rows = risk.rows(history.senders, history.recipients)
    counts = np.bincount(rows[:n_train], minlength=len(risk))
    observed = counts[rows[n_train:]]
    ordered = np.sort(counts)
    above = np.searchsorted(ordered, observed, side="right")
    return len(ordered) - above, above - np.searchsorted(ordered, observed, side="left")


def baseline_recall_at_z(history: EventHistory, risk: RiskSet, cov: CovariateSet,
                         z: int, n_train: int, rng=None) -> float:
    """Recall@z of the empirical-frequency baseline on the test segment."""
    if not 1 <= z <= len(risk):
        raise ValueError("z must lie between 1 and the risk set size")
    if n_train >= history.m:
        raise ValueError("test segment is empty")
    return recall(*baseline_counts(history, risk, n_train), z, rng or np.random.default_rng(0))


def deviance_residuals(beta, history: EventHistory, spec: StatisticSpec,
                       risk: RiskSet, cov: CovariateSet) -> np.ndarray:
    """Per-event deviance d_m = -2 [log hazard_obs - integrated exposure].

    The exposure term integrates the total hazard over (t_{m-1}, t_m]
    (piecewise across context switches) so that sum(d_m) plus twice the
    tail exposure decomposes -2 * loglik exactly.
    """
    return score_events(beta, history, spec, risk, cov).deviance


def event_probabilities(beta, history: EventHistory, spec: StatisticSpec,
                        risk: RiskSet, cov: CovariateSet) -> np.ndarray:
    """Multinomial probability of each observed event given the history."""
    return score_events(beta, history, spec, risk, cov).prob


def surprise(higher: np.ndarray, ties: np.ndarray, senders, recipients, threshold: int,
             rng) -> dict:
    """Per-dyad surprise: proportion of its events ranked beyond the threshold.

    Event m is (senders[m], recipients[m]).  Returns {(i, j): (q_ij,
    n_events)} for dyads with at least one observed event, in dyad order;
    dyads with none are simply absent.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    dyads, inverse, n = np.unique(np.column_stack([senders, recipients]), axis=0,
                                  return_inverse=True, return_counts=True)
    hits = np.bincount(inverse.ravel(), _ranks(higher, ties, rng) > threshold, len(n))
    return dict(zip(map(tuple, dyads.tolist()), zip((hits / n).tolist(), n.tolist())))


def surprise_matrix(beta, history: EventHistory, spec: StatisticSpec, risk: RiskSet,
                    cov: CovariateSet, threshold: int, rng=None) -> dict:
    """Per-dyad surprise of a history's events under beta (see :func:`surprise`)."""
    scores = score_events(beta, history, spec, risk, cov)
    return surprise(scores.higher, scores.ties, history.senders, history.recipients, threshold,
                    rng or np.random.default_rng(0))
