"""Full-time and order-only log-likelihoods, explosion screening.

The hazard of dyad (i, j) is log-linear in its statistic vector and
piecewise constant between changepoints (events and context switches).
`loglik_full` evaluates the cached form over unique statistic vectors;
`loglik_naive` sums over the statistic matrices of every changepoint
instead, which checks the cache's deduplication and exposure sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hrem.events import CovariateSet, EventHistory, RiskSet
from hrem.stats import SeqState, StatisticSpec, UniqueStatTable, walk

__all__ = [
    "loglik_full",
    "loglik_naive",
    "loglik_order",
    "grad_loglik_full",
    "hessian_loglik_full",
    "explosion_check",
    "ExplosionReport",
]


def loglik_full(beta: np.ndarray, table: UniqueStatTable) -> float:
    """Full-time log-likelihood via the unique-vector cache.

    sum_r [q_r * beta'U_r - m_r * exp(beta'U_r)].
    """
    beta = np.asarray(beta, dtype=float)
    eta = table.vectors @ beta
    with np.errstate(over="ignore"):
        lam = np.exp(eta)
    if not np.all(np.isfinite(lam)):
        raise FloatingPointError("non-finite hazard in loglik_full")
    return float(table.q @ eta - table.m @ lam)


def grad_loglik_full(beta: np.ndarray, table: UniqueStatTable) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    lam = np.exp(table.vectors @ beta)
    return table.vectors.T @ (table.q - table.m * lam)


def hessian_loglik_full(beta: np.ndarray, table: UniqueStatTable) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    w = table.m * np.exp(table.vectors @ beta)
    return -(table.vectors.T * w) @ table.vectors


def loglik_naive(beta: np.ndarray, history: EventHistory, spec: StatisticSpec,
                 risk: RiskSet, cov: CovariateSet) -> float:
    """Direct evaluation of the full-time likelihood, O(M * P * N^2).

    Sums the log hazard of each observed event and integrates the total
    hazard piecewise across context boundaries, straight from the statistic
    matrices, without the unique-vector cache.
    """
    beta = np.asarray(beta, dtype=float)
    total = 0.0
    with np.errstate(over="ignore"):
        for step in walk(spec, history, risk, cov):
            total -= step.exposure(beta)
            if step.event is not None:
                total += float(beta @ step.x(step.context)[step.row])
    if not np.isfinite(total):
        raise FloatingPointError("non-finite log-likelihood")
    return total


def loglik_order(beta: np.ndarray, history: EventHistory, spec: StatisticSpec,
                 risk: RiskSet, cov: CovariateSet) -> float:
    """Order-only (multinomial/Cox) log-likelihood.

    sum_m [beta's_obs - log sum_R exp(beta's)]; invariant to adding a
    constant to all log-hazards.  The normalizer uses max-subtraction.
    """
    beta = np.asarray(beta, dtype=float)
    total = 0.0
    for step in walk(spec, history, risk, cov):
        if step.event is None:
            break
        eta = step.x(step.context) @ beta
        top = eta.max()
        total += eta[step.row] - (top + np.log(np.exp(eta - top).sum()))
    return float(total)


@dataclass(frozen=True)
class ExplosionReport:
    """Outcome of forward-simulation screening for process explosion."""

    exploded: bool
    max_total_rate: float
    n_events: list


def explosion_check(beta: np.ndarray, spec: StatisticSpec, risk: RiskSet,
                    cov: CovariateSet, horizon: float, n_sim: int = 10,
                    rng_seed: int = 0) -> ExplosionReport:
    """Simulate forward and flag runaway total rates before the horizon.

    A trajectory counts as exploded when the total rate exceeds 1e6 times
    its initial value or the event count exceeds 100 times the
    initial-rate expectation.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    from hrem.simulate import simulate_history, SimulationExplosion

    beta = np.asarray(beta, dtype=float)
    state0 = SeqState(risk.n_actors, broadcast=risk.broadcast_actor, cov=cov)
    rate0 = float(np.exp(spec.matrix(state0, cov, risk) @ beta).sum())
    ceiling = 1e6 * rate0
    cap = int(np.ceil(100.0 * rate0 * horizon))

    exploded = False
    max_rate = rate0
    counts = []
    ss = np.random.SeedSequence(rng_seed)
    for child in ss.spawn(n_sim):
        rng = np.random.default_rng(child)
        try:
            hist, peak = simulate_history(
                beta, spec, risk, cov, tau=horizon, rng=rng,
                max_events=cap, rate_ceiling=ceiling, return_peak_rate=True,
            )
            counts.append(hist.m)
        except SimulationExplosion as exc:
            exploded = True
            peak = exc.peak_rate
            counts.append(exc.n_events)
        max_rate = max(max_rate, peak)
    return ExplosionReport(exploded=exploded, max_total_rate=max_rate, n_events=counts)
