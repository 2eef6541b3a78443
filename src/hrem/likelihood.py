"""Full-time log-likelihoods, per-event scores, explosion screening.

The hazard of dyad (i, j) is log-linear in its statistic vector and
piecewise constant between changepoints (events and context switches).
`loglik_full` evaluates the cached form over unique statistic vectors;
`score_events` walks the statistic matrices of the changepoint segments
instead, one per distinct key of the walk, and scores each event for the
likelihood and the diagnostics; `loglik_naive` sums its scores, which
checks the cache's deduplication and exposure sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hrem.events import CovariateSet, EventHistory, RiskSet
from hrem.stats import SeqState, StatisticSpec, UniqueStatTable, _every, walk

__all__ = [
    "loglik_full",
    "loglik_naive",
    "score_events",
    "EventScores",
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
        # Finite hazards can still overflow the exposure sum; that is -inf.
        return float(table.q @ eta - table.m @ lam)


def grad_loglik_full(beta: np.ndarray, table: UniqueStatTable) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    lam = np.exp(table.vectors @ beta)
    return table.vectors.T @ (table.q - table.m * lam)


def hessian_loglik_full(beta: np.ndarray, table: UniqueStatTable) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    w = table.m * np.exp(table.vectors @ beta)
    return -(table.vectors.T * w) @ table.vectors


@dataclass(frozen=True)
class EventScores:
    """Per-event arrays of one scoring walk, for the events from `start` on.

    `exposure` integrates the total hazard over the interval the event ends,
    `prob` is its multinomial choice probability, and `higher` and `ties`
    count the dyads whose log hazard is above and equal to the observed one
    (itself included).  `tail_exposure` covers the censored tail (t_M, tau].
    """

    log_hazard: np.ndarray
    exposure: np.ndarray
    prob: np.ndarray
    log_prob: np.ndarray
    higher: np.ndarray
    ties: np.ndarray
    tail_exposure: float

    @property
    def deviance(self) -> np.ndarray:
        """Per-event deviance -2 [log hazard - exposure]."""
        return -2.0 * (self.log_hazard - self.exposure)


def score_events(beta: np.ndarray, history: EventHistory, spec: StatisticSpec,
                 risk: RiskSet, cov: CovariateSet, start: int = 0) -> EventScores:
    """Score the events from index `start` on, and the tail, in one walk.

    Each key of the walk (:class:`hrem.stats.Walk`) gets its log hazards
    x @ beta, its total hazard and the normaliser of its choice
    probabilities once, from its block's matrices; each event gathers its
    key's.  An event's exposure sums its interval's pieces in order.
    Events before `start` only advance the state.
    """
    beta = np.asarray(beta, dtype=float)
    w = walk(spec, history, risk, cov, start=start)
    n = history.m - start
    log_hazard = np.empty(n)
    higher, ties = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    eta = np.empty((w.n_slots, len(risk)))  # each key's log hazards (Walk.n_slots)
    keyed = np.empty((3, w.n_slots))  # each key's total hazard, top log hazard and normaliser
    seg = np.empty((3, len(w.dur)))  # those of each segment's key
    ends = w.event >= 0
    with np.errstate(over="ignore"):
        for block, ready in w.blocks():
            e = eta[block.slots] = block.log_hazards(beta)  # (B, |R|)
            keyed[0, block.slots] = np.exp(e).sum(axis=1)
            keyed[1, block.slots] = e.max(axis=1)
            e = e - keyed[1, block.slots][:, None]
            np.exp(e, out=e)
            keyed[2, block.slots] = e.sum(axis=1)
            for part, slots in ready:
                seg[:, part] = keyed[:, slots]
                hit = _every(ends[part])
                at, x = w.event[part][hit] - start, eta[slots][hit]
                observed = log_hazard[at] = x[np.arange(len(at)), w.row[part][hit]]
                higher[at] = np.count_nonzero(x > observed[:, None], axis=1)
                ties[at] = np.count_nonzero(x == observed[:, None], axis=1)
        exposed = w.dur > 0
        parts = np.zeros(n + 1)  # the exposure of each event's interval, then of the tail
        np.add.at(parts, w.interval[exposed] - start, w.dur[exposed] * seg[0, exposed])
        top, norm = seg[1, ends], seg[2, ends]
        prob = np.exp(log_hazard - top) / norm
        log_prob = log_hazard - (top + np.log(norm))
    return EventScores(log_hazard, parts[:-1], prob, log_prob, higher, ties, float(parts[-1]))


def loglik_naive(beta: np.ndarray, history: EventHistory, spec: StatisticSpec,
                 risk: RiskSet, cov: CovariateSet) -> float:
    """Direct evaluation of the full-time likelihood, O(M * P * N^2).

    Sums the log hazard of each observed event and integrates the total
    hazard piecewise across context boundaries, straight from the statistic
    matrices of :func:`score_events`, without the unique-vector cache.
    """
    scores = score_events(beta, history, spec, risk, cov)
    total = scores.log_hazard.sum() - scores.exposure.sum() - scores.tail_exposure
    if not np.isfinite(total):
        raise FloatingPointError("non-finite log-likelihood")
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
