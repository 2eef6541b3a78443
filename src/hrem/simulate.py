"""Exact forward simulation of relational event sequences.

Between changepoints all hazards are constant, so the next inter-event
time is Exponential(total rate) and the event itself is a categorical
draw proportional to the dyad hazards.  Context switches introduce extra
changepoints: by memorylessness the clock simply restarts there.  When no
column of the spec reads the walk state, a step's hazards depend only on
its context label and the previous event, so each such pair builds its
statistic matrix once per simulated sequence, and the simulator folds no
event into the state beyond its previous event.
"""

from __future__ import annotations

import math

import numpy as np

from hrem.events import CovariateSet, EventHistory, RiskSet
from hrem.stats import SeqState, StatisticSpec

__all__ = [
    "SimulationExplosion",
    "simulate_history",
    "simulate_hierarchical",
    "event_choice_probabilities",
]


class SimulationExplosion(RuntimeError):
    """Raised when a simulated process trips its rate ceiling or event cap."""

    def __init__(self, message, peak_rate, n_events):
        super().__init__(message)
        self.peak_rate = peak_rate
        self.n_events = n_events


def event_choice_probabilities(beta, spec: StatisticSpec, risk: RiskSet,
                               cov: CovariateSet, state: SeqState) -> np.ndarray:
    """Probability of each risk-set dyad being the next event (choice view)."""
    beta = np.asarray(beta, dtype=float)
    eta = spec.matrix(state, cov, risk) @ beta
    eta -= eta.max()
    w = np.exp(eta)
    return w / w.sum()


def simulate_history(beta, spec: StatisticSpec, risk: RiskSet, cov: CovariateSet,
                     tau: float | None = None, n_events: int | None = None,
                     rng=None, seed: int | None = None,
                     max_events: int | None = None,
                     rate_ceiling: float | None = None,
                     sequence_id: str = "sim",
                     return_peak_rate: bool = False):
    """Simulate one sequence, stopping by time (`tau`) or count (`n_events`).

    When stopping by count, the returned window ends one mean inter-event
    gap after the last event so the censoring term stays well-defined.
    `max_events` and `rate_ceiling` guard against process explosion.
    For a spec with no column that reads the state, each step's total rate
    and event CDF are kept, keyed by (context label, previous event), once
    the step has passed the explosion check; a later step with the same key
    reuses them, checks them again and draws from `rng` as before; the
    state then holds only the previous event.  Any other spec folds each
    event into the state and builds one statistic matrix per step.
    """
    if (tau is None) == (n_events is None):
        raise ValueError("specify exactly one of tau or n_events")
    if n_events is not None and n_events < 1:
        raise ValueError("n_events must be at least 1, not %r" % (n_events,))
    if tau is not None and not tau > 0:
        raise ValueError("tau must be positive, not %r" % (tau,))
    if rng is None:
        rng = np.random.default_rng(seed)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (spec.p,):
        raise ValueError("beta has dimension %s, spec has P=%d" % (beta.shape, spec.p))
    if max_events is None:
        max_events = 100 * (n_events if n_events is not None else 1000)

    state = SeqState(risk.n_actors, broadcast=risk.broadcast_actor, cov=cov)
    events = []
    t = 0.0
    peak = 0.0
    memo = {}  # (context, previous event) -> (total rate, cdf) of a step that passed the checks
    # One errstate for the loop: an overflowing hazard or total rate is
    # reported by the explosion check below.
    with np.errstate(over="ignore"):
        while True:
            ctx = cov.context_at(t)
            key = (ctx, state.last_event)
            if spec._stateful:
                memo.clear()  # the hazards depend on more than the key
            total, cdf = memo.get(key, (None, None))
            if cdf is None:
                lam = np.exp(spec.matrix(state, cov, risk, context=ctx) @ beta)
                total = float(lam.sum())
            peak = max(peak, total)
            if not math.isfinite(total) or (rate_ceiling is not None and total > rate_ceiling):
                raise SimulationExplosion(
                    "total rate %.3g exceeded ceiling" % total, peak, len(events)
                )
            dt = rng.exponential(1.0 / total)
            if cdf is None:
                # Generator.choice(len(lam), p=lam / total) without its checks of p:
                # the same inverse-CDF search on the same single uniform.
                cdf = (lam / total).cumsum()
                cdf /= cdf[-1]
                memo[key] = total, cdf
            t_ctx = cov.next_context_change(t)
            stop_t = tau if tau is not None else math.inf
            if t + dt > t_ctx and t_ctx < stop_t:
                # Hazards change at the context boundary; restart the clock there.
                t = t_ctx
                continue
            if t + dt <= t:
                # gap underflowed: the rate is effectively infinite
                raise SimulationExplosion(
                    "inter-event time underflow at total rate %.3g" % total, peak, len(events)
                )
            t = t + dt
            if tau is not None and t >= tau:
                break
            row = cdf.searchsorted(rng.random(), side="right")
            i, j = risk.dyads[row]
            events.append((t, i, j))
            if spec._stateful:
                state.apply((t, i, j), cov)
            else:
                state.last_event = (i, j)
            if n_events is not None and len(events) >= n_events:
                break
            if len(events) >= max_events:
                raise SimulationExplosion(
                    "event cap %d exceeded before horizon" % max_events, peak, len(events)
                )

    times, senders, recipients = zip(*events) if events else ((), (), ())
    if tau is None:
        tau = times[-1] + times[-1] / len(times)
    history = EventHistory(times, senders, recipients, tau=float(tau), n_actors=risk.n_actors,
                           sequence_id=sequence_id)
    if return_peak_rate:
        return history, peak
    return history


def simulate_hierarchical(mu, sigma, k_sequences: int, spec: StatisticSpec,
                          risk: RiskSet, cov: CovariateSet,
                          tau: float | None = None, n_events: int | None = None,
                          seed: int | None = None):
    """Draw beta_k ~ N(mu, diag(sigma^2)) and simulate each sequence.

    Each sequence owns an independent spawned RNG stream, so results are
    reproducible regardless of evaluation order.  Returns a list of
    (EventHistory, true beta_k) pairs.
    """
    if k_sequences < 1:
        raise ValueError("need at least one sequence")
    mu = np.asarray(mu, dtype=float)
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), mu.shape)
    if np.any(sigma < 0):
        raise ValueError("sigma must be nonnegative")
    out = []
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(k_sequences)):
        rng = np.random.default_rng(child)
        beta_k = mu + sigma * rng.standard_normal(mu.shape)
        hist = simulate_history(
            beta_k, spec, risk, cov, tau=tau, n_events=n_events, rng=rng,
            sequence_id="seq%03d" % k,
        )
        out.append((hist, beta_k))
    return out
