"""Parallel tempering (replica exchange) over the full joint posterior.

J chains target flattened versions of the posterior, h_j proportional to
exp(-g/t_j) with g the negative log posterior and t_1 = 1 the base
chain.  Within-chain moves are per-coordinate random-walk Metropolis;
every `t_swap` sweeps one adjacent pair is proposed for a state swap.
Only base-chain draws are reported.

`tempered_sample` moves the replicas of a :class:`Target`.  A plain
callable is scored whole at every proposal.  The hierarchical model's
:class:`HierarchicalTarget` keeps, per replica, each sequence's
eta_k = U_k beta_k and log-likelihood, so a beta_kp move re-scores one
table and a mu_p or log sigma^2_p move is scalar arithmetic over column p.
Swap energies and the kept draws' log posteriors are full
`joint_log_posterior` evaluations plus the Jacobian sum_p log sigma^2_p of
the log-variance coordinates.
"""

from __future__ import annotations

import math

import numpy as np

from hrem.inference import (Hyperparams, PosteriorSamples, _chain_start, _check_chain, _package,
                            joint_log_posterior)

__all__ = [
    "swap_log_acceptance",
    "Target",
    "HierarchicalTarget",
    "tempered_sample",
    "run_parallel_tempering",
]


def swap_log_acceptance(g_j: float, g_j1: float, t_j: float, t_j1: float) -> float:
    """Log acceptance ratio for swapping adjacent chains j and j+1.

    g values are energies (negative log posterior); equal states give
    exactly 0, i.e. acceptance probability 1.
    """
    return (1.0 / t_j - 1.0 / t_j1) * (g_j - g_j1)


def _check_ladder(ladder):
    ladder = tuple(float(t) for t in ladder)
    if len(ladder) < 2:
        raise ValueError("temperature ladder needs at least two chains")
    if ladder[0] != 1.0:
        raise ValueError("base temperature must be 1")
    if any(b < a for a, b in zip(ladder[:-1], ladder[1:])):
        raise ValueError("temperatures must be non-decreasing")
    return ladder


class _Replica:
    """One chain's state `x` and what its target caches about it."""

    __slots__ = ("x", "lp", "eta", "ll")

    def __init__(self, x, lp=None, eta=None, ll=None):
        self.x, self.lp, self.eta, self.ll = x, lp, eta, ll


class Target:
    """A log density whose replicas `tempered_sample` moves one coordinate at a time.

    This base scores a plain callable whole at every proposal and caches
    only each replica's log density.  A subclass may cache more per replica
    and score a move by the terms it changes; `log_density` stays the full
    value at the replica's state.
    """

    def __init__(self, logpost):
        self._logpost = logpost
        self._pending = None

    def replicas(self, x0, n: int):
        """n replicas at state x0."""
        lp = float(self._logpost(x0))
        return [_Replica(x0.copy(), lp=lp) for _ in range(n)]

    def propose(self, rep, d: int, value) -> float:
        """Log density change from setting rep.x[d] to `value`, held for `accept`."""
        prop = rep.x.copy()
        prop[d] = value
        lp = float(self._logpost(prop))
        self._pending = (prop, lp)
        return lp - rep.lp

    def accept(self, rep):
        """Move `rep` to the last proposal."""
        rep.x, rep.lp = self._pending

    def log_density(self, rep) -> float:
        """The full log density at rep.x."""
        return rep.lp


class HierarchicalTarget(Target):
    """log p(beta, mu, log sigma^2 | tables) with the Jacobian of the log variances.

    x packs beta (K x P, row-major), mu (P) and log sigma^2 (P).  A replica
    keeps eta_k = U_k beta_k and the log-likelihood of each table, so a
    beta_kp move costs one table and a mu_p or log sigma^2_p move none.
    """

    def __init__(self, tables, hyper: Hyperparams):
        super().__init__(self.full)
        self.tables = tables
        self.hyper = hyper
        self.k = len(tables)
        self.p = tables[0].vectors.shape[1]
        self._columns = [np.ascontiguousarray(t.vectors.T) for t in tables]

    def unpack(self, x):
        """(betas, mu, sigma2) of a state x, or of each row of a stack of states."""
        k, p = self.k, self.p
        return (x[..., : k * p].reshape(*x.shape[:-1], k, p), x[..., k * p : k * p + p],
                np.exp(x[..., k * p + p :]))

    def full(self, x) -> float:
        """The log density at x, scored over every table."""
        betas, mu, sigma2 = self.unpack(x)
        try:
            lp = joint_log_posterior(betas, mu, sigma2, self.tables, self.hyper)
        except FloatingPointError:
            return -math.inf
        # Jacobian of the log-variance transform
        return lp + float(np.sum(np.log(sigma2)))

    def _loglik(self, s: int, eta) -> float:
        """Table s's log-likelihood at eta; non-finite when a hazard overflows."""
        table = self.tables[s]
        with np.errstate(over="ignore", invalid="ignore"):
            return float(table.q @ eta - table.m @ np.exp(eta))

    def replicas(self, x0, n: int):
        betas = self.unpack(x0)[0]
        etas = [t.vectors @ b for t, b in zip(self.tables, betas)]
        lls = [self._loglik(s, eta) for s, eta in enumerate(etas)]
        return [_Replica(x0.copy(), eta=list(etas), ll=list(lls)) for _ in range(n)]

    def propose(self, rep, d: int, value) -> float:
        k, p, x = self.k, self.p, rep.x
        old = x[d]
        if d < k * p:  # beta_sc: table s and its one prior term
            s, c = divmod(d, p)
            mu, sigma2 = x[k * p + c], math.exp(x[k * p + p + c])
            eta = rep.eta[s] + (value - old) * self._columns[s][c]
            ll = self._loglik(s, eta)
            self._pending = (d, value, s, eta, ll)
            if not math.isfinite(ll):
                return -math.inf
            return ll - rep.ll[s] + ((old - mu) ** 2 - (value - mu) ** 2) / (2 * sigma2)
        self._pending = (d, value, None, None, None)
        c = (d - k * p) % p
        col = x[c : k * p : p]  # beta_kc over the sequences
        if d < k * p + p:  # mu_c: its normal terms and its prior
            sigma2 = math.exp(x[d + p])
            dev_old, dev_new = col - old, col - value
            sd = self.hyper.mu_prior_sd
            return ((float(dev_old @ dev_old) - float(dev_new @ dev_new)) / (2 * sigma2)
                    + 0.5 * ((old / sd) ** 2 - (value / sd) ** 2))
        # log sigma^2_c: its normal terms, its inverse-gamma prior and the Jacobian
        try:
            sigma2 = math.exp(value)
        except OverflowError:
            return -math.inf
        if sigma2 == 0.0:
            return -math.inf
        dev = col - x[k * p + c]
        half_ss = 0.5 * float(dev @ dev) + self.hyper.beta_sigma
        return (-(0.5 * k + self.hyper.alpha_sigma) * (value - old)
                - half_ss * (1.0 / sigma2 - 1.0 / math.exp(old)))

    def accept(self, rep):
        d, value, s, eta, ll = self._pending
        rep.x[d] = value
        if s is not None:
            rep.eta[s] = eta
            rep.ll[s] = ll

    def log_density(self, rep) -> float:
        return self.full(rep.x)


def tempered_sample(logpost, x0, ladder, n_steps: int, t_swap: int = 10,
                    step_size: float = 1.0, seed: int | None = None, n_burnin: int = 0):
    """Sample an unnormalized log density with parallel tempering.

    `logpost` is a :class:`Target` or a plain callable, scored whole.
    Returns (draws from the base chain, info dict with per-replica accept
    rates and per-pair swap counts).
    """
    ladder = _check_ladder(ladder)
    if n_burnin < 0:
        raise ValueError("n_burnin must be >= 0")
    target = logpost if isinstance(logpost, Target) else Target(logpost)
    rng = np.random.default_rng(seed)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    dim = x0.size
    n_chains = len(ladder)
    states = target.replicas(x0, n_chains)
    if not np.isfinite(target.log_density(states[0])):
        raise FloatingPointError("non-finite log posterior at initial state")

    draws = np.empty((n_steps, dim))
    swaps_proposed = np.zeros(n_chains - 1, dtype=int)
    swaps_accepted = np.zeros(n_chains - 1, dtype=int)
    accepts = np.zeros(n_chains)
    for step in range(n_burnin + n_steps):
        for j, temp in enumerate(ladder):
            rep = states[j]
            for d in range(dim):
                value = rep.x[d] + step_size * rng.standard_normal()
                log_ratio = target.propose(rep, d, value)
                if math.log(rng.random()) < log_ratio / temp:
                    target.accept(rep)
                    accepts[j] += 1
        if t_swap and (step + 1) % t_swap == 0:
            j = int(rng.integers(n_chains - 1))
            swaps_proposed[j] += 1
            log_a = swap_log_acceptance(-target.log_density(states[j]),
                                        -target.log_density(states[j + 1]),
                                        ladder[j], ladder[j + 1])
            if log_a >= 0 or math.log(rng.random()) < log_a:
                states[j], states[j + 1] = states[j + 1], states[j]
                swaps_accepted[j] += 1
        if step >= n_burnin:
            draws[step - n_burnin] = states[0].x
    n_swaps = int(swaps_proposed.sum())
    info = {
        "swap_rate": int(swaps_accepted.sum()) / n_swaps if n_swaps else float("nan"),
        "swaps_proposed": swaps_proposed,
        "swaps_accepted": swaps_accepted,
        "accept_rate": accepts / ((n_burnin + n_steps) * dim),
    }
    return draws, info


def run_parallel_tempering(tables, hyper: Hyperparams | None = None,
                           ladder=(1.0, 2.0, 4.0, 8.0, 16.0), t_swap: int = 10,
                           n_burnin: int = 500, n_keep: int = 500, thin: int = 1,
                           seed: int | None = None, step_size: float = 0.2) -> PosteriorSamples:
    """Parallel tempering over (beta, mu, log sigma^2) of the hierarchical model.

    The kept draws' log posteriors are `HierarchicalTarget.full`, so they
    include the Jacobian sum_p log sigma^2_p of the log-variance coordinates.
    """
    _check_chain(n_burnin, n_keep, thin)
    if hyper is None:
        hyper = Hyperparams()
    ladder = _check_ladder(ladder)
    target = HierarchicalTarget(tables, hyper)
    betas, mu, sigma2 = _chain_start(target.k, target.p, hyper)
    draws, info = tempered_sample(
        target, np.concatenate([betas.ravel(), mu, np.log(sigma2)]), ladder, n_steps=n_keep,
        t_swap=t_swap, step_size=step_size, seed=seed, n_burnin=n_burnin,
    )
    kept = draws[::thin]
    samples = _package(*target.unpack(kept), [target.full(x) for x in kept],
                       n_burnin, n_keep, thin)
    proposed, accepted = info["swaps_proposed"].tolist(), info["swaps_accepted"].tolist()
    samples.diagnostics.update({
        # None, not NaN, where no swap was proposed: a manifest is strict JSON
        "swap_rate": info["swap_rate"] if sum(proposed) else None,
        "swap_rate_per_pair": [a / n if n else None for a, n in zip(accepted, proposed)],
        "swaps_proposed": proposed,
        "swaps_accepted": accepted,
        "accept_rate": info["accept_rate"],
        "ladder": list(ladder),
        "t_swap": t_swap,
    })
    return samples
