"""Parallel tempering (replica exchange) over the full joint posterior.

J chains target flattened versions of the posterior, h_j proportional to
exp(-g/t_j) with g the negative log posterior and t_1 = 1 the base
chain.  Within-chain moves are per-coordinate random-walk Metropolis;
every `t_swap` sweeps one adjacent pair is proposed for a state swap.
Only base-chain draws are reported.
"""

from __future__ import annotations

import math

import numpy as np

from hrem.inference import Hyperparams, PosteriorSamples, joint_log_posterior

__all__ = [
    "swap_log_acceptance",
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


def tempered_sample(logpost, x0, ladder, n_steps: int, t_swap: int = 10,
                    step_size=1.0, seed: int | None = None, n_burnin: int = 0):
    """Sample a generic unnormalized log density with parallel tempering.

    Returns (draws from the base chain, info dict with swap statistics).
    """
    ladder = _check_ladder(ladder)
    rng = np.random.default_rng(seed)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    dim = x0.size
    step_size = np.broadcast_to(np.asarray(step_size, dtype=float), (dim,))
    n_chains = len(ladder)
    states = [x0.copy() for _ in range(n_chains)]
    lps = [float(logpost(x0))] * n_chains
    if not np.isfinite(lps[0]):
        raise FloatingPointError("non-finite log posterior at initial state")

    draws = np.empty((n_steps, dim))
    swaps_proposed = 0
    swaps_accepted = 0
    accepts = np.zeros(n_chains)
    for step in range(n_burnin + n_steps):
        for j, temp in enumerate(ladder):
            x = states[j]
            lp = lps[j]
            for d in range(dim):
                prop = x.copy()
                prop[d] += step_size[d] * rng.standard_normal()
                lp_prop = float(logpost(prop))
                if math.log(rng.random()) < (lp_prop - lp) / temp:
                    x = prop
                    lp = lp_prop
                    accepts[j] += 1
            states[j] = x
            lps[j] = lp
        if t_swap and (step + 1) % t_swap == 0:
            j = int(rng.integers(n_chains - 1))
            swaps_proposed += 1
            log_a = swap_log_acceptance(-lps[j], -lps[j + 1], ladder[j], ladder[j + 1])
            if log_a >= 0 or math.log(rng.random()) < log_a:
                states[j], states[j + 1] = states[j + 1], states[j]
                lps[j], lps[j + 1] = lps[j + 1], lps[j]
                swaps_accepted += 1
        if step >= n_burnin:
            draws[step - n_burnin] = states[0]
    info = {
        "swap_rate": swaps_accepted / swaps_proposed if swaps_proposed else float("nan"),
        "swaps_proposed": swaps_proposed,
        "accept_rate": accepts / ((n_burnin + n_steps) * dim),
        "final_logpost": lps[0],
    }
    return draws, info


def run_parallel_tempering(tables, hyper: Hyperparams | None = None,
                           ladder=(1.0, 2.0, 4.0, 8.0, 16.0), t_swap: int = 10,
                           n_burnin: int = 500, n_keep: int = 500, thin: int = 1,
                           seed: int | None = None, step_size: float = 0.2) -> PosteriorSamples:
    """Parallel tempering over (beta, mu, log sigma^2) of the hierarchical model."""
    if n_keep <= 0:
        raise ValueError("n_keep must be positive")
    if hyper is None:
        hyper = Hyperparams()
    ladder = _check_ladder(ladder)
    k = len(tables)
    p = tables[0].vectors.shape[1]

    def unpack(x):
        betas = x[: k * p].reshape(k, p)
        mu = x[k * p : k * p + p]
        sigma2 = np.exp(x[k * p + p :])
        return betas, mu, sigma2

    def logpost(x):
        betas, mu, sigma2 = unpack(x)
        try:
            lp = joint_log_posterior(betas, mu, sigma2, tables, hyper)
        except FloatingPointError:
            return -math.inf
        # Jacobian of the log-variance transform
        return lp + float(np.sum(np.log(sigma2)))

    x0 = np.concatenate(
        [
            np.zeros(k * p),
            np.zeros(p),
            np.full(p, math.log(hyper.beta_sigma / (hyper.alpha_sigma - 1))),
        ]
    )
    draws, info = tempered_sample(
        logpost, x0, ladder, n_steps=n_keep, t_swap=t_swap,
        step_size=step_size, seed=seed, n_burnin=n_burnin,
    )
    kept = draws[::thin]
    betas = kept[:, : k * p].reshape(-1, k, p)
    mu = kept[:, k * p : k * p + p]
    sigma2 = np.exp(kept[:, k * p + p :])
    logposts = np.array([logpost(x) for x in kept])
    samples = PosteriorSamples(
        betas=betas,
        mu=mu,
        sigma2=sigma2,
        logpost=logposts,
        n_burnin=n_burnin,
        n_keep=n_keep,
        thin=thin,
    )
    samples.compute_diagnostics()
    samples.diagnostics.update(
        {"swap_rate": info["swap_rate"], "ladder": list(ladder), "t_swap": t_swap}
    )
    return samples
