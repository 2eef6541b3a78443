"""Posterior computation for the hierarchical model.

The default sampler is a collapsed Gibbs scheme: each beta_{k,p} is
updated by univariate slice sampling under a marginal in which the
upper-level variance is integrated out, then sigma^2 and mu get their
closed-form conditional draws.  The sampler lays the K tables' rows end to
end, so the K updates of one effect share one O(sum_k |U_k|) pass before
them and one after; each slice evaluation then costs O(V_p), the number
of distinct values in column p of its table.  A MAP routine with
mode-pathology warnings is also provided; parallel tempering lives in
:mod:`hrem.tempering`.  Every sampler checks its tables and start with
`_check_input` and starts at `_chain_start`; both MCMC runners check their
run settings with `_check_chain` and package their draws with `_package`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from hrem.stats import UniqueStatTable
from hrem.likelihood import grad_loglik_full, hessian_loglik_full, loglik_full

__all__ = [
    "Hyperparams",
    "PosteriorSamples",
    "gibbs_sigma",
    "gibbs_mu",
    "collapsed_prior_logpdf",
    "slice_sample",
    "CollapsedGibbs",
    "run_collapsed_sampler",
    "map_estimate",
    "effective_sample_size",
    "split_rhat",
]


@dataclass(frozen=True)
class Hyperparams:
    """Priors: mu_p ~ N(0, mu_prior_sd^2), sigma_p^2 ~ Inv-Gamma(alpha, beta)."""

    mu_prior_sd: float = 2.0
    alpha_sigma: float = 5.0
    beta_sigma: float = 1.0

    def __post_init__(self):
        for name in ("mu_prior_sd", "alpha_sigma", "beta_sigma"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError("%s must be positive and finite" % name)


def _check_input(tables, init=None, k: int | None = None, p: int | None = None):
    """(K, P) of `tables`, after refusing, by name, tables or an `init` of mismatched shapes.

    Where given, `k` is the number of tables and `p` their columns; else P
    is table 0's.  Each table has one event count and one exposure a row,
    which the sampler's rows laid end to end rely on.  `init` is (betas,
    mu, sigma2) of shapes (K, P), (P,) and (P,).
    """
    if not tables:
        raise ValueError("need at least one sequence table")
    if k not in (None, len(tables)):
        raise ValueError("expected %d sequence tables, got %d" % (k, len(tables)))
    k, p = len(tables), tables[0].vectors.shape[1] if p is None else p
    for s, table in enumerate(tables):
        if table.vectors.shape[1:] != (p,):
            raise ValueError("sequence table %d has statistic vectors of shape %s, not (rows, %d)"
                             % (s, table.vectors.shape, p))
        if not len(table.vectors) == len(table.q) == len(table.m):
            raise ValueError("sequence table %d has %d rows, %d event counts and %d exposures"
                             % (s, len(table.vectors), len(table.q), len(table.m)))
    for name, value, shape in zip(("betas", "mu", "sigma2"), init or (), ((k, p), (p,), (p,))):
        if np.shape(value) != shape:
            raise ValueError("init's %s has shape %s, not %s" % (name, np.shape(value), shape))
    return k, p


def _chain_start(k: int, p: int, hyper: Hyperparams):
    """Where every sampler starts: (betas, mu, sigma2), with betas (K, P) and mu zero.

    Each sigma^2_p starts at the Inv-Gamma(a, b) prior's mean b/(a-1), or at
    its mode b/(a+1) where a <= 1 and the prior has no mean.
    """
    if hyper.alpha_sigma > 1:
        sigma2 = hyper.beta_sigma / (hyper.alpha_sigma - 1)
    else:
        sigma2 = hyper.beta_sigma / (hyper.alpha_sigma + 1)
    return np.zeros((k, p)), np.zeros(p), np.full(p, sigma2)


def gibbs_sigma(betas_p: np.ndarray, mu_p: float, hyper: Hyperparams, rng) -> float:
    """Draw sigma_p^2 | betas, mu from its Inv-Gamma conditional."""
    betas_p = np.asarray(betas_p, dtype=float)
    k = betas_p.size
    if k < 1:
        raise ValueError("need at least one sequence")
    shape = hyper.alpha_sigma + k / 2.0
    rate = hyper.beta_sigma + 0.5 * float(np.sum((betas_p - mu_p) ** 2))
    return rate / rng.gamma(shape)


def gibbs_mu(betas_p: np.ndarray, sigma2_p: float, rng, mode: str = "conjugate",
             hyper: Hyperparams | None = None) -> float:
    """Draw mu_p | betas, sigma^2.

    mode "conjugate" (the default) is the posterior conditional: it combines
    the N(0, mu_prior_sd^2) prior with variance sigma^2/K.  Mode "paper"
    reproduces the source paper's Normal(mean(betas), sigma^2/sqrt(K)),
    which is wider than the conditional by a factor K^(1/4) in sd.
    """
    betas_p = np.asarray(betas_p, dtype=float)
    k = betas_p.size
    if k < 1:
        raise ValueError("need at least one sequence")
    if mode == "paper":
        var = sigma2_p / math.sqrt(k)
        return float(betas_p.mean() + math.sqrt(var) * rng.standard_normal())
    if mode == "conjugate":
        if hyper is None:
            hyper = Hyperparams()
        prec = k / sigma2_p + 1.0 / hyper.mu_prior_sd**2
        mean = (betas_p.sum() / sigma2_p) / prec
        return float(mean + rng.standard_normal() / math.sqrt(prec))
    raise ValueError("unknown mu update mode %r" % mode)


def collapsed_prior_logpdf(beta_kp, mu_p: float, hyper: Hyperparams):
    """Normalized log density of beta_kp | mu_p with sigma^2 integrated out.

    log [ (1/sqrt(2 pi)) * beta^alpha / Gamma(alpha)
          * Gamma(alpha + 1/2) / ((beta_kp - mu_p)^2/2 + beta)^(alpha+1/2) ]
    """
    a, b = hyper.alpha_sigma, hyper.beta_sigma
    const = (-0.5 * math.log(2 * math.pi) + a * math.log(b)
             - math.lgamma(a) + math.lgamma(a + 0.5))
    dev2 = (np.asarray(beta_kp, dtype=float) - mu_p) ** 2
    return const - (a + 0.5) * np.log(dev2 / 2.0 + b)


def slice_sample(x0: float, logf, width: float, rng, return_counts: bool = False,
                 logf0: float | None = None):
    """One univariate slice-sampling update (stepping-out and shrinkage).

    Stepping out takes at most 50 widths to the left and 100 in total.
    `logf0`, if given, is logf(x0), which is then not evaluated again.
    """
    if logf0 is None:
        logf0 = logf(x0)
    if not math.isfinite(logf0):
        raise FloatingPointError("slice sampler started at non-finite target")
    logy = logf0 + math.log(rng.random())
    u = rng.random()
    left = x0 - u * width
    right = left + width
    n_out = 0
    while logf(left) > logy and n_out < 50:
        left -= width
        n_out += 1
    while logf(right) > logy and n_out < 100:
        right += width
        n_out += 1
    n_shrink = 0
    while True:
        x1 = left + rng.random() * (right - left)
        if logf(x1) > logy:
            break
        if x1 > x0:
            right = x1
        else:
            left = x1
        n_shrink += 1
        if n_shrink > 1000:
            raise RuntimeError("slice sampler failed to find acceptable point")
    if return_counts:
        return x1, n_out, n_shrink
    return x1


# ---------------------------------------------------------------------------
# Collapsed Gibbs sampler


@dataclass
class PosteriorSamples:
    """Kept MCMC draws of all parameters plus the log-posterior trace."""

    betas: np.ndarray  # (L, K, P)
    mu: np.ndarray  # (L, P)
    sigma2: np.ndarray  # (L, P)
    logpost: np.ndarray  # (L,)
    n_burnin: int
    n_keep: int
    thin: int = 1
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_draws(self) -> int:
        return self.betas.shape[0]

    @property
    def k_sequences(self) -> int:
        return self.betas.shape[1]

    @property
    def n_effects(self) -> int:
        return self.betas.shape[2]

    def beta_mean(self) -> np.ndarray:
        return self.betas.mean(axis=0)

    def beta_interval(self):
        """Equal-tailed 95% interval of each beta_kp: (lower, upper), each (K, P)."""
        return (
            np.quantile(self.betas, 0.025, axis=0),
            np.quantile(self.betas, 0.975, axis=0),
        )


def effective_sample_size(x: np.ndarray) -> float:
    """ESS via the initial positive sequence of autocorrelations."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4 or (x == x[0]).all():
        return float(n)
    x = x - x.mean()
    nfft = int(2 ** np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conjugate(f))[:n].real / n
    rho = acov / acov[0]
    # Geyer: sum consecutive pairs while positive
    s = 0.0
    for t in range(1, n - 1, 2):
        pair = rho[t] + rho[t + 1]
        if pair < 0:
            break
        s += pair
    return float(min(n, n / (1.0 + 2.0 * s)))


def split_rhat(x: np.ndarray) -> float:
    """Potential scale reduction from the two halves of a single chain.

    It is 1.0 where every value is equal, and infinite where each half is
    constant but the two differ.
    """
    x = np.asarray(x, dtype=float)
    n = x.size // 2
    if n < 2:
        return float("nan")
    halves = np.stack([x[:n], x[-n:]])
    if (halves == halves[:, :1]).all():
        # two constant halves: equal, or apart with no spread within either
        return 1.0 if halves[0, 0] == halves[1, 0] else math.inf
    w = halves.var(axis=1, ddof=1).mean()
    b = n * halves.mean(axis=1).var(ddof=1)
    var_plus = (n - 1) / n * w + b / n
    return float(math.sqrt(var_plus / w))


def _column_terms(tables, p: int):
    """What the K updates of beta_p read of `tables`, laid end to end.

    Returns (vals, spans, codes, values, owner, q_lins).  `values` holds each
    table's sorted distinct column-p values, one table after another (`vals`
    as floats); table k's lie at `spans[k]`, a (start, stop) pair, and
    `owner` gives each value's table.  `codes`, in the smallest unsigned
    dtype, indexes each stacked row's value, so a table's codes are shifted
    by its start.  `q_lins` holds each table's q'U_p.
    """
    uniques = [np.unique(t.vectors[:, p]) for t in tables]
    sizes = [u.size for u in uniques]
    stops = np.cumsum(sizes).tolist()
    starts = [0] + stops[:-1]
    values = np.concatenate(uniques)
    codes = np.empty(sum(len(t.vectors) for t in tables),
                     dtype=np.min_scalar_type(max(values.size - 1, 0)))
    row = 0
    for t, u, start in zip(tables, uniques, starts):
        # searchsorted gives the codes that unique's return_inverse would,
        # without its argsort and its intp temporaries over every row
        codes[row : row + len(t.vectors)] = np.searchsorted(u, t.vectors[:, p]) + start
        row += len(t.vectors)
    owner = np.repeat(np.arange(len(tables)), sizes)
    q_lins = [float(t.q @ t.vectors[:, p]) for t in tables]
    return values.tolist(), list(zip(starts, stops)), codes, values, owner, q_lins


class CollapsedGibbs:
    """Stepable collapsed Gibbs sampler over K sequences.

    Holding the sampler as an object lets calibration tests interleave
    sweeps with data re-simulation (successive-conditional simulation).
    """

    def __init__(self, tables, hyper: Hyperparams, rng, mu_update: str = "conjugate",
                 init=None):
        tables = list(tables)
        self.k, self.p = _check_input(tables, init)
        self.hyper = hyper
        self.rng = rng
        self.mu_update = mu_update
        if init is None:
            init = _chain_start(self.k, self.p, hyper)
        self.betas, self.mu, self.sigma2 = (np.array(v, dtype=float) for v in init)
        self.widths = np.ones((self.k, self.p))
        self.adapt = True
        self.set_tables(tables)

    def set_tables(self, tables):
        """Score `tables`, K tables of P columns, from now on, at the current betas.

        The tables' rows are laid end to end: this keeps one array of the
        linear predictors eta = U_k beta_k of every row, one of the
        exposures m and, per column, the terms that the column's K updates
        read (`_column_terms`).
        """
        tables = list(tables)
        _check_input(tables, k=self.k, p=self.p)
        self.tables = tables
        self._eta = np.concatenate([t.vectors @ b for t, b in zip(tables, self.betas)])
        self._m = np.concatenate([t.m for t in tables])
        self._columns = [_column_terms(tables, p) for p in range(self.p)]

    def sweep(self):
        """One full iteration: all beta_{k,p}, then sigma^2, then mu.

        Per effect p, one O(sum_k |U_k|) pass over the stacked rows forms
        every table's sums S_v of m_r exp(eta_r) over the rows r whose
        column-p value is v.  The K updates of beta_{k,p} then run in turn
        on Python floats: each slice evaluation scores
        sum_v exp((x - beta_{k,p}) v) S_v over table k's values, in O(V_p),
        with `math.exp` over (S_v, v) float pairs; an overflowing term makes
        it -inf.  A final pass moves every row's eta by its table's step.
        Update (k, p) reads and writes only eta_k, so this equals K updates
        made one after the other.
        """
        rng = self.rng
        hyper = self.hyper
        shape = hyper.alpha_sigma + self.k / 2.0
        b = hyper.beta_sigma
        eta, m = self._eta, self._m
        # Overflowing hazards make the target -inf, and an unexposed row whose
        # hazard overflows makes it NaN (so -inf too); one errstate covers all.
        with np.errstate(over="ignore", invalid="ignore"):
            for p, (vals, spans, codes, values, owner, q_lins) in enumerate(self._columns):
                mu_p = float(self.mu[p])
                sq_total = float(np.sum((self.betas[:, p] - mu_p) ** 2))
                sums = np.bincount(codes, weights=m * np.exp(eta), minlength=len(vals)).tolist()
                olds, widths = self.betas[:, p].tolist(), self.widths[:, p].tolist()
                news = []
                for k, (lo, hi) in enumerate(spans):
                    terms = list(zip(sums[lo:hi], vals[lo:hi]))
                    q_lin, cur = q_lins[k], olds[k]
                    sq_others = sq_total - (cur - mu_p) ** 2

                    def target(x):
                        d, expo = x - cur, 0.0
                        try:
                            for s_v, v in terms:
                                expo += s_v * math.exp(d * v)
                        except OverflowError:
                            return -math.inf
                        if not math.isfinite(expo):
                            return -math.inf
                        return (q_lin * x - expo
                                - shape * math.log(b + 0.5 * (sq_others + (x - mu_p) ** 2)))

                    start = target(cur)
                    if not math.isfinite(start):
                        raise FloatingPointError(
                            "non-finite log-posterior at sequence %d, effect %d" % (k, p)
                        )
                    new, n_out, n_shrink = slice_sample(
                        cur, target, widths[k], rng, return_counts=True, logf0=start
                    )
                    if self.adapt:
                        # steer toward ~0.5 expected shrinkage steps
                        if n_shrink > 2:
                            widths[k] *= 0.5
                        elif n_shrink == 0 and n_out > 1:
                            widths[k] *= 2.0
                    news.append(new)
                    sq_total = sq_others + (new - mu_p) ** 2
                self.betas[:, p], self.widths[:, p] = news, widths
                eta += ((np.array(news) - olds)[owner] * values)[codes]
        for p in range(self.p):
            self.sigma2[p] = gibbs_sigma(self.betas[:, p], self.mu[p], hyper, rng)
            self.mu[p] = gibbs_mu(
                self.betas[:, p], self.sigma2[p], rng, mode=self.mu_update, hyper=hyper
            )

    def log_posterior(self) -> float:
        """Joint log posterior at the current state (up to a constant)."""
        return joint_log_posterior(self.betas, self.mu, self.sigma2, self.tables, self.hyper)


def joint_log_posterior(betas, mu, sigma2, tables, hyper: Hyperparams) -> float:
    betas = np.atleast_2d(np.asarray(betas, dtype=float))
    lp = 0.0
    for k, table in enumerate(tables):
        lp += loglik_full(betas[k], table)
    dev2 = (betas - mu) ** 2
    lp += float(np.sum(-0.5 * np.log(2 * math.pi * sigma2) - dev2 / (2 * sigma2)))
    lp += float(np.sum(-0.5 * (mu / hyper.mu_prior_sd) ** 2))
    a, b = hyper.alpha_sigma, hyper.beta_sigma
    lp += float(np.sum(-(a + 1) * np.log(sigma2) - b / sigma2))
    return lp


def _check_chain(n_burnin: int, n_keep: int, thin: int):
    """Refuse run settings that no chain can honour."""
    if n_burnin < 0:
        raise ValueError("n_burnin must be >= 0")
    if n_keep < 1:
        raise ValueError("n_keep must be positive")
    if thin < 1:
        raise ValueError("thin must be >= 1")


def _package(betas, mu, sigma2, logpost, n_burnin: int, n_keep: int,
             thin: int) -> PosteriorSamples:
    """Kept draws (betas (L, K, P), mu and sigma2 (L, P)) and their log posteriors as samples.

    The diagnostics hold the effective sample size and split R-hat of every
    mu_p and beta_kp, their minimum and their maximum.
    """
    samples = PosteriorSamples(betas=betas, mu=mu, sigma2=sigma2, logpost=np.array(logpost),
                               n_burnin=n_burnin, n_keep=n_keep, thin=thin)
    n, k, p = betas.shape
    chains = np.concatenate([mu, betas.reshape(n, k * p)], axis=1).T
    ess, rhat = np.array([(effective_sample_size(c), split_rhat(c)) for c in chains]).T
    samples.diagnostics = {
        "ess_mu": ess[:p],
        "rhat_mu": rhat[:p],
        "ess_beta": ess[p:].reshape(k, p),
        "rhat_beta": rhat[p:].reshape(k, p),
        "max_rhat": float(rhat.max()),
        "min_ess": float(ess.min()),
    }
    return samples


def run_collapsed_sampler(tables, hyper: Hyperparams | None = None,
                          n_burnin: int = 500, n_keep: int = 500, thin: int = 1,
                          seed: int | None = None, mu_update: str = "conjugate",
                          init=None) -> PosteriorSamples:
    """Run the collapsed Gibbs sampler and collect kept draws.

    Slice widths adapt during burn-in only and are frozen afterwards so
    the kept draws target the exact posterior.
    """
    _check_chain(n_burnin, n_keep, thin)
    if hyper is None:
        hyper = Hyperparams()
    rng = np.random.default_rng(seed)
    sampler = CollapsedGibbs(tables, hyper, rng, mu_update=mu_update, init=init)
    for _ in range(n_burnin):
        sampler.sweep()
    sampler.adapt = False
    kept, kept_lp = [], []
    for it in range(n_keep):
        sampler.sweep()
        if it % thin == 0:
            lp = sampler.log_posterior()
            if not np.isfinite(lp):
                raise FloatingPointError("non-finite log-posterior in kept draw")
            kept.append((sampler.betas.copy(), sampler.mu.copy(), sampler.sigma2.copy()))
            kept_lp.append(lp)
    return _package(*map(np.array, zip(*kept)), kept_lp, n_burnin, n_keep, thin)


# ---------------------------------------------------------------------------
# MAP estimation


def _newton_ascent(objective, newton_step, x, max_iters: int, tol: float, refit=None):
    """Maximize a strictly concave objective by Newton steps with step halving.

    `newton_step(x)` returns the step s that takes x to the Newton point x - s.
    A candidate whose objective is lower or not finite has its step halved.
    `refit(x)`, if given, runs after each step: it moves a block held outside
    x (MAP's sigma^2) to its maximizer and returns the objective there.  The
    loop stops once an iteration gains <= tol or after max_iters steps.
    Returns (x, iterations, gain of the last iteration).
    """

    def value(cand):
        try:
            return objective(cand)
        except FloatingPointError:
            return -math.inf

    obj = objective(x)
    gain, iters = math.inf, 0
    while gain > tol and iters < max_iters:
        step = newton_step(x)
        cand = x - step
        new = value(cand)
        n_halved = 0
        while not np.isfinite(new) or new < obj:
            step *= 0.5
            cand = x - step
            new = value(cand)
            n_halved += 1
            if n_halved > 60:
                raise RuntimeError("line search failed; objective not improving")
        x = cand
        if refit is not None:
            new = refit(x)
        if new < obj - 1e-6:
            raise RuntimeError("objective decreased during Newton ascent")
        gain, obj = new - obj, new
        iters += 1
    return x, iters, gain


def penalized_mle(table: UniqueStatTable):
    """Single-sequence fit with a weak N(0, 10^2) ridge for identifiability."""
    p = table.vectors.shape[1]
    var = 100.0

    def objective(b):
        return loglik_full(b, table) - 0.5 * float(np.sum(b**2 / var))

    def newton_step(b):
        g = grad_loglik_full(b, table) - b / var
        h = hessian_loglik_full(b, table) - np.eye(p) / var
        return np.linalg.solve(h, g)

    beta, iters, gain = _newton_ascent(objective, newton_step, np.zeros(p), 100, 1e-10)
    if gain > 1e-10:
        warnings.warn("penalized MLE stopped after %d Newton steps, still gaining %.3g"
                      % (iters, gain), RuntimeWarning, stacklevel=2)
    return beta


def _joint_gradient(betas, mu, sigma2, tables, hyper: Hyperparams):
    """Gradient of the joint log posterior in (beta_1..beta_K, mu), sigma^2 held."""
    dev = (betas - mu) / sigma2
    g_betas = np.array([grad_loglik_full(b, t) for b, t in zip(betas, tables)]) - dev
    return g_betas, dev.sum(axis=0) - mu / hyper.mu_prior_sd**2


def map_estimate(tables, hyper: Hyperparams | None = None, max_iters: int = 200,
                 tol: float = 1e-8):
    """Posterior mode by joint Newton steps on (beta_1..beta_K, mu).

    Each iteration holds sigma^2 and takes one Newton step with step
    halving on the log posterior in (beta, mu), which is strictly concave
    there; sigma^2 then takes its closed-form block maximum, floored at
    1e-6.  So every iteration ascends, and the loop stops once one gains
    <= tol.  The Hessian is an arrowhead: blocks H_k - diag(1/sigma^2),
    a diag(1/sigma^2) border and the corner -diag(K/sigma^2 + 1/s^2).  Its
    Schur complement on mu solves the step in O(K P^3).

    Returns (betas, mu, sigma2, report).  The report holds `iterations`,
    `converged` (the last iteration gained <= tol), `grad_norm` (the norm of
    the gradient in (beta, mu) at the returned point) and `warnings`.
    Stopping at max_iters before converging warns, as does an effect whose
    fitted upper-level variance collapses to the floor: that is the
    signature of the degenerate asymptotic modes that make MAP unreliable
    for weakly informed effects.
    """
    if hyper is None:
        hyper = Hyperparams()
    k, p = _check_input(tables)
    betas, mu, sigma2 = _chain_start(k, p, hyper)
    floor = 1e-6

    def split(x):
        return x[:-p].reshape(k, p), x[-p:]

    def objective(x):
        return joint_log_posterior(*split(x), sigma2, tables, hyper)

    def newton_step(x):
        betas, mu = split(x)
        g_betas, g_mu = _joint_gradient(betas, mu, sigma2, tables, hyper)
        d = 1.0 / sigma2
        blocks = np.array([hessian_loglik_full(b, t) for b, t in zip(betas, tables)])
        blocks -= np.diag(d)
        rhs = np.concatenate([g_betas[:, :, None], np.broadcast_to(np.diag(d), (k, p, p))],
                             axis=2)
        sol = np.linalg.solve(blocks, rhs)
        y, z = sol[:, :, 0], sol[:, :, 1:]  # A_k^-1 g_k and A_k^-1 diag(d)
        schur = -np.diag(k * d + 1.0 / hyper.mu_prior_sd**2) - d[:, None] * z.sum(axis=0)
        step_mu = np.linalg.solve(schur, g_mu - d * y.sum(axis=0))
        return np.concatenate([(y - z @ step_mu).ravel(), step_mu])

    def refit(x):
        nonlocal sigma2
        betas, mu = split(x)
        ss = np.sum((betas - mu) ** 2, axis=0)
        sigma2 = (hyper.beta_sigma + 0.5 * ss) / (hyper.alpha_sigma + k / 2.0 + 1.0)
        sigma2 = np.maximum(sigma2, floor)
        return objective(x)

    x, iters, gain = _newton_ascent(objective, newton_step, np.append(betas, mu),
                                    max_iters, tol, refit)
    betas, mu = split(x)
    g_betas, g_mu = _joint_gradient(betas, mu, sigma2, tables, hyper)
    msgs = []
    if gain > tol:
        msgs.append("MAP stopped at max_iters=%d with the log posterior still gaining %.3g > "
                    "tol=%g" % (max_iters, gain, tol))
    msgs += ["upper-level variance for effect %d collapsed to the floor; the posterior mode "
             "is degenerate for this effect" % pp for pp in np.flatnonzero(sigma2 <= floor)]
    for msg in msgs:
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    report = {"warnings": msgs, "iterations": iters, "converged": bool(gain <= tol),
              "grad_norm": float(math.sqrt(np.sum(g_betas**2) + np.sum(g_mu**2)))}
    return betas, mu, sigma2, report
