"""Hierarchical relational event models.

Simulation, Bayesian inference, and diagnostics for collections of
timestamped sender->recipient event sequences with piecewise-constant
log-linear hazards and a Normal upper-level distribution pooling
per-sequence parameters.
"""

from hrem.events import (
    EventHistory,
    RiskSet,
    CovariateSet,
    build_risk_set,
    load_history,
    validate,
)
from hrem.stats import StatisticSpec, SeqState, UniqueStatTable, unique_stat_table, walk
from hrem.likelihood import (
    loglik_full,
    loglik_naive,
    explosion_check,
)
from hrem.simulate import simulate_history, simulate_hierarchical
from hrem.inference import (
    Hyperparams,
    PosteriorSamples,
    gibbs_sigma,
    gibbs_mu,
    slice_sample,
    run_collapsed_sampler,
    map_estimate,
)
from hrem.tempering import run_parallel_tempering
from hrem.presets import classroom_spec, syn52
from hrem import diagnostics

__version__ = "0.1.0"
