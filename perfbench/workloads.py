"""The three benchmark workloads: syn6 and tempering (CLI) and classroom (library).

A workload object is built from a seed and a work directory.  ``setup()``
writes its inputs, ``run_pass()`` runs every stage once and returns the
time of each step (a :class:`Steps`), ``check()`` verifies the outputs of the last pass outside the
timed region, and ``counts()`` gives the exact input sizes.  Every pass of
one workload object is deterministic, so repeated passes redo identical
work and their times can be pooled.

The functions of hrem are looked up through their modules at call time
(``cli.main``, ``stats.unique_stat_table``), so the tracer's wrappers see
the calls made here as well as those made inside the CLI.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import time

import numpy as np

import hrem.cli as cli
import hrem.diagnostics as diagnostics
import hrem.events as events
import hrem.inference as inference
import hrem.likelihood as likelihood
import hrem.presets as presets
import hrem.simulate as simulate
import hrem.stats as stats
import speed

_clock = time.perf_counter


class StageFailure(Exception):
    """A CLI command exited nonzero."""


class _NullTracer:
    @contextlib.contextmanager
    def stage(self, name):
        yield


class Steps:
    """Time of each step of one pass, keyed "<stage>/<step>".

    A stage is ``simulate_s``, ``fit_s`` or ``evaluate_s``; its time is the
    sum of its steps.  ``wall`` holds wall seconds, and ``reference`` the
    same rescaled to reference-speed seconds by probe bursts taken just
    before and just after the step, outside its timed region (speed.py).
    Under a tracer each step is also a span.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer or _NullTracer()
        self.wall = {}
        self.reference = {}

    @contextlib.contextmanager
    def __call__(self, stage, step):
        key = "%s/%s" % (stage, step)
        before = speed.burst()
        with self.tracer.stage("stage." + key):
            t0 = _clock()
            yield
            wall = _clock() - t0
        self.wall[key] = wall
        self.reference[key] = speed.reference_seconds(wall, before + speed.burst())


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _loglik_check(spec, history, risk, cov, beta, n_events):
    """Relative gap between the cached and the direct likelihood on a prefix."""
    prefix = history.truncate(n_events)
    cached = likelihood.loglik_full(beta, stats.unique_stat_table(spec, prefix, risk, cov))
    naive = likelihood.loglik_naive(beta, prefix, spec, risk, cov)
    return abs(cached - naive) / max(abs(naive), 1e-300)


def _segments(history, cov):
    """Hazard changepoint segments the table build walks (events plus context switches)."""
    total = 0
    prev = 0.0
    for (t, _, _) in history.events:
        total += sum(1 for _ in cov.context_segments(prev, t))
        prev = t
    return total + sum(1 for _ in cov.context_segments(prev, history.tau))


def table_counts(histories, risk, cov, tables):
    """Rows the table builds hash (segments x |R| plus one per event) and their unique rows."""
    hashed = sum(_segments(h, cov) * len(risk) + h.m for h in histories)
    unique = sum(t.n_unique for t in tables)
    return {"rows_hashed": hashed, "unique_rows": unique}


# ---------------------------------------------------------------------------
# syn6 / tempering: the CLI pipeline


class CliPipeline:
    """simulate -> fit -> fit --sampler map (reduced spec) -> predict -> diagnose -> select.

    The design is the paper's syn52: 10 actors, |R| = 90, P = 6, baserate
    -2, sigma 1, M = 1000 events per sequence and n_train = 900.
    """

    n_events = 1000
    n_train = 900
    # comparator: baserate and the two class-mixing effects only
    reduced_spec = [
        {"type": "baserate"},
        {"type": "mix", "attr": "shape", "sender_level": "triangle", "receiver_level": "triangle"},
        {"type": "mix", "attr": "shape", "sender_level": "triangle", "receiver_level": "square"},
    ]

    def __init__(self, seed, workdir, k, sampler, n_burnin, n_keep, check_mu):
        self.seed = seed
        self.workdir = workdir
        self.k = k
        self.sampler = sampler
        self.n_burnin = n_burnin
        self.n_keep = n_keep
        self.check_mu = check_mu
        self.operations_per_pass = 6  # CLI commands of run_pass

    def _path(self, *parts):
        return os.path.join(self.workdir, *parts)

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        self.design = presets.syn52(baserate=-2.0)
        sim = {"seed": self.seed, "preset": "syn6", "k": self.k, "n_events": self.n_events,
               "baserate": -2.0, "sigma": 1.0, "out_dir": self._path("sim")}
        full = {"seed": self.seed + 1, "from_manifest": self._path("sim", "manifest.json"),
                "preset": "syn6", "sampler": self.sampler, "mu_update": "conjugate",
                "n_burnin": self.n_burnin, "n_keep": self.n_keep, "n_train": self.n_train,
                "out_dir": self._path("fit_full")}
        reduced = {"seed": self.seed + 2, "from_manifest": self._path("sim", "manifest.json"),
                   "spec": self.reduced_spec, "sampler": "map", "n_train": self.n_train,
                   "out_dir": self._path("fit_reduced")}
        for fname, doc in (("sim.json", sim), ("fit_full.json", full),
                           ("fit_reduced.json", reduced)):
            with open(self._path(fname), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise StageFailure("hrem %s exited %s" % (" ".join(argv), code))

    def run_pass(self, tracer=None):
        step = Steps(tracer)
        full = self._path("fit_full", "manifest.json")
        reduced = self._path("fit_reduced", "manifest.json")
        with step("simulate_s", "simulate"):
            self._cli(["simulate", "--config", self._path("sim.json")])
        with step("fit_s", "fit"):
            self._cli(["fit", "--config", self._path("fit_full.json"), "--allow-nonconverged"])
        with step("evaluate_s", "fit_map"):
            self._cli(["fit", "--config", self._path("fit_reduced.json")])
        with step("evaluate_s", "predict"):
            self._cli(["predict", "--manifest", full, "--z", "5,20"])
        with step("evaluate_s", "diagnose"):
            self._cli(["diagnose", "--manifest", full])
        with step("evaluate_s", "select"):
            self._cli(["select", full, reduced, "--out", self._path("select.csv")])
        return step

    def fingerprint(self):
        """Content hashes of the pass outputs, to confirm that passes repeat exactly."""
        with open(self._path("fit_full", "manifest.json"), encoding="utf-8") as fh:
            man = json.load(fh)
        with open(self._path("select.csv"), encoding="utf-8") as fh:
            table = fh.read()
        return {"posterior": {k: v["sha256"] for k, v in man["posterior"].items()},
                "select": table}

    def _histories(self):
        with open(self._path("sim", "manifest.json"), encoding="utf-8") as fh:
            man = json.load(fh)
        out = []
        for idx, s in enumerate(man["sequences"]):
            hist, _ = events.load_history(s["file"], "csv", tau=float(s["tau"]),
                                          n_actors=man["n_actors"],
                                          sequence_id="seq%03d" % idx)
            out.append(hist)
        return out

    def fit_diagnostics(self):
        with open(self._path("fit_full", "manifest.json"), encoding="utf-8") as fh:
            diag = json.load(fh)["diagnostics"]
        return {"min_ess": float(diag["min_ess"]), "max_rhat": float(diag["max_rhat"]),
                "swap_rate": diag.get("swap_rate")}

    def check(self):
        """(name, passed, detail) for each output check."""
        d = self.design
        results = []
        histories = self._histories()
        with open(self._path("sim", "truths.json"), encoding="utf-8") as fh:
            truths = json.load(fh)

        gap = _loglik_check(d.spec, histories[0], d.risk, d.cov,
                            np.array(truths["beta_k"][0]), 100)
        results.append(("loglik_cache_vs_naive", gap <= 1e-10, "relative gap %.3g" % gap))

        rows = [r for r in _read_csv(self._path("fit_full", "recall.csv")) if r["z"] == "5"]
        model = float(np.mean([float(r["recall_model"]) for r in rows]))
        base = float(np.mean([float(r["recall_baseline"]) for r in rows]))
        results.append(("recall_at_5_above_baseline", model > base,
                        "model %.3f vs baseline %.3f" % (model, base)))

        ranked = _read_csv(self._path("select.csv"))
        first = os.path.normpath(ranked[0]["manifest"])
        want = os.path.normpath(self._path("fit_full", "manifest.json"))
        results.append(("select_ranks_full_spec_first", first == want,
                        "first: %s" % os.path.basename(os.path.dirname(first))))

        logpost = [float(r["value"]) for r in _read_csv(self._path("fit_full", "logpost.csv"))]
        results.append(("kept_logposteriors_finite", bool(np.all(np.isfinite(logpost))),
                        "%d draws" % len(logpost)))

        if self.check_mu:
            mu = np.zeros(d.spec.p)
            draws = _read_csv(self._path("fit_full", "mu.csv"))
            for r in draws:
                mu[int(r["effect"])] += float(r["value"])
            mu /= len(draws) / d.spec.p
            err = float(np.max(np.abs(mu - np.array(truths["mu"]))))
            results.append(("pooled_mu_within_%.2f" % MU_TOLERANCE, err <= MU_TOLERANCE,
                            "max |mu_hat - mu| %.3f" % err))

        return results

    def counts(self):
        d = self.design
        p = d.spec.p
        train = [h.truncate(self.n_train) for h in self._histories()]
        tables = [stats.unique_stat_table(d.spec, h, d.risk, d.cov) for h in train]
        out = {"K": self.k, "M": self.n_events, "n_train": self.n_train, "R": len(d.risk),
               "P": {"full": p, "reduced": len(self.reduced_spec)},
               "sweeps": self.n_burnin + self.n_keep,
               "n_burnin": self.n_burnin, "n_keep": self.n_keep}
        out.update(table_counts(train, d.risk, d.cov, tables))
        if self.sampler == "collapsed":
            out["slice_updates_per_sweep"] = self.k * p
        else:
            out["ladder"] = [1, 2, 4, 8, 16]
            out["proposals_per_sweep"] = 5 * (self.k * p + 2 * p)
        return out


# Pooled mu-hat on syn6 lies within this distance of the population mean in
# every coordinate: about 3.4 standard errors of sigma / sqrt(K) = 1 / sqrt(20).
MU_TOLERANCE = 0.75
# (burn-in, kept) sweeps of the primary fit
SYN6_SWEEPS = (100, 100)
TEMPERING_SWEEPS = (100, 100)


def syn6(seed, workdir):
    return CliPipeline(seed, workdir, k=20, sampler="collapsed", n_burnin=SYN6_SWEEPS[0],
                       n_keep=SYN6_SWEEPS[1], check_mu=True)


def tempering(seed, workdir):
    return CliPipeline(seed, workdir, k=5, sampler="tempering", n_burnin=TEMPERING_SWEEPS[0],
                       n_keep=TEMPERING_SWEEPS[1], check_mu=False)


# ---------------------------------------------------------------------------
# classroom: the library path


class Classroom:
    """25 actors plus a broadcast recipient (|R| = 625), fit with presets E1 and A1.

    Actor and dyad attributes and the lecture/groupwork/silent context
    track are drawn from the seed; the population mean of E1's 27 effects
    is fixed.  The data are simulated under E1, which is the primary fit;
    A1 (P = 23, with the dyad attributes) is the comparator.
    """

    n_actors = 25
    k = 4
    n_events = 400
    n_train = 320
    events_per_context = 100
    operations_per_pass = 10  # timed steps of run_pass

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.n_burnin, self.n_keep = CLASSROOM_SWEEPS

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        rng = np.random.default_rng([self.seed, 0xC1A55])
        n = self.n_actors
        female = rng.integers(0, 2, n)
        actors = {
            "teacher": {i: int(i == 0) for i in range(n)},
            "female": {i: int(female[i]) for i in range(n)},
            "white": {i: int(v) for i, v in enumerate(rng.integers(0, 2, n))},
            "race": {i: str(v) for i, v in enumerate(rng.choice(list("abcd"), n))},
            "gender": {i: ("f" if female[i] else "m") for i in range(n)},
        }
        seats = {i: divmod(i, 5) for i in range(n)}
        friends, adjacent, activities = {}, {}, {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.15:
                    friends[(i, j)] = friends[(j, i)] = 1.0
                (ri, ci), (rj, cj) = seats[i], seats[j]
                if abs(ri - rj) + abs(ci - cj) == 1:
                    adjacent[(i, j)] = adjacent[(j, i)] = 1.0
                shared = float(rng.poisson(0.5))
                if shared:
                    activities[(i, j)] = activities[(j, i)] = shared
        dyads = {"friends": friends, "adjacent": adjacent, "activities": activities}
        self.risk = events.build_risk_set(n, include_broadcast=True)
        self.spec = presets.classroom_spec("E1")
        self.comparator = presets.classroom_spec("A1")
        self.mu = np.array([_E1_MEANS(e) for e in self.spec.effects])

        # Context track: switch about every `events_per_context` events, for
        # twice the expected length of a sequence.  Simulated sequences run
        # at about CONTEXT_RATE_FACTOR times the total rate of the empty
        # history (measured on seeds 1-3).
        base = events.CovariateSet(actor_attrs=actors, dyad_attrs=dyads,
                                   context_track=((0.0, "lecture"),))
        state = stats.SeqState(n, broadcast=self.risk.broadcast_actor, cov=base)
        rate = float(np.exp(self.spec.matrix(state, base, self.risk) @ self.mu).sum())
        step = self.events_per_context / (rate * CONTEXT_RATE_FACTOR)
        n_switch = int(2 * self.n_events / self.events_per_context)
        labels = ["lecture"]
        for _ in range(n_switch):
            labels.append(str(rng.choice([c for c in _CONTEXTS if c != labels[-1]])))
        track = tuple((i * step, lab) for i, lab in enumerate(labels))
        self.cov = events.CovariateSet(actor_attrs=actors, dyad_attrs=dyads,
                                       context_track=track)

    def run_pass(self, tracer=None):
        # Drop the previous pass's outputs first, so that they do not count
        # in this pass's peak resident set.
        self._last = None
        step = Steps(tracer)
        spec, cmp_spec, risk, cov = self.spec, self.comparator, self.risk, self.cov
        with step("simulate_s", "simulate"):
            pairs = simulate.simulate_hierarchical(self.mu, CLASSROOM_SIGMA, self.k, spec, risk,
                                                   cov, n_events=self.n_events, seed=self.seed)
        train = [h.truncate(self.n_train) for h, _ in pairs]
        with step("fit_s", "tables"):
            tables = [stats.unique_stat_table(spec, h, risk, cov) for h in train]
        with step("fit_s", "map"):
            betas, mu, sigma2, _ = inference.map_estimate(tables)
        with step("fit_s", "sample"):
            samples = inference.run_collapsed_sampler(
                tables, n_burnin=self.n_burnin, n_keep=self.n_keep, seed=self.seed + 1,
                mu_update="conjugate", init=(betas, mu, sigma2))
        with step("evaluate_s", "comparator"):
            cmp_tables = [stats.unique_stat_table(cmp_spec, h, risk, cov) for h in train]
            cmp_betas, cmp_mu, cmp_sigma2, _ = inference.map_estimate(cmp_tables)
        beta_hat = samples.beta_mean()
        rng = np.random.default_rng(self.seed + 2)
        recall = []
        with step("evaluate_s", "recall"):
            for k, (hist, _) in enumerate(pairs):
                model = diagnostics.recall_at_z(beta_hat[k], hist, spec, risk, cov, 5,
                                                n_train=self.n_train, rng=rng)
                base = diagnostics.baseline_recall_at_z(hist, risk, cov, 5, self.n_train,
                                                        rng=rng)
                recall.append((model, base))
        with step("evaluate_s", "residuals"):
            for k, (hist, _) in enumerate(pairs):
                diagnostics.deviance_residuals(beta_hat[k], hist, spec, risk, cov)
        with step("evaluate_s", "probabilities"):
            for k, (hist, _) in enumerate(pairs):
                diagnostics.event_probabilities(beta_hat[k], hist, spec, risk, cov)
        with step("evaluate_s", "surprise"):
            for k, (hist, _) in enumerate(pairs):
                diagnostics.surprise_matrix(beta_hat[k], hist, spec, risk, cov,
                                            threshold=50, rng=rng)
        with step("evaluate_s", "dic"):
            dic = diagnostics.dic(samples, tables)
            cmp_samples = inference.PosteriorSamples(
                betas=cmp_betas[None], mu=cmp_mu[None], sigma2=cmp_sigma2[None],
                logpost=np.zeros(1), n_burnin=0, n_keep=1)
            cmp_dic = diagnostics.dic(cmp_samples, cmp_tables)
        self._last = {"pairs": pairs, "train": train, "tables": tables,
                      "cmp_tables": cmp_tables, "samples": samples, "recall": recall,
                      "dic": dic, "cmp_dic": cmp_dic}
        return step

    def fingerprint(self):
        last = self._last
        return {"betas": hashlib.sha256(last["samples"].betas.tobytes()).hexdigest(),
                "dic": repr(last["dic"]["dic"]), "cmp_dic": repr(last["cmp_dic"]["dic"])}

    def fit_diagnostics(self):
        diag = self._last["samples"].diagnostics
        return {"min_ess": float(diag["min_ess"]), "max_rhat": float(diag["max_rhat"]),
                "swap_rate": None}

    def check(self):
        last = self._last
        hist, beta = last["pairs"][0]
        gap = _loglik_check(self.spec, hist, self.risk, self.cov, beta, 10)
        logpost = last["samples"].logpost
        results = [
            ("loglik_cache_vs_naive", gap <= 1e-10, "relative gap %.3g" % gap),
            ("kept_logposteriors_finite", bool(np.all(np.isfinite(logpost))),
             "%d draws" % len(logpost)),
            ("dic_finite", bool(np.isfinite(last["dic"]["dic"]) and
                                np.isfinite(last["cmp_dic"]["dic"])),
             "E1 %.1f, A1 %.1f" % (last["dic"]["dic"], last["cmp_dic"]["dic"])),
        ]
        return results

    def counts(self):
        last = self._last
        out = {"K": self.k, "M": self.n_events, "n_train": self.n_train, "R": len(self.risk),
               "P": {"E1": self.spec.p, "A1": self.comparator.p},
               "context_switches": [sum(1 for s, _ in self.cov.context_track[1:] if s < h.tau)
                                    for h, _ in last["pairs"]],
               "sweeps": self.n_burnin + self.n_keep, "n_burnin": self.n_burnin,
               "n_keep": self.n_keep, "slice_updates_per_sweep": self.k * self.spec.p}
        out.update(table_counts(last["train"], self.risk, self.cov, last["tables"]))
        cmp = table_counts(last["train"], self.risk, self.cov,
                           last["cmp_tables"])
        out["unique_rows_comparator"] = cmp["unique_rows"]
        return out


CLASSROOM_SWEEPS = (10, 30)
CLASSROOM_SIGMA = 0.3
CONTEXT_RATE_FACTOR = 1.5
_CONTEXTS = ("lecture", "groupwork", "silent")


def _E1_MEANS(effect):
    """Population mean of one E1 effect (the classroom generating design)."""
    kind = type(effect).__name__
    if kind == "Baserate":
        return -3.0
    if kind == "SenderAttr":
        return {"teacher": 1.5, "female": 0.2, "white": 0.1}[effect.attr]
    if kind == "ReceiverAttr":
        return {"teacher": 1.0, "female": 0.2, "white": 0.1}[effect.attr]
    if kind == "DyadMatch":
        return {"race": 0.3, "gender": 0.4}[effect.attr]
    if kind == "ToBroadcast":
        return 2.0 if effect.level == 1 else -1.0
    if kind == "ContextInteraction":
        return -0.3 if effect.label == "silent" else 0.3
    if kind == "PShift":
        return {"AB-BA": 2.0, "AB-BY": 1.0, "AB-XA": 0.5, "AB-XB": 0.5,
                "AB-XY": -0.5, "AB-AY": 0.8}[effect.kind]
    if kind in ("RecencySend", "RecencyReceive"):
        return 1.0 if kind == "RecencySend" else 0.8
    raise ValueError("no population mean for %r" % (effect,))


WORKLOADS = {"syn6": syn6, "classroom": Classroom, "tempering": tempering}
