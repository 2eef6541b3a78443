"""Command-line interface: simulate, fit, predict, diagnose, select.

Every command takes a JSON config (or a fit manifest) and writes its
outputs next to a manifest carrying content hashes, so runs are
reproducible byte-for-byte given the same config and seed.

Exit codes: 0 success, 1 usage/data error, 2 nonconvergence.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import sys

import numpy as np

from hrem import diagnostics
from hrem.events import (
    CovariateSet,
    _covariates_document,
    build_risk_set,
    events_to_csv,
    load_covariates,
    load_history,
)
from hrem.inference import Hyperparams, PosteriorSamples, map_estimate, run_collapsed_sampler
from hrem.presets import classroom_spec, preset_names, syn52, syn6_population
from hrem.simulate import simulate_hierarchical, simulate_history
from hrem.stats import StatisticSpec, pshift_label, unique_stat_table
from hrem.tempering import run_parallel_tempering


class CliError(Exception):
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError("config file not found: %s" % path)
    except json.JSONDecodeError as exc:
        raise CliError("config is not valid JSON (%s): %s" % (path, exc))


def _require(cfg, key, where="config"):
    if key not in cfg:
        raise CliError("missing required field %r in %s" % (key, where))
    return cfg[key]


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_manifest(out_dir, doc):
    path = os.path.join(out_dir, "manifest.json")
    _write(path, json.dumps(doc, indent=1, sort_keys=True))
    return path


def _resolve_spec(cfg, cov):
    preset = cfg.get("preset")
    if preset:
        if preset in ("syn52", "syn6"):
            return syn52().spec
        return classroom_spec(preset)
    if "spec" in cfg:
        return StatisticSpec.from_obj(cfg["spec"], cov)
    raise CliError("config needs either 'preset' (%s) or 'spec'" % ", ".join(preset_names()))


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args):
    cfg = _read_config(args.config)
    seed = args.seed if args.seed is not None else _require(cfg, "seed")
    if args.preset:
        cfg["preset"] = args.preset
    out_dir = cfg.get("out_dir", "hrem_sim")
    os.makedirs(out_dir, exist_ok=True)

    preset = cfg.get("preset")
    if preset in ("syn52", "syn6"):
        design = syn52(baserate=float(cfg.get("baserate", 0.0)))
        spec, risk, cov = design.spec, design.risk, design.cov
        mu = np.asarray(cfg.get("mu", design.beta), dtype=float)
        default_k = 20 if preset == "syn6" else 1
        sigma = np.asarray(cfg.get("sigma", 1.0 if preset == "syn6" else 0.0), dtype=float)
        k = int(cfg.get("k", default_k))
    else:
        cov = CovariateSet()
        if "covariates" in cfg:
            cov, _ = load_covariates(cfg["covariates"])
        spec = _resolve_spec(cfg, cov)
        n_actors = int(_require(cfg, "n_actors"))
        risk = build_risk_set(n_actors, include_broadcast=bool(cfg.get("broadcast", False)))
        mu = np.asarray(_require(cfg, "mu" if "mu" in cfg else "beta"), dtype=float)
        sigma = np.asarray(cfg.get("sigma", 0.0), dtype=float)
        k = int(cfg.get("k", 1))
    if mu.shape != (spec.p,):
        raise CliError("mu/beta has length %d, spec has P=%d" % (mu.size, spec.p))

    stop = {}
    if "n_events" in cfg:
        stop["n_events"] = int(cfg["n_events"])
    elif "tau" in cfg:
        stop["tau"] = float(cfg["tau"])
    else:
        raise CliError("config needs 'n_events' or 'tau'")

    pairs = simulate_hierarchical(mu, sigma, k, spec, risk, cov, seed=int(seed), **stop)
    sequences = []
    for idx, (hist, beta_k) in enumerate(pairs):
        fname = os.path.join(out_dir, "events_%03d.csv" % idx)
        _write(fname, events_to_csv(hist))
        sequences.append(
            {"file": fname, "tau": hist.tau, "n_events": hist.m, "sha256": _sha256(fname)}
        )
    cov_path = os.path.join(out_dir, "covariates.json")
    cov_doc = _covariates_document(cov, int(risk.senders.max()) + 1)
    _write(cov_path, json.dumps(cov_doc, indent=1, sort_keys=True))
    truths_path = os.path.join(out_dir, "truths.json")
    _write(
        truths_path,
        json.dumps(
            {
                "mu": mu.tolist(),
                "sigma": np.broadcast_to(sigma, mu.shape).tolist(),
                "beta_k": [b.tolist() for _, b in pairs],
            },
            indent=1,
            sort_keys=True,
        ),
    )
    manifest = {
        "command": "simulate",
        "seed": int(seed),
        "preset": preset,
        "spec": json.loads(spec.to_json()),
        "n_actors": int(risk.senders.max() + 1),
        "broadcast": risk.broadcast_actor,
        "sequences": sequences,
        "covariates": {"file": cov_path, "sha256": _sha256(cov_path)},
        "truths": {"file": truths_path, "sha256": _sha256(truths_path)},
    }
    path = _write_manifest(out_dir, manifest)
    print("wrote %d sequences to %s (manifest: %s)" % (len(sequences), out_dir, path))
    return 0


# ---------------------------------------------------------------------------
# fit


def _load_sequences(cfg):
    """Resolve event files + taus + covariates from a fit config."""
    cov = CovariateSet()
    meta = {}
    cov_path = cfg.get("covariates")
    if cov_path:
        cov, meta = load_covariates(cov_path)
    entries = []
    if "from_manifest" in cfg:
        man = _read_config(cfg["from_manifest"])
        entries = [{"file": s["file"], "tau": s["tau"]} for s in man["sequences"]]
        if not cov_path and man.get("covariates"):
            cov_path = man["covariates"]["file"]
            cov, _ = load_covariates(cov_path)
        meta.setdefault("broadcast_id", man.get("broadcast"))
        meta.setdefault("n_actors", man.get("n_actors"))
    else:
        raw = _require(cfg, "events")
        if isinstance(raw, str):
            raw = sorted(glob.glob(raw))
            if not raw:
                raise CliError("no event files match %r" % cfg["events"])
        for e in raw:
            if isinstance(e, str):
                entries.append({"file": e, "tau": meta.get("tau")})
            else:
                entries.append({"file": e["file"], "tau": e.get("tau", meta.get("tau"))})
    histories = []
    for idx, e in enumerate(entries):
        if e["tau"] is None:
            raise CliError("no tau for %s (config, covariate JSON, or manifest)" % e["file"])
        try:
            hist, _ = load_history(
                e["file"],
                "csv",
                tau=float(e["tau"]),
                n_actors=meta.get("n_actors"),
                broadcast_label=meta.get("broadcast_id"),
                sequence_id="seq%03d" % idx,
            )
        except Exception as exc:
            raise CliError("failed to load %s: %s" % (e["file"], exc))
        histories.append(hist)
    n_actors = meta.get("n_actors") or max(h.n_actors for h in histories)
    broadcast = meta.get("broadcast_id") is not None
    risk = build_risk_set(int(n_actors), include_broadcast=broadcast)
    return histories, risk, cov, entries, cov_path


def _save_posterior(samples: PosteriorSamples, out_dir):
    paths = {}

    def dump(name, rows, header):
        p = os.path.join(out_dir, name)
        _write(p, header + "\n" + "\n".join(rows) + "\n")
        paths[name] = {"file": p, "sha256": _sha256(p)}

    dump(
        "beta.csv",
        [
            "%d,%d,%d,%r" % (l, k, p, float(samples.betas[l, k, p]))
            for l in range(samples.n_draws)
            for k in range(samples.k_sequences)
            for p in range(samples.n_effects)
        ],
        "draw,sequence,effect,value",
    )
    dump(
        "mu.csv",
        [
            "%d,%d,%r" % (l, p, float(samples.mu[l, p]))
            for l in range(samples.n_draws)
            for p in range(samples.n_effects)
        ],
        "draw,effect,value",
    )
    dump(
        "sigma2.csv",
        [
            "%d,%d,%r" % (l, p, float(samples.sigma2[l, p]))
            for l in range(samples.n_draws)
            for p in range(samples.n_effects)
        ],
        "draw,effect,value",
    )
    dump(
        "logpost.csv",
        ["%d,%r" % (l, float(samples.logpost[l])) for l in range(samples.n_draws)],
        "draw,value",
    )
    return paths


def _load_posterior(manifest):
    dims = manifest["dims"]
    l, k, p = dims["draws"], dims["sequences"], dims["effects"]
    out_dir = manifest["out_dir"]
    betas = np.zeros((l, k, p))
    with open(os.path.join(out_dir, "beta.csv")) as fh:
        next(fh)
        for line in fh:
            dl, dk, dp, v = line.strip().split(",")
            betas[int(dl), int(dk), int(dp)] = float(v)
    mu = np.zeros((l, p))
    with open(os.path.join(out_dir, "mu.csv")) as fh:
        next(fh)
        for line in fh:
            dl, dp, v = line.strip().split(",")
            mu[int(dl), int(dp)] = float(v)
    sigma2 = np.zeros((l, p))
    with open(os.path.join(out_dir, "sigma2.csv")) as fh:
        next(fh)
        for line in fh:
            dl, dp, v = line.strip().split(",")
            sigma2[int(dl), int(dp)] = float(v)
    logpost = np.zeros(l)
    with open(os.path.join(out_dir, "logpost.csv")) as fh:
        next(fh)
        for line in fh:
            dl, v = line.strip().split(",")
            logpost[int(dl)] = float(v)
    return PosteriorSamples(
        betas=betas, mu=mu, sigma2=sigma2, logpost=logpost,
        n_burnin=manifest["settings"].get("n_burnin", 0),
        n_keep=l, thin=manifest["settings"].get("thin", 1),
    )


def cmd_fit(args):
    cfg = _read_config(args.config)
    seed = args.seed if args.seed is not None else _require(cfg, "seed")
    sampler = args.sampler or cfg.get("sampler", "collapsed")
    mu_update = args.mu_update or cfg.get("mu_update", "paper")
    out_dir = cfg.get("out_dir", "hrem_fit")
    os.makedirs(out_dir, exist_ok=True)

    histories, risk, cov, entries, cov_path = _load_sequences(cfg)
    spec = _resolve_spec(cfg, cov)
    try:
        spec.check(cov, int(risk.senders.max()) + 1)
    except KeyError as exc:
        raise CliError("spec/data mismatch: %s" % exc)
    n_train = cfg.get("n_train")
    if n_train:
        histories = [h.truncate(int(n_train)) for h in histories]
    tables = [unique_stat_table(spec, h, risk, cov) for h in histories]

    hyper = Hyperparams(**cfg.get("hyper", {}))
    n_burnin = int(cfg.get("n_burnin", 500))
    n_keep = int(cfg.get("n_keep", 500))
    thin = int(cfg.get("thin", 1))
    ladder = [float(t) for t in (args.ladder.split(",") if args.ladder else cfg.get("ladder", [1, 2, 4, 8, 16]))]

    if sampler == "collapsed":
        samples = run_collapsed_sampler(
            tables, hyper, n_burnin=n_burnin, n_keep=n_keep, thin=thin,
            seed=int(seed), mu_update=mu_update,
        )
    elif sampler == "tempering":
        samples = run_parallel_tempering(
            tables, hyper, ladder=ladder, t_swap=int(cfg.get("t_swap", 10)),
            n_burnin=n_burnin, n_keep=n_keep, thin=thin, seed=int(seed),
        )
    elif sampler == "map":
        betas, mu, sigma2, warns = map_estimate(tables, hyper)
        samples = PosteriorSamples(
            betas=betas[None], mu=mu[None], sigma2=sigma2[None],
            logpost=np.array([0.0]), n_burnin=0, n_keep=1,
        )
        samples.diagnostics = {"warnings": warns, "max_rhat": 1.0, "min_ess": 1.0}
    else:
        raise CliError("unknown sampler %r" % sampler)

    paths = _save_posterior(samples, out_dir)
    diag = {
        k: (v.tolist() if isinstance(v, np.ndarray) else v)
        for k, v in samples.diagnostics.items()
    }
    manifest = {
        "command": "fit",
        "seed": int(seed),
        "out_dir": out_dir,
        "spec": json.loads(spec.to_json()),
        "n_actors": int(risk.senders.max()) + 1,
        "broadcast": risk.broadcast_actor,
        "covariates": cov_path,
        "sequences": [
            dict(e, sha256=_sha256(e["file"]), n_train=n_train) for e in entries
        ],
        "settings": {
            "sampler": sampler,
            "mu_update": mu_update,
            "n_burnin": n_burnin,
            "n_keep": n_keep,
            "thin": thin,
            "ladder": ladder if sampler == "tempering" else None,
            "hyper": cfg.get("hyper", {}),
            "n_train": n_train,
        },
        "dims": {
            "draws": samples.n_draws,
            "sequences": samples.k_sequences,
            "effects": samples.n_effects,
        },
        "diagnostics": diag,
        "posterior": paths,
    }
    path = _write_manifest(out_dir, manifest)
    rhat_max = float(cfg.get("rhat_max", 1.2))
    converged = samples.diagnostics.get("max_rhat", 1.0) <= rhat_max
    print("fit written to %s (manifest: %s); max_rhat=%.3f" % (
        out_dir, path, samples.diagnostics.get("max_rhat", float("nan"))))
    if not converged and not args.allow_nonconverged:
        print("chains failed the convergence threshold (rhat_max=%.3f)" % rhat_max,
              file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# predict / diagnose / select


def _reload_fit(manifest_path):
    manifest = _read_config(manifest_path)
    if manifest.get("command") != "fit":
        raise CliError("%s is not a fit manifest" % manifest_path)
    cov = CovariateSet()
    if manifest.get("covariates"):
        cov, _ = load_covariates(manifest["covariates"])
    spec = StatisticSpec.from_obj(manifest["spec"], cov)
    broadcast = manifest.get("broadcast")
    risk = build_risk_set(manifest["n_actors"], include_broadcast=broadcast is not None)
    histories = []
    for idx, e in enumerate(manifest["sequences"]):
        hist, _ = load_history(
            e["file"], "csv", tau=float(e["tau"]), n_actors=manifest["n_actors"],
            broadcast_label=broadcast, sequence_id="seq%03d" % idx,
        )
        histories.append(hist)
    samples = _load_posterior(manifest)
    return manifest, spec, risk, cov, histories, samples


def cmd_predict(args):
    manifest, spec, risk, cov, histories, samples = _reload_fit(args.manifest)
    z_list = [int(z) for z in args.z.split(",")]
    for z in z_list:
        if z < 1 or z > len(risk):
            raise CliError("z=%d outside 1..|R|=%d" % (z, len(risk)))
    n_train = args.n_train or manifest["settings"].get("n_train")
    if not n_train:
        raise CliError("no training cutoff: pass --n-train or fit with n_train")
    n_train = int(n_train)
    beta_hat = samples.beta_mean()
    rng = np.random.default_rng(manifest["seed"])
    rows = ["sequence,z,recall_model,recall_baseline"]
    for k, hist in enumerate(histories):
        for z in z_list:
            if n_train >= hist.m:
                rows.append("%d,%d,," % (k, z))
                continue
            rm = diagnostics.recall_at_z(beta_hat[k], hist, spec, risk, cov, z,
                                         n_train=n_train, rng=rng)
            rb = diagnostics.baseline_recall_at_z(hist, risk, cov, z, n_train, rng=rng)
            rows.append("%d,%d,%r,%r" % (k, z, rm, rb))
    out = args.out or os.path.join(manifest["out_dir"], "recall.csv")
    _write(out, "\n".join(rows) + "\n")
    print("recall table written to %s" % out)
    return 0


def cmd_diagnose(args):
    manifest, spec, risk, cov, histories, samples = _reload_fit(args.manifest)
    out_dir = args.out_dir or manifest["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    beta_hat = samples.beta_mean()
    rng = np.random.default_rng(manifest["seed"])

    res_rows = ["sequence,event,t,sender,recipient,pshift,deviance"]
    prob_rows = ["sequence,event,t,sender,recipient,probability"]
    sur_rows = ["sequence,sender,recipient,q,n_events"]
    edge_rows = ["sequence,sender,recipient,weight"]
    for k, hist in enumerate(histories):
        d = diagnostics.deviance_residuals(beta_hat[k], hist, spec, risk, cov)
        probs = diagnostics.event_probabilities(beta_hat[k], hist, spec, risk, cov)
        prev = None
        for m, (t, i, j) in enumerate(hist.events):
            label = pshift_label(prev, (t, i, j)) or ""
            res_rows.append("%d,%d,%r,%d,%d,%s,%r" % (k, m, t, i, j, label, float(d[m])))
            prob_rows.append("%d,%d,%r,%d,%d,%r" % (k, m, t, i, j, float(probs[m])))
            prev = (t, i, j)
        q = diagnostics.surprise_matrix(beta_hat[k], hist, spec, risk, cov,
                                        threshold=args.surprise_threshold, rng=rng)
        for (i, j), (qij, n) in sorted(q.items()):
            sur_rows.append("%d,%d,%d,%r,%d" % (k, i, j, qij, n))
            edge_rows.append("%d,%d,%d,%r" % (k, i, j, qij))
    for name, rows in (
        ("residuals.csv", res_rows),
        ("probabilities.csv", prob_rows),
        ("surprise.csv", sur_rows),
        ("surprise_edges.csv", edge_rows),
    ):
        _write(os.path.join(out_dir, name), "\n".join(rows) + "\n")
    print("diagnostics written to %s" % out_dir)
    return 0


def cmd_select(args):
    if len(args.manifests) < 2:
        raise CliError("need >= 2 fit manifests to compare")
    loaded = []
    data_keys = set()
    for mpath in args.manifests:
        manifest, spec, risk, cov, histories, samples = _reload_fit(mpath)
        # DIC is scored on the events the fit saw, as cut by `fit`.
        n_train = manifest["settings"].get("n_train")
        data_keys.add((n_train, tuple(s["sha256"] for s in manifest["sequences"])))
        if n_train:
            histories = [h.truncate(int(n_train)) for h in histories]
        tables = [unique_stat_table(spec, h, risk, cov) for h in histories]
        d = diagnostics.dic(samples, tables)
        loaded.append((mpath, d))
    if len(data_keys) != 1:
        raise CliError("manifests were fit on different data sets")
    loaded.sort(key=lambda x: (x[1]["dic"], x[0]))
    rows = ["manifest,dic,p_d,mean_deviance"]
    for mpath, d in loaded:
        rows.append("%s,%r,%r,%r" % (mpath, d["dic"], d["p_d"], d["mean_deviance"]))
    table = "\n".join(rows)
    print(table)
    if args.out:
        _write(args.out, table + "\n")
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hrem",
        description="Hierarchical relational event models: simulate, fit, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate synthetic event sequences")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--preset", choices=preset_names())
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit the hierarchical model")
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument("--seed", type=int)
    p_fit.add_argument("--sampler", choices=["collapsed", "tempering", "map"])
    p_fit.add_argument("--mu-update", dest="mu_update", choices=["paper", "conjugate"])
    p_fit.add_argument("--ladder", help="comma-separated temperatures, e.g. 1,2,4,8,16")
    p_fit.add_argument("--threads", type=int, default=1,
                       help="bound on internal parallelism (currently single-threaded)")
    p_fit.add_argument("--allow-nonconverged", action="store_true")
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="recall@z on held-out events")
    p_pred.add_argument("--manifest", required=True)
    p_pred.add_argument("--z", required=True, help="comma-separated cutoffs, e.g. 5,20")
    p_pred.add_argument("--n-train", dest="n_train", type=int)
    p_pred.add_argument("--out")
    p_pred.set_defaults(func=cmd_predict)

    p_diag = sub.add_parser("diagnose", help="residual/probability/surprise CSVs")
    p_diag.add_argument("--manifest", required=True)
    p_diag.add_argument("--surprise-threshold", type=int, default=50)
    p_diag.add_argument("--out-dir")
    p_diag.set_defaults(func=cmd_diagnose)

    p_sel = sub.add_parser("select", help="DIC comparison across fits of the same data")
    p_sel.add_argument("manifests", nargs="+")
    p_sel.add_argument("--out")
    p_sel.set_defaults(func=cmd_select)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
