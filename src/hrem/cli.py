"""Command-line interface: simulate, fit, predict, diagnose, select.

Every command takes a JSON config (or a fit manifest) and writes its
outputs next to a manifest carrying content hashes, so runs are
reproducible byte-for-byte given the same config and seed.  A command that
reads a manifest checks the files it loads against those hashes.

Exit codes: 0 success, 1 usage/data error, 2 nonconvergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import hashlib
import io
import itertools
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
from hrem.presets import classroom_spec, preset_names, syn52
from hrem.simulate import simulate_hierarchical
from hrem.stats import StatisticSpec, pshift_label, unique_stat_table
from hrem.tempering import run_parallel_tempering


class CliError(Exception):
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def _read_checked(path, sha256=None):
    """The bytes of a file and their sha256, checked against `sha256` when given."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc))
    digest = hashlib.sha256(data).hexdigest()
    if sha256 is not None and digest != sha256:
        raise CliError("%s has changed since its manifest was written (sha256 mismatch)" % path)
    return data, digest


def _sha256(path):
    return _read_checked(path)[1]


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


def _write_json(path, doc):
    _write(path, json.dumps(doc, indent=1, sort_keys=True))
    return path


def _resolve_spec(cfg, cov, where):
    preset = cfg.get("preset")
    if preset:
        if preset in ("syn52", "syn6"):
            return syn52().spec
        return classroom_spec(preset)
    if "spec" in cfg:
        try:
            return StatisticSpec.from_obj(cfg["spec"], cov)
        except ValueError as exc:
            raise CliError("%s: %s" % (where, exc))
    raise CliError("config needs either 'preset' (%s) or 'spec'" % ", ".join(preset_names()))


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args):
    cfg = _read_config(args.config)
    seed = args.seed if args.seed is not None else _require(cfg, "seed")
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
            cov, _ = _load_covariates({"file": cfg["covariates"]})
        spec = _resolve_spec(cfg, cov, args.config)
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
    cov_path = _write_json(os.path.join(out_dir, "covariates.json"),
                           _covariates_document(cov, risk.n_actors))
    truths_path = _write_json(os.path.join(out_dir, "truths.json"), {
        "mu": mu.tolist(),
        "sigma": np.broadcast_to(sigma, mu.shape).tolist(),
        "beta_k": [b.tolist() for _, b in pairs],
    })
    manifest = {
        "command": "simulate",
        "seed": int(seed),
        "preset": preset,
        "spec": json.loads(spec.to_json()),
        "n_actors": risk.n_actors,
        "broadcast": risk.broadcast_actor,
        "sequences": sequences,
        "covariates": {"file": cov_path, "sha256": _sha256(cov_path)},
        "truths": {"file": truths_path, "sha256": _sha256(truths_path)},
    }
    path = _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    print("wrote %d sequences to %s (manifest: %s)" % (len(sequences), out_dir, path))
    return 0


# ---------------------------------------------------------------------------
# fit


def _load_covariates(entry):
    """Load an entry's covariate JSON, checking it against the entry's sha256 if it has one.

    The entry then records the sha256 of the bytes that were parsed.
    Returns load_covariates' (CovariateSet, meta).
    """
    data, entry["sha256"] = _read_checked(entry["file"], entry.get("sha256"))
    try:
        return load_covariates(io.StringIO(data.decode("utf-8")))
    except (ValueError, KeyError) as exc:
        raise CliError("failed to load %s: %s" % (entry["file"], exc))


def _load_sequences(cfg):
    """Resolve event files + taus + covariates from a fit config."""
    cov = CovariateSet()
    meta = {}
    cov_entry = None
    if cfg.get("covariates"):
        cov_entry = {"file": cfg["covariates"]}
        cov, meta = _load_covariates(cov_entry)
    entries = []
    if "from_manifest" in cfg:
        man = _read_config(cfg["from_manifest"])
        entries = [{"file": s["file"], "tau": s["tau"], "sha256": s.get("sha256")}
                   for s in man["sequences"]]
        if cov_entry is None and man.get("covariates"):
            cov_entry = man["covariates"]
            cov, _ = _load_covariates(cov_entry)
        meta.setdefault("broadcast_id", man.get("broadcast"))
        meta.setdefault("n_actors", man.get("n_actors"))
    else:
        raw = _require(cfg, "events")
        if isinstance(raw, str):
            raw = sorted(glob.glob(raw))
            if not raw:
                raise CliError("no event files match %r" % cfg["events"])
        for e in raw:
            e = {"file": e} if isinstance(e, str) else e
            entries.append({"file": e["file"], "tau": e.get("tau", meta.get("tau"))})
    histories = _load_histories(entries, meta.get("n_actors"), meta.get("broadcast_id"))
    n_actors = meta.get("n_actors") or max(h.n_actors for h in histories)
    broadcast = meta.get("broadcast_id") is not None
    risk = build_risk_set(int(n_actors), include_broadcast=broadcast)
    return histories, risk, cov, entries, cov_entry


def _load_histories(entries, n_actors, broadcast):
    """Load each entry's event CSV, checking it against the entry's sha256 if it has one.

    Each entry then records the sha256 of the bytes that were parsed.
    """
    histories = []
    for idx, e in enumerate(entries):
        if e.get("tau") is None:
            raise CliError("no tau for %s (config, covariate JSON, or manifest)" % e["file"])
        data, e["sha256"] = _read_checked(e["file"], e.get("sha256"))
        try:
            hist, _ = load_history(
                io.StringIO(data.decode("utf-8")), "csv", tau=float(e["tau"]),
                n_actors=n_actors, broadcast_label=broadcast, sequence_id="seq%03d" % idx,
            )
        except Exception as exc:
            raise CliError("failed to load %s: %s" % (e["file"], exc))
        histories.append(hist)
    return histories


def _training_tables(spec, histories, risk, cov, n_train):
    """Unique-vector tables of the events a fit sees: the first n_train of each history."""
    if n_train:
        histories = [h.truncate(int(n_train)) for h in histories]
    return [unique_stat_table(spec, h, risk, cov) for h in histories]


# One CSV per array of PosteriorSamples: (file, field, header).  Each has one
# row per array entry in C order: the entry's indices, then its value.
_POSTERIOR = (
    ("beta.csv", "betas", "draw,sequence,effect,value"),
    ("mu.csv", "mu", "draw,effect,value"),
    ("sigma2.csv", "sigma2", "draw,effect,value"),
    ("logpost.csv", "logpost", "draw,value"),
)


def _save_posterior(samples: PosteriorSamples, out_dir):
    paths = {}
    for name, field, header in _POSTERIOR:
        arr = np.asarray(getattr(samples, field), dtype=float)
        row = "%d," * arr.ndim + "%r"
        indices = itertools.product(*map(range, arr.shape))
        rows = [row % (*idx, v) for idx, v in zip(indices, arr.ravel().tolist())]
        path = os.path.join(out_dir, name)
        _write(path, header + "\n" + "\n".join(rows) + "\n")
        paths[name] = {"file": path, "sha256": _sha256(path)}
    return paths


def _load_posterior(manifest):
    """Read the posterior CSVs in row order, after checking their sha256."""
    dims = manifest["dims"]
    size = {"draw": dims["draws"], "sequence": dims["sequences"], "effect": dims["effects"]}
    arrays = {}
    for name, field, header in _POSTERIOR:
        entry = manifest["posterior"][name]
        data, _ = _read_checked(entry["file"], entry["sha256"])
        values = [float(r[r.rindex(",") + 1:]) for r in data.decode("utf-8").splitlines()[1:]]
        arrays[field] = np.array(values).reshape([size[c] for c in header.split(",")[:-1]])
    return PosteriorSamples(
        **arrays, n_burnin=manifest["settings"].get("n_burnin", 0),
        n_keep=dims["draws"], thin=manifest["settings"].get("thin", 1),
    )


def cmd_fit(args):
    cfg = _read_config(args.config)
    seed = args.seed if args.seed is not None else _require(cfg, "seed")
    sampler = args.sampler or cfg.get("sampler", "collapsed")
    mu_update = args.mu_update or cfg.get("mu_update", "conjugate")
    out_dir = cfg.get("out_dir", "hrem_fit")
    hyper_cfg = cfg.get("hyper", {})
    unknown = sorted(set(hyper_cfg) - {f.name for f in dataclasses.fields(Hyperparams)})
    if unknown:
        raise CliError("unknown hyper key(s) %s in %s"
                       % (", ".join(map(repr, unknown)), args.config))
    try:
        hyper = Hyperparams(**hyper_cfg)
    except ValueError as exc:
        raise CliError("bad hyper value in %s: %s" % (args.config, exc))
    os.makedirs(out_dir, exist_ok=True)

    histories, risk, cov, entries, cov_entry = _load_sequences(cfg)
    spec = _resolve_spec(cfg, cov, args.config)
    try:
        spec.check(cov, risk.n_actors)
    except KeyError as exc:
        raise CliError("spec/data mismatch: %s" % exc)
    n_train = cfg.get("n_train")
    tables = _training_tables(spec, histories, risk, cov, n_train)

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
        "n_actors": risk.n_actors,
        "broadcast": risk.broadcast_actor,
        "covariates": cov_entry,
        "sequences": [dict(e, n_train=n_train) for e in entries],
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
    path = _write_json(os.path.join(out_dir, "manifest.json"), manifest)
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
        cov, _ = _load_covariates(manifest["covariates"])
    spec = StatisticSpec.from_obj(manifest["spec"], cov)
    broadcast = manifest.get("broadcast")
    risk = build_risk_set(manifest["n_actors"], include_broadcast=broadcast is not None)
    histories = _load_histories(manifest["sequences"], manifest["n_actors"], broadcast)
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
        d = diagnostics.dic(samples, _training_tables(spec, histories, risk, cov, n_train))
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
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit the hierarchical model")
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument("--seed", type=int)
    p_fit.add_argument("--sampler", choices=["collapsed", "tempering", "map"])
    p_fit.add_argument("--mu-update", dest="mu_update", choices=["paper", "conjugate"])
    p_fit.add_argument("--ladder", help="comma-separated temperatures, e.g. 1,2,4,8,16")
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
