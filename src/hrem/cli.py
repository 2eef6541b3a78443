"""Command-line interface: simulate, fit, predict, diagnose, select.

Every command takes a JSON config (or a fit manifest) and writes its
outputs next to a manifest carrying content hashes, so runs are
reproducible byte-for-byte given the same config and seed.  A command that
reads a manifest checks the files it names against those hashes.

Exit codes: 0 success, 1 usage/data error, 2 nonconvergence.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    validate_track,
)
from hrem.inference import (
    Hyperparams,
    PosteriorSamples,
    joint_log_posterior,
    map_estimate,
    run_collapsed_sampler,
)
from hrem.likelihood import score_events
from hrem.presets import classroom_spec, preset_names, syn52
from hrem.simulate import simulate_hierarchical
from hrem.stats import StatisticSpec, pshift_label, unique_stat_table
from hrem.tempering import _check_ladder, run_parallel_tempering


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


def _read_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise CliError("config file not found: %s" % path)
    except json.JSONDecodeError as exc:
        raise CliError("config is not valid JSON (%s): %s" % (path, exc))
    if not isinstance(doc, dict):
        raise CliError("%s does not hold a JSON object" % path)
    return doc


def _check_keys(doc, keys, where, what="key"):
    """Exit 1 naming every key of `doc` that is not in `keys`."""
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise CliError("unknown %s(s) %s in %s" % (what, ", ".join(map(repr, unknown)), where))


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


def _parse(entry, load, *args, **kw):
    """`load` of an entry's file, checked against the entry's sha256 if any; and the sha256."""
    data, digest = _read_checked(entry["file"], entry.get("sha256"))
    try:
        return load(io.StringIO(data.decode("utf-8")), *args, **kw), digest
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CliError("failed to load %s: %s" % (entry["file"], exc))


# ---------------------------------------------------------------------------
# simulate

_SIMULATE_KEYS = ("seed", "out_dir", "preset", "baserate", "mu", "sigma", "k", "covariates",
                 "spec", "n_actors", "broadcast", "n_events", "tau")


def cmd_simulate(args):
    cfg = _read_config(args.config)
    _check_keys(cfg, _SIMULATE_KEYS, args.config)
    seed = _require(cfg, "seed")
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
            cov, _ = _parse({"file": cfg["covariates"]}, load_covariates)
        spec = _resolve_spec(cfg, cov, args.config)
        n_actors = int(_require(cfg, "n_actors"))
        risk = build_risk_set(n_actors, include_broadcast=bool(cfg.get("broadcast", False)))
        mu = np.asarray(_require(cfg, "mu"), dtype=float)
        sigma = np.asarray(cfg.get("sigma", 0.0), dtype=float)
        k = int(cfg.get("k", 1))
    if mu.shape != (spec.p,):
        raise CliError("mu has length %d, spec has P=%d" % (mu.size, spec.p))

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
        sequences.append({"file": fname, "tau": hist.tau, "n_events": hist.m,
                          "sha256": _read_checked(fname)[1]})
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
        "covariates": {"file": cov_path, "sha256": _read_checked(cov_path)[1]},
        "truths": {"file": truths_path, "sha256": _read_checked(truths_path)[1]},
    }
    path = _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    print("wrote %d sequences to %s (manifest: %s)" % (len(sequences), out_dir, path))
    return 0


# ---------------------------------------------------------------------------
# fit

# The data keys of a fit config: `sequences` (a list of {"file", "tau"}),
# `covariates` ({"file"} or null) and `broadcast` (the broadcast recipient's
# label in the event files, or null).  A manifest holds them with `n_actors`.
_DATA_KEYS = ("sequences", "covariates", "broadcast")


def _data_entries(doc, where):
    """(sequences, covariates) of the data keys of a fit config or a manifest, shape-checked.

    In a manifest (a doc with a "command") every data key is required and
    each file entry carries the sha256 its file is checked against.
    """
    manifest = "command" in doc
    for key in (_DATA_KEYS + ("n_actors",)) if manifest else ("sequences",):
        _require(doc, key, where)
    seqs, cov_entry, broadcast = doc["sequences"], doc.get("covariates"), doc.get("broadcast")
    if not isinstance(seqs, list) or not seqs:
        raise CliError("%s: 'sequences' must be a non-empty list" % where)
    if isinstance(broadcast, bool):
        raise CliError("%s: 'broadcast' is the label of the broadcast recipient" % where)
    checks = [("sequences", e, ("file", "tau")) for e in seqs]
    checks += [("covariates", cov_entry, ("file",))] if cov_entry is not None else []
    for key, entry, fields in checks:
        _check_entry(key, entry, fields + (("sha256",) if manifest else ()), where)
    return seqs, cov_entry


def _check_entry(key, entry, fields, where):
    """Exit 1 unless the `key` entry of `where` is an object holding every field."""
    if not isinstance(entry, dict) or any(f not in entry for f in fields):
        raise CliError("bad %r entry in %s: want an object with the keys %s, got %r"
                       % (key, where, ", ".join(fields), entry))


def _load_data(doc, where):
    """(histories, risk, cov, data) of the data keys of a fit config or a manifest.

    The entries are checked by `_data_entries`.  Every history must have the
    same actors, to whose dense ids the covariate keys are mapped, and must
    fit the covariates' context track.  `data` holds the keys as a fit
    manifest records them.
    """
    seqs, cov_entry = _data_entries(doc, where)
    broadcast = doc.get("broadcast")
    histories, entries = [], []
    for idx, e in enumerate(seqs):
        (hist, _), digest = _parse(e, load_history, "csv", tau=e["tau"],
                                   n_actors=doc.get("n_actors"), broadcast_label=broadcast,
                                   sequence_id="seq%03d" % idx)
        if histories and hist.actor_labels != histories[0].actor_labels:
            raise CliError("%s has the actors %s, but %s has %s" % (
                e["file"], list(hist.actor_labels), seqs[0]["file"],
                list(histories[0].actor_labels)))
        histories.append(hist)
        entries.append({"file": e["file"], "tau": e["tau"], "sha256": digest})
    labels = histories[0].actor_labels
    risk = build_risk_set(len(labels), include_broadcast=broadcast is not None)
    cov = CovariateSet()
    if cov_entry is not None:
        cov, digest = _parse(cov_entry, load_covariates)
        cov = cov.relabel(labels + ((broadcast,) if broadcast is not None else ()))
        for hist, e in zip(histories, seqs):
            bad = validate_track(hist, cov)
            if bad:
                raise CliError("the context track of %s does not fit %s: %s"
                               % (cov_entry["file"], e["file"], bad[0]))
        cov_entry = {"file": cov_entry["file"], "sha256": digest}
    data = {"sequences": entries, "covariates": cov_entry, "n_actors": risk.n_actors,
            "broadcast": broadcast}
    return histories, risk, cov, data


def _training_tables(spec, histories, risk, cov, n_train, sequences):
    """Unique-vector tables of the events a fit sees: the first n_train of each history.

    `sequences` holds the file entries of the histories, to name one whose
    events do not reach n_train.
    """
    if n_train is not None:
        for hist, entry in zip(histories, sequences):
            if type(n_train) is not int or not 1 <= n_train <= hist.m:
                raise CliError("n_train=%r is not an integer in 1..%d, the events of %s"
                               % (n_train, hist.m, entry["file"]))
        histories = [h.truncate(n_train) for h in histories]
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
        paths[name] = {"file": path, "sha256": _read_checked(path)[1]}
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


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value):
    """`value` as an int; a bool, a string or a fractional number raises ValueError."""
    if not _is_number(value) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("must be an integer, not %s" % json.dumps(value))
    return int(value)


def _number(value):
    if not _is_number(value):
        raise ValueError("must be a number, not %s" % json.dumps(value))
    return float(value)


def _numbers(value):
    if not isinstance(value, list) or not all(map(_is_number, value)):
        raise ValueError("must be a list of numbers, not %s" % json.dumps(value))
    return [float(t) for t in value]


_CHAINS = {"n_burnin": (_integer, 500), "n_keep": (_integer, 500), "thin": (_integer, 1),
           "rhat_max": (_number, 1.2)}
# The run settings each sampler reads, as key -> (conversion, default).  A
# fit records these, bar the convergence threshold, and rejects the others.
_SAMPLER_SETTINGS = {
    "collapsed": dict(_CHAINS, mu_update=(str, "conjugate")),
    "tempering": dict(_CHAINS, ladder=(_numbers, [1, 2, 4, 8, 16]), t_swap=(_integer, 10)),
    "map": {},
}
_RUN_KEYS = tuple(sorted({key for reads in _SAMPLER_SETTINGS.values() for key in reads}))
# The least value of each integer run setting.
_RUN_MINIMUM = {"n_burnin": 0, "n_keep": 1, "thin": 1, "t_swap": 0}

_FIT_KEYS = _DATA_KEYS + _RUN_KEYS + (
    "seed", "out_dir", "from_manifest", "preset", "spec", "sampler", "hyper", "n_train")


def cmd_fit(args):
    cfg = _read_config(args.config)
    _check_keys(cfg, _FIT_KEYS, args.config)
    seed = _require(cfg, "seed")
    out_dir = cfg.get("out_dir", "hrem_fit")
    hyper_cfg = cfg.get("hyper", {})
    _check_keys(hyper_cfg, [f.name for f in dataclasses.fields(Hyperparams)], args.config,
                "hyper key")
    try:
        hyper = Hyperparams(**hyper_cfg)
    except ValueError as exc:
        raise CliError("bad hyper value in %s: %s" % (args.config, exc))
    os.makedirs(out_dir, exist_ok=True)

    where, doc = args.config, cfg
    if "from_manifest" in cfg:
        clash = [key for key in _DATA_KEYS if key in cfg]
        if clash:
            raise CliError("%s: 'from_manifest' names the data, so %s must go"
                           % (args.config, ", ".join(map(repr, clash))))
        where, doc = cfg["from_manifest"], _read_config(cfg["from_manifest"])
    histories, risk, cov, data = _load_data(doc, where)
    spec = _resolve_spec(cfg, cov, args.config)
    try:
        spec.check(cov, risk.n_actors)
    except KeyError as exc:
        raise CliError("spec/data mismatch: %s" % exc)
    sampler = cfg.get("sampler", "collapsed")
    if sampler not in _SAMPLER_SETTINGS:
        raise CliError("unknown sampler %r" % sampler)
    reads = _SAMPLER_SETTINGS[sampler]
    # Tempering accepts mu_update without reading it (the benchmark's config sets it).
    unread = [key for key in _RUN_KEYS if key in cfg and key not in reads
              and (sampler, key) != ("tempering", "mu_update")]
    if unread:
        raise CliError("%s: the %s sampler does not read %s"
                       % (args.config, sampler, ", ".join(map(repr, unread))))
    if cfg.get("mu_update", "conjugate") not in ("conjugate", "paper"):
        raise CliError("%s: mu_update must be conjugate or paper" % args.config)
    run = {}
    for key, (convert, default) in reads.items():
        try:
            run[key] = convert(cfg.get(key, default))
        except ValueError as exc:
            raise CliError("%s: %s %s" % (args.config, key, exc))
    for key, least in _RUN_MINIMUM.items():
        if key in run and run[key] < least:
            raise CliError("%s: %s=%d is below %d" % (args.config, key, run[key], least))
    if "ladder" in run:
        try:
            _check_ladder(run["ladder"])
        except ValueError as exc:
            raise CliError("%s: ladder %s: %s" % (args.config, run["ladder"], exc))
    rhat_max = run.pop("rhat_max", None)
    n_train = cfg.get("n_train")
    tables = _training_tables(spec, histories, risk, cov, n_train, data["sequences"])

    settings = {"sampler": sampler, **run, "hyper": hyper_cfg, "n_train": n_train}
    if sampler == "collapsed":
        samples = run_collapsed_sampler(tables, hyper, **run, seed=int(seed))
    elif sampler == "tempering":
        samples = run_parallel_tempering(tables, hyper, **run, seed=int(seed))
    else:
        betas, mu, sigma2, report = map_estimate(tables, hyper)
        samples = PosteriorSamples(
            betas=betas[None], mu=mu[None], sigma2=sigma2[None],
            logpost=np.array([joint_log_posterior(betas, mu, sigma2, tables, hyper)]),
            n_burnin=0, n_keep=1, diagnostics=report,
        )

    paths = _save_posterior(samples, out_dir)
    # `select` ranks fits by this, scored on the training tables at hand.
    dic = diagnostics.dic(samples, tables)
    diag = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
            for k, v in samples.diagnostics.items()}
    manifest = {
        "command": "fit",
        "seed": int(seed),
        "out_dir": out_dir,
        "spec": json.loads(spec.to_json()),
        **data,
        "sequences": [dict(e, n_train=n_train) for e in data["sequences"]],
        "settings": settings,
        "dims": {
            "draws": samples.n_draws,
            "sequences": samples.k_sequences,
            "effects": samples.n_effects,
        },
        "diagnostics": diag,
        "posterior": paths,
        "dic": dic,
    }
    path = _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    if sampler == "map":
        status, failed = "converged=%s" % diag["converged"], not diag["converged"]
        why = "MAP stopped before converging"
    else:
        # A NaN R-hat (fewer than 4 kept draws) fails too: it cannot show convergence.
        status, failed = "max_rhat=%.3f" % diag["max_rhat"], not diag["max_rhat"] <= rhat_max
        if np.isnan(diag["max_rhat"]):
            why = ("R-hat is undefined: split R-hat needs at least 4 kept draws, this fit "
                   "has %d" % samples.n_draws)
        else:
            why = "chains failed the convergence threshold (rhat_max=%.3f)" % rhat_max
    print("fit written to %s (manifest: %s); %s" % (out_dir, path, status))
    if failed and not args.allow_nonconverged:
        print(why, file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# predict / diagnose / select


def _fit_manifest(manifest_path, keys):
    """The fit manifest at `manifest_path`, which must hold `keys`."""
    manifest = _read_config(manifest_path)
    if manifest.get("command") != "fit":
        raise CliError("%s is not a fit manifest" % manifest_path)
    for key in keys:
        _require(manifest, key, manifest_path)
    return manifest


def _reload_fit(manifest_path):
    manifest = _fit_manifest(
        manifest_path, ("seed", "out_dir", "spec", "settings", "dims", "posterior"))
    histories, risk, cov, _ = _load_data(manifest, manifest_path)
    try:
        spec = StatisticSpec.from_obj(manifest["spec"], cov)
        samples = _load_posterior(manifest)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CliError("%s is not a complete fit manifest: %s %s"
                       % (manifest_path, type(exc).__name__, exc))
    return manifest, spec, risk, cov, histories, samples


def cmd_predict(args):
    manifest, spec, risk, cov, histories, samples = _reload_fit(args.manifest)
    z_list = [int(z) for z in args.z.split(",")]
    for z in z_list:
        if z < 1 or z > len(risk):
            raise CliError("z=%d outside 1..|R|=%d" % (z, len(risk)))
    n_train = args.n_train if args.n_train is not None else manifest["settings"].get("n_train")
    if n_train is None:
        raise CliError("no training cutoff: pass --n-train or fit with n_train")
    n_train = int(n_train)
    if n_train < 1:
        raise CliError("n_train=%d is below 1" % n_train)
    beta_hat = samples.beta_mean()
    rng = np.random.default_rng(manifest["seed"])
    rows = ["sequence,z,recall_model,recall_baseline"]
    for k, hist in enumerate(histories):
        if n_train >= hist.m:
            rows.extend("%d,%d,," % (k, z) for z in z_list)
            continue
        model = score_events(beta_hat[k], hist, spec, risk, cov, start=n_train)
        baseline = diagnostics.baseline_counts(hist, risk, n_train)
        for z in z_list:
            rm = diagnostics.recall(model.higher, model.ties, z, rng)
            rb = diagnostics.recall(*baseline, z, rng)
            rows.append("%d,%d,%r,%r" % (k, z, rm, rb))
    out = args.out or os.path.join(manifest["out_dir"], "recall.csv")
    _write(out, "\n".join(rows) + "\n")
    print("recall table written to %s" % out)
    return 0


def cmd_diagnose(args):
    if args.surprise_threshold < 1:
        raise CliError("--surprise-threshold=%d is below 1" % args.surprise_threshold)
    manifest, spec, risk, cov, histories, samples = _reload_fit(args.manifest)
    out_dir = args.out_dir or manifest["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    beta_hat = samples.beta_mean()
    rng = np.random.default_rng(manifest["seed"])
    # Actors are written by their labels in the event files, the broadcast recipient last.
    names = [str(lab) for lab in histories[0].actor_labels]
    names += [str(manifest["broadcast"])] if manifest["broadcast"] is not None else []

    res_rows = ["sequence,event,t,sender,recipient,pshift,deviance"]
    prob_rows = ["sequence,event,t,sender,recipient,probability"]
    sur_rows = ["sequence,sender,recipient,q,n_events"]
    for k, hist in enumerate(histories):
        scores = score_events(beta_hat[k], hist, spec, risk, cov)
        d, probs = scores.deviance, scores.prob
        prev = None
        for m, (t, i, j) in enumerate(hist.events):
            label = pshift_label(prev, (t, i, j)) or ""
            res_rows.append("%d,%d,%r,%s,%s,%s,%r"
                            % (k, m, t, names[i], names[j], label, float(d[m])))
            prob_rows.append("%d,%d,%r,%s,%s,%r" % (k, m, t, names[i], names[j], float(probs[m])))
            prev = (t, i, j)
        q = diagnostics.surprise(scores.higher, scores.ties, hist.events,
                                 args.surprise_threshold, rng)
        for (i, j), (qij, n) in sorted(q.items()):
            sur_rows.append("%d,%s,%s,%r,%d" % (k, names[i], names[j], qij, n))
    for name, rows in (
        ("residuals.csv", res_rows),
        ("probabilities.csv", prob_rows),
        ("surprise.csv", sur_rows),
    ):
        _write(os.path.join(out_dir, name), "\n".join(rows) + "\n")
    print("diagnostics written to %s" % out_dir)
    return 0


def cmd_select(args):
    """Rank fits of the same data by the DIC each fit recorded on its training events.

    Every file a manifest names is checked against its sha256, and none is
    parsed.
    """
    if len(args.manifests) < 2:
        raise CliError("need >= 2 fit manifests to compare")
    loaded = []
    data_keys = set()
    for mpath in args.manifests:
        manifest = _fit_manifest(
            mpath, ("settings", "sequences", "covariates", "posterior", "dic"))
        seqs, cov_entry = _data_entries(manifest, mpath)
        posterior, d = manifest["posterior"], manifest["dic"]
        _check_entry("posterior", posterior, [name for name, _, _ in _POSTERIOR], mpath)
        _check_entry("dic", d, ("dic", "p_d", "mean_deviance"), mpath)
        outputs = [posterior[name] for name, _, _ in _POSTERIOR]
        for entry in outputs:
            _check_entry("posterior", entry, ("file", "sha256"), mpath)
        for entry in seqs + ([cov_entry] if cov_entry is not None else []) + outputs:
            _read_checked(entry["file"], entry["sha256"])
        data_keys.add((manifest["settings"].get("n_train"), tuple(s["sha256"] for s in seqs)))
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
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit the hierarchical model")
    p_fit.add_argument("--config", required=True)
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
