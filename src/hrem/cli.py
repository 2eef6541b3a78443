"""Command-line interface: simulate, fit, predict, diagnose, select.

Every command takes a JSON config (or a fit manifest) and writes its
outputs next to a manifest carrying content hashes, so runs are
reproducible byte-for-byte given the same config and seed.  A command that
reads a manifest checks the files it names against those hashes.

Exit codes: 0 success, 1 usage/data error, 2 nonconvergence.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import hashlib
import io
import itertools
import json
import math
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
from hrem.simulate import SimulationExplosion, simulate_hierarchical
from hrem.stats import StatisticSpec, pshift_label, unique_stat_table
from hrem.tempering import _check_ladder, run_parallel_tempering


class CliError(Exception):
    """A usage or data error: the command prints it and exits 1."""


def _read_checked(path, sha256=None, entry=None):
    """The bytes of a file and their sha256, checked against `sha256` when given.

    `entry` names the config or manifest entry that gave `path`, for the
    error when `path` is not a string.
    """
    if not isinstance(path, str):
        raise CliError("%s: 'file' must be a string, got %r" % (entry, path))
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
    """The JSON object in the config or manifest at `path`."""
    try:
        doc = json.loads(_read_checked(path)[0].decode("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise CliError("%s is not a UTF-8 JSON document: %s" % (path, exc))
    if not isinstance(doc, dict):
        raise CliError("%s does not hold a JSON object" % path)
    return doc


def _require(cfg, key, where="config"):
    if key not in cfg:
        raise CliError("missing required field %r in %s" % (key, where))


def _write(path, text):
    """Write `text` to `path` in UTF-8 and return the sha256 of its bytes."""
    data = text.encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise CliError("cannot write %s: %s" % (path, exc))
    return hashlib.sha256(data).hexdigest()


def _write_json(path, doc):
    """Write `doc` to `path` as JSON; its manifest entry {file, sha256}."""
    return {"file": path, "sha256": _write(path, json.dumps(doc, indent=1, sort_keys=True))}


def _make_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise CliError("cannot make the directory %s: %s" % (path, exc))


def _resolve_spec(values, cov, where):
    """The spec of a config's checked `preset` or `spec`, exactly one of which it gives."""
    if (values["preset"] is None) == (values.get("spec") is None):
        raise CliError("%s: give exactly one of 'preset' and 'spec'" % where)
    preset = values["preset"]
    if preset in _SYN:
        return syn52().spec
    if preset is not None:
        return classroom_spec(preset)
    try:
        return StatisticSpec.from_obj(values["spec"], cov)
    except ValueError as exc:
        raise CliError("%s: %s" % (where, exc))


def _parse(entry, name, load, *args, **kw):
    """`load` of the entry `name`'s file, checked against its sha256 if any; and the digest."""
    data, digest = _read_checked(entry["file"], entry.get("sha256"), name)
    try:
        return load(io.StringIO(data.decode("utf-8")), *args, **kw), digest
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CliError("failed to load %s: %s" % (entry["file"], exc))


# ---------------------------------------------------------------------------
# config keys


# A JSON value type: its name in errors and the README, its test and its conversion.
_Type = collections.namedtuple("_Type", "name test convert", defaults=(lambda value: value,))
# A config key: its type, its default, its least value, the modes that read it
# (None: every mode), the modes that accept it unread, and whether a fit
# manifest's `settings` record it.
_Key = collections.namedtuple("_Key", "type default least modes unread recorded",
                              defaults=(None, None, None, (), False))


def _is_number(value):
    """An int or a finite float: not true or false, NaN or an infinity."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)


def _one_of(*choices):
    return _Type("one of " + ", ".join(choices), lambda value: value in choices)


_INTEGER = _Type("an integer", lambda value: _is_number(value) and value % 1 == 0, int)
_NUMBER = _Type("a number", _is_number, float)
_NUMBERS = _Type("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v)),
                 lambda value: [float(t) for t in value])
_STRING = _Type("a string", lambda value: isinstance(value, str))
_PRESET = _Type("a preset: syn52, syn6 or A1..G3", lambda value: value in preset_names())
_SPEC = _Type("a list of effects", lambda value: isinstance(value, list))
_REQUIRED = object()  # the default of a key that a config must give


class _ByMode(dict):
    """A default that depends on the mode."""


def _check_config(cfg, keys, where, mode_of=lambda given: None, prefix=""):
    """The mode (`mode_of` the given values), and the value of each key that it reads:
    the config's, checked, or the default where the config leaves it out or null."""
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise CliError("unknown %skey(s) %s in %s"
                       % (prefix, ", ".join(map(repr, unknown)), where))
    given = {key: value for key, value in cfg.items() if value is not None}
    for key, value in given.items():
        kind, least = keys[key].type, keys[key].least
        if not kind.test(value):
            raise CliError("%s: %s%s must be %s, not %s"
                           % (where, prefix, key, kind.name, json.dumps(value)))
        if least is not None and value < least:
            raise CliError("%s: %s%s=%s is below %d" % (where, prefix, key, value, least))
    mode, values = mode_of(given), {}
    for key, decl in keys.items():
        if decl.modes is None or mode in decl.modes:
            value = given.get(key, decl.default)
            value = value[mode] if isinstance(value, _ByMode) else value
            if value is _REQUIRED:
                raise CliError("missing required field %r in %s" % (key, where))
            try:
                values[key] = None if value is None else decl.type.convert(value)
            except ValueError as exc:
                raise CliError("%s: %s%s: %s" % (where, prefix, key, exc))
        elif key in given and mode not in decl.unread:
            raise CliError("%s: the %s mode does not read %r" % (where, mode, key))
    return mode, values


# A simulate's mode is its preset syn52 or syn6, or "design" for a config that
# gives its own spec (or a classroom preset), actors and mu.
_SYN = ("syn52", "syn6")
_SIMULATE = {
    "seed": _Key(_INTEGER, _REQUIRED, 0),
    "out_dir": _Key(_STRING, "hrem_sim"),
    "preset": _Key(_PRESET),
    "spec": _Key(_SPEC, modes=("design",)),
    "covariates": _Key(_STRING, modes=("design",)),
    "n_actors": _Key(_INTEGER, _REQUIRED, 2, ("design",)),
    "broadcast": _Key(_Type("true or false", lambda value: isinstance(value, bool)), False,
                      modes=("design",)),
    "baserate": _Key(_NUMBER, 0.0, modes=_SYN),
    "mu": _Key(_NUMBERS, _ByMode(syn52=None, syn6=None, design=_REQUIRED)),
    "sigma": _Key(_Type("a number or a list of numbers", lambda v: _is_number(v) or
                        _NUMBERS.test(v)), _ByMode(syn52=0.0, syn6=1.0, design=0.0)),
    "k": _Key(_INTEGER, _ByMode(syn52=1, syn6=20, design=1), 1),
    "n_events": _Key(_INTEGER, least=1),
    "tau": _Key(_NUMBER),
}

# A fit's mode is its sampler.
_MCMC = ("collapsed", "tempering")
# The readers of the data keys and n_train check them against the data.
_FIT = {
    "seed": _Key(_INTEGER, _REQUIRED, 0),
    "out_dir": _Key(_STRING, "hrem_fit"),
    "from_manifest": _Key(_STRING),
    "sequences": _Key(_Type("a list of {file, tau} entries", lambda _: True)),
    "covariates": _Key(_Type("a {file} entry", lambda _: True)),
    "broadcast": _Key(_Type("a label", lambda _: True)),
    "preset": _Key(_PRESET),
    "spec": _Key(_SPEC),
    "sampler": _Key(_one_of("collapsed", "tempering", "map"), "collapsed", recorded=True),
    "hyper": _Key(_Type("an object", lambda value: isinstance(value, dict)), {}, recorded=True),
    "n_train": _Key(_Type("an integer in 1..each sequence's events", lambda _: True),
                    recorded=True),
    "n_burnin": _Key(_INTEGER, 500, 0, _MCMC, recorded=True),
    "n_keep": _Key(_INTEGER, 500, 1, _MCMC, recorded=True),
    "thin": _Key(_INTEGER, 1, 1, _MCMC, recorded=True),
    "rhat_max": _Key(_NUMBER, 1.2, modes=_MCMC),
    # Tempering accepts mu_update without reading it (the benchmark's config sets it).
    "mu_update": _Key(_one_of("conjugate", "paper"), "conjugate", modes=("collapsed",),
                      unread=("tempering",), recorded=True),
    "ladder": _Key(_NUMBERS._replace(convert=lambda value: list(_check_ladder(value))),
                   [1, 2, 4, 8, 16], modes=("tempering",), recorded=True),
    "t_swap": _Key(_INTEGER, 10, 0, ("tempering",), recorded=True),
}
_HYPER = {f.name: _Key(_NUMBER, f.default) for f in dataclasses.fields(Hyperparams)}


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args):
    mode, v = _check_config(_read_config(args.config), _SIMULATE, args.config, lambda given:
                            given["preset"] if given.get("preset") in _SYN else "design")
    if (v["n_events"] is None) == (v["tau"] is None):
        raise CliError("%s: give exactly one of 'n_events' and 'tau'" % args.config)
    out_dir = v["out_dir"]
    _make_dir(out_dir)

    if mode == "design":
        cov = CovariateSet()
        if v["covariates"] is not None:
            cov, _ = _parse({"file": v["covariates"]}, "%s: 'covariates'" % args.config,
                            load_covariates)
        spec = _resolve_spec(v, cov, args.config)
        risk = build_risk_set(v["n_actors"], include_broadcast=v["broadcast"])
        mu = v["mu"]
    else:
        design = syn52(baserate=v["baserate"])
        spec, risk, cov = design.spec, design.risk, design.cov
        mu = design.beta if v["mu"] is None else v["mu"]
    mu, sigma = np.asarray(mu, dtype=float), np.asarray(v["sigma"], dtype=float)
    if mu.shape != (spec.p,):
        raise CliError("mu has length %d, spec has P=%d" % (mu.size, spec.p))

    try:
        pairs = simulate_hierarchical(mu, sigma, v["k"], spec, risk, cov, seed=v["seed"],
                                      n_events=v["n_events"], tau=v["tau"])
    except (ValueError, SimulationExplosion) as exc:
        raise CliError("%s: %s" % (args.config, exc))
    sequences = []
    for idx, (hist, beta_k) in enumerate(pairs):
        fname = os.path.join(out_dir, "events_%03d.csv" % idx)
        sequences.append({"file": fname, "tau": hist.tau, "n_events": hist.m,
                          "sha256": _write(fname, events_to_csv(hist))})
    covariates = _write_json(os.path.join(out_dir, "covariates.json"),
                             _covariates_document(cov, risk.n_actors))
    truths = _write_json(os.path.join(out_dir, "truths.json"), {
        "mu": mu.tolist(),
        "sigma": np.broadcast_to(sigma, mu.shape).tolist(),
        "beta_k": [b.tolist() for _, b in pairs],
    })
    manifest = {
        "command": "simulate",
        "seed": v["seed"],
        "preset": v["preset"],
        "spec": json.loads(spec.to_json()),
        "n_actors": risk.n_actors,
        "broadcast": risk.broadcast_actor,
        "sequences": sequences,
        "covariates": covariates,
        "truths": truths,
    }
    path = _write_json(os.path.join(out_dir, "manifest.json"), manifest)["file"]
    print("wrote %d sequences to %s (manifest: %s)" % (len(sequences), out_dir, path))
    return 0


# ---------------------------------------------------------------------------
# fit

# The data keys of a fit config; a manifest holds them with `n_actors`.
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
        name = "%s: 'sequences' entry %d" % (where, idx)
        (hist, _), digest = _parse(e, name, load_history, "csv", tau=e["tau"],
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
        cov, digest = _parse(cov_entry, "%s: 'covariates' entry" % where, load_covariates)
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
        text = header + "\n" + "\n".join(rows) + "\n"
        paths[name] = {"file": path, "sha256": _write(path, text)}
    return paths


def _load_posterior(manifest, where="fit manifest"):
    """Read the posterior CSVs of the manifest `where` in row order, after checking each sha256."""
    dims = manifest["dims"]
    size = {"draw": dims["draws"], "sequence": dims["sequences"], "effect": dims["effects"]}
    arrays = {}
    for name, field, header in _POSTERIOR:
        entry = manifest["posterior"][name]
        data, _ = _read_checked(entry["file"], entry["sha256"],
                                "%s: 'posterior' entry %r" % (where, name))
        values = [float(r[r.rindex(",") + 1:]) for r in data.decode("utf-8").splitlines()[1:]]
        arrays[field] = np.array(values).reshape([size[c] for c in header.split(",")[:-1]])
    return PosteriorSamples(
        **arrays, n_burnin=manifest["settings"].get("n_burnin", 0),
        n_keep=dims["draws"], thin=manifest["settings"].get("thin", 1),
    )


def cmd_fit(args):
    cfg = _read_config(args.config)
    sampler, v = _check_config(cfg, _FIT, args.config,
                               lambda given: given.get("sampler", _FIT["sampler"].default))
    _, hyper_values = _check_config(v["hyper"], _HYPER, args.config, prefix="hyper ")
    try:
        hyper = Hyperparams(**hyper_values)
    except ValueError as exc:
        raise CliError("bad hyper value in %s: %s" % (args.config, exc))
    out_dir = v["out_dir"]
    _make_dir(out_dir)

    where, doc = args.config, cfg
    if v["from_manifest"] is not None:
        clash = [key for key in _DATA_KEYS if cfg.get(key) is not None]
        if clash:
            raise CliError("%s: 'from_manifest' names the data, so %s must go"
                           % (args.config, ", ".join(map(repr, clash))))
        where, doc = v["from_manifest"], _read_config(v["from_manifest"])
    histories, risk, cov, data = _load_data(doc, where)
    spec = _resolve_spec(v, cov, args.config)
    try:
        spec.check(cov, risk.n_actors)
    except KeyError as exc:
        raise CliError("spec/data mismatch: %s" % exc)
    tables = _training_tables(spec, histories, risk, cov, v["n_train"], data["sequences"])

    settings = {key: v[key] for key, decl in _FIT.items() if decl.recorded and key in v}
    # The recorded keys that only some samplers read are the sampler's run settings.
    run = {key: value for key, value in settings.items() if _FIT[key].modes}
    if sampler == "collapsed":
        samples = run_collapsed_sampler(tables, hyper, **run, seed=v["seed"])
    elif sampler == "tempering":
        samples = run_parallel_tempering(tables, hyper, **run, seed=v["seed"])
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
    diag = {name: (x.tolist() if isinstance(x, np.ndarray) else x)
            for name, x in samples.diagnostics.items()}
    manifest = {
        "command": "fit",
        "seed": v["seed"],
        "out_dir": out_dir,
        "spec": json.loads(spec.to_json()),
        **data,
        "sequences": [dict(e, n_train=v["n_train"], table={"events": t.n_events,
                                                            "risk_rows": len(risk),
                                                            "unique_rows": t.n_unique})
                      for e, t in zip(data["sequences"], tables)],
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
    path = _write_json(os.path.join(out_dir, "manifest.json"), manifest)["file"]
    if sampler == "map":
        status, failed = "converged=%s" % diag["converged"], not diag["converged"]
        why = "MAP stopped before converging"
    else:
        # A NaN R-hat (fewer than 4 kept draws) fails too: it cannot show convergence.
        rhat_max = v["rhat_max"]
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
        samples = _load_posterior(manifest, manifest_path)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CliError("%s is not a complete fit manifest: %s %s"
                       % (manifest_path, type(exc).__name__, exc))
    return manifest, spec, risk, cov, histories, samples


def cmd_predict(args):
    manifest, spec, risk, cov, histories, samples = _reload_fit(args.manifest)
    for z in args.z:
        if z < 1 or z > len(risk):
            raise CliError("z=%d outside 1..|R|=%d" % (z, len(risk)))
    n_train = args.n_train if args.n_train is not None else manifest["settings"].get("n_train")
    if n_train is None:
        raise CliError("no training cutoff: pass --n-train or fit with n_train")
    if n_train < 1:
        raise CliError("n_train=%d is below 1" % n_train)
    beta_hat = samples.beta_mean()
    rng = np.random.default_rng(manifest["seed"])
    rows = ["sequence,z,recall_model,recall_baseline"]
    for k, hist in enumerate(histories):
        if n_train >= hist.m:
            rows.extend("%d,%d,," % (k, z) for z in args.z)
            continue
        model = score_events(beta_hat[k], hist, spec, risk, cov, start=n_train)
        baseline = diagnostics.baseline_counts(hist, risk, n_train)
        for z in args.z:
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
    _make_dir(out_dir)
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
        s, r = hist.senders.tolist(), hist.recipients.tolist()
        # The columns that start each event's rows: sequence, event, t, sender and recipient.
        event = list(map(",".join, zip([str(k)] * hist.m, map(str, range(hist.m)),
                                       map(repr, hist.times.tolist()),
                                       map(names.__getitem__, s), map(names.__getitem__, r))))
        labels = list(map(pshift_label, [None, *zip(s, r)], zip(s, r)))
        pshift = map({None: ""}.get, labels, labels)  # an event of no kind: an empty field
        res_rows += map(",".join, zip(event, pshift, map(repr, scores.deviance.tolist())))
        prob_rows += map(",".join, zip(event, map(repr, scores.prob.tolist())))
        q = diagnostics.surprise(scores.higher, scores.ties, hist.senders, hist.recipients,
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
        named = [("'sequences' entry %d" % idx, e) for idx, e in enumerate(seqs)]
        named += [("'covariates' entry", cov_entry)] if cov_entry is not None else []
        for name, _, _ in _POSTERIOR:
            _check_entry("posterior", posterior[name], ("file", "sha256"), mpath)
            named.append(("'posterior' entry %r" % name, posterior[name]))
        for name, entry in named:
            _read_checked(entry["file"], entry["sha256"], "%s: %s" % (mpath, name))
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Exit 1, as every usage error does: exit 2 means nonconvergence."""
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def build_parser():
    def cutoffs(text):
        return [int(z) for z in text.split(",")]

    parser = _Parser(
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
    p_pred.add_argument("--z", required=True, type=cutoffs,
                        help="comma-separated cutoffs, e.g. 5,20")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
